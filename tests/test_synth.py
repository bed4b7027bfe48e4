import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsvptyping import dsp
from rsvptyping.dsp import design_bandpass
from rsvptyping.cli import main
from rsvptyping.synth import SPAN_EPOCHS, LabeledDataset, SynthConfig, generate, split
from rsvptyping.models import train_logistic_evidence

from oracles import reference_generate


def small_config(**overrides):
    base = dict(
        n_epochs=200,
        channels=3,
        rate=125.0,
        trial_ms=500.0,
        erp_latency_ms=300.0,
        erp_width_ms=60.0,
        erp_amplitude=1.0,
        noise_std=1.0,
        target_fraction=0.2,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_defaults_are_valid(self):
        config = SynthConfig()
        assert config.samples_per_epoch == 62
        assert 0 < config.target_fraction < 1

    def test_bump_must_fit_in_window(self):
        with pytest.raises(ValueError):
            small_config(erp_latency_ms=480.0, erp_width_ms=60.0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            small_config(target_fraction=0.0)
        with pytest.raises(ValueError):
            small_config(target_fraction=1.0)

    def test_erp_channel_bounds(self):
        with pytest.raises(ValueError):
            small_config(erp_channels=(3,))

    def test_template_peaks_at_latency(self):
        config = small_config()
        template = config.template()
        peak_sample = int(np.argmax(template))
        assert abs(peak_sample / config.rate * 1000.0 - 300.0) <= 1000.0 / config.rate
        # peak lands within half a sample of the latency, so just below 1
        assert 0.99 * config.erp_amplitude <= template.max() <= config.erp_amplitude


class TestGenerate:
    def test_exact_label_count(self):
        data = generate(small_config(n_epochs=1000, target_fraction=0.1))
        assert int(data.labels.sum()) == 100

    def test_reproducible_bit_for_bit(self):
        a = generate(small_config())
        b = generate(small_config())
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = generate(small_config(seed=1))
        b = generate(small_config(seed=2))
        assert not np.array_equal(a.data[0], b.data[0])

    def test_zero_amplitude_classes_indistinguishable(self):
        data = generate(small_config(n_epochs=2000, erp_amplitude=0.0))
        stacked = data.data
        labels = data.labels
        diff = stacked[labels == 1].mean(axis=0) - stacked[labels == 0].mean(axis=0)
        pooled_std = stacked.std()
        n_pos, n_neg = (labels == 1).sum(), (labels == 0).sum()
        sigma = pooled_std * np.sqrt(1 / n_pos + 1 / n_neg)
        assert np.max(np.abs(diff)) < 5 * sigma

    def test_noiseless_dataset_is_separable(self):
        data = generate(small_config(n_epochs=60, noise_std=0.0))
        model = train_logistic_evidence(data)
        assert (model.predict_batch(data) >= 0.0).tolist() == (data.labels == 1).tolist()

    def test_mean_difference_recovers_template(self):
        config = small_config(n_epochs=10000, target_fraction=0.3, channels=2)
        data = generate(config)
        stacked = data.data
        labels = data.labels
        diff = stacked[labels == 1].mean(axis=0) - stacked[labels == 0].mean(axis=0)
        injected = np.tile(config.template(), (config.channels, 1))
        corr = np.corrcoef(diff.reshape(-1), injected.reshape(-1))[0, 1]
        assert corr >= 0.95

    def test_erp_limited_to_selected_channels(self):
        config = small_config(n_epochs=4000, erp_channels=(0,), erp_amplitude=3.0)
        data = generate(config)
        stacked = data.data
        labels = data.labels
        diff = stacked[labels == 1].mean(axis=0) - stacked[labels == 0].mean(axis=0)
        assert np.abs(diff[0]).max() > 10 * np.abs(diff[1]).max()

    def test_float32_quantization(self):
        data = generate(small_config())
        arr = data.data
        np.testing.assert_array_equal(arr, arr.astype(np.float32).astype(np.float64))

    def test_degenerate_fraction_for_count(self):
        with pytest.raises(ValueError):
            generate(small_config(n_epochs=10, target_fraction=0.01))


# the README walkthrough's synth config, and the sha256 of the data.bin it
# writes; like the golden constants, the hash depends on the BLAS kernel's
# rounding of the filter products
README_SYNTH = (
    "n_epochs = 6000\nchannels = 6\ntarget_fraction = 0.0357142857  # 1/28\nseed = 0\n"
)
README_DATA_SHA256 = "6c1aae31e041215a2c5d5731c46a74bcaed66dae092cdbb064a7d25b8936172b"


@st.composite
def chunked_configs(draw):
    """Configs with epoch counts below, at and above one chunk, ERP channel
    subsets, noise scales other than 1, and trials whose warmup plus kept
    samples span one filter block (500 ms at 125 Hz: 124 samples) or more
    (700 and 1200 ms: 174 and 300)."""
    channels = draw(st.integers(1, 3))
    erp = draw(st.one_of(st.none(), st.lists(
        st.integers(0, channels - 1), min_size=1, max_size=channels, unique=True)))
    n_epochs = draw(st.one_of(
        st.integers(20, SPAN_EPOCHS - 1), st.just(SPAN_EPOCHS),
        st.integers(SPAN_EPOCHS + 1, 2 * SPAN_EPOCHS + 40)))
    return SynthConfig(
        n_epochs=n_epochs,
        channels=channels,
        trial_ms=draw(st.sampled_from([500.0, 700.0, 1200.0])),
        erp_amplitude=draw(st.floats(0.0, 2.0)),
        noise_std=draw(st.floats(0.0, 3.0)),
        target_fraction=draw(st.floats(0.05, 0.5)),
        erp_channels=None if erp is None else tuple(erp),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestChunkedGenerate:
    @settings(max_examples=25, deadline=None)
    @example(SynthConfig(n_epochs=SPAN_EPOCHS, channels=2, noise_std=0.5, seed=1))
    @example(SynthConfig(n_epochs=SPAN_EPOCHS + 1, channels=3, trial_ms=1200.0,
                         erp_channels=(2, 0), target_fraction=0.1, seed=2))
    @given(config=chunked_configs())
    def test_matches_whole_array_reference(self, config):
        got = generate(config)
        want = reference_generate(config)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.data.shape == want.data.shape and got.data.dtype == np.float32
        # one float32 ulp: both round the same float64 noise through float32,
        # and the two filter products may differ in the last float64 bit
        ulp = np.spacing(np.abs(want.data).astype(np.float32)).astype(np.float64)
        assert np.all(np.abs(got.data - want.data) <= ulp)

    def test_filter_operators_are_built_once(self):
        # the README dataset is filtered in ceil(6000 / SPAN_EPOCHS) chunks,
        # and the cascade's block operators are built for the first of them:
        # each cache miss is one call of the unmemoized builder
        dsp._block_operators.cache_clear()
        generate(SynthConfig(n_epochs=6000, channels=6, target_fraction=0.0357142857, seed=0))
        assert 6000 > SPAN_EPOCHS
        assert dsp._block_operators.cache_info().misses == 1
        for array in dsp._block_operators(tuple(design_bandpass(125.0, 1.0, 20.0, 2)), 124):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert dsp._block_operators.cache_info().misses == 1

    def test_readme_dataset_bytes_are_pinned(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(README_SYNTH)
        out = tmp_path / "data.bin"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == README_DATA_SHA256

    def test_peak_memory_stays_near_the_output(self):
        tracemalloc.start()
        try:
            dataset = generate(SynthConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 output plus three float64 chunks of warmup and kept
        # samples: the white noise buffer and the filter's working arrays
        n, channels, samples = dataset.data.shape
        chunk = SPAN_EPOCHS * channels * 2 * samples * 8
        bound = dataset.data.nbytes + 3 * chunk
        # no looser than the bound of a float64 output, 1.5 times its bytes
        assert bound <= 1.5 * n * channels * samples * 8
        assert peak <= bound


class TestSplit:
    def test_eighty_twenty_sizes(self):
        data = generate(small_config(n_epochs=100, target_fraction=0.1))
        splits = split(data, n_splits=3, test_fraction=0.2, seed=0)
        assert len(splits) == 3
        for s in splits:
            assert len(s.train) == 80 and len(s.test) == 20

    def test_parts_are_sorted_int64_arrays(self):
        data = generate(small_config(n_epochs=150))
        for s in split(data, n_splits=3, seed=1):
            for part in s:
                assert isinstance(part, np.ndarray) and part.dtype == np.int64
                assert np.all(np.diff(part) > 0)

    def test_same_seed_same_splits(self):
        data = generate(small_config())

        def same(a, b):
            return all(np.array_equal(x, y) for s, t in zip(a, b) for x, y in zip(s, t))

        assert same(split(data, seed=4), split(data, seed=4))
        assert not same(split(data, seed=4), split(data, seed=5))

    def test_partition_property(self):
        data = generate(small_config(n_epochs=150))
        for s in split(data, n_splits=4, seed=1):
            assert sorted(np.concatenate([s.train, s.test])) == list(range(150))

    def test_stratification(self):
        data = generate(small_config(n_epochs=500, target_fraction=0.1))
        labels = data.labels
        for s in split(data, n_splits=5, seed=2):
            test_frac = labels[list(s.test)].mean()
            assert abs(test_frac * len(s.test) - 0.1 * len(s.test)) <= 1.0

    def test_both_classes_everywhere(self):
        data = generate(small_config(n_epochs=60, target_fraction=0.1))
        labels = data.labels
        for s in split(data, n_splits=5, seed=3):
            for part in (s.train, s.test):
                part_labels = labels[list(part)]
                assert 0 < part_labels.sum() < len(part_labels)

    def test_too_small_to_stratify(self):
        data = generate(small_config(n_epochs=20, target_fraction=0.1))
        # 2 positives: a 0.2 test share of 2 rounds to 0
        with pytest.raises(ValueError):
            split(data, n_splits=1, test_fraction=0.2)


class TestLabeledDataset:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_data_is_kept_as_given(self, dtype):
        data = np.zeros((4, 2, 3), dtype=dtype)
        dataset = LabeledDataset(data, np.array([0, 1, 0, 1]))
        assert dataset.data is data

    @pytest.mark.parametrize("dtype", [np.int32, np.float16, bool])
    def test_other_dtypes_become_float64(self, dtype):
        data = np.ones((4, 2, 3), dtype=dtype)
        dataset = LabeledDataset(data, np.array([0, 1, 0, 1]))
        assert dataset.data.dtype == np.float64
        np.testing.assert_array_equal(dataset.data, 1.0)

    def test_subset_keeps_the_dtype(self):
        dataset = generate(small_config(n_epochs=20))
        part = dataset.subset(np.array([3, 1]))
        assert part.data.dtype == np.float32
        np.testing.assert_array_equal(part.data, dataset.data[[3, 1]])

    def test_subset_is_a_row_view_and_subsets_compose(self):
        dataset = generate(small_config(n_epochs=20))
        outer = np.array([9, 2, 15, 4, 11, 0])
        part = dataset.subset(outer)
        assert part.epochs is dataset.epochs
        assert np.shares_memory(part.epochs, dataset.data)
        inner = np.array([5, 1, 3])
        nested = part.subset(inner)
        assert nested.epochs is dataset.epochs
        np.testing.assert_array_equal(nested.rows, outer[inner])
        np.testing.assert_array_equal(nested.labels, dataset.labels[outer[inner]])
        assert len(nested) == 3

    def test_view_data_is_the_copy_it_replaces(self):
        dataset = generate(small_config(n_epochs=20))
        rows = np.array([7, 3, 3, 18, 0])
        view = dataset.subset(rows)
        copy = dataset.data[rows]
        assert view.data.dtype == copy.dtype and view.data.shape == copy.shape
        assert view.data.tobytes() == copy.tobytes()
        # a whole dataset holds its stack itself
        assert dataset.data is dataset.epochs

    @pytest.mark.parametrize("indices", [[], [[0, 1]]])
    def test_subset_needs_a_nonempty_vector(self, indices):
        dataset = generate(small_config(n_epochs=20))
        with pytest.raises(ValueError, match="nonempty vector of indices"):
            dataset.subset(indices)
