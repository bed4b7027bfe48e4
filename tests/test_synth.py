import numpy as np
import pytest

from rsvptyping.synth import LabeledDataset, SplitIndices, SynthConfig, generate, split
from rsvptyping.models import train_logistic_evidence


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
        log_pos, log_neg = model.predict_batch(data)
        assert (log_pos >= log_neg).tolist() == (data.labels == 1).tolist()

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


class TestSplit:
    def test_eighty_twenty_sizes(self):
        data = generate(small_config(n_epochs=100, target_fraction=0.1))
        splits = split(data, n_splits=3, test_fraction=0.2, seed=0)
        assert len(splits) == 3
        for s in splits:
            assert len(s.train) == 80 and len(s.test) == 20

    def test_same_seed_same_splits(self):
        data = generate(small_config())
        assert split(data, seed=4) == split(data, seed=4)
        assert split(data, seed=4) != split(data, seed=5)

    def test_partition_property(self):
        data = generate(small_config(n_epochs=150))
        for s in split(data, n_splits=4, seed=1):
            assert sorted(s.train + s.test) == list(range(150))

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

    def test_dataset_split_attachment(self):
        data = generate(small_config(n_epochs=100))
        splits = split(data, n_splits=2, seed=0)
        with_meta = data.with_splits(splits)
        assert with_meta.splits == splits
        with pytest.raises(ValueError):
            LabeledDataset(data.data, data.labels, splits=(SplitIndices((0, 1), (2,)),))
