import tracemalloc

import numpy as np
import pytest

from rsvptyping import models
from rsvptyping.dsp import (
    BiquadCoefficients,
    RawRecording,
    design_bandpass,
    design_notch,
    downsample,
    epoch,
    exclude_channels,
    filter_forward,
)
from rsvptyping.models import LogisticEvidenceModel, LogisticModel, ZScoreStats
from rsvptyping.synth import LabeledDataset

from oracles import (
    analytic_butterworth_bandpass_db,
    measured_gain_db,
    reference_zscore_array,
    reference_zscore_stats,
)

RATE = 250.0
NFFT = 16000  # 250 / 16000 = 1/64 Hz bins: 1, 5, 10, 20, 50, 60 Hz all on-bin


def notch_gain(freq):
    coeffs = design_notch(RATE, 50.0, 30.0)
    return measured_gain_db(lambda x: filter_forward(coeffs, x), RATE, freq, n=NFFT)


def bandpass_gain(freq, low=1.0, high=20.0, order=2):
    cascade = design_bandpass(RATE, low, high, order)
    return measured_gain_db(lambda x: filter_forward(cascade, x), RATE, freq, n=NFFT)


class TestNotch:
    def test_deep_attenuation_at_center(self):
        assert notch_gain(50.0) <= -20.0

    def test_passband_nearly_untouched(self):
        assert notch_gain(5.0) >= -1.0

    def test_dc_passes_with_unit_gain(self):
        coeffs = design_notch(RATE, 50.0, 30.0)
        out = filter_forward(coeffs, np.full(4000, 3.7))
        np.testing.assert_allclose(out[-100:], 3.7, rtol=1e-9)

    def test_center_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            design_notch(RATE, 125.0)
        with pytest.raises(ValueError):
            design_notch(RATE, 200.0)


class TestBandpass:
    def test_dc_rejected(self):
        cascade = design_bandpass(RATE)
        out = filter_forward(cascade, np.ones(6000))
        assert abs(out[-1]) < 1e-6

    def test_passband_and_stopband(self):
        assert bandpass_gain(10.0) >= -3.0
        assert bandpass_gain(60.0) <= -12.0

    def test_impulse_response_energy_converges(self):
        cascade = design_bandpass(RATE)
        impulse = np.zeros(60000)
        impulse[0] = 1.0
        h = filter_forward(cascade, impulse)
        # tail energy is a vanishing share of the total
        total = float(np.sum(h**2))
        tail = float(np.sum(h[-1000:] ** 2))
        assert total < np.inf
        assert tail < 1e-12 * total

    def test_band_edges_match_analytic_design(self):
        for edge in (1.0, 20.0):
            measured = bandpass_gain(edge)
            analytic = analytic_butterworth_bandpass_db(RATE, 1.0, 20.0, 2, edge)
            assert analytic == pytest.approx(-3.0103, abs=0.001)
            assert abs(measured - analytic) <= 0.5

    def test_response_matches_analytic_across_band(self):
        cascade = design_bandpass(RATE)
        for freq in (0.5, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0):
            measured = measured_gain_db(lambda x: filter_forward(cascade, x), RATE, freq, n=NFFT)
            analytic = analytic_butterworth_bandpass_db(RATE, 1.0, 20.0, 2, freq)
            if analytic > -60.0:
                assert abs(measured - analytic) <= 0.5, f"{freq} Hz: {measured} vs {analytic}"

    def test_sections_are_stable(self):
        for low, high, order in [(1, 20, 2), (0.5, 40, 2), (1, 20, 4), (2, 8, 3)]:
            for section in design_bandpass(RATE, low, high, order):
                assert np.all(np.abs(section.poles()) < 1.0)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            design_bandpass(RATE, 20.0, 1.0)
        with pytest.raises(ValueError):
            design_bandpass(RATE, 1.0, 130.0)

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ValueError):
            BiquadCoefficients(b0=1, b1=0, b2=0, a1=0.0, a2=1.01)


class TestFilterForward:
    def test_zero_in_zero_out(self):
        coeffs = design_notch(RATE)
        np.testing.assert_array_equal(filter_forward(coeffs, np.zeros(100)), np.zeros(100))

    def test_identity_filter(self):
        ident = BiquadCoefficients(b0=1.0, b1=0.0, b2=0.0, a1=0.0, a2=0.0)
        impulse = np.zeros(16)
        impulse[0] = 1.0
        np.testing.assert_array_equal(filter_forward(ident, impulse), impulse)

    def test_bandpass_shrinks_white_noise_variance(self):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(20000)
        out = filter_forward(design_bandpass(RATE), noise)
        # 1-20 Hz keeps well under half of a 125 Hz-wide spectrum
        assert np.var(out[2000:]) < 0.5 * np.var(noise)

    def test_filters_along_last_axis(self):
        coeffs = design_notch(RATE)
        x = np.random.default_rng(1).standard_normal((3, 500))
        out = filter_forward(coeffs, x)
        np.testing.assert_allclose(out[1], filter_forward(coeffs, x[1]), atol=1e-15)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 0)])
    def test_no_samples_give_an_empty_float64_array(self, shape):
        out = filter_forward(design_bandpass(RATE), np.zeros(shape, dtype=np.int64))
        assert out.shape == shape and out.dtype == np.float64

    @pytest.mark.parametrize("shape", [(5,), (3, 130), (2, 0, 7)])
    def test_start_at_the_end_gives_an_empty_float64_array(self, shape):
        out = filter_forward(design_bandpass(RATE), np.ones(shape), start=shape[-1])
        assert out.shape == (*shape[:-1], 0) and out.dtype == np.float64

    @pytest.mark.parametrize("start", [-1, 11])
    def test_start_outside_the_signal_raises(self, start):
        with pytest.raises(ValueError, match="filter start"):
            filter_forward(design_bandpass(RATE), np.ones((2, 10)), start=start)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_long_signal_peak_memory_is_its_output_and_a_chunk(self, transposed):
        # 10 minutes of 8 channels at 256 Hz through the notch and bandpass
        # of `preprocess`: the output and one chunk's temporaries, where a
        # pass over the whole length held about three copies of the signal
        cascade = [design_notch(256.0), *design_bandpass(256.0)]
        rng = np.random.default_rng(2)
        signal = rng.standard_normal((153_600, 8)).T if transposed else \
            rng.standard_normal((8, 153_600))
        filter_forward(cascade, signal[:, :1000])  # builds the block operators
        tracemalloc.start()
        try:
            out = filter_forward(cascade, signal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes


class TestDownsampleAndEpoch:
    def make_recording(self, n=1000, rate=250.0, onsets=((101, 1), (400, 0))):
        rng = np.random.default_rng(5)
        return RawRecording(data=rng.standard_normal((2, n)), rate=rate, stim_onsets=onsets)

    def test_downsample_halves_rate_and_length(self):
        rec = downsample(self.make_recording(), 2)
        assert rec.rate == 125.0
        assert rec.n_samples == 500
        assert rec.stim_onsets[0].tolist() == [50, 1]  # 101 // 2

    def test_downsample_keeps_every_other_sample(self):
        original = self.make_recording()
        rec = downsample(original, 2)
        np.testing.assert_array_equal(rec.data, original.data[:, ::2])

    def test_downsample_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            downsample(self.make_recording(), 0)

    def test_epoch_window_length(self):
        rec = RawRecording(
            data=np.zeros((2, 500)), rate=125.0, stim_onsets=((0, 1), (100, 0))
        )
        data, labels, dropped = epoch(rec, window_ms=500.0)
        assert dropped == 0
        assert data.shape == (2, 2, 62)  # floor(62.5)
        assert labels.tolist() == [1, 0]

    def test_epoch_at_boundary_dropped(self):
        rec = RawRecording(
            data=np.arange(100, dtype=float)[None, :], rate=125.0,
            stim_onsets=((10, 1), (99, 0)),
        )
        data, labels, dropped = epoch(rec, window_ms=500.0)
        assert len(data) == 1 and dropped == 1
        assert data[0, 0, 0] == 10.0  # the kept epoch starts at its onset
        assert labels.tolist() == [1]

    def test_overlapping_onsets_share_samples(self):
        data = np.arange(200, dtype=float).reshape(1, 200)
        rec = RawRecording(data=data, rate=125.0, stim_onsets=((0, 0), (30, 1)))
        data, _, _ = epoch(rec, window_ms=500.0)
        np.testing.assert_array_equal(data[0, 0, 30:], data[1, 0, : 62 - 30])

    def test_epoch_count_invariant(self):
        rng = np.random.default_rng(9)
        onsets = tuple((int(s), int(rng.integers(2))) for s in sorted(rng.choice(990, 40, replace=False)))
        rec = RawRecording(data=rng.standard_normal((3, 1000)), rate=125.0, stim_onsets=onsets)
        data, labels, dropped = epoch(rec, window_ms=500.0)
        assert len(data) + dropped == len(onsets)
        assert len(labels) == len(data)

    def test_onset_validation(self):
        with pytest.raises(ValueError):
            RawRecording(data=np.zeros((1, 10)), rate=10.0, stim_onsets=((5, 1), (5, 0)))
        with pytest.raises(ValueError):
            RawRecording(data=np.zeros((1, 10)), rate=10.0, stim_onsets=((12, 1),))

    def test_onsets_are_stored_as_one_int64_array(self):
        rec = self.make_recording()
        assert rec.stim_onsets.dtype == np.int64
        assert rec.stim_onsets.tolist() == [[101, 1], [400, 0]]
        empty = RawRecording(data=np.zeros((1, 10)), rate=10.0, stim_onsets=())
        assert empty.stim_onsets.shape == (0, 2)

    @pytest.mark.parametrize("onsets", [((1, 0, 0),), ((1,),), [[]], 5])
    def test_onsets_must_be_pairs(self, onsets):
        with pytest.raises(ValueError, match="pair"):
            RawRecording(data=np.zeros((1, 10)), rate=10.0, stim_onsets=onsets)

    def test_exclude_channels(self):
        rec = self.make_recording()
        masked = exclude_channels(rec, [0])
        assert masked.n_channels == 1
        np.testing.assert_array_equal(masked.data[0], rec.data[1])
        with pytest.raises(ValueError):
            exclude_channels(rec, [0, 1])

    def test_pipeline_determinism(self):
        rec = self.make_recording()
        cascade = design_bandpass(RATE)

        def run():
            filtered = RawRecording(
                data=filter_forward(cascade, rec.data), rate=rec.rate, stim_onsets=rec.stim_onsets
            )
            data, _, _ = epoch(downsample(filtered, 2), window_ms=500.0)
            return data

        np.testing.assert_array_equal(run(), run())


def moment_zscore(eps, labels=None):
    """The z-score a fit derives from the class moments of the epochs, with
    alternating labels unless given."""
    labels = np.arange(len(eps)) % 2 if labels is None else labels
    return models._class_moments(LabeledDataset(eps, labels), scatter=False)[-1]


class TestZScore:
    """The per-channel z-score that every model fit derives from the class
    moments of the epochs this chain makes (see models._class_moments)."""

    def make_epochs(self, rng, n=50, channels=3, samples=20):
        return rng.standard_normal((n, channels, samples)) * 2 + 1

    def test_constant_channel_maps_to_zeros(self):
        eps = np.full((2, 1, 10), 4.2)
        stats = moment_zscore(eps)
        assert stats.std[0] == 1.0  # degenerate scale guard
        out = reference_zscore_array(stats, eps)
        np.testing.assert_allclose(out[0], np.zeros((1, 10)), atol=1e-12)

    def test_standardizes_training_distribution(self):
        rng = np.random.default_rng(17)
        eps = self.make_epochs(rng, n=400)
        stats = moment_zscore(eps)
        z = reference_zscore_array(stats, eps)
        np.testing.assert_allclose(z.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=(0, 2)), 1.0, atol=1e-12)

    def test_test_data_uses_train_stats_only(self):
        # a scorer applies the training stats to held-out epochs: shifting
        # every sample by 10 moves the score by 10 * sum(weights / std)
        rng = np.random.default_rng(21)
        train = self.make_epochs(rng, n=100)
        stats = moment_zscore(train)
        weights = rng.standard_normal(3 * 20)
        model = LogisticEvidenceModel(stats, LogisticModel(weights, 0.5))
        held = LabeledDataset(train[:1], [0])
        shifted = LabeledDataset(train[:1] + 10.0, [0])
        shift = 10.0 * np.sum(weights / np.repeat(stats.std, 20))
        np.testing.assert_allclose(model.predict_batch(shifted) - model.predict_batch(held),
                                   shift, atol=1e-12)

    def test_array_variant_matches(self):
        # the per-channel statistics are those of the epochs laid end to end,
        # to 1e-14 of the data's scale
        rng = np.random.default_rng(2)
        eps = self.make_epochs(rng, n=10)
        stats = moment_zscore(eps)
        joined = np.concatenate(list(eps), axis=1)
        np.testing.assert_allclose(stats.mean, joined.mean(axis=1), rtol=0, atol=1e-14)
        np.testing.assert_allclose(stats.std, joined.std(axis=1), rtol=1e-14)
        mean, std = reference_zscore_stats(eps)
        np.testing.assert_allclose(stats.mean, mean, rtol=0, atol=1e-14)
        np.testing.assert_allclose(stats.std, std, rtol=1e-14)

    def test_standardizing_leaves_the_input_unmodified(self):
        rng = np.random.default_rng(3)
        eps = self.make_epochs(rng)
        before = eps.copy()
        stats = moment_zscore(eps)
        LogisticEvidenceModel(stats, LogisticModel(np.ones(60), 0.0)).predict_batch(
            LabeledDataset(eps, np.zeros(len(eps), dtype=int)))
        assert np.array_equal(eps, before)

    def test_moments_peak_memory_is_a_block(self):
        # the training stack of the README dataset's first split, read a
        # block of rows at a time: one float64 buffer, the float32 rows
        # gathered into it and a float64 copy of the block's positive rows,
        # 20 bytes per sample of a block; a float64 copy of the stack would
        # take 37.5
        eps = np.random.default_rng(5).standard_normal((4800, 6, 62)).astype(np.float32)
        block = models.LOGISTIC_BLOCK_ROWS * 6 * 62 * 20
        tracemalloc.start()
        try:
            moment_zscore(eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 2**20

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError):
            moment_zscore(np.zeros((0, 3, 20)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="both classes"):
            moment_zscore(np.zeros((4, 3, 20)), np.ones(4, dtype=int))

    def test_bad_stats_rejected(self):
        ones = np.ones(2)
        for mean, std in ((np.array([0.0, np.nan]), ones), (np.zeros(2), np.array([1.0, np.inf])),
                          (np.zeros(2), np.array([1.0, 0.0])), (np.zeros(2), np.array([1.0, -1.0])),
                          (np.zeros(3), ones), (np.zeros((2, 1)), np.ones((2, 1)))):
            with pytest.raises(ValueError):
                ZScoreStats(mean=mean, std=std)
