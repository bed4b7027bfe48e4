import numpy as np
import pytest

from rsvptyping.dsp import (
    BiquadCoefficients,
    RawRecording,
    design_bandpass,
    design_notch,
    downsample,
    epoch,
    exclude_channels,
    filter_forward,
    fit_zscore,
    zscore_array,
)

from oracles import analytic_butterworth_bandpass_db, measured_gain_db

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


class TestDownsampleAndEpoch:
    def make_recording(self, n=1000, rate=250.0, onsets=((101, 1), (400, 0))):
        rng = np.random.default_rng(5)
        return RawRecording(data=rng.standard_normal((2, n)), rate=rate, stim_onsets=onsets)

    def test_downsample_halves_rate_and_length(self):
        rec = downsample(self.make_recording(), 2)
        assert rec.rate == 125.0
        assert rec.n_samples == 500
        assert rec.stim_onsets[0] == (50, 1)  # 101 // 2

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


class TestZScore:
    def make_epochs(self, rng, n=50, channels=3, samples=20):
        return rng.standard_normal((n, channels, samples)) * 2 + 1

    def test_constant_channel_maps_to_zeros(self):
        eps = np.full((2, 1, 10), 4.2)
        stats = fit_zscore(eps)
        assert stats.std[0] == 1.0  # degenerate scale guard
        out = zscore_array(stats, eps)
        np.testing.assert_allclose(out[0], np.zeros((1, 10)), atol=1e-12)

    def test_standardizes_training_distribution(self):
        rng = np.random.default_rng(17)
        eps = self.make_epochs(rng, n=400)
        stats = fit_zscore(eps)
        z = zscore_array(stats, eps)
        np.testing.assert_allclose(z.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=(0, 2)), 1.0, atol=1e-12)

    def test_test_data_uses_train_stats_only(self):
        rng = np.random.default_rng(21)
        train = self.make_epochs(rng, n=100)
        stats = fit_zscore(train)
        out = zscore_array(stats, train[:1] + 10.0)
        expected = zscore_array(stats, train[:1]) + 10.0 / stats.std[None, :, None]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_array_variant_matches(self):
        # the per-channel statistics are those of the epochs laid end to end
        rng = np.random.default_rng(2)
        eps = self.make_epochs(rng, n=10)
        stats = fit_zscore(eps)
        joined = np.concatenate(list(eps), axis=1)
        assert np.array_equal(stats.mean, joined.mean(axis=1))
        assert np.array_equal(stats.std, joined.std(axis=1))
        out = zscore_array(stats, eps)
        expected = (eps[3] - stats.mean[:, None]) / stats.std[:, None]
        np.testing.assert_allclose(out[3], expected, atol=1e-15)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError):
            fit_zscore(np.zeros((0, 3, 20)))
