"""Preprocessing chain from continuous multichannel recordings to labeled
trial epochs: notch, Butterworth bandpass, downsampling, epoching, and
per-channel standardization.

Epochs are whole arrays throughout: a stack of shape (epochs, channels,
samples) with one 0/1 label per epoch.

Filtering is causal single-pass (direct-form transposed II, zero initial
state), which is what an online system would see; nothing here is zero-phase.
Designs use the bilinear transform with frequency pre-warping.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

POSITIVE = 1
NEGATIVE = 0


@dataclass(frozen=True)
class BiquadCoefficients:
    """Second-order IIR section, a0 normalized to 1."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        for root in np.roots([1.0, self.a1, self.a2]):
            if abs(root) >= 1.0:
                raise ValueError(f"unstable biquad: pole at |z|={abs(root):.6f}")

    def poles(self) -> np.ndarray:
        return np.roots([1.0, self.a1, self.a2])


FilterCascade = Union[BiquadCoefficients, Sequence[BiquadCoefficients]]


@dataclass(frozen=True)
class RawRecording:
    """Continuous voltage data (channels x samples, µV) with stimulus onsets.

    Each onset is (sample_index, label); label is 1 for target stimuli and 0
    otherwise. Onsets must be strictly increasing and in bounds.
    """

    data: np.ndarray
    rate: float
    stim_onsets: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("recording data must be channels x samples")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("sampling rate must be positive and finite")
        onsets = tuple((int(s), int(l)) for s, l in self.stim_onsets)
        last = -1
        for sample, label in onsets:
            if sample <= last:
                raise ValueError("stimulus onsets must be strictly increasing")
            if not (0 <= sample < data.shape[1]):
                raise ValueError(f"onset {sample} outside recording")
            if label not in (POSITIVE, NEGATIVE):
                raise ValueError(f"label must be 0 or 1, got {label}")
            last = sample
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "stim_onsets", onsets)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def design_notch(rate: float, center_hz: float = 50.0, q: float = 30.0) -> BiquadCoefficients:
    """Second-order IIR notch at ``center_hz`` with the given quality factor.

    Unity gain at DC and far from the notch; the transfer function has an
    exact zero on the unit circle at the center frequency.
    """
    if not (0.0 < center_hz < rate / 2.0):
        raise ValueError(f"notch center {center_hz} Hz must lie below Nyquist ({rate / 2} Hz)")
    if q <= 0:
        raise ValueError("quality factor must be positive")
    w0 = 2.0 * math.pi * center_hz / rate
    alpha = math.sin(w0) / (2.0 * q)
    cw = math.cos(w0)
    a0 = 1.0 + alpha
    return BiquadCoefficients(
        b0=1.0 / a0,
        b1=-2.0 * cw / a0,
        b2=1.0 / a0,
        a1=-2.0 * cw / a0,
        a2=(1.0 - alpha) / a0,
    )


def _butterworth_prototype_poles(order: int) -> list[complex]:
    # unit-cutoff analog lowpass poles, left half plane
    return [
        cmath.exp(1j * math.pi * (2.0 * k + order - 1.0) / (2.0 * order))
        for k in range(1, order + 1)
    ]


def _pair_conjugates(z_poles: Iterable[complex]) -> list[tuple[complex, complex]]:
    upper = sorted((p for p in z_poles if p.imag > 1e-12), key=lambda p: (p.real, p.imag))
    reals = sorted((p for p in z_poles if abs(p.imag) <= 1e-12), key=lambda p: p.real)
    pairs = [(p, p.conjugate()) for p in upper]
    for i in range(0, len(reals) - 1, 2):
        pairs.append((reals[i], reals[i + 1]))
    return pairs


def design_bandpass(
    rate: float, low: float = 1.0, high: float = 20.0, order: int = 2
) -> list[BiquadCoefficients]:
    """Butterworth bandpass as a cascade of ``order`` biquad sections.

    ``order`` is the lowpass-prototype order; the bandpass transform doubles
    it, so the default yields a fourth-degree transfer function. Band edges
    are pre-warped so the digital -3 dB points land exactly on ``low`` and
    ``high``.
    """
    if not (0.0 < low < high < rate / 2.0):
        raise ValueError(f"band edges ({low}, {high}) must satisfy 0 < low < high < Nyquist")
    if order < 1:
        raise ValueError("order must be at least 1")
    fs2 = 2.0 * rate
    w1 = fs2 * math.tan(math.pi * low / rate)
    w2 = fs2 * math.tan(math.pi * high / rate)
    w0_sq = w1 * w2
    bw = w2 - w1

    analog_poles: list[complex] = []
    for p in _butterworth_prototype_poles(order):
        # lowpass-to-bandpass: roots of s^2 - bw*p*s + w0^2
        disc = cmath.sqrt((bw * p) ** 2 - 4.0 * w0_sq)
        analog_poles.append((bw * p + disc) / 2.0)
        analog_poles.append((bw * p - disc) / 2.0)

    z_poles = [(fs2 + s) / (fs2 - s) for s in analog_poles]
    sections: list[tuple[float, float]] = []
    for p, q in _pair_conjugates(z_poles):
        a1 = -(p + q).real
        a2 = (p * q).real
        sections.append((a1, a2))

    # unnormalized cascade: each section is (1 - z^-2) / (1 + a1 z^-1 + a2 z^-2);
    # normalize to unit gain at the (warped-back) center frequency
    f_center = rate / math.pi * math.atan(math.sqrt(w0_sq) / fs2)
    zc = cmath.exp(1j * 2.0 * math.pi * f_center / rate)
    gain = 1.0 + 0.0j
    for a1, a2 in sections:
        gain *= (1.0 - zc ** -2) / (1.0 + a1 * zc ** -1 + a2 * zc ** -2)
    k = (1.0 / abs(gain)) ** (1.0 / len(sections))

    return [
        BiquadCoefficients(b0=k, b1=0.0, b2=-k, a1=a1, a2=a2) for a1, a2 in sections
    ]


def filter_forward(coeffs: FilterCascade, signal: np.ndarray) -> np.ndarray:
    """Causal single-pass filtering along the last axis, zero initial state.

    Accepts one biquad or a cascade; cascades are applied in sequence.
    """
    cascade = [coeffs] if isinstance(coeffs, BiquadCoefficients) else list(coeffs)
    x = np.asarray(signal, dtype=np.float64)
    for c in cascade:
        y = np.empty_like(x)
        z1 = np.zeros(x.shape[:-1])
        z2 = np.zeros(x.shape[:-1])
        for n in range(x.shape[-1]):
            xn = x[..., n]
            yn = c.b0 * xn + z1
            z1 = c.b1 * xn - c.a1 * yn + z2
            z2 = c.b2 * xn - c.a2 * yn
            y[..., n] = yn
        x = y
    return x


def downsample(recording: RawRecording, factor: int = 2) -> RawRecording:
    """Keep every ``factor``-th sample starting at index 0.

    Assumes the signal was already bandlimited (run the bandpass first).
    Onset indices are remapped by floor division; two onsets that would
    land on one sample are rejected.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("downsample factor must be a positive integer")
    factor = int(factor)
    if factor == 1:
        return recording
    samples = [s for s, _ in recording.stim_onsets]
    for before, after in zip(samples, samples[1:]):
        if before // factor == after // factor:
            raise ValueError(
                f"onsets {before} and {after} fall on one sample after "
                f"downsampling by {factor}"
            )
    data = recording.data[:, ::factor]
    onsets = tuple((s // factor, label) for s, label in recording.stim_onsets)
    return RawRecording(data=data, rate=recording.rate / factor, stim_onsets=onsets)


def epoch(
    recording: RawRecording, window_ms: float = 500.0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Slice one epoch per onset; returns (data, labels, dropped_count).

    ``data`` has shape (epochs, channels, window) and ``labels`` one entry
    per epoch, in onset order. Window length is floor(window_ms * rate /
    1000) samples. Epochs that would extend past the end of the recording
    are dropped and counted. Nearby onsets produce partially overlapping
    epochs.
    """
    n_samples = int(math.floor(window_ms * recording.rate / 1000.0))
    if n_samples < 1:
        raise ValueError("epoch window shorter than one sample")
    onsets = np.asarray(recording.stim_onsets, dtype=np.int64).reshape(-1, 2)
    kept = onsets[onsets[:, 0] + n_samples <= recording.n_samples]
    windows = kept[:, 0, None] + np.arange(n_samples)
    data = recording.data[:, windows].transpose(1, 0, 2)
    return data, kept[:, 1], len(onsets) - len(kept)


def exclude_channels(recording: RawRecording, channels: Sequence[int]) -> RawRecording:
    """Drop the listed channel indices (faulty-channel masking)."""
    drop = set(int(c) for c in channels)
    for c in drop:
        if not (0 <= c < recording.n_channels):
            raise ValueError(f"channel {c} outside recording")
    keep = [c for c in range(recording.n_channels) if c not in drop]
    if not keep:
        raise ValueError("channel mask removes every channel")
    return RawRecording(
        data=recording.data[keep], rate=recording.rate, stim_onsets=recording.stim_onsets
    )


@dataclass(frozen=True)
class ZScoreStats:
    """Per-channel mean and standard deviation from a training set."""

    mean: np.ndarray
    std: np.ndarray


def fit_zscore(data: np.ndarray) -> ZScoreStats:
    """Per-channel statistics pooled over all training epochs and samples of
    a stack (n, channels, samples).

    Channels with (near) zero spread get std 1 so they pass through centered
    but unscaled.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError("training epochs must be epochs x channels x samples")
    if data.shape[0] == 0:
        raise ValueError("cannot fit z-scoring on an empty training set")
    # one contiguous row per channel with the epochs laid end to end, so the
    # sums run in the same order whatever the memory layout of the stack
    per_channel = np.ascontiguousarray(data.transpose(1, 0, 2)).reshape(data.shape[1], -1)
    mean = per_channel.mean(axis=1)
    std = per_channel.std(axis=1)
    std = np.where(std < 1e-12, 1.0, std)
    return ZScoreStats(mean=mean, std=std)


def zscore_array(stats: ZScoreStats, data: np.ndarray) -> np.ndarray:
    """Standardize stacked epochs (n, channels, samples) with fitted stats."""
    return (np.asarray(data, dtype=np.float64) - stats.mean[None, :, None]) / stats.std[None, :, None]
