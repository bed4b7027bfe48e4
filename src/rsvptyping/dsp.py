"""Preprocessing chain from continuous multichannel recordings to labeled
trial epochs: notch, Butterworth bandpass, downsampling, epoching and
channel masking. Standardizing the epochs belongs to each model's fit
(``models``), which derives it from the class moments of its rows.

Epochs are whole arrays throughout: a stack of shape (epochs, channels,
samples) with one 0/1 label per epoch.

Filtering is causal single-pass from zero initial state, which is what an
online system would see; nothing here is zero-phase. A cascade of biquads
runs as one linear state-space system, two states per section, over blocks
of ``BLOCK_SAMPLES`` samples: each block's output is one product with the
lower-triangular Toeplitz matrix of the impulse response plus the part due
to the state the block starts in, and a loop over blocks carries that state.
The result equals the per-sample direct-form transposed II recursion up to
rounding. Designs use the bilinear transform with frequency pre-warping.
"""

from __future__ import annotations

import cmath
import functools
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
        for root in self.poles():
            if abs(root) >= 1.0:
                raise ValueError(f"unstable biquad: pole at |z|={abs(root):.6f}")

    def poles(self) -> np.ndarray:
        return np.roots([1.0, self.a1, self.a2])


FilterCascade = Union[BiquadCoefficients, Sequence[BiquadCoefficients]]


@dataclass(frozen=True, eq=False)
class RawRecording:
    """Continuous voltage data (channels x samples, µV) with stimulus onsets.

    ``stim_onsets`` is stored as an (n, 2) int64 array, one row
    (sample_index, label) per onset; label is 1 for target stimuli and 0
    otherwise. Any sequence of pairs is accepted. Onsets must be strictly
    increasing and in bounds, and there must be at least one channel.
    """

    data: np.ndarray
    rate: float
    stim_onsets: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("recording data must be channels x samples")
        if data.shape[0] == 0:
            raise ValueError("recording has no channels")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("sampling rate must be positive and finite")
        onsets = np.asarray(self.stim_onsets, dtype=np.int64)
        if onsets.shape == (0,):  # an empty sequence has no pair axis
            onsets = onsets.reshape(0, 2)
        if onsets.ndim != 2 or onsets.shape[1] != 2:
            raise ValueError("each stimulus onset must be a (sample, label) pair")
        samples, labels = onsets.T
        if np.any(samples[1:] <= samples[:-1]):
            raise ValueError("stimulus onsets must be strictly increasing")
        outside = samples[(samples < 0) | (samples >= data.shape[1])]
        if outside.size:
            raise ValueError(f"onset {outside[0]} outside recording")
        bad = labels[(labels != POSITIVE) & (labels != NEGATIVE)]
        if bad.size:
            raise ValueError(f"label must be 0 or 1, got {bad[0]}")
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
    if not (q > 0 and math.isfinite(q)):
        raise ValueError(f"quality factor must be positive and finite, got {q}")
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
    ``high``. Sections alternate between the highest- and lowest-frequency
    pole pairs left, starting from the highest.
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
    # the pairs run from the highest pole frequency to the lowest; the cascade
    # takes them alternately from both ends, highest first. Run in frequency
    # order, the low-edge resonators come last and amplify the round-off of
    # every section before them: from band order ~25 up, the output is off by
    # factors past 1e3. Orders 1 and 2 keep the frequency order.
    pairs = _pair_conjugates(z_poles)
    pairs = [pairs[i // 2] if i % 2 == 0 else pairs[-1 - i // 2] for i in range(len(pairs))]
    # unnormalized cascade: each section is (1 - z^-2) / (1 + a1 z^-1 + a2 z^-2),
    # checked for stability before its gain is used
    sections = [
        BiquadCoefficients(b0=1.0, b1=0.0, b2=-1.0, a1=-(p + q).real, a2=(p * q).real)
        for p, q in pairs
    ]

    # normalize to unit gain at the (warped-back) center frequency
    f_center = rate / math.pi * math.atan(math.sqrt(w0_sq) / fs2)
    zc = cmath.exp(1j * 2.0 * math.pi * f_center / rate)
    gain = 1.0 + 0.0j
    for section in sections:
        gain *= (1.0 - zc ** -2) / (1.0 + section.a1 * zc ** -1 + section.a2 * zc ** -2)
    k = (1.0 / abs(gain)) ** (1.0 / len(sections))

    return [BiquadCoefficients(b0=k, b1=0.0, b2=-k, a1=s.a1, a2=s.a2) for s in sections]


BLOCK_SAMPLES = 128  # samples per block of the state-space filter


def _state_space(cascade: Sequence[BiquadCoefficients]):
    """The cascade as one system ``s' = A s + B x``, ``y = C s + D x`` with two
    states per section: each section's transposed direct-form II registers,
    driven by the previous section's output."""
    size = 2 * len(cascade)
    a = np.zeros((size, size))
    b = np.zeros(size)
    c = np.zeros(size)
    d = 1.0
    for k, sec in enumerate(cascade):
        i = 2 * k
        # the section's input is the cascade so far: c @ s + d * x
        drive = np.array([sec.b1 - sec.a1 * sec.b0, sec.b2 - sec.a2 * sec.b0])
        a[i:i + 2, :i] = np.outer(drive, c[:i])
        a[i:i + 2, i:i + 2] = [[-sec.a1, 1.0], [-sec.a2, 0.0]]
        b[i:i + 2] = drive * d
        c[:i] *= sec.b0
        c[i] = 1.0
        d *= sec.b0
    return a, b, c, d


@functools.lru_cache(maxsize=8)
def _block_operators(cascade: tuple[BiquadCoefficients, ...], block: int):
    """The maps that filter one block of ``block`` samples: the lower-
    triangular Toeplitz matrix of the impulse response (inputs to outputs
    from zero state), ``reach`` (inputs to end state), ``carry`` = A^L
    (start state to end state) and ``observe`` (start state to outputs).

    They are built in float64, once per cascade and block size, and kept
    read-only: ``generate`` filters its epochs a chunk at a time with one
    cascade. ``design_bandpass`` alternates its sections between the band's
    edges, which keeps the low-edge resonators from amplifying the round-off
    of the sections before them."""
    a, b, c, d = _state_space(cascade)
    # observe[i] = C A^i and reach[j] = A^(L-1-j) B, by repeated products
    observe = np.empty((block, a.shape[0]))
    reach = np.empty((block, a.shape[0]))
    carry = a
    observe[0], reach[-1] = c, b
    for i in range(1, block):
        observe[i] = observe[i - 1] @ a
        reach[-1 - i] = a @ reach[-i]
        carry = a @ carry
    impulse = np.concatenate(([d], observe[:-1] @ b))
    lags = np.subtract.outer(np.arange(block), np.arange(block))
    toeplitz = np.where(lags >= 0, impulse[np.maximum(lags, 0)], 0.0)
    for array in (toeplitz, reach, carry, observe):
        array.flags.writeable = False
    return toeplitz, reach, carry, observe


def filter_forward(coeffs: FilterCascade, signal: np.ndarray, start: int = 0) -> np.ndarray:
    """Causal single-pass filtering along the last axis, zero initial state.

    Accepts one biquad or a cascade; cascades are applied in sequence.
    Returns the outputs from sample ``start`` on (0 <= start <= T): the
    recursion still starts at sample 0, so the first ``start`` samples only
    warm the filter up. When the signal fits in one block, only the
    Toeplitz rows of the kept outputs are multiplied.
    """
    cascade = (coeffs,) if isinstance(coeffs, BiquadCoefficients) else tuple(coeffs)
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    if not 0 <= start <= n:
        raise ValueError(f"filter start {start} outside [0, {n}]")
    if start == n:
        return np.empty((*x.shape[:-1], 0))
    rows = x.reshape(-1, n)
    block = min(BLOCK_SAMPLES, n)
    toeplitz, reach, carry, observe = _block_operators(cascade, block)

    count = -(-n // block)
    if count == 1:
        return (rows @ toeplitz[start:].T).reshape(*x.shape[:-1], n - start)
    if count * block > n:  # pad the last block
        rows = np.pad(rows, ((0, 0), (0, count * block - n)))
    blocks = rows.reshape(len(rows), count, block)
    out = blocks @ toeplitz.T
    # the state each block starts in, carried from block to block
    ends = blocks[:, :-1] @ reach
    starts = np.zeros((len(rows), count, carry.shape[0]))
    for k in range(1, count):
        starts[:, k] = starts[:, k - 1] @ carry.T + ends[:, k - 1]
    out += starts @ observe.T
    out = out.reshape(len(rows), count * block)[:, start:n]
    return np.ascontiguousarray(out).reshape(*x.shape[:-1], n - start)


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
    onsets = recording.stim_onsets // [factor, 1]
    clash = np.flatnonzero(onsets[1:, 0] == onsets[:-1, 0])
    if clash.size:
        before, after = recording.stim_onsets[clash[0] : clash[0] + 2, 0]
        raise ValueError(
            f"onsets {before} and {after} fall on one sample after "
            f"downsampling by {factor}"
        )
    data = recording.data[:, ::factor]
    return RawRecording(data=data, rate=recording.rate / factor, stim_onsets=onsets)


def epoch(
    recording: RawRecording, window_ms: float = 500.0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Slice one epoch per onset; returns (data, labels, dropped_count).

    ``data`` has shape (epochs, channels, window) and ``labels`` one entry
    per epoch, in onset order. Window length is floor(window_ms * rate /
    1000) samples; a window that is not finite or is longer than the whole
    recording raises. Epochs that would extend past the end of the recording
    are dropped and counted. Nearby onsets produce partially overlapping
    epochs.
    """
    length = window_ms * recording.rate / 1000.0
    if not math.isfinite(length):
        raise ValueError(f"epoch window must be finite, got {window_ms} ms")
    n_samples = int(math.floor(length))
    if n_samples < 1:
        raise ValueError("epoch window shorter than one sample")
    if n_samples > recording.n_samples:
        raise ValueError(
            f"epoch window of {n_samples} samples is longer than the recording "
            f"({recording.n_samples} samples)"
        )
    onsets = recording.stim_onsets
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
