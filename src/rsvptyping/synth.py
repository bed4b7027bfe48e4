"""Synthetic ERP dataset generator.

Produces a labeled stack of single-trial epochs that mimics the statistics
a typing experiment cares about: a large majority of non-target trials
containing only bandlimited background noise, and a small fraction of
target trials carrying an additional stereotyped deflection (a
Gaussian-windowed bump, standing in for a P300-like response).

The generator is fully determined by its config, including the seed, and
quantizes samples to float32 so that in-memory datasets match their on-disk
representation bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dsp import design_bandpass, filter_forward

DEFAULT_ALPHABET_SIZE = 28  # 26 letters + space + backspace


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic dataset.

    ``erp_width_ms`` is the standard deviation of the Gaussian window, not
    its full width. ``erp_channels`` selects which channels carry the bump
    (None = all). ``noise_std`` scales the bandlimited noise after filtering.
    The defaults are calibrated so that the discriminative logistic baseline
    reaches a held-out balanced accuracy in the low-to-mid 0.7 range.
    """

    n_epochs: int = 6000
    channels: int = 6
    rate: float = 125.0
    trial_ms: float = 500.0
    erp_latency_ms: float = 300.0
    erp_width_ms: float = 60.0
    erp_amplitude: float = 0.15
    noise_std: float = 1.0
    target_fraction: float = 1.0 / DEFAULT_ALPHABET_SIZE
    erp_channels: Optional[tuple[int, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs < 2:
            raise ValueError("need at least 2 epochs")
        if self.channels < 1 or self.rate <= 0 or self.trial_ms <= 0:
            raise ValueError("channels, rate and trial_ms must be positive")
        if self.erp_width_ms <= 0 or self.erp_latency_ms < 0:
            raise ValueError("ERP window must have positive width")
        if self.erp_amplitude < 0 or self.noise_std < 0:
            raise ValueError("amplitude and noise scale cannot be negative")
        if not (0.0 < self.target_fraction < 1.0):
            raise ValueError("target_fraction must lie in (0, 1)")
        if self.erp_latency_ms + self.erp_width_ms > self.trial_ms:
            raise ValueError("ERP bump must fit inside the trial window")
        if self.erp_channels is not None:
            if len(self.erp_channels) == 0:
                raise ValueError("erp_channels cannot be empty")
            if any(not (0 <= c < self.channels) for c in self.erp_channels):
                raise ValueError("erp_channels out of range")

    @property
    def samples_per_epoch(self) -> int:
        return int(self.trial_ms * self.rate / 1000.0)

    def template(self) -> np.ndarray:
        """The injected deflection, one value per sample."""
        t_ms = np.arange(self.samples_per_epoch) * 1000.0 / self.rate
        z = (t_ms - self.erp_latency_ms) / self.erp_width_ms
        return self.erp_amplitude * np.exp(-0.5 * z**2)


@dataclass(frozen=True)
class SplitIndices:
    """One train/test partition of epoch indices."""

    train: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(self.train) & set(self.test):
            raise ValueError("train and test overlap")
        if not self.train or not self.test:
            raise ValueError("both portions must be nonempty")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Epochs (n, channels, samples) with their 0/1 labels, plus optional
    split metadata. ``len()`` is the epoch count."""

    data: np.ndarray
    labels: np.ndarray
    splits: tuple[SplitIndices, ...] = ()

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        labels = np.asarray(self.labels)
        if data.ndim != 3:
            raise ValueError("epoch data must be epochs x channels x samples")
        n = data.shape[0]
        if n == 0:
            raise ValueError("dataset is empty")
        if labels.shape != (n,):
            raise ValueError(f"expected {n} labels, got shape {labels.shape}")
        if not np.all(np.isin(labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        for s in self.splits:
            if sorted(s.train + s.test) != list(range(n)):
                raise ValueError("each split must partition the dataset")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    def __len__(self) -> int:
        return self.data.shape[0]

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        rows = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(data=self.data[rows], labels=self.labels[rows])

    def with_splits(self, splits: tuple[SplitIndices, ...]) -> "LabeledDataset":
        return dataclasses.replace(self, splits=splits)


def generate(config: SynthConfig) -> LabeledDataset:
    """Draw a dataset from the synthetic ERP model.

    Noise is white Gaussian shaped by the standard 1-20 Hz bandpass at the
    config rate; a warmup stretch is generated and discarded so epochs do not
    start with the filter transient. Target epochs add the config template on
    the chosen channels. Label count is exactly round(fraction * n).
    """
    n = config.n_epochs
    n_pos = int(round(config.target_fraction * n))
    if n_pos < 1 or n_pos > n - 1:
        raise ValueError(
            f"target_fraction {config.target_fraction} leaves {n_pos} positives "
            f"out of {n}; both classes must be nonempty"
        )
    samples = config.samples_per_epoch
    if samples < 2:
        raise ValueError("trial window is too short for the sample rate")

    rng = np.random.default_rng(config.seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.permutation(n)[:n_pos]] = 1

    warmup = samples
    white = rng.standard_normal((n, config.channels, warmup + samples))
    high = min(20.0, 0.45 * config.rate)  # keep the band valid at low rates
    cascade = design_bandpass(config.rate, 1.0, high, 2)
    noise = filter_forward(cascade, white)[:, :, warmup:] * config.noise_std

    data = noise
    template = config.template()
    channel_mask = (
        np.arange(config.channels)
        if config.erp_channels is None
        else np.asarray(config.erp_channels, dtype=np.int64)
    )
    pos_rows = np.flatnonzero(labels == 1)
    data[np.ix_(pos_rows, channel_mask)] += template

    # quantize like the on-disk format so file round-trips are exact
    data = data.astype(np.float32).astype(np.float64)
    return LabeledDataset(data=data, labels=labels)


def split(
    dataset: LabeledDataset,
    n_splits: int = 5,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[SplitIndices, ...]:
    """Stratified randomized train/test partitions.

    Each split permutes the two classes independently and sends a
    ``test_fraction`` share of each into the test portion, so class
    fractions are preserved to within one sample. Raises if any portion of
    any split would miss a class.
    """
    if n_splits < 1:
        raise ValueError("need at least one split")
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie in (0, 1)")
    labels = dataset.labels
    by_class = [np.flatnonzero(labels == c) for c in (0, 1)]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_splits):
        train: list[int] = []
        test: list[int] = []
        for indices in by_class:
            perm = indices[rng.permutation(len(indices))]
            n_test = int(round(test_fraction * len(indices)))
            if n_test < 1 or n_test >= len(indices):
                raise ValueError("dataset too small to stratify")
            test.extend(perm[:n_test].tolist())
            train.extend(perm[n_test:].tolist())
        out.append(SplitIndices(train=tuple(sorted(train)), test=tuple(sorted(test))))
    return tuple(out)
