"""Synthetic ERP dataset generator.

Produces a labeled stack of single-trial epochs that mimics the statistics
a typing experiment cares about: a large majority of non-target trials
containing only bandlimited background noise, and a small fraction of
target trials carrying an additional stereotyped deflection (a
Gaussian-windowed bump, standing in for a P300-like response).

The generator is fully determined by its config, including the seed, and
draws float32 samples, the on-disk dtype, a chunk of epochs at a time, so
``synth`` writes each chunk to its file as it is drawn and in-memory
datasets match their files bit for bit. Train/test splits are sorted int64
index arrays, and a dataset's subsets are row views of its epochs, held in
an array or left in an epochs file, and read by one reader, the dataset's
``blocks``. One constant, SPAN_EPOCHS, sizes every pass over whole epochs.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .dsp import design_bandpass, filter_forward

if TYPE_CHECKING:
    from .container import EpochFile

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
        for name in ("rate", "trial_ms", "erp_latency_ms", "erp_width_ms",
                     "erp_amplitude", "noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(self.trial_ms * self.rate):
            raise ValueError("trial_ms * rate is too large")
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


# The ``synth`` command's config keys and defaults: SynthConfig's fields, where
# an empty ``erp_channels`` list stands for None, every channel.
SYNTH_DEFAULTS = {f.name: f.default for f in fields(SynthConfig)} | {"erp_channels": ()}


class SplitIndices(NamedTuple):
    """One train/test partition: two disjoint, sorted int64 index arrays."""

    train: np.ndarray
    test: np.ndarray


# Epochs per pass over whole epochs. ``draw`` draws and filters this many at
# a time: at the README config its white-noise buffer takes 0.76 MB, and at
# 2 OpenBLAS threads (best of 15, in each of 3 processes) generate took
# 87-89 ms in chunks of 128 and 74-93 ms in chunks of 512, but 125-152 ms in
# chunks of 128 when each chunk built the filter's block operators again.
# ``blocks`` cuts the rows it wants every SPAN_EPOCHS epochs and reads each
# piece as one stretch of the stack, gaps included, from a file into one
# float32 span buffer (0.19 MB at the README shape).
SPAN_EPOCHS = 128


@dataclass(frozen=True, eq=False, init=False)
class LabeledDataset:
    """Labeled epochs as a row view of an epoch stack: ``epochs`` is the
    stack (n, channels, samples), ``rows`` the int64 index of the epochs it
    holds, in order, and ``labels`` their 0/1 labels. ``len()`` is the row
    count. The stack is an array, float32 or float64 kept as given without a
    copy and any other dtype made float64, or the samples left in an epochs
    file, a container.EpochFile. Built from a stack, a dataset holds all its
    rows. ``subset`` shares the stack and copies no epoch, and ``blocks``
    copies held rows out of the stack a span at a time into one reused
    buffer, the one reader of a dataset's rows."""

    epochs: np.ndarray | EpochFile
    rows: np.ndarray
    labels: np.ndarray

    def __init__(self, data, labels: np.ndarray) -> None:
        if not hasattr(data, "spans"):  # an array, not an EpochFile
            data = np.asarray(data)
            if data.dtype not in (np.float32, np.float64):
                data = data.astype(np.float64)
        labels = np.asarray(labels)
        if len(data.shape) != 3:
            raise ValueError("epoch data must be epochs x channels x samples")
        if 0 in data.shape:
            raise ValueError(f"dataset is empty: epochs x channels x samples {data.shape}")
        n = data.shape[0]
        if labels.shape != (n,):
            raise ValueError(f"expected {n} labels, got shape {labels.shape}")
        if not np.all(np.isin(labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        self._hold(data, np.arange(n), labels.astype(np.int64))

    def _hold(self, epochs, rows: np.ndarray, labels: np.ndarray) -> None:
        object.__setattr__(self, "epochs", epochs)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The held epochs as one stack: ``epochs`` itself when it is an
        array and the dataset holds every row in order, else a copy of the
        rows in the stack's dtype."""
        n = self.epochs.shape[0]
        if (isinstance(self.epochs, np.ndarray) and len(self) == n
                and np.array_equal(self.rows, np.arange(n))):
            return self.epochs
        _, block = next(self.blocks(len(self), self.epochs.dtype))
        return block.reshape(len(self), *self.epochs.shape[1:])

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        """The dataset of the given positions of this one, in the given
        order, as a view of the same stack: subsets of subsets compose."""
        picked = np.asarray(indices, dtype=np.int64)
        if picked.ndim != 1 or picked.size == 0:
            raise ValueError(
                f"a subset takes a nonempty vector of indices, got shape {picked.shape}")
        view = object.__new__(LabeledDataset)
        view._hold(self.epochs, self.rows[picked], self.labels[picked])
        return view

    def blocks(self, size: int, dtype=np.float64) -> Iterator[tuple[int, np.ndarray]]:
        """The held rows ``size`` at a time: yields each block's first
        position and the block, a C-ordered (rows, channels * samples) view
        of one ``dtype`` buffer that the next block overwrites. numpy puts a
        block's wanted rows in stack order, when they are not, and cuts them
        every SPAN_EPOCHS epochs from the first of them; each piece is read
        as one stretch of the stack, from its first epoch through its last,
        and goes to the block by one gather, or by one copy when the stretch
        is all wanted. An EpochFile reads each stretch from the file, which
        stays open until the generator ends or is dropped."""
        n = len(self)
        buffer = np.empty((min(size, n), math.prod(self.epochs.shape[1:])), dtype=dtype)
        spans = (contextlib.nullcontext(lambda lo, hi: self.epochs[lo:hi])
                 if isinstance(self.epochs, np.ndarray) else self.epochs.spans())
        with spans as read:
            for lo in range(0, n, size):
                block, rows = buffer[: min(size, n - lo)], self.rows[lo:lo + size]
                place = None  # the positions in ``block`` of the sorted rows
                if np.any(rows[1:] <= rows[:-1]):  # out of order or repeated
                    place = np.argsort(rows, kind="stable")
                    rows = rows[place]
                cuts = np.flatnonzero(np.diff((rows - rows[0]) // SPAN_EPOCHS)) + 1
                edges = np.concatenate(((0,), cuts, (len(rows),)))
                starts, ends = edges[:-1], edges[1:]
                for a, b, first, last in zip(starts.tolist(), ends.tolist(),
                                             rows[starts].tolist(), rows[ends - 1].tolist()):
                    span = read(first, last + 1).reshape(last + 1 - first, -1)
                    whole = place is None and b - a == len(span)
                    at = slice(a, b) if place is None else place[a:b]
                    block[at] = span if whole else span[rows[a:b] - first]
                yield lo, block


def draw(config: SynthConfig) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Draw a dataset from the synthetic ERP model: its int64 labels, and an
    iterator of its float32 epochs, ``SPAN_EPOCHS`` at a time, in order.

    Noise is white Gaussian shaped by the standard 1-20 Hz bandpass at the
    config rate; a warmup stretch is generated and filtered but not kept, so
    epochs do not start with the filter transient. Target epochs add the
    config template on the chosen channels. Label count is exactly
    round(fraction * n). The config is checked, the labels drawn and the
    filter designed before this returns; a sample that overflows, in
    float64 or in float32, raises ValueError from the iterator.

    Each chunk's white noise is drawn into one reused buffer from the one
    generator in order, which gives the same stream as a single draw, then
    filtered, scaled, given its template and rounded into one reused
    float32 chunk, which the iterator yields and its next step overwrites.
    Memory is a few float64 chunks, whatever ``n_epochs`` is.
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
    high = min(20.0, 0.45 * config.rate)  # keep the band valid at low rates
    cascade = design_bandpass(config.rate, 1.0, high, 2)
    template = config.template()
    channel_mask = (
        np.arange(config.channels)
        if config.erp_channels is None
        else np.asarray(config.erp_channels, dtype=np.int64)
    )
    buffer = np.empty((min(SPAN_EPOCHS, n), config.channels, warmup + samples))
    rounded = np.empty((len(buffer), config.channels, samples), dtype=np.float32)

    def chunks() -> Iterator[np.ndarray]:
        for lo in range(0, n, SPAN_EPOCHS):
            hi = min(lo + SPAN_EPOCHS, n)
            # raising per chunk: a state still set at the yield reaches the caller
            try:
                with np.errstate(over="raise"):
                    white = rng.standard_normal(out=buffer[: hi - lo])
                    chunk = filter_forward(cascade, white, start=warmup)
                    chunk *= config.noise_std
                    pos_rows = np.flatnonzero(labels[lo:hi] == 1)
                    chunk[np.ix_(pos_rows, channel_mask)] += template
                    rounded[: hi - lo] = chunk
            except FloatingPointError:
                raise ValueError(
                    "samples overflow float32: lower noise_std or erp_amplitude") from None
            yield rounded[: hi - lo]

    return labels, chunks()


def generate(config: SynthConfig) -> LabeledDataset:
    """The dataset ``draw`` draws, held as one float32 stack."""
    labels, chunks = draw(config)
    data = np.empty((config.n_epochs, config.channels, config.samples_per_epoch),
                    dtype=np.float32)
    for lo, chunk in zip(range(0, config.n_epochs, SPAN_EPOCHS), chunks):
        data[lo:lo + len(chunk)] = chunk
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
    any split would miss a class, so both portions are nonempty.
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
        train, test = [], []
        for indices in by_class:
            perm = indices[rng.permutation(len(indices))]
            n_test = int(round(test_fraction * len(indices)))
            if n_test < 1 or n_test >= len(indices):
                raise ValueError("dataset too small to stratify")
            test.append(perm[:n_test])
            train.append(perm[n_test:])
        out.append(SplitIndices(np.sort(np.concatenate(train)), np.sort(np.concatenate(test))))
    return tuple(out)
