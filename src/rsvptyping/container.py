"""Self-describing binary container for datasets, raw recordings and models.

Layout: a 4-byte little-endian header length, a UTF-8 JSON header, then the
payload bytes. The header's "kind" field says what the payload holds:

* "epochs": float32 epochs in epoch-major, channel-major, time-minor order,
  followed by one label byte per epoch. The samples are written a chunk at
  a time as they come, to a temporary file beside the path that replaces
  it only once whole, so a refused or interrupted write leaves no file.
  They stay in the file when it is read: the dataset holds its labels and
  an EpochFile, which reads spans of epochs with os.preadv into one small
  buffer, never mapping the file, so a file cut short or changed since it
  was read is a ContainerFormatError at the next read, not a crash;
* "raw": one continuous float32 block (channel-major, time-minor) with the
  stimulus onsets carried in the header as [sample, label] pairs;
* "model": no payload. The header is the recipe ``simulate`` refits each
  split from: the model kind and its training settings, nothing else.

Headers are serialized with sorted keys and no whitespace, which makes every
writer output byte-identical for identical inputs. A header that cannot be
decoded or converted, numbers out of range included, is a ContainerFormatError.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import struct
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .dsp import RawRecording
from .kinds import MODEL_KINDS, check_train_settings
from .synth import CHUNK_EPOCHS, SPAN_EPOCHS, LabeledDataset

if TYPE_CHECKING:
    from .models import EvidenceModel

FORMAT_NAME = "rsvptyping-container"
FORMAT_VERSION = 1


class ContainerFormatError(ValueError):
    """The file is not a readable container of the expected kind."""


def _encode_header(header: dict) -> bytes:
    """The header, prefixed by its length."""
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<I", len(body)) + body


def write_container(path, header: dict, *payload) -> None:
    """Write the header, then each payload part in order. A part is any
    bytes-like object, C-contiguous arrays included, written as is."""
    with open(path, "wb") as fh:
        fh.write(_encode_header(header))
        for part in payload:
            fh.write(part)


def _read_header(fh, path, expected_kind: str) -> tuple[dict, int]:
    """The header of the open container ``fh`` and the offset of its
    payload. The header length is checked against the file's size before
    the header is read."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(4)
    if len(head) < 4:
        raise ContainerFormatError(f"{path}: too short for a container")
    (header_len,) = struct.unpack("<I", head)
    body = fh.read(header_len) if size >= 4 + header_len else b""
    if len(body) < header_len:
        raise ContainerFormatError(f"{path}: truncated header")
    try:
        header = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ContainerFormatError(f"{path}: malformed header") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ContainerFormatError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ContainerFormatError(
            f"{path}: unsupported version {header.get('version')!r}"
        )
    kind = header.get("kind")
    if kind != expected_kind:
        raise ContainerFormatError(
            f"{path}: expected kind {expected_kind!r}, found {kind!r}"
        )
    return header, 4 + header_len


def read_container(path, expected_kind: str) -> tuple[dict, memoryview]:
    """The header and a view of the payload bytes, read after the header;
    readers copy what they keep out of it."""
    try:
        with open(path, "rb") as fh:
            header, _ = _read_header(fh, path, expected_kind)
            payload = fh.read()
    except OSError as exc:
        raise ContainerFormatError(f"cannot read {path}: {exc}") from exc
    return header, memoryview(payload)


def _base_header(kind: str) -> dict:
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind}


# ---------------------------------------------------------------------------
# Epoch datasets


@contextlib.contextmanager
def _replacing(path) -> Iterator:
    """A binary file open for writing at a temporary path beside ``path``,
    moved over ``path`` when the block ends and removed if it raises. A
    path that names something other than a regular file, such as
    /dev/null, is written in place."""
    path = os.path.realpath(path)  # through a link, to the file it names
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "wb") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def write_epochs(path, labels: np.ndarray, chunks: Iterable[np.ndarray],
                 epoch_shape: tuple[int, int], rate: float | None = None) -> None:
    """Write an epochs file as its samples come: the header, then each
    chunk of whole (channels, samples) float32 epochs in order, then one
    label byte per epoch. A chunk with a sample that is not finite raises
    ValueError, and no file is left at ``path``."""
    n = len(labels)
    channels, samples = epoch_shape
    header = _base_header("epochs")
    header.update(
        {
            "n_epochs": n,
            "channels": channels,
            "samples_per_epoch": samples,
            "rate": rate,
            "label_offset": n * channels * samples * 4,
        }
    )
    with _replacing(path) as fh:
        fh.write(_encode_header(header))
        written = 0
        for chunk in chunks:
            # min and max propagate NaN and find infinities without a mask
            if not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
                raise ValueError(
                    "epochs contain non-finite samples or samples that overflow float32")
            fh.write(np.ascontiguousarray(chunk, dtype="<f4"))
            written += len(chunk)
        if written != n:
            raise ValueError(f"{written} epochs written for {n} labels")
        fh.write(np.asarray(labels).astype(np.uint8))


def write_dataset(path, dataset: LabeledDataset, rate: float | None = None) -> None:
    """Write the dataset's held epochs as an epochs file, rounded to
    float32 CHUNK_EPOCHS epochs at a time through its reader: a sample past
    float32 range becomes inf, which write_epochs refuses."""
    n, shape = len(dataset), dataset.epochs.shape[1:]

    def chunks() -> Iterator[np.ndarray]:
        buffer = np.empty((min(CHUNK_EPOCHS, n), *shape), dtype="<f4")
        with dataset.reader() as fill:
            for lo in range(0, n, CHUNK_EPOCHS):
                chunk = buffer[: min(CHUNK_EPOCHS, n - lo)]
                with np.errstate(over="ignore"):
                    fill(lo, lo + len(chunk), chunk)
                yield chunk

    write_epochs(path, dataset.labels, chunks(), shape, rate)


def _identity(status: os.stat_result) -> tuple[int, ...]:
    """What a read compares to tell that the file is the one read_dataset
    checked: the same inode, size and modification time."""
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


class EpochFile:
    """The float32 samples of an epochs file, left in the file: ``shape``
    (n, channels, samples) epochs from byte ``start`` of ``path``, read
    while the file is the one read_dataset checked."""

    dtype = np.dtype("<f4")

    def __init__(self, path, start: int, shape: tuple[int, int, int],
                 identity: tuple[int, ...]) -> None:
        self.path, self.start, self.shape, self.identity = path, start, shape, identity

    @contextlib.contextmanager
    def spans(self, most: int) -> Iterator[Callable[[int, int], np.ndarray]]:
        """A function ``read(lo, hi)`` that reads epochs lo..hi-1, at most
        ``most`` of them, by os.preadv into one float32 buffer and returns
        the (hi - lo, channels, samples) view of it that the next read
        overwrites. The file is open until the block ends. A file that is
        not the one read_dataset checked, or that is cut short under a
        read, raises ContainerFormatError."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError as exc:
            raise ContainerFormatError(f"cannot read {self.path}: {exc}") from exc
        try:
            if _identity(os.fstat(fd)) != self.identity:
                raise ContainerFormatError(f"{self.path}: changed since it was read")
            buffer = np.empty((min(most, self.shape[0]), *self.shape[1:]), dtype=self.dtype)
            whole = memoryview(buffer).cast("B")
            epoch_bytes = buffer[0].nbytes

            def read(lo: int, hi: int) -> np.ndarray:
                view, at = whole[: (hi - lo) * epoch_bytes], self.start + lo * epoch_bytes
                got = os.preadv(fd, [view], at)
                while got < len(view):  # a short read: the rest, or the end of the file
                    count = os.preadv(fd, [view[got:]], at + got)
                    if count == 0:
                        raise ContainerFormatError(f"{self.path}: cut short since it was read")
                    got += count
                return buffer[: hi - lo]

            yield read
        finally:
            os.close(fd)


def read_dataset(path) -> LabeledDataset:
    """The dataset of an epochs file: the header is checked against the
    file's size and the labels are read, while the samples, left in the
    file, are checked finite a span at a time."""
    try:
        with open(path, "rb") as fh:
            header, start = _read_header(fh, path, "epochs")
            try:
                n = int(header["n_epochs"])
                channels = int(header["channels"])
                samples = int(header["samples_per_epoch"])
                offset = int(header["label_offset"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ContainerFormatError(f"{path}: incomplete dataset header") from exc
            status = os.fstat(fh.fileno())
            expected = n * channels * samples * 4
            if (min(n, channels, samples) < 0 or offset != expected
                    or status.st_size != start + expected + n):
                raise ContainerFormatError(f"{path}: payload size does not match header")
            fh.seek(start + offset)
            labels = np.frombuffer(fh.read(n), dtype=np.uint8)
    except OSError as exc:
        raise ContainerFormatError(f"cannot read {path}: {exc}") from exc
    try:
        epochs = EpochFile(path, start, (n, channels, samples), _identity(status))
        dataset = LabeledDataset(epochs, labels)
    except ValueError as exc:
        raise ContainerFormatError(f"{path}: {exc}") from exc
    with epochs.spans(SPAN_EPOCHS) as read:
        for lo in range(0, n, SPAN_EPOCHS):
            span = read(lo, min(lo + SPAN_EPOCHS, n))
            if not (np.isfinite(span.min()) and np.isfinite(span.max())):
                raise ContainerFormatError(f"{path}: epochs contain non-finite samples")
    return dataset


# ---------------------------------------------------------------------------
# Raw recordings


def write_raw(path, recording: RawRecording) -> None:
    data = np.ascontiguousarray(recording.data, dtype="<f4")
    header = _base_header("raw")
    header.update(
        {
            "channels": recording.n_channels,
            "n_samples": recording.n_samples,
            "rate": recording.rate,
            "onsets": recording.stim_onsets.tolist(),
        }
    )
    write_container(path, header, data)


def read_raw(path) -> RawRecording:
    header, payload = read_container(path, "raw")
    try:
        channels = int(header["channels"])
        n_samples = int(header["n_samples"])
        rate = float(header["rate"])
        onsets = np.asarray(header["onsets"], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContainerFormatError(f"{path}: incomplete raw header") from exc
    if len(payload) != channels * n_samples * 4:
        raise ContainerFormatError(f"{path}: payload size does not match header")
    try:
        data = np.frombuffer(payload, dtype="<f4").reshape(channels, n_samples)
        recording = RawRecording(data=data, rate=rate, stim_onsets=onsets)
    except ValueError as exc:
        raise ContainerFormatError(f"{path}: {exc}") from exc
    # min and max propagate NaN and find infinities without a data-sized mask
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ContainerFormatError(f"{path}: recording contains non-finite samples")
    return recording


# ---------------------------------------------------------------------------
# Models


def write_model(path, model: EvidenceModel, hyper: dict | None = None) -> None:
    """Write a trained model's kind and the training settings ``hyper`` of
    its fit. ``hyper`` must pass check_train_settings for the model's kind,
    as read_model requires, before any file is created."""
    if model.kind not in MODEL_KINDS:
        raise ValueError(f"model kind {model.kind!r} cannot be serialized")
    check_train_settings(hyper or {}, model.kind)
    header = _base_header("model")
    header.update({"model": model.kind, "hyper": hyper or {}})
    write_container(path, header)


def read_model(path) -> tuple[str, dict]:
    """The model kind and the training settings its fit used. The settings
    must pass check_train_settings for the file's kind. A file that stores
    arrays was written before model files became recipes; it must be
    retrained. The ``parameters`` key that older recipes store is ignored:
    a report counts the floats of the models it scored, not of ``train``'s."""
    header, payload = read_container(path, "model")
    kind = header.get("model")
    if not (isinstance(kind, str) and kind in MODEL_KINDS):
        raise ContainerFormatError(f"{path}: unknown model kind {kind!r}")
    if "arrays" in header:
        raise ContainerFormatError(f"{path}: model file stores arrays, so an older version "
                                   "wrote it; retrain it")
    if len(payload):
        raise ContainerFormatError(f"{path}: model file has trailing bytes after its header")
    hyper = header.get("hyper", {})
    if not isinstance(hyper, dict):
        raise ContainerFormatError(f"{path}: malformed training hyperparameters")
    try:
        check_train_settings(hyper, kind)
    except ValueError as exc:
        raise ContainerFormatError(f"{path}: malformed training hyperparameters: {exc}") from exc
    return kind, hyper
