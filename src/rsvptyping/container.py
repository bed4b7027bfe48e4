"""Self-describing binary container for datasets, raw recordings and models.

Layout: a 4-byte little-endian header length, a UTF-8 JSON header, then the
payload bytes. The header's "kind" field says what the payload holds:

* "epochs": float32 epochs in epoch-major, channel-major, time-minor order,
  followed by one label byte per epoch; read back as a float32 view;
* "raw": one continuous float32 block (channel-major, time-minor) with the
  stimulus onsets carried in the header as [sample, label] pairs;
* "model": float64 arrays back to back, listed with names and shapes in the
  header, so trained models round-trip bit for bit.

Headers are serialized with sorted keys and no whitespace, which makes every
writer output byte-identical for identical inputs. A header that cannot be
decoded or converted, numbers out of range included, is a ContainerFormatError.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .dsp import RawRecording
from .models import MODEL_KINDS, EvidenceModel, check_kind_settings
from .synth import LabeledDataset

FORMAT_NAME = "rsvptyping-container"
FORMAT_VERSION = 1


class ContainerFormatError(ValueError):
    """The file is not a readable container of the expected kind."""


def _encode_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path, header: dict, *payload) -> None:
    """Write the header, then each payload part in order. A part is any
    bytes-like object, C-contiguous arrays included, written as is."""
    body = _encode_header(header)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(body)))
        fh.write(body)
        for part in payload:
            fh.write(part)


def read_container(path, expected_kind: str) -> tuple[dict, memoryview]:
    """The header and a view of the payload in the file's bytes, not a copy;
    readers copy what they keep out of it."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ContainerFormatError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 4:
        raise ContainerFormatError(f"{path}: too short for a container")
    (header_len,) = struct.unpack("<I", blob[:4])
    if len(blob) < 4 + header_len:
        raise ContainerFormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[4 : 4 + header_len].decode("utf-8"))
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
    return header, memoryview(blob)[4 + header_len :]


def _base_header(kind: str) -> dict:
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind}


# ---------------------------------------------------------------------------
# Epoch datasets


def write_dataset(path, dataset: LabeledDataset, rate: float | None = None) -> None:
    stacked = np.ascontiguousarray(dataset.data, dtype="<f4")
    labels = dataset.labels.astype(np.uint8)
    n, channels, samples = stacked.shape
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
    write_container(path, header, stacked, labels)


def read_dataset(path) -> LabeledDataset:
    header, payload = read_container(path, "epochs")
    try:
        n = int(header["n_epochs"])
        channels = int(header["channels"])
        samples = int(header["samples_per_epoch"])
        offset = int(header["label_offset"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerFormatError(f"{path}: incomplete dataset header") from exc
    expected = n * channels * samples * 4
    if offset != expected or len(payload) != expected + n:
        raise ContainerFormatError(f"{path}: payload size does not match header")
    labels = np.frombuffer(payload[offset:], dtype=np.uint8)
    try:
        data = np.frombuffer(payload[:offset], dtype="<f4").reshape(n, channels, samples)
        dataset = LabeledDataset(data=data, labels=labels)
    except ValueError as exc:
        raise ContainerFormatError(f"{path}: {exc}") from exc
    # min and max propagate NaN and find infinities without a data-sized mask
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
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
    if not np.all(np.isfinite(recording.data)):
        raise ContainerFormatError(f"{path}: recording contains non-finite samples")
    return recording


# ---------------------------------------------------------------------------
# Models


def write_model(path, model: EvidenceModel, hyper: dict | None = None) -> None:
    """Serialize a trained model as its stored arrays, named and in order;
    float64 payload gives bit-exact loading. ``hyper`` is checked as
    read_model checks it, before any file is created."""
    if model.kind not in MODEL_KINDS:
        raise ValueError(f"model kind {model.kind!r} cannot be serialized")
    check_kind_settings(model.kind, hyper or {})
    arrays = model.stored_arrays()
    header = _base_header("model")
    header["model"] = model.kind
    header["arrays"] = [{"name": name, "shape": list(np.shape(arr))}
                        for name, arr in zip(model.array_names, arrays, strict=True)]
    header["hyper"] = hyper or {}
    write_container(path, header, *(np.ascontiguousarray(arr, dtype="<f8") for arr in arrays))


def _valid_array_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(s) is int and s >= 0 for s in entry["shape"])
    )


def _read_arrays(path, header: dict, payload: memoryview) -> dict[str, np.ndarray]:
    entries = header.get("arrays", [])
    if not isinstance(entries, list) or not all(map(_valid_array_entry, entries)):
        raise ContainerFormatError(f"{path}: malformed model array table")
    out = {}
    offset = 0
    for entry in entries:
        if entry["name"] in out:
            raise ContainerFormatError(f"{path}: duplicate model array {entry['name']!r}")
        shape = tuple(entry["shape"])
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(payload):
            raise ContainerFormatError(f"{path}: model payload truncated")
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8")
        out[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(payload):
        raise ContainerFormatError(f"{path}: model payload has trailing bytes")
    return out


def read_model(path) -> tuple[EvidenceModel, dict]:
    """Load a trained model plus the hyperparameters it was trained with."""
    header, payload = read_container(path, "model")
    kind = header.get("model")
    if not (isinstance(kind, str) and kind in MODEL_KINDS):
        raise ContainerFormatError(f"{path}: unknown model kind {kind!r}")
    record = MODEL_KINDS[kind].record
    layout = record.array_names
    arrays = _read_arrays(path, header, payload)
    missing = [name for name in layout if name not in arrays]
    if missing:
        raise ContainerFormatError(f"{path}: missing model arrays {', '.join(missing)}")
    if tuple(arrays) != layout:
        raise ContainerFormatError(f"{path}: model arrays {', '.join(arrays)} are not the "
                                   f"{kind} layout {', '.join(layout)}")
    hyper = header.get("hyper", {})
    if not isinstance(hyper, dict):
        raise ContainerFormatError(f"{path}: malformed training hyperparameters")
    try:
        check_kind_settings(kind, hyper)
    except ValueError as exc:
        raise ContainerFormatError(f"{path}: malformed training hyperparameters: {exc}") from exc
    try:
        return record.from_arrays(kind, *arrays.values()), hyper
    except (TypeError, ValueError) as exc:
        raise ContainerFormatError(f"{path}: invalid model: {exc}") from exc
