"""The benchmark's workloads: their inputs, commands and output checks.

Every input is made from the run's seed. A workload is a list of CLI
commands run in order in one work directory; each command has a role
(``prepare``, ``train`` or ``simulate``) and the output files whose bytes a
rerun must reproduce.

* ``pipeline-logreg``: synth at the README config, train a ``logreg`` model,
  simulate it with ``sample-with-replacement``. The logistic fit (10,000
  gradient steps, once in ``train`` and once per split) is almost all of it.
  Its balanced accuracy must lie in the acceptance suite's [0.72, 0.80].
* ``pipeline-gen-lda``: the same data, a ``gen-lda`` model and
  ``sample-without-replacement``. The fit is cheap; typing (about 10 rounds
  and 100 posterior updates per attempt) is most of ``simulate``.
* ``preprocess-raw``: preprocess a long raw recording (written untimed as
  input), then train and simulate a ``gen-lda`` model on the epochs, which
  checks that the ERP survives the filters. ``dsp.filter_forward`` runs
  narrow and long here (8 rows, 153,600 time steps); in ``synth`` it runs
  wide and short (36,000 rows, 124 time steps).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# The README synth config, its seed included, and the default split seed.
# The run's seed picks the train holdout and the typing draws. A
# seed-dependent dataset or split would change how fast attempts decide, and
# with it the typing work of a run: across synth seeds 1-8, gen-lda typing
# accuracy ran from 0.019 to 0.55.
SYNTH = {"n_epochs": 6000, "channels": 6, "target_fraction": 0.0357142857, "seed": 0}
SMOKE_SYNTH = {"n_epochs": 300, "channels": 3, "target_fraction": 0.25, "seed": 0}

# Raw recording for preprocess-raw: 8 channels at 256 Hz with a stimulus
# every half second, one in five a target carrying an ERP bump.
RAW_RATE = 256.0
RAW_CHANNELS = 8
RAW_MINUTES = 10.0
SMOKE_RAW_MINUTES = 1.0
ONSET_SPACING_S = 0.5
TARGET_FRACTION = 0.2
ERP_AMPLITUDE = 0.3
# The acceptance suite's band for logreg balanced accuracy at the README
# config, held here on split 0 of the README dataset (0.7384 at the seed
# commit). Smoke-sized data is too small for it.
LOGREG_BAND = (0.72, 0.80)
PREPROCESS = {"notch_hz": 50, "band_low": 1, "band_high": 20,
              "downsample_factor": 2, "window_ms": 500}


@dataclass(frozen=True)
class Step:
    role: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass
class Plan:
    """The commands of one workload, plus what their outputs must satisfy."""

    steps: list[Step]
    splits: int
    accuracy_band: tuple[float, float] = (0.0, 1.0)
    onsets: int = 0
    expected_dropped: int = 0

    def check(self, step: Step, work: Path, stdout: str) -> Optional[str]:
        """None when the step's output is right, else what is wrong."""
        for name in step.outputs:
            if not (work / name).is_file():
                return f"{step.role}: missing output {name}"
        if step.role == "simulate":
            return check_report(work / "report.json", self.splits, self.accuracy_band)
        if step.argv[0] == "preprocess":
            return self._check_epochs(work, stdout)
        return None

    def _check_epochs(self, work: Path, stdout: str) -> Optional[str]:
        from rsvptyping.container import read_container

        fields = stdout.replace(":", " ").split()
        try:
            written = int(fields[fields.index("epochs") + 1])
            dropped = int(fields[fields.index("boundary") + 1])
        except (ValueError, IndexError):
            return "preprocess: epoch counts missing from its output"
        header, _ = read_container(work / "epochs.bin", "epochs")
        if header["n_epochs"] != written:
            return f"preprocess: file holds {header['n_epochs']} epochs, printed {written}"
        if (written, dropped) != (self.onsets - self.expected_dropped, self.expected_dropped):
            return (f"preprocess: wrote {written} and dropped {dropped} of {self.onsets} "
                    f"onsets, expected {self.expected_dropped} dropped")
        return None


def check_report(path: Path, splits: int, band: tuple[float, float]) -> Optional[str]:
    """The report has one row per configured split, finite metrics, and a
    mean balanced accuracy inside ``band``."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        rows = report["splits"]
        values = [row[key] for row in rows
                  for key in QUALITY]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"simulate: unreadable report ({exc})"
    if len(rows) != splits:
        return f"simulate: report has {len(rows)} splits, configured {splits}"
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "simulate: report has a non-finite metric"
    accuracy = sum(row["balanced_accuracy"] for row in rows) / len(rows)
    if not band[0] <= accuracy <= band[1]:
        return f"simulate: balanced accuracy {accuracy:.4f} outside [{band[0]}, {band[1]}]"
    return None


QUALITY = ("balanced_accuracy", "typing_accuracy", "itr_bits_per_symbol")


def report_quality(path: Path) -> dict[str, float]:
    """Means over splits of the report's quality columns; zeros when the
    report is unusable, which ``check_report`` has already counted."""
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))["splits"]
        return {key: sum(row[key] for row in rows) / len(rows) for key in QUALITY}
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return dict.fromkeys(QUALITY, 0.0)


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def _pipeline(work: Path, seed: int, smoke: bool, kind: str, strategy: str,
              attempts: int, band: tuple[float, float] = (0.0, 1.0)) -> Plan:
    _write_config(work / "synth.cfg", SMOKE_SYNTH if smoke else SYNTH)
    splits = 1
    _write_config(work / "sim.cfg", {
        "attempts": 50 if smoke else attempts, "max_rounds": 10, "symbols_per_query": 10,
        "threshold": 0.9, "query_strategy": strategy, "splits": splits, "seed": seed,
    })
    steps = [
        Step("prepare", ("synth", "--config", "synth.cfg", "--out", "data.bin"), ("data.bin",)),
        Step("train", ("train", "data.bin", "--kind", kind, "--seed", str(seed),
                       "--out", "model.bin"), ("model.bin",)),
        Step("simulate", ("simulate", "model.bin", "data.bin", "--config", "sim.cfg",
                          "--out", "report.json"), ("report.json", "report.csv")),
    ]
    return Plan(steps=steps, splits=splits, accuracy_band=(0.0, 1.0) if smoke else band)


def raw_recording(seed: int, minutes: float):
    """A continuous recording with line noise, background noise and an ERP
    bump after each target onset. The last onsets sit too close to the end
    for a full epoch, so preprocessing drops some of them."""
    from rsvptyping.dsp import RawRecording

    rng = np.random.default_rng(seed)
    n = int(minutes * 60 * RAW_RATE)
    t = np.arange(n) / RAW_RATE
    phases = rng.uniform(0, 2 * np.pi, size=(RAW_CHANNELS, 1))
    data = 2.0 * np.sin(2 * np.pi * 50.0 * t + phases)
    data += rng.standard_normal((RAW_CHANNELS, n))
    data += 0.02 * np.cumsum(rng.standard_normal((RAW_CHANNELS, n)), axis=1) / math.sqrt(RAW_RATE)

    spacing = int(ONSET_SPACING_S * RAW_RATE)
    starts = np.arange(spacing, n - spacing // 4, spacing)
    starts = starts + rng.integers(0, spacing // 4, size=starts.size)
    labels = (rng.random(starts.size) < TARGET_FRACTION).astype(int)
    lag = np.arange(int(0.5 * RAW_RATE)) / RAW_RATE
    bump = ERP_AMPLITUDE * np.exp(-0.5 * ((lag - 0.3) / 0.06) ** 2)
    for start in starts[labels == 1]:
        stop = min(n, start + bump.size)
        data[:, start:stop] += bump[: stop - start]
    onsets = tuple(zip(starts.tolist(), labels.tolist()))
    return RawRecording(data=data, rate=RAW_RATE, stim_onsets=onsets)


def expected_dropped(n_samples: int, onsets, factor: int, window_ms: float, rate: float) -> int:
    """Onsets whose epoch would run past the end after downsampling."""
    kept = -(-n_samples // factor)
    window = int(math.floor(window_ms * (rate / factor) / 1000.0))
    return sum(1 for start, _ in onsets if start // factor + window > kept)


def _preprocess(work: Path, seed: int, smoke: bool) -> Plan:
    from rsvptyping.container import write_raw

    recording = raw_recording(seed, SMOKE_RAW_MINUTES if smoke else RAW_MINUTES)
    write_raw(work / "raw.bin", recording)
    _write_config(work / "prep.cfg", PREPROCESS)
    splits = 1
    _write_config(work / "sim.cfg", {
        "attempts": 50 if smoke else 100, "splits": splits, "seed": seed,
    })
    steps = [
        Step("prepare", ("preprocess", "raw.bin", "--config", "prep.cfg",
                         "--out", "epochs.bin"), ("epochs.bin",)),
        Step("train", ("train", "epochs.bin", "--kind", "gen-lda", "--seed", str(seed),
                       "--out", "model.bin"), ("model.bin",)),
        Step("simulate", ("simulate", "model.bin", "epochs.bin", "--config", "sim.cfg",
                          "--out", "report.json"), ("report.json", "report.csv")),
    ]
    dropped = expected_dropped(recording.n_samples, recording.stim_onsets,
                               PREPROCESS["downsample_factor"], PREPROCESS["window_ms"],
                               RAW_RATE)
    return Plan(steps=steps, splits=splits, onsets=len(recording.stim_onsets),
                expected_dropped=dropped)


WORKLOADS: dict[str, Callable[[Path, int, bool], Plan]] = {
    "pipeline-logreg": lambda work, seed, smoke: _pipeline(
        work, seed, smoke, "logreg", "sample-with-replacement", attempts=1000,
        band=LOGREG_BAND),
    "pipeline-gen-lda": lambda work, seed, smoke: _pipeline(
        work, seed, smoke, "gen-lda", "sample-without-replacement", attempts=500),
    "preprocess-raw": _preprocess,
}
