"""Report emission: structured JSON plus a flat CSV table.

Both artifacts are deterministic byte for byte: keys are sorted, floats are
rounded to six decimals before serialization, and rows are emitted in a
stable order. A report echoes the complete resolved configuration, so the
run that produced it can be reproduced from the report alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import TYPE_CHECKING, Sequence

from . import __version__

if TYPE_CHECKING:
    from .sim import SplitSummary

CSV_COLUMNS = ("model", "parameters", "balanced_accuracy", "itr")


def fixed(value: float) -> float:
    """Six-decimal fixed precision, as a float for clean JSON output."""
    return float(f"{value:.6f}")


def build_report(
    command: str,
    seed: int,
    config_echo: dict,
    model_kind: str,
    summary: SplitSummary,
) -> dict:
    """The report of one run. Its ``parameters`` is the parameter count of
    split 0's model: stratified splits give every split the same training
    size, so every split's model holds the same number of floats."""
    return {
        "tool": "rsvptyping",
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "config": config_echo,
        "model": {"kind": model_kind, "parameters": summary.per_split[0].parameter_count},
        "splits": [
            {
                "split": row.split_index,
                "balanced_accuracy": fixed(row.balanced_accuracy),
                "typing_accuracy": fixed(row.typing.accuracy),
                "itr_bits_per_symbol": fixed(row.typing.itr_bits_per_symbol),
                "outcomes": {
                    "correct": row.typing.correct,
                    "wrong": row.typing.wrong,
                    "timeout": row.typing.timeout,
                },
                "rounds_to_decision": list(row.typing.rounds_to_decision),
            }
            for row in summary.per_split
        ],
        "aggregate": {
            "balanced_accuracy": {
                "mean": fixed(summary.mean_balanced_accuracy),
                "std": fixed(summary.std_balanced_accuracy),
            },
            "itr_bits_per_symbol": {
                "mean": fixed(summary.mean_itr),
                "std": fixed(summary.std_itr),
            },
        },
    }


def write_report_json(path, report: dict) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_report_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def report_csv_row(report: dict) -> dict:
    """The flat per-model row used for size-vs-performance tables; raises
    ValueError when a field the row needs has the wrong type or value."""
    kind, parameters = report["model"]["kind"], report["model"]["parameters"]
    ba = report["aggregate"]["balanced_accuracy"]["mean"]
    itr = report["aggregate"]["itr_bits_per_symbol"]["mean"]
    if not isinstance(kind, str):
        raise ValueError(f"model kind must be a string, got {kind!r}")
    if not isinstance(parameters, int) or isinstance(parameters, bool):
        raise ValueError(f"model parameters must be an integer, got {parameters!r}")
    for mean in (ba, itr):
        # by type, not isinstance: a JSON true is a bool, an int that reads as 1
        if type(mean) not in (int, float) or not math.isfinite(mean):
            raise ValueError(f"aggregate means must be finite numbers, got {mean!r}")
    return {
        "model": kind,
        "parameters": parameters,
        "balanced_accuracy": f"{ba:.6f}",
        "itr": f"{itr:.6f}",
    }


def write_csv(path, rows: Sequence[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buffer.getvalue())


def csv_path_for(report_path) -> str:
    text = str(report_path)
    if text.endswith(".json"):
        return text[: -len(".json")] + ".csv"
    return text + ".csv"
