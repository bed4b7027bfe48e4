"""In-memory span tracing for the benchmark's traced run.

The tracer replaces public functions of the package with thin wrappers, at
the module attributes their callers look them up by, so no source file of
the package changes. Each call becomes one span: a name, the layer (module)
it belongs to, the span that was open when it started, its start and end in
nanoseconds, and an optional measurement taken from its arguments or result
(bytes of a file, epochs in a batch, events in a query, ...).

Spans stay in a list until the run ends; ``layer_metrics`` turns them into
the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
from time import perf_counter_ns
from typing import Any, Callable, Optional

LAYERS = ("cli", "container", "dsp", "synth", "models", "sim", "core", "reports")

# A span record is a list: [name, layer, parent index, start ns, end ns, measure].
NAME, LAYER, PARENT, START, END, MEASURE = range(6)


class Tracer:
    """Records nested spans of one thread and owns the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; used for the top-level CLI call."""
        return self._wrapper(fn, name, layer, None)(*args, **kwargs)

    def _wrapper(self, fn: Callable, name: str, layer: str, measure: Optional[Callable]):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                record[MEASURE] = measure(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             measure: Optional[Callable] = None) -> bool:
        """Replace ``owner.attr`` with a span wrapper; False if it is absent."""
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        setattr(owner, attr, self._wrapper(original, name, layer, measure))
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "parent", "start_ns", "end_ns", "measure"],
                       "spans": self.spans}, fh, default=str)


# ---------------------------------------------------------------------------
# What to wrap


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _sample_sections(args, kwargs, result):
    coeffs, signal = args[0], args[1]
    sections = 1 if hasattr(coeffs, "b0") else len(coeffs)
    return sections * int(getattr(signal, "size", 0))


def _length_of(position: int):
    def measure(args, kwargs, result):
        try:
            return len(args[position])
        except (IndexError, TypeError):
            return 0
    return measure


def _gradient_norm(args, kwargs, result):
    import numpy as np

    _, grad_w, grad_b = result
    return math.hypot(float(np.linalg.norm(grad_w)), float(grad_b))


def _tolerance_of(fn: Callable):
    signature = inspect.signature(fn)

    def measure(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments.get("tolerance")
    return measure


def _typing_outcome(args, kwargs, result):
    return [result.attempts, result.correct + result.wrong]


def install(tracer: Tracer) -> list[str]:
    """Wrap the package's public functions; returns the names not found.

    Each entry is (module, attribute, span name, layer, measure). A function
    imported by name into another module is wrapped in that module, because
    that is where its callers look it up.
    """
    models = importlib.import_module("rsvptyping.models")
    train_logistic = getattr(models, "train_logistic", None)
    table = [
        ("cli", "read_dataset", "container.read", "container", _file_size),
        ("cli", "read_raw", "container.read", "container", _file_size),
        ("cli", "read_model", "container.read", "container", _file_size),
        ("cli", "write_dataset", "container.write", "container", _file_size),
        ("cli", "write_model", "container.write", "container", _file_size),
        ("cli", "write_report_json", "reports.write", "reports", None),
        ("cli", "write_csv", "reports.write", "reports", None),
        ("cli", "generate", "synth.generate", "synth", None),
        ("cli", "split", "synth.split", "synth", None),
        ("synth", "split", "synth.split", "synth", None),
        ("synth", "filter_forward", "dsp.filter_forward", "dsp", _sample_sections),
        ("cli", "filter_forward", "dsp.filter_forward", "dsp", _sample_sections),
        ("cli", "downsample", "dsp.downsample", "dsp", None),
        ("cli", "epoch", "dsp.epoch", "dsp", None),
        ("cli", "exclude_channels", "dsp.exclude_channels", "dsp", None),
        ("models", "fit_zscore", "dsp.zscore", "dsp", None),
        ("models", "zscore_array", "dsp.zscore", "dsp", None),
        ("models", "apply_zscore", "dsp.zscore", "dsp", None),
        ("cli", "train_logistic_evidence", "models.fit", "models", None),
        ("cli", "build_generative", "models.fit", "models", None),
        ("models", "train_logistic", "models.train_logistic", "models",
         _tolerance_of(train_logistic) if train_logistic else None),
        ("models", "logistic_loss_and_gradient", "models.loss_and_gradient", "models",
         _gradient_norm),
        ("models", "train_lda", "models.train_lda", "models", None),
        ("models", "fit_pca", "models.fit_pca", "models", None),
        ("models", "fit_kde", "models.fit_kde", "models", None),
        ("models.LogisticEvidenceModel", "predict_batch", "models.predict_batch", "models",
         _length_of(1)),
        ("models.GenerativeEvidenceModel", "predict_batch", "models.predict_batch", "models",
         _length_of(1)),
        ("cli", "evaluate_splits", "sim.evaluate_splits", "sim", None),
        ("cli", "classify_epochs", "sim.classify_epochs", "sim", None),
        ("sim", "classify_epochs", "sim.classify_epochs", "sim", None),
        ("sim", "run_typing", "sim.run_typing", "sim", _typing_outcome),
        ("sim", "select_query", "sim.select_query", "sim", None),
        ("sim", "init_posterior", "core.init_posterior", "core", None),
        ("sim", "apply_query", "core.apply_query", "core", _length_of(1)),
        ("sim", "decide", "core.decide", "core", None),
    ]
    missing = []
    for where, attr, name, layer, measure in table:
        module_name, _, class_name = where.partition(".")
        owner = importlib.import_module(f"rsvptyping.{module_name}")
        if class_name:
            owner = getattr(owner, class_name, None)
        if owner is None or not tracer.wrap(owner, attr, name, layer, measure):
            missing.append(f"{where}.{attr}")
    return missing


# ---------------------------------------------------------------------------
# From spans to metrics


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_ns(span[START], span[END], children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics, named after the package's modules."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    measures: dict[str, list] = {}
    for span in spans:
        name = span[NAME]
        seconds[name] = seconds.get(name, 0.0) + (span[END] - span[START]) / 1e9
        calls[name] = calls.get(name, 0) + 1
        if span[MEASURE] is not None:
            measures.setdefault(name, []).append(span[MEASURE])

    def total(name: str) -> float:
        return float(sum(measures.get(name, ())))

    fits = [i for i, span in enumerate(spans) if span[NAME] == "models.fit"]
    typing = measures.get("sim.run_typing", [])
    attempts = sum(t[0] for t in typing)
    decided = sum(t[1] for t in typing)
    sections = total("dsp.filter_forward")
    events = total("core.apply_query")
    epochs = total("models.predict_batch")

    metrics = {
        "models.fit_s": seconds.get("models.fit", 0.0),
        "models.fit_iterations": _ratio(calls.get("models.loss_and_gradient", 0), len(fits)),
        "models.fit_converged_fraction": _ratio(
            sum(_fit_converged(spans, i) for i in fits), len(fits)
        ),
        "models.predict_batch_us_per_epoch": _ratio(
            seconds.get("models.predict_batch", 0.0) * 1e6, epochs
        ),
        "core.apply_query_calls": float(calls.get("core.apply_query", 0)),
        "core.events_applied": events,
        "core.update_us_per_event": _ratio(seconds.get("core.apply_query", 0.0) * 1e6, events),
        "core.decide_us_per_call": _ratio(
            seconds.get("core.decide", 0.0) * 1e6, calls.get("core.decide", 0)
        ),
        "sim.run_typing_s": seconds.get("sim.run_typing", 0.0),
        "sim.ms_per_attempt": _ratio(seconds.get("sim.run_typing", 0.0) * 1e3, attempts),
        "sim.rounds_per_attempt": _ratio(calls.get("sim.select_query", 0), attempts),
        "sim.select_query_us_per_call": _ratio(
            seconds.get("sim.select_query", 0.0) * 1e6, calls.get("sim.select_query", 0)
        ),
        "sim.decided_fraction": _ratio(decided, attempts),
        "dsp.filter_forward_s": seconds.get("dsp.filter_forward", 0.0),
        "dsp.filter_forward_sample_sections": sections,
        "dsp.filter_forward_ns_per_sample_section": _ratio(
            seconds.get("dsp.filter_forward", 0.0) * 1e9, sections
        ),
        "dsp.zscore_s": seconds.get("dsp.zscore", 0.0),
        "dsp.epoch_s": seconds.get("dsp.epoch", 0.0),
        "synth.generate_s": seconds.get("synth.generate", 0.0),
        "synth.split_s": seconds.get("synth.split", 0.0),
        "container.read_s": seconds.get("container.read", 0.0),
        "container.write_s": seconds.get("container.write", 0.0),
        "container.bytes_read": total("container.read"),
        "container.bytes_written": total("container.write"),
    }
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times_ns(spans)):
        self_by_layer[span[LAYER]] = self_by_layer.get(span[LAYER], 0.0) + own / 1e9
    for layer, value in self_by_layer.items():
        metrics[f"{layer}.self_s"] = value
    return metrics


def _fit_converged(spans: list[list], fit: int) -> bool:
    """A fit converged unless an iterative optimizer inside it stopped with
    its last gradient norm above its tolerance. Closed-form fits converge."""
    inside = {fit}
    last_norm: dict[int, float] = {}
    for i in range(fit + 1, len(spans)):
        span = spans[i]
        if span[PARENT] not in inside:
            if span[START] >= spans[fit][END]:
                break
            continue
        inside.add(i)
        if span[NAME] == "models.loss_and_gradient":
            last_norm[span[PARENT]] = span[MEASURE]
    for i in inside:
        span = spans[i]
        if span[NAME] == "models.train_logistic" and span[MEASURE] is not None:
            if i in last_norm and last_norm[i] > span[MEASURE]:
                return False
    return True
