"""The benchmark's tracer reaches the names the package calls: every fit
named in models.MODEL_KINDS and both trained models' ``predict_batch``. A
fit name the tracer cannot wrap would leave the benchmark's fit time at 0."""

import importlib.util
from pathlib import Path

from rsvptyping import cli, models

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Names the tracer still lists for functions the package no longer has.
DEAD_NAMES = {"models.apply_zscore", "sim.select_query", "sim.init_posterior",
              "sim.apply_query", "sim.decide"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_targets():
    return [getattr(cli, entry.fit) for entry in models.MODEL_KINDS.values()] + [
        models.LogisticEvidenceModel.predict_batch,
        models.GenerativeEvidenceModel.predict_batch,
    ]


def test_install_wraps_every_fit_and_scoring_name():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        missing = tracing.install(tracer)
        wrapped = [hasattr(target, "__wrapped__") for target in wrapped_targets()]
    finally:
        tracer.restore()
    assert all(wrapped)
    assert set(missing) <= DEAD_NAMES
    assert not any(hasattr(target, "__wrapped__") for target in wrapped_targets())
