"""The benchmark's tracer reaches the names the package calls: every fit
named in models.MODEL_KINDS and both trained models' ``predict_batch``. A
fit name the tracer cannot wrap would leave the benchmark's fit time at 0.
A traced fit counts its Newton iterates as the benchmark reports them."""

import importlib.util
import re
from pathlib import Path

import pytest

from rsvptyping import cli, models

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Names the tracer still lists for functions the package no longer has, or
# no longer calls from there: synth draws its chunks with draw, not generate.
DEAD_NAMES = {"models.apply_zscore", "models.fit_zscore", "models.zscore_array",
              "sim.select_query", "sim.init_posterior", "sim.apply_query", "sim.decide",
              "cli.generate"}


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


@pytest.mark.parametrize("kind", ["logreg", "gen-logr"])
def test_traced_fit_counts_one_loss_and_gradient_call_per_iterate(tmp_path, capsys, kind):
    # the benchmark's models.fit_iterations counts the fit's calls of
    # logistic_loss_and_gradient, one per read of its rows; a fit with no
    # step halving reads them steps + 1 times
    config = tmp_path / "synth.cfg"
    config.write_text("n_epochs = 300\nchannels = 3\ntarget_fraction = 0.25\n")
    data, model = tmp_path / "data.bin", tmp_path / "model.bin"
    assert cli.main(["synth", "--config", str(config), "--out", str(data)]) == 0
    capsys.readouterr()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["train", str(data), "--kind", kind, "--out", str(model)]) == 0
    finally:
        tracer.restore()
    steps = int(re.search(r"^fit: (\d+) Newton steps", capsys.readouterr().out, re.M).group(1))
    metrics = tracing.layer_metrics(tracer.spans)
    assert steps >= 1
    assert metrics["models.fit_iterations"] == steps + 1
    assert metrics["models.fit_converged_fraction"] == 1.0
