"""Self-tests of the benchmark: span arithmetic, and smoke-sized runs of
every workload that must emit every metric BENCHMARK.json names.

Run from the root of a source checkout: ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, covered_ns, layer_metrics, self_times_ns  # noqa: E402
from run import Checker, in_process_pass  # noqa: E402
from workloads import Plan, Step, check_report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(name, layer, parent, start, end, measure=None):
    return [name, layer, parent, start, end, measure]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(10, 20, [(0, 5), (25, 30)]) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("cli.main", "cli", -1, 0, 1000),
        span("sim.run_typing", "sim", 0, 100, 700),
        span("core.apply_query", "core", 1, 200, 300),
        span("core.apply_query", "core", 1, 400, 600),
        span("container.write", "container", 0, 800, 900, 42),
    ]
    assert self_times_ns(spans) == [1000 - 600 - 100, 600 - 300, 100, 200, 100]
    metrics = layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(300e-9)
    assert metrics["sim.self_s"] == pytest.approx(300e-9)
    assert metrics["core.self_s"] == pytest.approx(300e-9)
    assert metrics["core.apply_query_calls"] == 2
    assert metrics["container.bytes_written"] == 42
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(1000e-9)


def test_tracer_nests_spans_and_restores_wrapped_functions():
    owner = types.SimpleNamespace(inner=lambda x: x + 1)

    def outer(x):
        return owner.inner(x) * 2

    original = owner.inner
    tracer = Tracer()
    assert tracer.wrap(owner, "inner", "core.inner", "core", lambda a, k, r: r)
    assert not tracer.wrap(owner, "absent", "core.absent", "core")
    assert tracer.call("cli.main", "cli", outer, 3) == 8
    tracer.restore()
    assert owner.inner is original
    (top, child) = tracer.spans
    assert top[:3] == ["cli.main", "cli", -1] and child[:3] == ["core.inner", "core", 0]
    assert top[3] <= child[3] <= child[4] <= top[4] and child[5] == 4


def test_report_check_holds_balanced_accuracy_to_the_band(tmp_path):
    path = tmp_path / "report.json"
    row = {"balanced_accuracy": 0.7384, "typing_accuracy": 0.5, "itr_bits_per_symbol": 1.0}
    path.write_text(json.dumps({"splits": [row]}), encoding="utf-8")
    assert check_report(path, 1, (0.72, 0.80)) is None
    assert "outside" in check_report(path, 1, (0.75, 0.80))
    assert "splits" in check_report(path, 2, (0.72, 0.80))


def test_a_rerun_that_writes_no_output_fails(tmp_path):
    step = Step("prepare", ("synth",), ("data.bin",))
    plan = Plan(steps=[step], splits=1)
    checker = Checker(plan, tmp_path)

    def writes_once(argv):
        if checker.attempted == 0:
            (tmp_path / "data.bin").write_bytes(b"epochs")
        return 0

    in_process_pass(plan, checker, writes_once)
    in_process_pass(plan, checker, writes_once)
    assert checker.attempted == 2
    assert checker.problems == ["prepare: missing output data.bin"]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, section):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
