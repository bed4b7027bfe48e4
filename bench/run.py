#!/usr/bin/env python3
"""Benchmark of the rsvptyping CLI, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload pipeline-gen-lda --seed 1 --seconds 24 --trace 0

``--trace 0`` runs each command of the workload as a separate
``python -m rsvptyping.cli`` process, as a user would, and reports
end-to-end metrics. It repeats the workload's commands on the same inputs
until ``--seconds`` have passed (at least once), then reruns alone each
command that is short but has fewer than five times. Times are medians,
and every rerun of a command must reproduce its first output files byte
for byte.

``--trace 1`` calls ``rsvptyping.cli.main`` in this process instead, in
pairs of one untraced pass and one pass with span wrappers on the package's
public functions (see ``tracing.py``), until ``--seconds`` have passed. It
reports per-layer metrics, medians over the traced passes, plus the tracing
overhead as traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(machine facts, per-pass samples, report quality) goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json`` and, for a traced run,
the spans to ``...-spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Plan, report_quality  # noqa: E402

COLD_STARTS = 3
MIN_SAMPLES = 5
ROLES = ("prepare", "train", "simulate")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def remove_outputs(step, work: Path) -> None:
    """Delete a step's output files, so each run of it must write its own."""
    for name in step.outputs:
        (work / name).unlink(missing_ok=True)


class Checker:
    """Counts commands and checks each one: its exit code, the workload's
    output checks, and that a rerun reproduces its first output files."""

    def __init__(self, plan: Plan, work: Path) -> None:
        self.plan, self.work = plan, work
        self.attempted = 0
        self.problems: list[str] = []
        self._first_outputs: dict[str, str] = {}

    def record(self, problem) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)

    def command(self, step, code, stdout: str) -> None:
        outputs = {name: sha256(self.work / name) for name in step.outputs
                   if (self.work / name).is_file()}
        changed = sorted(name for name, digest in outputs.items()
                         if self._first_outputs.setdefault(name, digest) != digest)
        if code:
            self.record(f"{step.argv[0]}: exit {code}")
        else:
            self.record(self.plan.check(step, self.work, stdout)
                        or (f"rerun changed {', '.join(changed)}" if changed else None))


def cli_process(argv, work: Path) -> tuple[float, int, float, str]:
    """Run one CLI command in a fresh interpreter.

    Returns (seconds, exit code, max RSS in MB, stdout).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(work / "stdout.txt", "w+b") as out, open(work / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rsvptyping.cli", *argv],
                                cwd=work, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, stdout


def run_untraced(plan: Plan, work: Path, seconds: float, checker: Checker) -> tuple[dict, dict]:
    """Full passes until ``seconds`` have passed, then lone reruns of the
    commands that are short but have fewer than MIN_SAMPLES times."""
    setup: list[float] = []
    times: dict[str, list[float]] = {role: [] for role in ROLES}
    peak_rss = 0.0

    def cold_start() -> None:
        elapsed, code, _, _ = cli_process(["--version"], work)
        checker.record(f"--version: exit {code}" if code else None)
        setup.append(elapsed)

    def run_step(step) -> float:
        nonlocal peak_rss
        remove_outputs(step, work)
        elapsed, code, rss, stdout = cli_process(step.argv, work)
        checker.command(step, code, stdout)
        times[step.role].append(elapsed)
        peak_rss = max(peak_rss, rss)
        return elapsed

    for _ in range(COLD_STARTS):
        cold_start()
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        cold_start()  # one per pass, so the median sees the whole run
        walls.append(sum(run_step(step) for step in plan.steps))
    for step in plan.steps:
        while (len(times[step.role]) < MIN_SAMPLES
               and statistics.median(times[step.role]) < seconds / 10):
            cold_start()
            run_step(step)

    metrics = {
        "wall_s": statistics.median(walls),
        **{f"{role}_s": statistics.median(times[role]) for role in ROLES},
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
    }
    samples = {"wall_s": walls, **{f"{role}_s": times[role] for role in ROLES}, "setup_s": setup}
    return metrics, samples


def in_process_pass(plan: Plan, checker: Checker, call) -> float:
    """Run every step through ``call(argv)``; returns the summed seconds."""
    total = 0.0
    for step in plan.steps:
        remove_outputs(step, checker.work)
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = call(list(step.argv))
        except Exception as exc:  # a traceback out of main is a failed command
            code = f"raised {type(exc).__name__}: {exc}"
        total += time.perf_counter() - start
        checker.command(step, code, buffer.getvalue())
    return total


def run_traced(plan: Plan, work: Path, seconds: float, checker: Checker,
               spans_path: Path) -> tuple[dict, dict]:
    """Pairs of an untraced and a traced pass until ``seconds`` have passed
    (at least one pair). Per-layer metrics are medians over traced passes."""
    import rsvptyping.cli as cli

    untraced, traced, per_pass = [], [], []
    previous = Path.cwd()
    os.chdir(work)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while not traced or time.perf_counter() - start < seconds:
                untraced.append(in_process_pass(plan, checker, cli.main))
                tracer = Tracer()
                missing = install(tracer)
                try:
                    traced.append(in_process_pass(
                        plan, checker,
                        lambda argv: tracer.call("cli.main", "cli", cli.main, argv)))
                finally:
                    tracer.restore()
                per_pass.append(layer_metrics(tracer.spans))
                per_pass[-1]["trace.spans"] = float(len(tracer.spans))
    finally:
        os.chdir(previous)
    tracer.write(spans_path)

    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    quality = report_quality(work / "report.json")
    metrics["sim.typing_accuracy"] = quality["typing_accuracy"]
    metrics["sim.itr_bits_per_symbol"] = quality["itr_bits_per_symbol"]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced, "not_wrapped": missing}
    return metrics, samples


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS") or f"unset (OpenBLAS uses one per CPU: {os.cpu_count()})",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        facts["cpu"] = models[0] if models else platform.processor()
    except OSError:
        facts["cpu"] = platform.processor()
    facts["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            facts["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    facts["src_lines"] = sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py")))
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so a running child is stopped and the work
    # directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "rsvptyping" / "cli.py").is_file():
        print(f"error: no rsvptyping sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    try:
        work.mkdir(parents=True)
        out_dir.mkdir(exist_ok=True)
        plan = WORKLOADS[args.workload](work, args.seed, args.smoke)
        checker = Checker(plan, work)
        if args.trace:
            metrics, samples = run_traced(plan, work, args.seconds, checker,
                                          out_dir / f"{name}-spans.json")
        else:
            metrics, samples = run_untraced(plan, work, args.seconds, checker)
            samples["quality"] = report_quality(work / "report.json")
            metrics["balanced_accuracy"] = samples["quality"]["balanced_accuracy"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checker.problems)
    if not args.trace:
        metrics["success_rate"] = 1.0 - failed / checker.attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "facts": machine_facts(), "problems": checker.problems,
              "samples": samples, "result": result}
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
