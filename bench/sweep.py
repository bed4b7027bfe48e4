#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a source checkout:

    python3 bench/sweep.py --seeds 1-10 --out bench/results/<name>.json

For every workload and metric it prints the median over seeds, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json. It
also prints the quality columns of the reports (``--trace 0`` only). Every
workload of BENCHMARK.json runs for its ``run_seconds``. Runs go one at a
time, so they do not compete for the CPUs. It exits 1 if a run fails or is
not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    summary = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results, quality = [], []
        for seed in args.seeds:
            name = f"{workload}-seed{seed}-trace{args.trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results.append(result)
            record = json.loads((ROOT / ".bench_out" / f"{name}.json").read_text())
            summary.setdefault("facts", record["facts"])
            if "quality" in record["samples"]:
                quality.append(record["samples"]["quality"])
            print(f"{name}: correct={result['correct']} failed={result['failed']}", flush=True)
        if not results:
            continue
        metrics = {}
        for key, entry in results[0]["metrics"].items():
            stats = summarize([r["metrics"][key]["value"] for r in results])
            stats["unit"] = entry["unit"]
            metrics[key] = stats
            bound = bounds.get(key)
            print(f"  {key:42s} median {stats['median']:.6g} {entry['unit']:8s} "
                  f"spread {stats['spread']:.4f}" + (f" bound {bound}" if bound else ""))
        block = {"metrics": metrics,
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results)}
        if quality:
            block["quality"] = {key: summarize([q[key] for q in quality]) for key in quality[0]}
            for key, stats in block["quality"].items():
                print(f"  quality {key:34s} median {stats['median']:.6f} "
                      f"range {min(stats['values']):.6f}-{max(stats['values']):.6f}")
        summary["workloads"][workload] = block
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
