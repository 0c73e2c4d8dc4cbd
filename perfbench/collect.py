"""Repeat the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --workloads finite_solvers chain_sweep \
        --seeds 1 2 3 4 5 --seconds 20 [--trace 0] [--out summary.json]

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
per metric the median, the quartiles and the spread, the distance between
the quartiles as a share of the median (``statistics.quantiles(n=4)``), next
to the metric's bound in ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["elapsed_s"] = elapsed
    result["report"] = report
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        names = runs[0]["metrics"]
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "elapsed_s_max": max(r["elapsed_s"] for r in runs),
            "reports": {seed: r["report"] for seed, r in zip(args.seeds, runs)},
            "metrics": {
                name: dict(
                    summarize([r["metrics"][name]["value"] for r in runs]),
                    unit=runs[0]["metrics"][name]["unit"],
                )
                for name in names
            },
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed={summary[workload]['failed']}/{summary[workload]['attempted']} "
              f"slowest run {summary[workload]['elapsed_s_max']:.1f} s")
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:<5} {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {name:<50} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:<8.4f} {flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
