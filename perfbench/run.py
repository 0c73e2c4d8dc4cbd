"""Benchmark of the transientmdp package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite_solvers --seed 1 --seconds 25 --trace 0

One process runs one workload (see ``workloads.WORKLOADS``) and imports the
package from ``src/``.  Set-up has two parts, each timed several times: a
fresh interpreter importing the package, and the generation of the workload's
inputs from the seed; ``setup_s`` adds the two medians.  The workload's fixed task list then
repeats for ``--seconds`` seconds with tracing off (at least one pass), with
a calibration sample (``calib.py``) before the first task, after the last
and after every ``CAL_EVERY_S`` of task time.  ``wall_s`` is the median pass
time, the sum of its task times; ``wall_norm`` is the median over the passes
of the pass time divided by the mean sample time of that pass, the pass time
in calibration samples, which host slowdowns move far less than they move
``wall_s``.  Outputs of every pass are checked against
independent references after the timing; a task that raises or fails its
check counts in ``failed``.  With ``--trace 1`` one more pass runs with every
public entry point wrapped in a span recorder, and the per-layer metrics of
that pass are reported instead of the end-to-end ones; the spans go to
``.bench_build/perfbench/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os
import sys
import time

# One process, one BLAS thread: the load stays within the core count and the
# timings do not depend on how many cores the host lends the BLAS pool.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
# Set-up is timed several times per run and reported as a median.  Starting
# an interpreter is cheap and its time scatters most, so it repeats more often
# than input generation, which takes over a second on finite_solvers.
IMPORT_REPEATS = 7
PREPARE_REPEATS = 3
# Task time after which the next calibration sample runs (see calib.py).
CAL_EVERY_S = 0.5
# Task-time percentiles are reported for task lists at least this long, so
# that the 90th percentile has ten samples above it.
PERCENTILE_MIN_TASKS = 100

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_norm", "cal"),
    ("peak_rss_mb", "MB"),
]


def import_package() -> None:
    """Import the package from this checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    try:
        import transientmdp
    except ImportError as exc:
        raise SystemExit(f"cannot import transientmdp from {SRC}: {exc}")
    if SRC.resolve() not in Path(transientmdp.__file__).resolve().parents:
        raise SystemExit(f"transientmdp imported from {transientmdp.__file__}, not {SRC}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter that starts, imports numpy, every
    package layer and the benchmark's own modules, and exits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


class TaskError:
    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_pass(tasks, ctx, recorder=None, calibrator=None) -> tuple[float, dict[str, float]]:
    """Run the task list once; returns the pass wall time (the sum of the
    task times) and the time of each task.  A task that raises leaves a
    TaskError as its result.  With a calibrator, a calibration sample runs
    before the first task, after the last one, and between tasks whenever
    ``CAL_EVERY_S`` of task time has passed since the last sample."""
    gc.collect()
    times = {}
    since_sample = 0.0
    if calibrator is not None:
        calibrator.sample()
    for task in tasks:
        if recorder is not None:
            recorder.task = task.ident
        t = time.perf_counter()
        try:
            ctx.results[task.ident] = task.run(ctx)
        except Exception as exc:  # the benchmark reports it and goes on
            ctx.results[task.ident] = TaskError(exc)
        times[task.ident] = time.perf_counter() - t
        since_sample += times[task.ident]
        if calibrator is not None and (since_sample >= CAL_EVERY_S or task is tasks[-1]):
            calibrator.sample()
            since_sample = 0.0
    return sum(times.values()), times


def check_pass(prepared, reference, ctx, first) -> dict[str, str]:
    """Failures of one pass, by task id."""
    from workloads import PassContext

    failures = {k: v.text for k, v in ctx.results.items() if isinstance(v, TaskError)}
    ok = PassContext(ctx.directory, {
        k: v for k, v in ctx.results.items() if not isinstance(v, TaskError)
    })
    try:
        failures.update(prepared.check(reference, ok, first))
    except Exception:  # a check that cannot read a result fails the pass
        reason = traceback.format_exc(limit=3)
        failures.update({k: reason for k in ok.results})
    return failures


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` with the inclusive
    method (within the sample range; one sample is its own percentile)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(prepare, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import calib
    import spans
    from workloads import PassContext

    import_s = [import_seconds() for _ in range(IMPORT_REPEATS)]
    prepare_s = []
    for k in range(PREPARE_REPEATS):
        t = time.perf_counter()
        prepared = prepare(seed, work / f"setup{k}")
        prepare_s.append(time.perf_counter() - t)

    walls, cal_s, contexts = [], [], []
    task_s = {task.ident: [] for task in prepared.tasks}
    start = time.perf_counter()
    while True:
        ctx = PassContext(work / f"pass{len(walls)}")
        cal = calib.Calibrator()
        wall, times = run_pass(prepared.tasks, ctx, calibrator=cal)
        walls.append(wall)
        cal_s.append(cal.mean())
        for ident, t in times.items():
            task_s[ident].append(t)
        contexts.append(ctx)
        elapsed = time.perf_counter() - start
        if len(walls) >= prepared.min_passes and elapsed + statistics.median(walls) > seconds:
            break

    out = {"walls": walls, "cal_s": cal_s, "task_s": task_s, "import_s": import_s,
           "prepare_s": prepare_s}
    if trace:
        rec = spans.Recorder()
        traced = PassContext(work / "traced")
        with rec.installed(prepared.oracle_mdps):
            rec.task = spans.REFERENCE_TASK
            reference = prepared.reference()
            traced_wall, _ = run_pass(prepared.tasks, traced, rec)
        contexts.append(traced)
        out["layers"] = spans.layer_metrics(rec, traced_wall, statistics.median(walls))
        out["spans"] = rec
        out["traced_wall"] = traced_wall
    else:
        reference = prepared.reference()

    failures = [check_pass(prepared, reference, ctx, contexts[0]) for ctx in contexts]
    out["attempted"] = sum(len(ctx.results) for ctx in contexts)
    out["failures"] = failures
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    why = {
        w["name"]: w["why"]
        for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    }
    work = BUILD / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(len(f) for f in out["failures"])
    attempted = out["attempted"]
    walls = out["walls"]
    e2e = {
        "setup_s": statistics.median(out["import_s"]) + statistics.median(out["prepare_s"]),
        "wall_norm": statistics.median(w / c for w, c in zip(walls, out["cal_s"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": f"{IMPORT_REPEATS}+{PREPARE_REPEATS}",
        "wall_norm": len(walls),
        "peak_rss_mb": 1,
    }

    print(f"machine {json.dumps(machine_record(), sort_keys=True)}")
    print(f"workload {args.workload} (seed {args.seed}): {why[args.workload]}")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {e2e[name]:12.6g} {unit:<3} (n={samples[name]})")
    print(f"  wall_s       {statistics.median(walls):12.6g} s   (n={len(walls)})")
    print(f"  cal_sample_s {statistics.median(out['cal_s']):12.6g} s   "
          f"(median of the passes' mean sample time)")
    print(f"  passes       {' '.join(f'{w:.4f}' for w in walls)} s")
    # A task's time is its median over the passes; percentiles run across
    # tasks.
    task_s = [statistics.median(ts) for ts in out["task_s"].values()]
    if len(task_s) >= PERCENTILE_MIN_TASKS:
        for q in (50, 90):
            print(f"  task_p{q}_s   {percentile(task_s, q):12.6g} s   "
                  f"(n={len(task_s)} tasks x {len(walls)} passes)")
    print(f"  failed_frac  {failed / attempted:12.6g}     ({failed} of {attempted} task runs)")
    for i, fails in enumerate(out["failures"]):
        for ident, reason in sorted(fails.items()):
            print(f"  FAILED pass {i} task {ident}: {reason}")

    if args.trace:
        layers = out["layers"]
        for name, unit, _ in spans.PER_LAYER:
            print(f"  {name:<50} {layers[name]:14.6g} {unit}")
        path = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        out["spans"].dump(path, {
            "workload": args.workload,
            "seed": args.seed,
            "traced_wall_s": out["traced_wall"],
            "untraced_wall_s": statistics.median(walls),
        })
        print(f"  spans -> {path}")
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit, _ in spans.PER_LAYER
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
