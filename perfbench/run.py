"""Benchmark launcher for rntk.

    python3 perfbench/run.py --workload suite|gram|verify --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. The run sets up (imports plus inputs), runs one untimed
warm-up repetition of the workload's job, which also keeps samples for the
output checks, then repeats the job until the timed repetitions add up to
``--seconds``, checks the outputs, and prints one JSON object as its last
line: ``correct``, operations ``attempted`` and ``failed``, and the metrics.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of this process's set-up and two more in fresh interpreters), ``job_s``
(median repetition) and ``peak_rss_mb``. With ``--trace 1`` untraced and
traced repetitions alternate; the metrics are the per-layer ones, the
median over traced repetitions, plus the tracing overhead. Spans and the
result go to ``perfbench/results/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

# one BLAS thread, set before numpy loads: the workloads are single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "gram", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the workloads against the checkout's package, or exit."""
    src = ROOT / "src"
    if not (src / "rntk" / "__init__.py").is_file() or not (ROOT / "datasets").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no src/rntk or datasets/")
    sys.path.insert(0, str(src))
    import rntk
    if Path(rntk.__file__).resolve().parent != src / "rntk":
        sys.exit(f"perfbench: imported rntk from {rntk.__file__}, not {src}")
    import workloads
    return workloads


class Ops:
    """Counts the operations a job attempts and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def setup_in_children(args):
    """Set-up times of fresh interpreters running this script's set-up."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def run(args, workloads, wl, setup_times):
    ops = Ops()
    with wl.capture():
        wl.job(0, ops)
    plain, traced, rows, tracers = [], [], [], []
    while True:
        rep = 1 + len(plain) + len(traced)
        if args.trace and len(traced) < len(plain):
            tracer = spans.Tracer()
            with spans.patched(workloads.traced_functions(tracer)):
                out, dt = timed(lambda: wl.job(rep, ops))
            traced.append(dt)
            tracers.append(tracer)
            rows.append(workloads.layer_metrics(spans.summarize(tracer.spans),
                                                **wl.extra_metrics(out)))
            del out
        else:
            plain.append(timed(lambda: wl.job(rep, ops))[1])
        if sum(plain) + sum(traced) >= args.seconds and (traced or not args.trace):
            break
    failures = wl.check()
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    job_s = statistics.median(plain)
    if args.trace:
        self_sum = statistics.median(
            sum(end - start for _, start, end, parent, _ in t.spans if parent < 0)
            for t in tracers)
        metrics = {name: {"value": statistics.median(row[name][0] for row in rows),
                          "unit": unit}
                   for name, (_, unit) in rows[0].items()}
        overhead = workloads.trace_metrics(job_s, statistics.median(traced), self_sum)
        metrics.update({name: {"value": value, "unit": unit}
                        for name, (value, unit) in overhead.items()})
        spans.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.json", tracers)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "job_s": {"value": job_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    return {"correct": not failures, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    RESULTS.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(setup_s)
            return 0
        setup_times = [setup_s] + ([] if args.trace else setup_in_children(args))
        result = run(args, workloads, wl, setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} operations: {result['attempted']} attempted, "
          f"{result['failed']} failed; outputs {'correct' if result['correct'] else 'WRONG'}")
    line = json.dumps(result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
