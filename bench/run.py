"""Benchmark of segenc: runs one workload and prints its result as JSON.

    python3 bench/run.py --workload synthetic-drift --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``.
The workload's inputs come from ``--seed``; its jobs repeat, whole, while
another one fits in ``--seconds``.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  A traced run alternates untraced and traced jobs and
writes its spans to ``.bench_out/``.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3  # set-up is timed this many times; setup_s adds their median to import time
MAX_ERRORS_SHOWN = 20


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["synthetic-drift", "process-1080p", "activity-schedule"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def tree_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def empty_dir(path: Path) -> None:
    for child in path.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def run(args: argparse.Namespace, work: Path, tmp: Path) -> dict:
    import spans
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0
    workload = WORKLOADS[args.workload](work, args.seed)
    setup_times = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)

    jobs = []  # (traced, job_s, outcome, tracer)
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        tracer = spans.Tracer()
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            raw = workload.job()
        finally:
            job_s = time.perf_counter() - t
            tracer.uninstall()
        leftover_mb = tree_mb(tmp)  # segenc leaves its encoder workdirs and payloads here
        empty_dir(tmp)
        outcome = workload.finish(raw, tracer.results)
        outcome.extras["leftover_mb"] = leftover_mb
        jobs.append((traced, job_s, outcome, tracer))
        elapsed = time.perf_counter() - started
        both_kinds = not args.trace or len(jobs) >= 2
        if both_kinds and elapsed * (len(jobs) + 1) / len(jobs) > args.seconds:
            break

    errors = [e for _, _, o, _ in jobs for e in o.errors]
    for e in errors[:MAX_ERRORS_SHOWN]:
        print(f"check failed: {e}", file=sys.stderr)
    untraced = [(s, o) for traced, s, o, _ in jobs if not traced]
    if args.trace:
        traced_jobs = [(s, o, tr) for traced, s, o, tr in jobs if traced]
        warm = untraced[1:] or untraced  # the first job pays first-call costs
        overhead = statistics.median(s for s, _, _ in traced_jobs) - statistics.median(s for s, _ in warm)
        metrics = spans.layer_metrics(
            [spans.JobSpans(tr.spans, s) for s, _, tr in traced_jobs],
            [o.extras for _, o, _ in traced_jobs],
            overhead,
        )
        out_dir = ROOT / ".bench_out"
        for i, (_, _, tr) in enumerate(traced_jobs):
            tr.write(out_dir / f"spans-{args.workload}-seed{args.seed}-job{i}.jsonl")
    else:
        intervals = [x for _, o in untraced for x in o.intervals]
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "job_s": {"value": statistics.median(s for s, _ in untraced), "unit": "s"},
            "segment_ms_p50": {"value": 1e3 * spans.percentile(intervals, 50.0), "unit": "ms"},
            "segment_ms_p90": {"value": 1e3 * spans.percentile(intervals, 90.0), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    return {
        "correct": not errors and all(len(o.intervals) >= 100 for _, _, o, _ in jobs),
        "attempted": sum(o.attempted for _, _, o, _ in jobs),
        "failed": sum(o.failed for _, _, o, _ in jobs),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "segenc" / "__init__.py").is_file():
        print(f"error: no segenc sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".bench_tmp" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        result = run(args, work, tmp)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
