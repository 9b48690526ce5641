"""One workload in a fresh process: set-up once, then repetitions of the
job list, each followed by its checks.

Run by ``run.py``; writes one JSON document to ``--out``.  Set-up time
counts from the top of this file, so it includes importing the package
and loading both C cores, as a command-line invocation pays them.
The first repetition is a warm-up (checked, not timed by ``run.py``): it
pays the once-per-process costs that set-up does not, such as first-call
imports and heap growth.  Repetitions start while the next one would end
within half a repetition of ``--budget`` seconds after the process
started, until at least ``--min-reps`` follow the warm-up.  With
``--min-reps 0`` (and always with ``--trace 1``) there is exactly one
repetition, right after set-up, and no warm-up.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds after start by which repetitions end")
    parser.add_argument("--min-reps", type=int, default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop after set-up and report setup_s only",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import tracing
    import workloads

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    from repro.core.batch import SIMGEN_CORE
    from repro.sat.compiled import SAT_CORE

    if SAT_CORE != "c" or SIMGEN_CORE != "c":
        # A Python fallback is a different program: measure nothing.
        print(f"C core fell back: SAT_CORE={SAT_CORE} "
              f"SIMGEN_CORE={SIMGEN_CORE}", file=sys.stderr)
        return 4

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.rundir, recorder
    )
    workload.setup()
    setup_end = time.perf_counter()
    # Benchmark-only work (oracle picks in set-up, cache drops between
    # jobs) is not the program's time.
    setup_s = setup_end - T0 - workload.oracle_setup_s
    if args.setup_only:
        workload.teardown()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return 0

    reps = []
    counts = None
    durations = []
    while True:
        began = time.perf_counter()
        workload.begin_rep(len(reps))
        jobs_start = time.perf_counter()
        workload.run()
        jobs_end = time.perf_counter()
        workload.teardown()
        workload.verify()
        summary = workload.summary()
        if counts is None:
            counts = summary
        elif summary != counts:
            raise workloads.oracle.OracleError(
                f"deterministic counts differ between repetitions: "
                f"{counts} vs {summary}"
            )
        reps.append({
            "warmup": not reps and args.min_reps > 0 and not args.trace,
            "wall_s": jobs_end - jobs_start - workload.untimed_run_s,
            "jobs": [
                {"kind": job["kind"], "label": job["label"], "s": job["s"],
                 "failed": job["failed"], "error": job.get("error")}
                for job in workload.jobs
            ],
        })
        durations.append(time.perf_counter() - began)
        # The next repetition starts if it would end within half a
        # repetition of the budget.
        if args.trace or (
            len(reps) > args.min_reps
            and time.perf_counter() + statistics.median(durations) / 2
            > T0 + args.budget
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "reps": reps,
        "counts": counts,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "sat_core": SAT_CORE,
            "simgen_core": SIMGEN_CORE,
        },
        "traced": bool(args.trace),
    }
    if recorder is not None:
        # One repetition, right after set-up: the ledger covers both.
        main_thread = threading.main_thread().ident
        if workload.threaded:
            # Service workers account over the job window; the caller's
            # thread over set-up only (it just waits while jobs run).
            windows = {main_thread: (T0, setup_end)}
        else:
            windows = {main_thread: (T0, jobs_end)}
        layers = tracing.ledger(recorder, windows, (setup_end, jobs_end))
        layers.update(tracing.layer_counts(recorder))
        result["layers"] = layers
        if args.trace_file:
            recorder.write(args.trace_file, T0)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
