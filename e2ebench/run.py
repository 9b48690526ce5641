"""Benchmark entry point.

    python3 e2ebench/run.py --workload cec --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (``--workload all`` runs the four
workloads in turn, each ending in its own JSON line).  With ``--trace 0``
a run starts set-up-only processes (more ``setup_s`` samples) and then one
process (``worker.py``) that sets up and repeats the workload's fixed job
list, each repetition followed by the correctness oracle, for about
``--seconds``; the end-to-end metrics of ``BENCHMARK.json`` are reported.
With ``--trace 1`` fresh processes of one repetition each alternate
untraced and traced, and the per-layer metrics are reported.  The last
line of standard output is one JSON object; the lines before it print
every metric by name.

Everything the benchmark writes stays under ``.bench_build/`` in the
checkout: the C-core build cache, per-process scratch files (removed at
the end), traced-pass span files and the determinism record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cec", "journaled-sweep", "serve", "paper-matrix")
BUILD_DIR = ".bench_build"
#: A run ends within this many seconds once the C cores are built.
RUN_LIMIT_S = 170.0
#: Timed repetitions of the job list in an untraced run (after the
#: warm-up one), at least.
MIN_REPS = 3
#: Set-up-only processes per untraced run; with the measuring process's own
#: set-up they give the ``setup_s`` samples.
SETUP_ONLY = 2
#: Processes per traced run, at least (one untraced, one traced).
MIN_TRACED_PASSES = 2

CORE_PROBE = (
    "import json, platform, os\n"
    "from repro.sat.compiled import SAT_CORE\n"
    "from repro.core.batch import SIMGEN_CORE\n"
    "print(json.dumps({'sat_core': SAT_CORE, 'simgen_core': SIMGEN_CORE,"
    " 'python': platform.python_version(), 'nproc': os.cpu_count()}))\n"
)

CACHE_POLICY = {
    "cec": "fresh process per run, plan caches dropped before each job",
    "journaled-sweep": "fresh process per run, plan caches dropped before each job",
    "serve": "empty verdict, tape and transition caches at each repetition's start, warm within it",
    "paper-matrix": "fresh process per run, plan caches and runner dropped before each repetition, warm across its runs as in one CLI call",
}

#: Counts that must repeat exactly across passes and runs of one commit.
DETERMINISTIC = (
    "sat_calls", "unknown_pairs", "cost_final", "gates_removed",
    "inconclusive", "runtime.journal.appends", "runtime.journal.replayed",
    "serve.cache.hits.cold", "serve.cache.hits.warm",
    "serve.cache.hits.edited", "serve.cache.misses.cold",
    "serve.cache.misses.warm", "serve.cache.misses.edited",
)


class BenchError(Exception):
    """The benchmark could not run (missing program, failed pass)."""


class WrongResult(Exception):
    """The program's output failed a correctness or determinism check."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_fingerprint(root: str) -> str:
    """Hash of the program and benchmark sources (determinism-record key)."""
    digest = hashlib.sha256()
    for base in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".py", ".c")):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def quantile(values, fraction):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[
        int(round(fraction * 100)) - 1
    ]


class Runner:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.build = os.path.join(self.root, BUILD_DIR)
        self.scratch = os.path.join(
            self.build, "runs",
            f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}",
        )
        with open(os.path.join(self.root, "BENCHMARK.json"), encoding="utf-8") as handle:
            self.spec = json.load(handle)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.env["XDG_CACHE_HOME"] = os.path.join(self.build, "cache")
        self.env["TMPDIR"] = os.path.join(self.scratch, "tmp")

    # -- processes -------------------------------------------------------
    def probe_cores(self) -> dict:
        """Build (first run only) and load both C cores in a child."""
        proc = subprocess.run(
            [sys.executable, "-c", CORE_PROBE], env=self.env, cwd=self.root,
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import the program:\n{proc.stderr[-3000:]}")
        env = json.loads(proc.stdout.strip().splitlines()[-1])
        if env["sat_core"] != "c" or env["simgen_core"] != "c":
            raise BenchError(
                f"a C core fell back to python ({env}); that measures a "
                "different program"
            )
        return env

    def run_pass(self, index: int, traced: bool, deadline: float,
                 setup_only: bool = False, budget: float = 0.0,
                 min_reps: int = 0) -> dict:
        rundir = os.path.join(self.scratch, f"pass{index}")
        os.makedirs(rundir)
        out = os.path.join(self.scratch, f"pass{index}.json")
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--trace", str(int(traced)), "--rundir", rundir, "--out", out,
            "--budget", f"{budget:.3f}",
            "--min-reps", str(min_reps),
        ]
        if setup_only:
            command.append("--setup-only")
        if traced:
            traces = os.path.join(self.build, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-file", os.path.join(
                traces, f"{self.args.workload}-s{self.args.seed}-pass{index}.jsonl"
            )]
        try:
            proc = subprocess.run(
                command, env=self.env, cwd=self.root, capture_output=True,
                text=True, timeout=max(5.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {index} ran past the time limit") from exc
        if proc.returncode == 3 and "OracleError" in proc.stderr:
            raise WrongResult(proc.stderr.strip().splitlines()[-1])
        if proc.returncode != 0:
            raise BenchError(f"pass {index} failed:\n{proc.stderr[-3000:]}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        shutil.rmtree(rundir, ignore_errors=True)
        return result

    def passes(self) -> tuple[list[dict], list[float]]:
        """The measuring processes, and the ``setup_s`` samples.

        Untraced: ``SETUP_ONLY`` set-up-only processes, then one process
        that repeats the job list until about ``--seconds`` after the run
        started.  Traced: one-repetition processes, alternately untraced
        and traced, while the next would end by ``--seconds``.
        """
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        setups: list[float] = []
        if not self.args.trace:
            for index in range(SETUP_ONLY):
                setups.append(
                    self.run_pass(index, False, deadline, setup_only=True)["setup_s"]
                )
            budget = self.args.seconds - (time.monotonic() - start)
            result = self.run_pass(SETUP_ONLY, False, deadline,
                                   budget=budget, min_reps=MIN_REPS)
            return [result], setups + [result["setup_s"]]
        results: list[dict] = []
        durations: list[float] = []
        while len(results) < MIN_TRACED_PASSES or (
            time.monotonic() - start + statistics.median(durations)
            < self.args.seconds
        ):
            began = time.monotonic()
            traced = len(results) % 2 == 1
            results.append(self.run_pass(len(results), traced, deadline))
            setups.append(results[-1]["setup_s"])
            durations.append(time.monotonic() - began)
        return results, setups

    # -- checks ----------------------------------------------------------
    def check_determinism(self, results: list[dict]) -> None:
        counts = [
            {k: v for k, v in r["counts"].items() if k in DETERMINISTIC}
            for r in results
        ]
        for other in counts[1:]:
            if other != counts[0]:
                raise WrongResult(
                    f"deterministic counts differ between passes: "
                    f"{counts[0]} vs {other}"
                )
        record_dir = os.path.join(self.build, "counts")
        os.makedirs(record_dir, exist_ok=True)
        record = os.path.join(
            record_dir, f"{self.args.workload}-s{self.args.seed}.json"
        )
        fingerprint = source_fingerprint(self.root)
        if os.path.exists(record):
            with open(record, encoding="utf-8") as handle:
                previous = json.load(handle)
            if previous["fingerprint"] == fingerprint and previous["counts"] != counts[0]:
                raise WrongResult(
                    f"deterministic counts differ from an earlier run of "
                    f"this source: {previous['counts']} vs {counts[0]}"
                )
        with open(record, "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": fingerprint, "counts": counts[0]}, handle)

    def keep_samples(self, results: list[dict], setups: list[float]) -> None:
        """Every timing of the run, for reading beside the report."""
        samples = os.path.join(self.build, "samples")
        os.makedirs(samples, exist_ok=True)
        path = os.path.join(samples, f"{self.args.workload}-s{self.args.seed}"
                            f"-t{self.args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "setup_s": setups,
                "reps": [rep for r in results for rep in r["reps"]],
            }, handle)

    # -- metrics ---------------------------------------------------------
    @staticmethod
    def per_job(reps: list[dict]) -> list[dict]:
        """Each job of the fixed list with its times over the repetitions
        (failed attempts left out).  Every repetition runs the same list in
        the same order."""
        order = [(job["kind"], job["label"]) for job in reps[0]["jobs"]]
        for rep in reps[1:]:
            if [(job["kind"], job["label"]) for job in rep["jobs"]] != order:
                raise BenchError("repetitions ran different job lists")
        return [
            {"kind": kind, "label": label,
             "times": [rep["jobs"][i]["s"] for rep in reps
                       if not rep["jobs"][i]["failed"]]}
            for i, (kind, label) in enumerate(order)
        ]

    def end_to_end(
        self, results: list[dict], setups: list[float]
    ) -> tuple[dict, list[str]]:
        reps = [rep for r in results for rep in r["reps"] if not rep["warmup"]]
        jobs = [job for job in self.per_job(reps) if job["times"]]
        attempted = sum(len(rep["jobs"]) for rep in reps)
        completed = sum(len(job["times"]) for job in jobs)
        counts = results[0]["counts"]
        # A job's time is its median over the repetitions.
        medians = [statistics.median(job["times"]) for job in jobs]
        wall = [rep["wall_s"] for rep in reps]
        found = {
            "setup_s": (statistics.median(setups), len(setups), "s"),
            "wall_s": (statistics.median(wall), len(reps), "s"),
            "sat_calls": (counts["sat_calls"], 1, "count"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                            len(results), "MB"),
            "job_s.p50": (statistics.median(medians), completed, "s"),
            "job_s.p90": (quantile(medians, 0.9), completed, "s"),
            "jobs_per_s": (len(jobs) / statistics.median(wall), len(reps), "1/s"),
            "unknown_pairs": (counts["unknown_pairs"], 1, "count"),
        }
        for kind in sorted({job["kind"] for job in jobs}):
            kept = [m for job, m in zip(jobs, medians) if job["kind"] == kind]
            samples = sum(len(job["times"]) for job in jobs if job["kind"] == kind)
            found[f"{kind}_job_s.p50"] = (statistics.median(kept), samples, "s")
        for name in ("cost_final", "gates_removed"):
            if name in counts:
                found[name] = (counts[name], 1, "count")
        failed = attempted - completed + counts.get("inconclusive", 0) * len(reps)
        found["failed_ratio"] = (failed / attempted, attempted, "ratio")
        metrics = {}
        lines = []
        for entry in self.spec["end_to_end"]:
            value, samples, _ = found.pop(entry["name"])
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            lines.append(f"{entry['name']:<22} {value:>14.6f} {entry['unit']:<6} "
                         f"(n={samples})")
        for name, (value, samples, unit) in found.items():
            lines.append(f"{name:<22} {value:>14.6f} {unit:<6} (n={samples}, not gated)")
        lines.append("timed repetitions, wall_s: " + " ".join(f"{w:.3f}" for w in wall))
        lines.append("set-up samples: " + " ".join(f"{v:.3f}" for v in setups))
        return metrics, lines

    def per_layer(self, results: list[dict]) -> tuple[dict, list[str]]:
        traced = [r for r in results if r["traced"]]
        plain = [r for r in results if not r["traced"]]
        layers: dict[str, float] = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        counts = traced[0]["counts"]
        for kind in ("cold", "warm", "edited"):
            hits = counts.get(f"serve.cache.hits.{kind}", 0)
            misses = counts.get(f"serve.cache.misses.{kind}", 0)
            layers[f"serve.cache.hit_ratio.{kind}"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        layers["trace_overhead_ratio"] = (
            statistics.median(r["reps"][0]["wall_s"] for r in traced)
            / statistics.median(r["reps"][0]["wall_s"] for r in plain) - 1.0
        )
        metrics = {}
        lines = []
        for entry in self.spec["per_layer"]:
            name = entry["name"]
            if name not in layers:
                raise BenchError(f"per-layer metric {name!r} was not measured")
            metrics[name] = {"value": layers[name], "unit": entry["unit"]}
            lines.append(
                f"{name:<32} {layers[name]:>14.6f} {entry['unit']:<6} "
                f"(n={len(traced)})"
            )
        # Layer times that are exactly 0 wherever the layer is bypassed stay
        # out of BENCHMARK.json (every listed time varies from run to run)
        # but are printed by name.
        for name in sorted(set(layers) - set(metrics)):
            unit = "s" if name.endswith(("_s", ".s", "_s.p50")) else "count"
            lines.append(
                f"{name:<32} {layers[name]:>14.6f} {unit:<6} "
                f"(n={len(traced)}, 0 where the layer is bypassed)"
            )
        # The ledger of one traced pass: self times plus other_s add up.
        ledger_pass = sorted(traced, key=lambda r: r["layers"]["ledger_s"])[
            len(traced) // 2
        ]["layers"]
        self_sum = sum(ledger_pass[m] for m in set(tracing.SELF_METRIC.values()))
        lines.append(
            f"ledger: layer self times {self_sum:.6f}s + other_s "
            f"{ledger_pass['other_s']:.6f}s = {ledger_pass['ledger_s']:.6f}s "
            "traced (set-up + jobs, per accounting thread)"
        )
        return metrics, lines

    def run(self) -> int:
        env = self.probe_cores()
        os.makedirs(self.scratch)
        try:
            results, setups = self.passes()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        reps = [rep for r in results for rep in r["reps"]]
        attempted = sum(len(rep["jobs"]) for rep in reps)
        failed = sum(1 for rep in reps for job in rep["jobs"] if job["failed"])
        self.check_determinism(results)
        self.keep_samples(results, setups)
        if self.args.trace:
            metrics, lines = self.per_layer(results)
        else:
            metrics, lines = self.end_to_end(results, setups)
        print(
            f"workload {self.args.workload} seed {self.args.seed}: "
            f"{len(results)} processes, {len(reps)} repetitions "
            f"({sum(rep.get('warmup', False) for rep in reps)} warm-up), "
            f"{attempted} jobs; nproc {env['nproc']}, "
            f"python {env['python']}, SAT_CORE={env['sat_core']}, "
            f"SIMGEN_CORE={env['simgen_core']}; caches: "
            f"{CACHE_POLICY[self.args.workload]}"
        )
        for line in lines:
            print(line)
        for rep in reps:
            for job in rep["jobs"]:
                if job["failed"]:
                    print(f"failed job {job['label']}: {job['error']}")
        print(json.dumps({
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        args.workload = name
        try:
            status = max(status, Runner(args).run())
        except WrongResult as exc:
            print(f"wrong result: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            status = 1
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
