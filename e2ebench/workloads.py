"""The four benchmark workloads: inputs from a seed, jobs, oracle checks.

Each workload runs the public functions its user entry point calls, at
that entry point's shipped defaults (AI+DC+MFFC, batch SimGen, C SAT
core, ``jobs=1``):

* ``cec``             -- ``repro.tools cec`` on golden-vs-revised pairs;
* ``journaled-sweep`` -- ``repro.tools sweep --journal`` then ``--resume``;
* ``serve``           -- an in-process ``SweepService`` (``repro.tools
  serve`` defaults) fed by two closed-loop clients;
* ``paper-matrix``    -- ``run_table1`` then ``run_table2`` over one
  ``ExperimentRunner``, as ``python -m repro.experiments all`` does.

Each workload runs a fixed set of suite circuits; the seed orders the
jobs and, on ``cec``, places the mutations.  One process sets up once and
then repeats the job list (:meth:`Workload.begin_rep` restores the cold
state a command-line invocation or a fresh daemon starts from, outside
every timed window).  The sets were chosen from
balanced candidate groups by running every group in place (2-CPU host):
groups matched on summed job time and SAT queries still differed by up to
20% in median job time, which would have dominated the seed-to-seed
spread, so each workload keeps the one group whose figures sat in the
middle.
"""

from __future__ import annotations

import os
import random
import re
import threading
import time
from typing import Optional

import oracle

perf = time.perf_counter

#: cec: the 8-bit multiplier (solving-bound) runs first in every repetition;
#: the other goldens are paired with their ``rewrite(seed=1)`` copy, and
#: four of them with a one-gate mutant of that copy.
CEC_ANCHOR = "multiplier8"
CEC_REWRITE_SEED = 1
#: The anchor's rewrite keeps the pair solve-bound (about 60% of its time in
#: SAT) at about 2 s per repetition.
CEC_ANCHOR_REWRITE_SEED = 10
#: Most pairs cost about the same (the PLA-like circuits), so the median
#: job falls inside that cluster rather than in a gap between sizes.
CEC_CIRCUITS = (
    "b14_C", "apex1", "apex2", "apex5", "spla", "table3", "misex3c",
)
#: Some seeded cordic mutants end INCONCLUSIVE at the default conflict limit
#: although the reference simulator separates them, with ``metrics.unknown``
#: at 0: the case the failure count reads from ``CecResult.outputs``.
#: cordic is only mutated: its rewrite pair would cost as much as the
#: mutant again and leave fewer repetitions per run.
CEC_MUTATED = ("cordic", "apex1", "apex5", "table3")

#: journaled-sweep: circuits stacked twice and LUT-mapped in set-up.
JOURNAL_CIRCUITS = ("misex3", "pdc", "spla", "b14_C2", "b15_C")

#: serve: gate-level netlists per client.  Both clients carry about the
#: same load, so their jobs overlap for the whole repetition, and every
#: job (cold, warm or edited) costs 0.1-0.26 s when run alone: with no gap
#: between sizes, the median job does not jump from one size to another.
SERVE_CLIENTS = (("pdc", "b15_C2", "m_ctrl"), ("dec", "b21_C2", "b14_C2"))

#: paper-matrix: a 10-benchmark draw from the 42-circuit suite.
PAPER_BENCHMARKS = (
    "des", "alu4", "b14_C2", "k2", "b20_C2", "log2", "m_ctrl", "b14_C",
    "spla", "misex3",
)

#: Shipped defaults of ``repro.tools cec`` / ``repro.tools sweep``.
STRATEGY = "AI+DC+MFFC"
SIMGEN_BACKEND = "batch"
SAT_BACKEND = "compiled"
CEC_ITERATIONS = 10
SWEEP_ITERATIONS = 20
SWEEP_PATTERNS = 8
CLI_SEED = 0

_LUT_LINE = re.compile(r"^(\S+) = LUT 0x([0-9a-fA-F]+) \((.*)\)$")


def shuffled(items, rng: random.Random) -> list:
    """The items in a seeded order."""
    return rng.sample(list(items), len(items))


def flip_minterm(text: str, gate: Optional[str], rng: random.Random) -> str:
    """Flip one truth-table bit of one LUT line of a .bench text.

    ``gate`` names the line to edit; ``None`` picks a line at random.
    """
    lines = text.split("\n")
    candidates = []
    for index, line in enumerate(lines):
        match = _LUT_LINE.match(line)
        if match and match.group(3).strip():
            if gate is None or match.group(1) == gate:
                candidates.append(index)
    if not candidates:
        raise RuntimeError(f"no editable LUT line for gate {gate!r}")
    index = rng.choice(candidates)
    name, hex_bits, args = _LUT_LINE.match(lines[index]).groups()
    arity = len([a for a in args.split(",") if a.strip()])
    bits = int(hex_bits, 16) ^ (1 << rng.randrange(1 << arity))
    lines[index] = f"{name} = LUT 0x{bits:0{len(hex_bits)}x} ({args})"
    return "\n".join(lines)


class Workload:
    """Inputs built in :meth:`setup`; then, per repetition,
    :meth:`begin_rep`, the timed :meth:`run`, :meth:`teardown` and the
    checks (:meth:`verify`, :meth:`summary`).

    Benchmark-only work inside set-up (reference simulation that picks
    mutants and edit sites) is summed in ``oracle_setup_s``, and work
    between jobs (dropping plan caches) in ``untimed_run_s``; the worker
    subtracts both from ``setup_s`` and ``wall_s``.
    """

    #: True when jobs run on other threads than the caller's (serve).
    threaded = False

    def __init__(self, seed: int, rundir: str, recorder=None):
        self.seed = seed
        self.rundir = rundir
        self.recorder = recorder
        self.rng = random.Random(f"{type(self).__name__}/{seed}")
        self.jobs: list[dict] = []
        self.oracle_setup_s = 0.0
        self.untimed_run_s = 0.0

    def _oracle_setup(self, fn, *args):
        """``fn(*args)``, timed as benchmark work rather than set-up."""
        start = perf()
        try:
            return fn(*args)
        finally:
            self.oracle_setup_s += perf() - start

    def _cold_caches(self) -> None:
        """Drop the process-wide plan caches (tape, transition tables,
        ISOP, Tseitin templates), so the next job pays what a command-line
        invocation pays.  Not part of any timed window."""
        start = perf()
        from repro.experiments.perfbench import clear_plan_caches

        clear_plan_caches()
        self.untimed_run_s += perf() - start

    def path(self, name: str) -> str:
        return os.path.join(self.rundir, name)

    def begin_rep(self, index: int) -> None:
        """Reset per-repetition state before the job list runs (again);
        repetition 0 starts right after set-up.  Not timed."""
        self.jobs = []
        self.untimed_run_s = 0.0

    def teardown(self) -> None:
        """End of a repetition (and of a set-up-only process)."""

    def _job(self, kind: str, label: str, fn) -> dict:
        """Run one job in the caller's thread and time it."""
        record = {"kind": kind, "label": label, "failed": False}
        if self.recorder is not None:
            self.recorder.set_job(f"{len(self.jobs)}:{label}")
        start = perf()
        try:
            record["value"] = fn()
        except Exception as exc:  # a job that errors is a failed job
            record["failed"] = True
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["s"] = perf() - start
        if self.recorder is not None:
            self.recorder.set_job(None)
        self.jobs.append(record)
        return record


# ----------------------------------------------------------------------
class CecWorkload(Workload):
    """``repro.tools cec`` on rewrite pairs, mutants and the multiplier."""

    def setup(self) -> None:
        from repro.benchgen import build_benchmark
        from repro.benchgen.arithmetic import multiplier
        from repro.io import bench_text
        from repro.tools.cli import load_network
        from repro.transforms.rewrite import rewrite

        plans = [(CEC_ANCHOR, True, False)] + [
            (name, name in CEC_CIRCUITS, name in CEC_MUTATED)
            for name in shuffled(
                sorted(set(CEC_CIRCUITS) | set(CEC_MUTATED)), self.rng
            )
        ]
        self.pairs = []
        for name, rewritten, mutate in plans:
            golden = (
                multiplier(name, width=8)
                if name == CEC_ANCHOR
                else build_benchmark(name)
            )
            golden_text = bench_text(golden)
            rewrite_seed = (
                CEC_ANCHOR_REWRITE_SEED if name == CEC_ANCHOR else CEC_REWRITE_SEED
            )
            revised_text = bench_text(rewrite(golden, seed=rewrite_seed))
            inputs = []
            if rewritten:
                inputs.append(("equivalent", name, revised_text, "equivalent"))
            if mutate:
                inputs.append(self._oracle_setup(
                    self._mutant, name, golden_text, revised_text
                ))
            golden_path = self.path(f"{name}_golden.bench")
            with open(golden_path, "w", encoding="utf-8") as handle:
                handle.write(golden_text)
            for kind, label, text, expected in inputs:
                path = self.path(f"{label}_{kind}.bench")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                self.pairs.append({
                    "kind": kind,
                    "label": f"{label}/{kind}",
                    "golden": load_network(golden_path),
                    "revised": load_network(path),
                    "expected": expected,
                })

    def _mutant(self, name: str, golden_text: str, revised_text: str):
        """A one-gate mutant of the revised copy; it counts as different
        only when the reference simulator separates it from the golden."""
        from repro.io import parse_bench

        golden = parse_bench(golden_text)
        text = revised_text
        for _ in range(32):
            text = flip_minterm(revised_text, None, self.rng)
            if oracle.first_difference(golden, parse_bench(text), self.rng) is not None:
                return ("mutant", name, text, "different")
        return ("mutant", name, text, "unknown")

    def run(self) -> None:
        from repro.core import factory
        from repro.sweep import SweepConfig, check_equivalence

        for pair in self.pairs:
            def job(pair=pair):
                config = SweepConfig(
                    seed=CLI_SEED,
                    iterations=CEC_ITERATIONS,
                    budget=None,
                    max_escalations=0,
                    jobs=1,
                    sat_backend=SAT_BACKEND,
                    tracer=None,
                    journal=None,
                )
                return check_equivalence(
                    pair["golden"],
                    pair["revised"],
                    generator_factory=factory(
                        STRATEGY, simgen_backend=SIMGEN_BACKEND
                    ),
                    config=config,
                )

            self._cold_caches()
            self._job(pair["kind"], pair["label"], job)

    def verify(self) -> None:
        rng = random.Random(f"cec-oracle/{self.seed}")
        for pair, record in zip(self.pairs, self.jobs):
            if record["failed"]:
                continue
            result = record["value"]
            verdict = result.verdict
            what = f"cec {pair['label']}"
            if pair["expected"] == "equivalent":
                # Construction says equivalent; the inputs must agree too.
                oracle.require_same_function(
                    pair["golden"], pair["revised"], rng, f"{what} (rewrite)"
                )
                if verdict == "different":
                    raise oracle.OracleError(f"{what}: DIFFERENT on a rewrite")
            if pair["expected"] == "different" and verdict == "equivalent":
                raise oracle.OracleError(
                    f"{what}: EQUIVALENT, but the reference simulator "
                    "separates the pair"
                )
            if verdict == "different":
                if result.counterexample is None:
                    raise oracle.OracleError(f"{what}: no counterexample")
                oracle.replay_counterexample(
                    pair["golden"], pair["revised"],
                    dict(result.counterexample.values), what,
                )

    def summary(self) -> dict:
        totals = {"sat_calls": 0, "unknown_pairs": 0, "cost_final": 0,
                  "inconclusive": 0}
        for record in self.jobs:
            if record["failed"]:
                continue
            result = record["value"]
            totals["sat_calls"] += result.metrics.sat_calls
            # Undecided outputs come from the verdicts, not metrics.unknown
            # (which misses UNKNOWNs of the PO fallback miters).
            totals["unknown_pairs"] += sum(
                1 for state in result.outputs.values() if state == "unknown"
            )
            totals["cost_final"] += result.metrics.final_cost
            totals["inconclusive"] += result.verdict == "inconclusive"
        return totals


# ----------------------------------------------------------------------
class JournaledSweepWorkload(Workload):
    """``repro.tools sweep --journal`` fresh, then ``--resume``."""

    def setup(self) -> None:
        from repro.benchgen.suite import sweep_instance
        from repro.tools.cli import load_network, save_network

        self.instances = []
        for index, name in enumerate(shuffled(JOURNAL_CIRCUITS, self.rng)):
            path = self.path(f"{index}_{name}.bench")
            save_network(sweep_instance(name, copies=2), path)
            self.instances.append({
                "label": f"{name}x2",
                "network": load_network(path),
                "journal": self.path(f"{index}_{name}.journal"),
                "outputs": {
                    "cold": self.path(f"{index}_{name}_fresh.bench"),
                    "warm": self.path(f"{index}_{name}_resumed.bench"),
                },
            })

    def begin_rep(self, index: int) -> None:
        super().begin_rep(index)
        # A fresh sweep refuses an existing journal: start over.
        for instance in self.instances:
            for path in (instance["journal"], *instance["outputs"].values()):
                if os.path.exists(path):
                    os.remove(path)

    def _sweep(self, instance: dict, resume: bool):
        from repro.core import make_generator
        from repro.runtime import VerdictJournal
        from repro.sweep import SweepConfig, SweepEngine, reduce_network
        from repro.tools.cli import save_network

        network = instance["network"]
        generator = make_generator(
            STRATEGY, network, seed=CLI_SEED, simgen_backend=SIMGEN_BACKEND
        )
        journal = VerdictJournal(instance["journal"], resume=resume)
        config = SweepConfig(
            seed=CLI_SEED,
            iterations=SWEEP_ITERATIONS,
            random_width=SWEEP_PATTERNS,
            budget=None,
            max_escalations=0,
            jobs=1,
            sat_backend=SAT_BACKEND,
            tracer=None,
            journal=journal,
        )
        try:
            result = SweepEngine(network, generator, config).run()
        finally:
            journal.close()
        reduced, stats = reduce_network(network, result.equivalences)
        save_network(reduced, instance["outputs"]["warm" if resume else "cold"])
        return result.metrics, stats, journal.stats

    def run(self) -> None:
        for instance in self.instances:
            for kind, resume in (("cold", False), ("warm", True)):
                # A resume is its own command-line invocation: it does not
                # inherit the fresh sweep's compiled tape or tables.
                self._cold_caches()
                self._job(
                    kind, f"{instance['label']}/{kind}",
                    lambda instance=instance, resume=resume: self._sweep(
                        instance, resume
                    ),
                )

    def verify(self) -> None:
        from repro.tools.cli import load_network

        rng = random.Random(f"journal-oracle/{self.seed}")
        for index, instance in enumerate(self.instances):
            cold, warm = self.jobs[2 * index], self.jobs[2 * index + 1]
            if cold["failed"] or warm["failed"]:
                continue
            what = f"sweep {instance['label']}"
            with open(instance["outputs"]["cold"], "rb") as handle:
                cold_bytes = handle.read()
            with open(instance["outputs"]["warm"], "rb") as handle:
                warm_bytes = handle.read()
            if cold_bytes != warm_bytes:
                raise oracle.OracleError(f"{what}: resumed output differs")
            if warm["value"][2]["appends"] != 0:
                raise oracle.OracleError(
                    f"{what}: resume against a complete journal appended"
                )
            oracle.require_same_function(
                instance["network"], load_network(instance["outputs"]["cold"]),
                rng, f"{what} (reduced)",
            )

    def summary(self) -> dict:
        totals = {"sat_calls": 0, "unknown_pairs": 0, "gates_removed": 0,
                  "runtime.journal.appends": 0, "runtime.journal.replayed": 0}
        for record in self.jobs:
            if record["failed"]:
                continue
            metrics, stats, journal = record["value"]
            # Queries the solver answered: replayed verdicts are not SAT.
            totals["sat_calls"] += metrics.sat_calls - journal["replayed_verdicts"]
            totals["unknown_pairs"] += metrics.unknown
            totals["gates_removed"] += stats.gates_removed
            totals["runtime.journal.appends"] += journal["appends"]
            totals["runtime.journal.replayed"] += journal["replayed_verdicts"]
        return totals


# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """Two closed-loop clients of an in-process ``SweepService``."""

    kinds = ("cold", "warm", "edited")
    threaded = True

    def setup(self) -> None:
        from repro.benchgen import build_benchmark
        from repro.io import bench_text

        self.clients = []
        for names in SERVE_CLIENTS:
            requests = []
            for name in shuffled(names, self.rng):
                text = bench_text(build_benchmark(name))
                edited = self._oracle_setup(self._edit, text, name)
                for kind, netlist in (("cold", text), ("warm", text),
                                      ("edited", edited)):
                    requests.append({"kind": kind, "label": f"{name}/{kind}",
                                     "netlist": netlist})
            self.clients.append(requests)
        self._start_service()

    def _start_service(self) -> None:
        from repro.serve import ClientBudget, SweepService, VerdictCache

        # `repro.tools serve` defaults: 2 workers, 64 MiB in-memory cache,
        # 16 pending jobs per client, no job deadline.
        self.service = SweepService(
            workers=2,
            cache=VerdictCache(path=None, max_bytes=64 * 1024 * 1024),
            default_budget=ClientBudget(max_pending=16, max_job_seconds=None),
            spool_dir=self.path("spool"),
        )
        self._done = [threading.Event() for _ in range(len(self.clients))]
        self._done_at = [0.0] * len(self.clients)
        finish = self.service.queue.finish

        def finished(client: str) -> None:
            finish(client)
            index = int(client.removeprefix("client"))
            self._done_at[index] = perf()
            self._done[index].set()

        self.service.queue.finish = finished
        self.service.start()

    def begin_rep(self, index: int) -> None:
        if index:
            # A daemon started afresh: empty verdict, tape and transition
            # caches (set-up started the first one in a fresh process).
            self._cold_caches()
            self._start_service()
        super().begin_rep(index)

    @staticmethod
    def _edit(text: str, name: str) -> str:
        """Flip one minterm of a gate that feeds a candidate class pair.

        The edit site is fixed per circuit, so the re-solving an edit
        causes does not vary with the workload seed.
        """
        from repro.io import parse_bench

        network = parse_bench(text)
        rng = random.Random(f"serve-edit/{name}")
        classes = oracle.signature_classes(network, rng)
        rng.shuffle(classes)
        for members in classes:
            cone = oracle.fanin_gates(network, rng.choice(members))
            if cone:
                break
        else:
            raise RuntimeError(f"{name}: no class pair to edit under")
        gate = network.node(rng.choice(cone)).label()
        return flip_minterm(text, gate, rng)

    def _client(self, index: int) -> None:
        name = f"client{index}"
        for request in self.clients[index]:
            record = {"kind": request["kind"], "label": request["label"],
                      "client": index, "failed": False,
                      "netlist": request["netlist"]}
            self._done[index].clear()
            start = perf()
            answer = self.service.submit({
                "kind": "sweep",
                "format": "bench",
                "netlist": request["netlist"],
                "client": name,
                # Distinct job seeds keep the clients' verdict-cache keys
                # apart, so cache hits do not depend on thread timing.
                "config": {"seed": index},
            })
            if "rejected" in answer:
                record.update(failed=True, error=answer["rejected"], s=perf() - start)
                self.jobs.append(record)
                continue
            if self.recorder is not None:
                self.recorder.job_times.setdefault(answer["id"], {})["submit"] = start
            self._done[index].wait()
            record["s"] = self._done_at[index] - start
            job = self.service.job(answer["id"])
            if job.status != "done":
                record.update(failed=True, error=job.error or job.status)
            else:
                record["value"] = job.result
            self.jobs.append(record)

    def run(self) -> None:
        threads = [
            threading.Thread(target=self._client, args=(index,), name=f"client{index}")
            for index in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Job order must not depend on thread timing (the sort is stable).
        self.jobs.sort(key=lambda record: record["client"])

    def teardown(self) -> None:
        if self.service is not None:
            self.service.shutdown(wait=True)
            self.service = None

    def verify(self) -> None:
        from repro.io import parse_bench

        rng = random.Random(f"serve-oracle/{self.seed}")
        cold_netlists: dict[tuple[int, str], str] = {}
        for record in self.jobs:
            if record["failed"]:
                continue
            result = record["value"]
            what = f"serve {record['label']} (client {record['client']})"
            oracle.require_same_function(
                parse_bench(record["netlist"]), parse_bench(result["netlist"]),
                rng, what,
            )
            base = record["label"].rsplit("/", 1)[0]
            key = (record["client"], base)
            if record["kind"] == "cold":
                cold_netlists[key] = result["netlist"]
            elif record["kind"] == "warm":
                if result["netlist"] != cold_netlists.get(key):
                    raise oracle.OracleError(
                        f"{what}: re-submission output differs from cold"
                    )
                if result["cache"]["misses"] or result["cache"]["appends"]:
                    raise oracle.OracleError(
                        f"{what}: identical re-submission missed the cache"
                    )

    def summary(self) -> dict:
        totals = {"sat_calls": 0, "unknown_pairs": 0, "gates_removed": 0}
        for kind in self.kinds:
            totals[f"serve.cache.hits.{kind}"] = 0
            totals[f"serve.cache.misses.{kind}"] = 0
        for record in self.jobs:
            if record["failed"]:
                continue
            result = record["value"]
            cache = result["cache"]
            totals["sat_calls"] += result["metrics"]["sat_calls"] - cache["hits"]
            totals["unknown_pairs"] += result["metrics"]["unknown"]
            totals["gates_removed"] += result["gates_before"] - result["gates_after"]
            totals[f"serve.cache.hits.{record['kind']}"] += cache["hits"]
            totals[f"serve.cache.misses.{record['kind']}"] += cache["misses"]
        return totals


# ----------------------------------------------------------------------
class PaperMatrixWorkload(Workload):
    """``python -m repro.experiments all`` tables over a 10-benchmark draw."""

    def setup(self) -> None:
        from repro.experiments.config import ExperimentConfig

        self.benchmarks = shuffled(PAPER_BENCHMARKS, self.rng)
        # As `python -m repro.experiments all --benchmarks ...` configures it.
        self.config = ExperimentConfig(benchmarks=tuple(self.benchmarks))
        self.config.num_seeds = 1
        self.config.timeout_s = None
        self.config.jobs = 1
        self.config.trace_path = None
        self._capture_sat_phases()
        self._new_runner()

    def _new_runner(self) -> None:
        from repro.experiments.runner import ExperimentRunner

        self.runner = ExperimentRunner(self.config)
        run = self.runner.run

        def timed_run(benchmark, strategy, *args, **kwargs):
            holder = {}
            self._running = f"{benchmark}/{strategy}"
            self._job("run", self._running, lambda: holder.setdefault(
                "run", run(benchmark, strategy, *args, **kwargs)))
            return holder["run"]

        self.runner.run = timed_run

    def begin_rep(self, index: int) -> None:
        if index:
            # A new `python -m repro.experiments all`: no plan caches and
            # no runs or instances of an earlier runner.
            self._cold_caches()
            self._new_runner()
        self.sat_phases = []
        super().begin_rep(index)

    def _capture_sat_phases(self) -> None:
        """Keep each SAT phase's network and proven equivalences, so the
        oracle can reduce and check them after the timed region."""
        from repro.sweep.engine import SweepEngine

        run_sat_phase = SweepEngine.run_sat_phase

        def captured(engine, *args, **kwargs):
            result = run_sat_phase(engine, *args, **kwargs)
            self.sat_phases.append((
                self._running, engine.network, list(result.equivalences)
            ))
            return result

        SweepEngine.run_sat_phase = captured

    def run(self) -> None:
        from repro.experiments.table1 import run_table1
        from repro.experiments.table2 import run_table2

        self.table1 = run_table1(self.config, self.runner)
        self.table2 = run_table2(self.config, self.runner)
        self.report = self.table1.render() + "\n\n" + self.table2.render()
        self.runner.close()

    def verify(self) -> None:
        from repro.sweep import reduce_network

        failed = [r for r in self.jobs if r["failed"]]
        if failed:
            raise oracle.OracleError(f"experiment run failed: {failed[0]['error']}")
        for record in self.jobs:
            history = record["value"].cost_history
            if any(b > a for a, b in zip(history, history[1:])):
                raise oracle.OracleError(
                    f"experiments {record['label']}: Eq. 5 cost rose"
                )
        if not self.sat_phases:
            raise oracle.OracleError("experiments: no SAT phase ran")
        rng = random.Random(f"paper-oracle/{self.seed}")
        for label, network, equivalences in self.sat_phases:
            # Every proven merge must hold: the reduced network computes
            # its input's function on the reference simulator.
            reduced, _ = reduce_network(network, equivalences)
            oracle.require_same_function(
                network, reduced, rng, f"experiments {label} (reduced)"
            )

    def summary(self) -> dict:
        runs = [r["value"] for r in self.jobs if not r["failed"]]
        return {
            "sat_calls": sum(run.sat_calls for run in runs),
            "unknown_pairs": sum(run.unknown for run in runs),
            "cost_final": sum(run.cost_final for run in runs),
        }


WORKLOADS = {
    "cec": CecWorkload,
    "journaled-sweep": JournaledSweepWorkload,
    "serve": ServeWorkload,
    "paper-matrix": PaperMatrixWorkload,
}
