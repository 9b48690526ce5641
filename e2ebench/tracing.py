"""In-memory span recorder and the layer wrappers of the traced run.

The traced run records spans from this directory only: :func:`install`
wraps the public entry point of each layer of the ``repro`` package (a
class method, or a module function together with every module that
imported it by name).  Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent, thread, job, count]``.  Spans of one
job share the job id; ``parent`` is the enclosing span of the same thread.
Self time is a span's duration minus the time its children cover.
:func:`ledger` turns the spans of one process into per-layer self times plus
``other_s`` and refuses overlapping windows instead of reporting more than
100% coverage.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

perf = time.perf_counter

NAME, START, END, PARENT, THREAD, JOB, COUNT = range(7)


class Recorder:
    """Span store shared by every thread of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.captured: dict[str, list] = {
            "checkers": [], "journals": [], "sim_metrics": [], "caches": [],
        }
        #: job id -> {"submit": t, "pop": t, "done": t} (serve only).
        self.job_times: dict[str, dict[str, float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread state ----------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.job = None
            local.last = -1
        return local

    def set_job(self, job) -> None:
        self._state().job = job

    def open(self, name: str) -> int:
        local = self._state()
        parent = local.stack[-1] if local.stack else -1
        record = [name, perf(), None, parent, threading.get_ident(),
                  local.job, 1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        local.stack.append(index)
        local.last = index
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf()
        stack = self._state().stack
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def coalesce(self, name: str, start: float, end: float) -> None:
        """Record a leaf call, merged into the previous one when nothing
        else happened in this thread since (a batch of ``add_clause``)."""
        local = self._state()
        parent = local.stack[-1] if local.stack else -1
        last = local.last
        if last >= 0:
            record = self.spans[last]
            if (
                record[NAME] == name
                and record[PARENT] == parent
                and record[END] is not None
                and record[THREAD] == threading.get_ident()
            ):
                record[END] = end
                record[COUNT] += 1
                return
        record = [name, start, end, parent, threading.get_ident(),
                  local.job, 1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        local.last = index

    def current(self) -> int:
        stack = self._state().stack
        return stack[-1] if stack else -1

    def add(self, metric: str, value: float) -> None:
        with self._lock:
            self.counts[metric] = self.counts.get(metric, 0) + value

    def write(self, path: str, origin: float) -> None:
        """Write the spans out (times relative to ``origin``)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": record[NAME],
                    "start": round(record[START] - origin, 7),
                    "end": None if record[END] is None
                    else round(record[END] - origin, 7),
                    "parent": record[PARENT],
                    "thread": record[THREAD],
                    "job": record[JOB],
                    "calls": record[COUNT],
                }) + "\n")


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _spanned(recorder: Recorder, fn, name, before=None, after=None):
    """``fn`` inside a span; ``name`` may be a callable of the arguments.

    ``before(args)`` runs first and its value is handed to
    ``after(args, result, span_index, token)``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args) if callable(name) else name
        token = before(args) if before is not None else None
        index = recorder.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(args, result, index, token)
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's global at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _patch_function(recorder, module, attr, name, **hooks):
    original = getattr(module, attr)
    wrapped = _spanned(recorder, original, name, **hooks)
    _rebind(original, wrapped)
    return original, wrapped


def _patch_method(recorder, cls, attr, name, **hooks):
    original = cls.__dict__[attr]
    setattr(cls, attr, _spanned(recorder, original, name, **hooks))


def _nested_in(recorder: Recorder, index: int, name: str) -> bool:
    parent = recorder.spans[index][PARENT]
    return parent >= 0 and recorder.spans[parent][NAME] == name


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points (call once per process)."""
    # import_module: some packages re-export a function under its
    # submodule's name (``repro.transforms.strash``).
    suite = importlib.import_module("repro.benchgen.suite")
    runner_mod = importlib.import_module("repro.experiments.runner")
    bench_io = importlib.import_module("repro.io.bench")
    blif_io = importlib.import_module("repro.io.blif")
    lutmap = importlib.import_module("repro.mapping.lutmap")
    journal_mod = importlib.import_module("repro.runtime.journal")
    daemon = importlib.import_module("repro.serve.daemon")
    cec_mod = importlib.import_module("repro.sweep.cec")
    reduce_mod = importlib.import_module("repro.sweep.reduce")
    cli = importlib.import_module("repro.tools.cli")
    putontop = importlib.import_module("repro.transforms.putontop")
    strash_mod = importlib.import_module("repro.transforms.strash")
    from repro.core.batch import BatchSimGenGenerator
    from repro.core.generator import TargetedVectorGenerator
    from repro.core.random_gen import RandomGenerator
    from repro.core.reverse import ReverseSimGenerator
    from repro.sat import tseitin
    from repro.sat.compiled import CArenaCdclSolver
    from repro.sat.solver import SatResult
    from repro.serve.admission import AdmissionQueue
    from repro.serve.cache import CacheSession, VerdictCache
    from repro.simulation.compiled import CompiledSimulator
    from repro.sweep.checker import PairChecker
    from repro.sweep.classes import EquivalenceClasses
    from repro.sweep.engine import SweepEngine

    rec = recorder
    patch = functools.partial(_patch_method, rec)
    patch_fn = functools.partial(_patch_function, rec)

    # io ---------------------------------------------------------------
    parse_bench = patch_fn(bench_io, "parse_bench", "io.parse")
    parse_blif = patch_fn(blif_io, "parse_blif", "io.parse")
    bench_text = patch_fn(bench_io, "bench_text", "io.render")
    blif_text = patch_fn(blif_io, "blif_text", "io.render")
    # The daemon keeps (parse, render) pairs in a table built at import.
    swap = dict((parse_bench, parse_blif, bench_text, blif_text))
    daemon._FORMATS = {
        fmt: tuple(swap.get(fn, fn) for fn in pair)
        for fmt, pair in daemon._FORMATS.items()
    }
    patch_fn(cli, "save_network", "io.write")

    # mapping (+ strash) and input construction ------------------------
    patch_fn(suite, "build_benchmark", "benchgen.build")
    patch_fn(strash_mod, "strash", "mapping.strash")
    patch_fn(putontop, "put_on_top", "mapping.putontop")
    patch_fn(
        lutmap, "map_to_luts", "mapping.lutmap",
        after=lambda a, r, i, t: rec.add("mapping.luts", r[1].luts),
    )

    # simulation -------------------------------------------------------
    patch(
        CompiledSimulator, "__init__", "simulation.compile",
        after=lambda a, r, i, t: rec.add("simulation.compiles", 1),
    )
    patch(
        CompiledSimulator, "run_batch", "simulation.run",
        after=lambda a, r, i, t: rec.add("simulation.patterns", a[1].width),
    )

    # core (vector generation) -----------------------------------------
    for cls in (BatchSimGenGenerator, ReverseSimGenerator, RandomGenerator):
        patch(cls, "__init__", "core.build")

    def generator_layer(args):
        generator = args[0]
        if isinstance(generator, ReverseSimGenerator):
            return "core.revs"
        if isinstance(generator, RandomGenerator):
            return "core.rands"
        return "core.simgen"

    def count_vectors(args, result, index, token):
        if not _nested_in(rec, index, rec.spans[index][NAME]):
            rec.add("core.vectors", len(result))

    for cls in (BatchSimGenGenerator, TargetedVectorGenerator,
                RandomGenerator):
        patch(cls, "generate", generator_layer, after=count_vectors)

    # sweep.classes ----------------------------------------------------
    patch(EquivalenceClasses, "refine", "sweep.classes.refine")
    patch(EquivalenceClasses, "best_splittable", "sweep.classes.select")

    # sat.tseitin ------------------------------------------------------
    def clauses_before(args):
        return len(args[0].cnf.clauses)

    def count_clauses(args, result, index, before):
        rec.add("sat.tseitin.clauses", len(args[0].cnf.clauses) - before)

    patch(tseitin.TseitinEncoder, "encode_cone", "sat.tseitin.encode",
          before=clauses_before, after=count_clauses)
    patch_fn(tseitin, "pair_miter", "sat.tseitin.encode")

    # sat solver: clause loading and search ----------------------------
    add_clause = CArenaCdclSolver.__dict__["add_clause"]

    @functools.wraps(add_clause)
    def add_clause_batched(self, literals):
        start = perf()
        try:
            return add_clause(self, literals)
        finally:
            rec.coalesce("sat.solver.load", start, perf())

    CArenaCdclSolver.add_clause = add_clause_batched
    patch(CArenaCdclSolver, "add_cnf", "sat.solver.load")
    patch(
        CArenaCdclSolver, "solve", "sat.solver.solve",
        after=lambda a, r, i, t: rec.add("sat.solver.solves", 1),
    )

    # sweep.checker ----------------------------------------------------
    patch(
        PairChecker, "__init__", "sweep.checker.build",
        after=lambda a, r, i, t: rec.captured["checkers"].append(a[0]),
    )

    def count_check(args, result, index, token):
        rec.add("sweep.checker.calls", 1)
        if result[0] is not SatResult.UNKNOWN:
            rec.add("sweep.checker.decided", 1)

    patch(PairChecker, "check", "sweep.checker.check", after=count_check)

    # sweep.engine / sweep.cec / sweep.reduce ---------------------------
    patch(SweepEngine, "__init__", "sweep.engine.build")
    patch(SweepEngine, "run", "sweep.engine.run")

    def keep_sim_metrics(args, result, index, token):
        engine = args[0]
        rec.captured["sim_metrics"].append(
            (engine.config.random_rounds, list(result[1].cost_history))
        )

    patch(SweepEngine, "run_simulation_phase", "sweep.engine.sim_phase",
          after=keep_sim_metrics)
    patch(SweepEngine, "run_sat_phase", "sweep.engine.sat_phase")
    patch_fn(cec_mod, "check_equivalence", "sweep.cec")
    patch_fn(reduce_mod, "reduce_network", "sweep.reduce")

    # runtime.journal --------------------------------------------------
    patch(
        journal_mod.VerdictJournal, "__init__", "runtime.journal.open",
        after=lambda a, r, i, t: rec.captured["journals"].append(a[0]),
    )
    patch(journal_mod.VerdictJournal, "bind", "runtime.journal.open")
    patch(journal_mod.VerdictJournal, "record", "runtime.journal.record")
    patch(journal_mod.VerdictJournal, "close", "runtime.journal.close")

    # serve: admission, job execution and the verdict cache -------------
    patch(
        VerdictCache, "__init__", "serve.cache.open",
        after=lambda a, r, i, t: rec.captured["caches"].append(a[0]),
    )
    patch(CacheSession, "bind", "serve.cache.bind")
    patch(CacheSession, "lookup", "serve.cache.lookup")
    patch(CacheSession, "record", "serve.cache.record")

    pop = AdmissionQueue.__dict__["pop"]
    finish = AdmissionQueue.__dict__["finish"]

    @functools.wraps(pop)
    def traced_pop(self, *args, **kwargs):
        index = rec.open("serve.pop")
        try:
            job = pop(self, *args, **kwargs)
        finally:
            rec.close(index)
        if job is not None:
            rec.job_times.setdefault(job.id, {})["pop"] = perf()
            rec.set_job(job.id)
            rec.open("serve.job")
        return job

    @functools.wraps(finish)
    def traced_finish(self, client):
        local = rec._state()
        if local.job is not None:
            rec.job_times.setdefault(local.job, {})["done"] = perf()
            rec.close(rec.current())
            rec.set_job(None)
        return finish(self, client)

    AdmissionQueue.pop = traced_pop
    AdmissionQueue.finish = traced_finish

    # experiments ------------------------------------------------------
    def runs_before(args):
        return len(args[0]._runs)

    def count_reuse(args, result, index, before):
        if len(args[0]._runs) == before:
            rec.add("experiments.reused_runs", 1)

    patch(runner_mod.ExperimentRunner, "run", "experiments.run",
          before=runs_before, after=count_reuse)


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
#: Span name -> metric that receives its self time.  Every recorded span
#: name must appear here, so no layer's time goes unreported.
SELF_METRIC = {
    "io.parse": "io.parse_s",
    "io.render": "io.render_s",
    "io.write": "io.write_s",
    "benchgen.build": "benchgen.build_s",
    "mapping.strash": "mapping.strash_s",
    "mapping.putontop": "mapping.putontop_s",
    "mapping.lutmap": "mapping.lutmap_s",
    "simulation.compile": "simulation.compile_s",
    "simulation.run": "simulation.run_s",
    "core.build": "core.build_s",
    "core.simgen": "core.simgen_s",
    "core.revs": "core.revs_s",
    "core.rands": "core.rands_s",
    "sweep.classes.refine": "sweep.classes.refine_s",
    "sweep.classes.select": "sweep.classes.select_s",
    "sat.tseitin.encode": "sat.tseitin.encode_s",
    "sat.solver.load": "sat.solver.load_s",
    "sat.solver.solve": "sat.solver.solve_s",
    "sweep.checker.build": "sweep.checker.build_s",
    "sweep.checker.check": "sweep.checker.check_s",
    "sweep.engine.build": "sweep.engine.build_s",
    "sweep.engine.run": "sweep.engine.run_other_s",
    "sweep.engine.sim_phase": "sweep.engine.sim_other_s",
    "sweep.engine.sat_phase": "sweep.engine.sat_other_s",
    "sweep.cec": "sweep.cec.other_s",
    "sweep.reduce": "sweep.reduce.s",
    "runtime.journal.open": "runtime.journal.open_s",
    "runtime.journal.record": "runtime.journal.record_s",
    "runtime.journal.close": "runtime.journal.close_s",
    "serve.cache.open": "serve.cache.open_s",
    "serve.cache.bind": "serve.cache.bind_s",
    "serve.cache.lookup": "serve.cache.lookup_s",
    "serve.cache.record": "serve.cache.record_s",
    "serve.pop": "serve.pop_s",
    "serve.job": "serve.exec_other_s",
    "experiments.run": "experiments.other_s",
}

#: Inclusive (wall) time of these spans is reported as well.
INCLUSIVE_METRIC = {
    "sweep.engine.sim_phase": "sweep.engine.sim_phase_s",
    "sweep.engine.sat_phase": "sweep.engine.sat_phase_s",
    "experiments.run": "experiments.run_s",
}


class LedgerError(Exception):
    """Spans overlap or cover more than the ledger window."""


def ledger(recorder: Recorder, windows: dict[int, tuple[float, float]],
           default_window: tuple[float, float]) -> dict[str, float]:
    """Per-layer self times, clipped to each thread's window.

    ``windows`` maps a thread id to the interval its time is accounted
    over; threads not listed use ``default_window``.  Returns metric ->
    seconds, plus ``ledger_s`` (the sum of windows) and ``other_s``.
    """
    spans = recorder.spans
    clipped: list[float] = []
    for record in spans:
        if record[END] is None:
            raise LedgerError(f"span {record[NAME]!r} was never closed")
        lo, hi = windows.get(record[THREAD], default_window)
        clipped.append(max(0.0, min(record[END], hi) - max(record[START], lo)))
    child_time = [0.0] * len(spans)
    roots: dict[int, list[int]] = {}
    for index, record in enumerate(spans):
        parent = record[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if (record[START] < outer[START] - 1e-9
                    or record[END] > outer[END] + 1e-9):
                raise LedgerError(
                    f"span {record[NAME]!r} leaves its parent "
                    f"{outer[NAME]!r} (overlapping windows)"
                )
            child_time[parent] += clipped[index]
        else:
            roots.setdefault(record[THREAD], []).append(index)
    total_window = 0.0
    covered = 0.0
    threads = set(roots)
    for thread in threads:
        lo, hi = windows.get(thread, default_window)
        total_window += hi - lo
        previous_end = None
        for index in sorted(roots[thread], key=lambda i: spans[i][START]):
            if previous_end is not None and spans[index][START] < previous_end - 1e-9:
                raise LedgerError(
                    f"root spans overlap in one thread at "
                    f"{spans[index][NAME]!r} (overlapping windows)"
                )
            previous_end = spans[index][END]
            covered += clipped[index]
    # Windows of threads that recorded nothing still count (main thread).
    for thread, (lo, hi) in windows.items():
        if thread not in threads:
            total_window += hi - lo
    result: dict[str, float] = {name: 0.0 for name in SELF_METRIC.values()}
    result.update({name: 0.0 for name in INCLUSIVE_METRIC.values()})
    self_total = 0.0
    for index, record in enumerate(spans):
        own = clipped[index] - child_time[index]
        if own < -1e-6:
            raise LedgerError(
                f"children of {record[NAME]!r} cover more than the span "
                "(overlapping windows)"
            )
        metric = SELF_METRIC.get(record[NAME])
        if metric is None:
            raise LedgerError(f"span {record[NAME]!r} has no ledger row")
        result[metric] += own
        self_total += own
        inclusive = INCLUSIVE_METRIC.get(record[NAME])
        if inclusive is not None and not _nested_in(recorder, index, record[NAME]):
            result[inclusive] += clipped[index]
    if covered > total_window + 1e-6:
        raise LedgerError(
            f"spans cover {covered:.6f}s of a {total_window:.6f}s window "
            "(overlapping windows)"
        )
    result["ledger_s"] = total_window
    result["other_s"] = total_window - self_total
    # Fallback miters: checker calls made by CEC itself, outside the sweep.
    fallback_s = 0.0
    fallback_calls = 0
    for index, record in enumerate(spans):
        parent = record[PARENT]
        if (record[NAME] == "sweep.checker.check" and parent >= 0
                and spans[parent][NAME] == "sweep.cec"):
            fallback_s += clipped[index]
            fallback_calls += 1
    result["sweep.cec.fallback_s"] = fallback_s
    result["sweep.cec.fallback_calls"] = fallback_calls
    return result


def layer_counts(recorder: Recorder) -> dict[str, float]:
    """Counters read at the layer boundaries and from program stats."""
    counts = dict(recorder.counts)
    out = {
        name: counts.get(name, 0)
        for name in (
            "mapping.luts", "simulation.compiles", "simulation.patterns",
            "core.vectors", "sat.tseitin.clauses", "sat.solver.solves",
            "sweep.checker.calls", "experiments.reused_runs",
        )
    }
    calls = counts.get("sweep.checker.calls", 0)
    out["sweep.checker.decided_ratio"] = (
        counts.get("sweep.checker.decided", 0) / calls if calls else 0.0
    )
    checkers = recorder.captured["checkers"]
    out["sat.solver.conflicts"] = sum(c.stats.conflicts for c in checkers)
    out["sat.solver.propagations"] = sum(
        c.stats.propagations for c in checkers
    )
    journals = recorder.captured["journals"]
    out["runtime.journal.appends"] = sum(
        j.stats["appends"] for j in journals
    )
    out["runtime.journal.replayed"] = sum(
        j.stats["replayed_verdicts"] for j in journals
    )
    useful = guided = 0
    for random_rounds, history in recorder.captured["sim_metrics"]:
        start = max(1, random_rounds)
        for step in range(start, len(history)):
            guided += 1
            if history[step] < history[step - 1]:
                useful += 1
    out["core.useful_ratio"] = useful / guided if guided else 0.0
    out["serve.cache.bytes"] = sum(
        c.stats["bytes"] for c in recorder.captured["caches"]
    )
    waits = [t["pop"] - t["submit"] for t in recorder.job_times.values()
             if "pop" in t and "submit" in t]
    execs = [t["done"] - t["pop"] for t in recorder.job_times.values()
             if "pop" in t and "done" in t]
    out["serve.queue_wait_s.p50"] = statistics.median(waits) if waits else 0.0
    out["serve.exec_s.p50"] = statistics.median(execs) if execs else 0.0
    return out
