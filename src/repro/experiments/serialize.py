"""JSON serialization of experiment results.

``python -m repro.experiments all --json results.json`` dumps every
generated table/figure as structured data, so downstream analysis
(plotting, regression tracking between library versions) does not have to
re-parse the rendered text.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.fig5 import Fig5Result
from repro.experiments.fig7 import Fig7Result
from repro.experiments.runner import BenchmarkRun
from repro.experiments.table1 import Table1Result
from repro.experiments.table2 import Table2Result


def run_to_dict(run: BenchmarkRun) -> dict[str, Any]:
    """Flatten one BenchmarkRun."""
    return {
        "benchmark": run.benchmark,
        "strategy": run.strategy,
        "luts": run.luts,
        "pis": run.pis,
        "cost_initial": run.cost_initial,
        "cost_final": run.cost_final,
        "cost_history": list(run.cost_history),
        "sim_time": run.sim_time,
        "simgen_time": run.simgen_time,
        "sat_calls": run.sat_calls,
        "sat_time": run.sat_time,
        "proven": run.proven,
        "disproven": run.disproven,
        "unknown": run.unknown,
    }


def table1_to_dict(result: Table1Result) -> dict[str, Any]:
    return {
        "kind": "table1",
        "avg_cost": result.avg_cost,
        "avg_runtime": result.avg_runtime,
        "aggregate_cost": result.aggregate_cost,
        "aggregate_runtime": result.aggregate_runtime,
        "runs": [run_to_dict(r) for r in result.runs.values()],
    }


def table2_to_dict(result: Table2Result) -> dict[str, Any]:
    return {
        "kind": "table2_scaled" if result.scaled else "table2",
        "rows": [
            {
                "benchmark": row.benchmark,
                "copies": row.copies,
                "revs": run_to_dict(row.revs),
                "sgen": run_to_dict(row.sgen),
            }
            for row in result.rows
        ],
    }


def fig5_to_dict(result: Fig5Result) -> dict[str, Any]:
    return {
        "kind": result.title.lower().replace(" ", ""),
        "points": [
            {
                "benchmark": p.benchmark,
                "copies": p.copies,
                "cost": p.cost,
                "sim_runtime": p.sim_runtime,
                "sat_calls": p.sat_calls,
                "sat_runtime": p.sat_runtime,
                "pareto": p.pareto_class(),
            }
            for p in result.points
        ],
    }


def fig7_to_dict(result: Fig7Result) -> dict[str, Any]:
    return {
        "kind": "fig7",
        "iterations": result.iterations,
        "traces": {
            benchmark: [
                {
                    "label": t.label,
                    "costs": list(t.costs),
                    "cumulative_time": list(t.cumulative_time),
                    "switch_iteration": t.switch_iteration,
                }
                for t in traces
            ]
            for benchmark, traces in result.traces.items()
        },
    }


def to_dict(result: Any) -> dict[str, Any]:
    """Dispatch any experiment result to its JSON form."""
    if isinstance(result, Table1Result):
        return table1_to_dict(result)
    if isinstance(result, Table2Result):
        return table2_to_dict(result)
    if isinstance(result, Fig5Result):
        return fig5_to_dict(result)
    if isinstance(result, Fig7Result):
        return fig7_to_dict(result)
    raise TypeError(f"unknown result type {type(result)!r}")


def dump_results(results: list[Any], path: str) -> None:
    """Write a list of experiment results as one JSON document.

    The write is atomic (temp file + rename): a crash mid-dump leaves any
    previous results file intact instead of a truncated document.
    """
    from repro.runtime.atomicio import atomic_write_json

    payload = [to_dict(result) for result in results]
    atomic_write_json(path, payload)
