"""Table 1: average normalized cost and simulation runtime vs RevS (§6.2).

The paper reports, over 42 benchmarks after one round of random simulation
and 20 guided iterations::

            RevS   SI+RD  AI+RD  AI+DC  AI+DC+MFFC
    Cost    1.000  0.814  0.812  0.810  0.807 (-19.3%)
    SimRT   1.000  1.204  1.263  1.262  1.130 (+13.0%)

This module regenerates both rows for our substrate.  Only the simulation
phase is measured (cost is Equation 5 after the 20th iteration; runtime is
generation + simulation wall-clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.strategies import STRATEGY_NAMES
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import mean, safe_ratio
from repro.experiments.report import format_table
from repro.experiments.runner import BenchmarkRun, ExperimentRunner

#: The paper's published values, for side-by-side comparison in the report.
PAPER_COST = {
    "RevS": 1.000,
    "SI+RD": 0.814,
    "AI+RD": 0.812,
    "AI+DC": 0.810,
    "AI+DC+MFFC": 0.807,
}
PAPER_RUNTIME = {
    "RevS": 1.000,
    "SI+RD": 1.204,
    "AI+RD": 1.263,
    "AI+DC": 1.262,
    "AI+DC+MFFC": 1.130,
}


@dataclass(slots=True)
class Table1Result:
    """Aggregated Table-1 rows plus the per-benchmark raw runs."""

    avg_cost: dict[str, float]
    avg_runtime: dict[str, float]
    #: Sum-based ratios (total cost / total RevS cost): robust against
    #: benchmarks whose absolute costs are tiny.
    aggregate_cost: dict[str, float] = field(default_factory=dict)
    aggregate_runtime: dict[str, float] = field(default_factory=dict)
    runs: dict[tuple[str, str], BenchmarkRun] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Metric", *STRATEGY_NAMES]
        rows = [
            ["Cost (measured, mean)"]
            + [f"{self.avg_cost[s]:.3f}" for s in STRATEGY_NAMES],
            ["Cost (measured, aggregate)"]
            + [f"{self.aggregate_cost.get(s, 0.0):.3f}" for s in STRATEGY_NAMES],
            ["Cost (paper)"]
            + [f"{PAPER_COST[s]:.3f}" for s in STRATEGY_NAMES],
            ["Sim runtime (measured, mean)"]
            + [f"{self.avg_runtime[s]:.3f}" for s in STRATEGY_NAMES],
            ["Sim runtime (measured, aggregate)"]
            + [
                f"{self.aggregate_runtime.get(s, 0.0):.3f}"
                for s in STRATEGY_NAMES
            ],
            ["Sim runtime (paper)"]
            + [f"{PAPER_RUNTIME[s]:.3f}" for s in STRATEGY_NAMES],
        ]
        return format_table(
            headers,
            rows,
            title=(
                "Table 1: average normalized cost / simulation runtime "
                "(relative to RevS)"
            ),
        )


def run_table1(
    config: Optional[ExperimentConfig] = None,
    runner: Optional[ExperimentRunner] = None,
    verbose: bool = False,
) -> Table1Result:
    """Execute the Table-1 sweep matrix and aggregate."""
    config = config or ExperimentConfig()
    runner = runner or ExperimentRunner(config)
    seeds = [config.seed + 1009 * k for k in range(max(1, config.num_seeds))]
    runs: dict[tuple[str, str], BenchmarkRun] = {}
    # Seed-averaged (cost, runtime) per (benchmark, strategy).
    averaged: dict[tuple[str, str], tuple[float, float]] = {}
    for benchmark in config.benchmarks:
        for strategy in STRATEGY_NAMES:
            costs = []
            times = []
            for seed in seeds:
                run = runner.run(
                    benchmark, strategy, with_sat=False, generator_seed=seed
                )
                costs.append(run.cost_final)
                # Runtime is generation + simulation, as the paper's SimRT.
                times.append(run.sim_time + run.simgen_time)
            runs[(benchmark, strategy)] = run
            averaged[(benchmark, strategy)] = (mean(costs), mean(times))
            if verbose:
                print(
                    f"  {benchmark:10s} {strategy:11s} "
                    f"cost {run.cost_initial:4d}->{mean(costs):6.1f} "
                    f"gen+sim {mean(times):6.2f}s"
                )
    avg_cost: dict[str, float] = {}
    avg_runtime: dict[str, float] = {}
    aggregate_cost: dict[str, float] = {}
    aggregate_runtime: dict[str, float] = {}
    for strategy in STRATEGY_NAMES:
        cost_ratios = []
        time_ratios = []
        total_cost = 0.0
        total_time = 0.0
        base_cost = 0.0
        base_time = 0.0
        for benchmark in config.benchmarks:
            base_c, base_t = averaged[(benchmark, "RevS")]
            run_c, run_t = averaged[(benchmark, strategy)]
            cost_ratios.append(safe_ratio(run_c, base_c))
            time_ratios.append(safe_ratio(run_t, base_t))
            total_cost += run_c
            total_time += run_t
            base_cost += base_c
            base_time += base_t
        avg_cost[strategy] = mean(cost_ratios)
        avg_runtime[strategy] = mean(time_ratios)
        aggregate_cost[strategy] = safe_ratio(total_cost, base_cost)
        aggregate_runtime[strategy] = safe_ratio(total_time, base_time)
    return Table1Result(
        avg_cost=avg_cost,
        avg_runtime=avg_runtime,
        aggregate_cost=aggregate_cost,
        aggregate_runtime=aggregate_runtime,
        runs=runs,
    )
