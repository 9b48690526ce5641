"""Microbenchmarks of the substrate layers.

Not a paper table — these time the building blocks (bit-parallel
simulation, CDCL solving, cut enumeration, vector generation) so
performance regressions in the substrate are visible independently of the
experiment-level numbers.
"""

from __future__ import annotations

import random

import pytest

from repro.benchgen import sweep_instance
from repro.core import make_generator
from repro.mapping import enumerate_cuts
from repro.simulation import PatternBatch, Simulator
from repro.sweep.checker import PairChecker


@pytest.fixture(scope="module")
def network():
    return sweep_instance("b14_C")


def test_bitparallel_simulation_256_patterns(benchmark, network):
    simulator = Simulator(network)
    batch = PatternBatch.random_for(network, 256, random.Random(0))

    benchmark(simulator.run_batch, batch)


def test_single_vector_simulation(benchmark, network):
    simulator = Simulator(network)
    vector = {pi: 0 for pi in network.pis}

    benchmark(simulator.run_vector, vector)


def test_cut_enumeration_k6(benchmark, network):
    benchmark(enumerate_cuts, network, 6, 8)


def test_sat_pair_check_incremental(benchmark, network):
    gates = [n.uid for n in network.gates()]
    rng = random.Random(1)
    pairs = [tuple(rng.sample(gates, 2)) for _ in range(20)]

    def run():
        checker = PairChecker(network, incremental=True)
        for a, b in pairs:
            checker.check(a, b)
        return checker.stats.calls

    calls = benchmark.pedantic(run, rounds=1, iterations=1)
    assert calls == 20


def test_simgen_vector_generation(benchmark, network):
    generator = make_generator("AI+DC+MFFC", network, seed=1)
    gates = [n.uid for n in network.gates()]
    classes = [gates[i : i + 8] for i in range(0, 64, 8)]

    benchmark(generator.generate, classes)


def test_revsim_vector_generation(benchmark, network):
    generator = make_generator("RevS", network, seed=1)
    gates = [n.uid for n in network.gates()]
    classes = [gates[i : i + 8] for i in range(0, 64, 8)]

    benchmark(generator.generate, classes)


def test_bigint_simulation_4096_patterns(benchmark, network):
    """Big-int backend on a wide (4096-pattern) batch."""
    simulator = Simulator(network)
    batch = PatternBatch.random_for(network, 4096, random.Random(0))
    words = batch.words()

    benchmark(simulator.run_words, words, 4096)
