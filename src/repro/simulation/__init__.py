"""Bit-parallel simulation: packed words, pattern batches, the simulator."""

from repro.simulation.bitvec import (
    exhaustive_word,
    from_bits,
    get_bit,
    random_word,
    set_bit,
    to_bits,
    width_mask,
)
from repro.simulation.patterns import InputVector, PatternBatch
from repro.simulation.compiled import CompiledSimulator
from repro.simulation.quality import VectorQuality, batch_quality, distinguishing_power
from repro.simulation.simulator import Simulator, cone_function, simulate

__all__ = [
    "CompiledSimulator",
    "InputVector",
    "PatternBatch",
    "Simulator",
    "VectorQuality",
    "batch_quality",
    "distinguishing_power",
    "cone_function",
    "exhaustive_word",
    "from_bits",
    "get_bit",
    "random_word",
    "set_bit",
    "simulate",
    "to_bits",
    "width_mask",
]
