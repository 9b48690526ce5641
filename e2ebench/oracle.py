"""Correctness oracle, independent of the engines under test.

Known answers come from construction (a rewrite is equivalent) and from
the reference dict simulator (``repro.simulation.simulator.Simulator``),
never from the sweeping/SAT code paths being measured.  Any wrong verdict
or mismatch raises :class:`OracleError`, which aborts the run.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.simulation.simulator import Simulator

#: Random patterns per comparison (one packed word per input).
WIDTH = 2048


class OracleError(Exception):
    """The program produced a wrong verdict or a mismatching netlist."""


def random_words(count: int, rng: random.Random, width: int = WIDTH) -> list[int]:
    return [rng.getrandbits(width) for _ in range(count)]


def output_words(network, words: list[int], width: int = WIDTH) -> list[int]:
    """PO words, in PO order, for PI words given by PI position."""
    if len(words) != len(network.pis):
        raise OracleError(
            f"{network.name}: {len(network.pis)} inputs, {len(words)} words"
        )
    values = Simulator(network).run_words(dict(zip(network.pis, words)), width)
    return [values[uid] for _, uid in network.pos]


def first_difference(network_a, network_b, rng: random.Random) -> Optional[int]:
    """Index of the first PO the two networks disagree on, or None."""
    if len(network_a.pis) != len(network_b.pis) or len(network_a.pos) != len(
        network_b.pos
    ):
        raise OracleError("interface mismatch between compared netlists")
    words = random_words(len(network_a.pis), rng)
    outs_a = output_words(network_a, words)
    outs_b = output_words(network_b, words)
    for index, (a, b) in enumerate(zip(outs_a, outs_b)):
        if a != b:
            return index
    return None


def require_same_function(network_a, network_b, rng: random.Random, what: str) -> None:
    index = first_difference(network_a, network_b, rng)
    if index is not None:
        name = network_a.pos[index][0]
        raise OracleError(f"{what}: output {name!r} differs from its input")


def replay_counterexample(golden, revised, values: dict[int, int], what: str) -> None:
    """A CEC counterexample must separate the pair on the reference
    simulator.  Keys are union-network PI ids, which are the PI positions
    (the union creates its shared inputs first, in order); unassigned
    inputs are free, so both all-0 and all-1 completions must separate."""
    count = len(golden.pis)
    if any(not 0 <= key < count for key in values):
        raise OracleError(f"{what}: counterexample names unknown inputs")
    words = []
    for position in range(count):
        bit = values.get(position)
        # bit 0 of each word: free inputs at 0; bit 1: free inputs at 1.
        words.append(0b10 if bit is None else (0b11 if bit else 0b00))
    outs_a = output_words(golden, words, width=2)
    outs_b = output_words(revised, words, width=2)
    separated = 0
    for a, b in zip(outs_a, outs_b):
        separated |= a ^ b
    if separated != 0b11:
        raise OracleError(
            f"{what}: counterexample does not separate the pair on the "
            "reference simulator"
        )


def signature_classes(network, rng: random.Random, width: int = 256) -> list[list[int]]:
    """Gate classes by reference-simulation signature (size >= 2 only)."""
    words = random_words(len(network.pis), rng, width)
    values = Simulator(network).run_words(dict(zip(network.pis, words)), width)
    groups: dict[int, list[int]] = {}
    for node in network.gates():
        groups.setdefault(values[node.uid], []).append(node.uid)
    return sorted(
        (sorted(members) for members in groups.values() if len(members) >= 2),
        key=lambda members: members[0],
    )


def fanin_gates(network, root: int) -> list[int]:
    """Non-constant gates in the transitive fanin of ``root`` (included)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        uid = stack.pop()
        if uid in seen:
            continue
        seen.add(uid)
        stack.extend(network.node(uid).fanins)
    return sorted(
        uid for uid in seen
        if network.node(uid).is_gate and network.node(uid).fanins
    )
