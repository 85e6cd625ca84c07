"""Compiler Step 2: conflict-aware operand→register-bank mapping.

Each materialized value (DAG leaf or block output) is assigned a
register bank; values a block reads in the same issue must sit in
distinct banks, otherwise the issue stalls a cycle per extra conflict.
The mapper greedily places the most-constrained values first (fewest
feasible banks), mirroring the paper's "prioritizes nodes with the
fewest valid options" heuristic, and balances bank occupancy to spread
traffic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Sequence, Set

from repro.core.compiler.blocks import Block
from repro.core.dag.graph import Dag


@dataclass
class BankAssignment:
    """Result of operand mapping.

    ``bank_of`` maps DAG value id → bank index; ``conflicts`` counts
    same-issue same-bank collisions the greedy pass could not avoid
    (each costs one stall cycle at execution).
    """

    bank_of: Dict[int, int] = field(default_factory=dict)
    num_banks: int = 0
    conflicts: int = 0


def map_operands_to_banks(
    dag: Dag, blocks: Sequence[Block], num_banks: int
) -> BankAssignment:
    """Assign every materialized value to a register bank.

    Values co-read by a block form a conflict clique; the mapper colors
    the resulting conflict graph greedily, most-constrained first, with
    occupancy-balancing tie-breaks.
    """
    if num_banks < 1:
        raise ValueError("need at least one bank")

    # Conflict graph: values read together should get distinct banks.
    # Each value joins every group it is read in, itself included, and
    # leaves its own set once all groups are in.
    neighbors: Dict[int, Set[int]] = {}
    for block in blocks:
        group = block.inputs
        for value in group:
            neighbors.setdefault(value, set()).update(group)
    for value, group in neighbors.items():
        group.discard(value)
    # Block outputs are also register values (written back).
    for block in blocks:
        neighbors.setdefault(block.output, set())

    assignment = BankAssignment(num_banks=num_banks)
    bank_of = assignment.bank_of
    # Every bank as (occupancy, index), a heap: popping in order visits
    # banks least loaded first, lowest index on a tie, so the first one
    # no neighbour holds is the argmin over free banks — and when every
    # bank is held, the first popped is the least loaded of all.  (The
    # ascending initial list is already heap-ordered.)
    banks = [(0, bank) for bank in range(num_banks)]

    # Most-constrained-first: order by conflict degree descending.
    for value in sorted(neighbors, key=lambda v: (-len(neighbors[v]), v)):
        taken = {bank_of[n] for n in neighbors[value] if n in bank_of}
        passed = []
        while banks and banks[0][1] in taken:
            passed.append(heapq.heappop(banks))
        if banks:
            count, bank = heapq.heappop(banks)
        else:  # every bank conflicts: fall back to least loaded
            count, bank = passed.pop(0)
            assignment.conflicts += 1
        bank_of[value] = bank
        heapq.heappush(banks, (count + 1, bank))
        for entry in passed:
            heapq.heappush(banks, entry)

    return assignment
