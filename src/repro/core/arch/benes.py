"""Benes network model: the N:N distribution crossbar of Fig. 6(c).

A Benes network on N = 2^k endpoints is two back-to-back butterflies
(2·log2(N) - 1 stages of N/2 2×2 switches) and routes *any* permutation
without conflict — the property that lets REASON decouple SRAM banking
from DAG mapping.  :meth:`BenesNetwork.route` runs the classic looping
algorithm and returns a switch-setting tree whose
:meth:`~BenesRouting.realized_permutation` reconstructs the permutation
the settings implement (so correctness is testable end to end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class BenesRouting:
    """Recursive switch settings for one routed permutation.

    ``first_stage[i]`` / ``last_stage[i]`` tell whether 2×2 switch ``i``
    of the entry/exit column is crossed; ``upper``/``lower`` are the
    sub-network routings (None at the 2-endpoint base case, where
    ``first_stage`` holds the single switch).
    """

    n: int
    first_stage: List[bool]
    last_stage: List[bool]
    upper: Optional["BenesRouting"] = None
    lower: Optional["BenesRouting"] = None

    def realized_permutation(self) -> List[int]:
        """The permutation these switch settings actually implement."""
        if self.n == 2:
            return [1, 0] if self.first_stage[0] else [0, 1]
        half = self.n // 2
        assert self.upper is not None and self.lower is not None
        up = self.upper.realized_permutation()
        low = self.lower.realized_permutation()
        out = [0] * self.n
        for i in range(half):
            a, b = 2 * i, 2 * i + 1
            # Straight: a → upper input i, b → lower input i.
            to_upper, to_lower = (b, a) if self.first_stage[i] else (a, b)
            ju, jl = up[i], low[i]
            # Exit switch j: straight maps upper j → output 2j.
            out[to_upper] = 2 * ju + (1 if self.last_stage[ju] else 0)
            out[to_lower] = 2 * jl + (0 if self.last_stage[jl] else 1)
        return out

    @property
    def switches_crossed(self) -> int:
        total = sum(self.first_stage)
        if self.n > 2:
            total += sum(self.last_stage)
            assert self.upper is not None and self.lower is not None
            total += self.upper.switches_crossed + self.lower.switches_crossed
        return total

    @property
    def total_switches(self) -> int:
        if self.n == 2:
            return 1
        assert self.upper is not None and self.lower is not None
        return self.n + self.upper.total_switches + self.lower.total_switches


class BenesNetwork:
    """An N-endpoint Benes network (N a power of two, N ≥ 2)."""

    def __init__(self, num_endpoints: int):
        if not _is_power_of_two(num_endpoints) or num_endpoints < 2:
            raise ValueError("Benes network size must be a power of two ≥ 2")
        self.n = num_endpoints

    @property
    def num_stages(self) -> int:
        if self.n == 2:
            return 1
        return 2 * int(math.log2(self.n)) - 1

    @property
    def num_switches(self) -> int:
        return (self.n // 2) * self.num_stages

    def route(self, permutation: Sequence[int]) -> BenesRouting:
        """Route ``permutation`` (input i → output permutation[i]).

        The looping algorithm 2-colors the pairing constraints (always
        possible: the constraint graph is a disjoint union of even
        cycles), so every permutation routes conflict-free.
        """
        perm = list(permutation)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("input is not a permutation")
        return self._route(perm)

    def _route(self, perm: List[int]) -> BenesRouting:
        n = len(perm)
        if n == 2:
            return BenesRouting(2, [perm[0] == 1], [])
        half = n // 2

        # Side assignment: side[p] = 0 (upper) or 1 (lower) per input.
        # Constraint edges force different sides: input-pair partners
        # share a first-column switch; sources of output-pair partners
        # share an exit switch.  Every vertex has degree 2 and edge
        # types alternate around cycles, so the graph is a union of
        # even cycles — 2-colorable by BFS.
        source_of = {out: p for p, out in enumerate(perm)}
        adjacency: Dict[int, List[int]] = {p: [] for p in range(n)}
        for i in range(half):
            a, b = 2 * i, 2 * i + 1
            adjacency[a].append(b)
            adjacency[b].append(a)
        for j in range(half):
            a, b = source_of[2 * j], source_of[2 * j + 1]
            adjacency[a].append(b)
            adjacency[b].append(a)

        side: Dict[int, int] = {}
        for start in range(n):
            if start in side:
                continue
            side[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adjacency[u]:
                    if v not in side:
                        side[v] = 1 - side[u]
                        stack.append(v)

        first_stage = [side[2 * i] == 1 for i in range(half)]

        # Sub-permutations: input switch index i → output switch index.
        upper_perm = [0] * half
        lower_perm = [0] * half
        last_stage = [False] * half
        for p in range(n):
            i = p // 2
            j = perm[p] // 2
            if side[p] == 0:
                upper_perm[i] = j
                if perm[p] % 2 == 1:
                    last_stage[j] = True
            else:
                lower_perm[i] = j
                if perm[p] % 2 == 0:
                    last_stage[j] = True

        # Defensive validation: both sub-perms must be permutations.
        if sorted(upper_perm) != list(range(half)) or sorted(lower_perm) != list(range(half)):
            raise AssertionError("looping algorithm produced invalid sub-permutation")

        return BenesRouting(
            n,
            first_stage,
            last_stage,
            self._route(upper_perm),
            self._route(lower_perm),
        )
