"""Inter-node interconnect topology models (paper Fig. 8).

Three candidate topologies connect the tree-node array: REASON's binary
tree (O(log N) broadcast), a 2-D mesh (O(√N)), and an all-to-one bus
(O(N) due to fan-out buffering).  The models below reproduce the
broadcast-to-root cycle counts of Fig. 8(b) and the latency/area
breakdown of Fig. 8(a): memory, PE and periphery latency grow linearly
with the leaf count while the inter-node component scales per topology.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


class Topology(enum.Enum):
    TREE = "tree"
    MESH = "mesh"
    ALL_TO_ONE = "all-to-one"


#: Relative per-hop cost used by the latency model.  The bus pays extra
#: per endpoint for fan-out buffer insertion (post-layout hold fixes the
#: paper cites); the mesh pays per-router arbitration.
_HOP_CYCLES = {
    Topology.TREE: 1.0,
    Topology.MESH: 1.2,
    Topology.ALL_TO_ONE: 0.5,  # single wire segment, but O(N) segments
}


def broadcast_cycles(topology: Topology, num_leaves: int) -> float:
    """Cycles for a root-to-leaf broadcast reaching all ``num_leaves``.

    Tree: O(log N); mesh: O(√N); all-to-one bus: O(N).
    """
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    if topology is Topology.TREE:
        hops = math.ceil(math.log2(num_leaves)) if num_leaves > 1 else 1
    elif topology is Topology.MESH:
        side = math.ceil(math.sqrt(num_leaves))
        hops = 2 * side - 1  # Manhattan radius of the farthest corner
    else:
        hops = num_leaves  # serialized bus segments with buffer repeaters
    return hops * _HOP_CYCLES[topology]


@dataclass
class LatencyBreakdown:
    """Normalized latency components of Fig. 8(a)."""

    memory: float
    pe: float
    peripheries: float
    inter_node: float

    @property
    def total(self) -> float:
        return self.memory + self.pe + self.peripheries + self.inter_node


def traversal_latency(topology: Topology, num_leaves: int) -> LatencyBreakdown:
    """Latency breakdown for one reduction pass over ``num_leaves``.

    Components are normalized so the TREE topology at 8 leaves totals
    1.0; memory/PE/periphery terms are topology-independent
    (they scale with the array size), only the inter-node term differs.
    """
    scale = num_leaves / 8
    memory = 0.35 * scale ** 0.5  # wider arrays amortize banked accesses
    pe = 0.30
    peripheries = 0.15 * scale ** 0.25
    inter = broadcast_cycles(topology, num_leaves) / broadcast_cycles(Topology.TREE, 8) * 0.20
    return LatencyBreakdown(memory, pe, peripheries, inter)


def scalability_series(
    topologies: Sequence[Topology],
    leaf_counts: Sequence[int],
) -> Dict[str, List[float]]:
    """Fig. 8(b) data: normalized broadcast cycles per topology/size."""
    base = broadcast_cycles(Topology.TREE, leaf_counts[0])
    out: Dict[str, List[float]] = {}
    for topology in topologies:
        out[topology.value] = [
            broadcast_cycles(topology, n) / base for n in leaf_counts
        ]
    return out
