"""The unified DAG intermediate representation (paper Sec. IV-A, Fig. 5).

One typed DAG covers all three kernel families:

* logic (SAT/FOL): LITERAL leaves, OR clause nodes, AND formula nodes;
* probabilistic circuits: LEAF distributions, SUM and PRODUCT nodes
  (SUM edges carry weights);
* HMMs: the unrolled factor graph uses the same SUM/PRODUCT/LEAF ops.

Nodes are atomic reasoning operations, directed edges are data
dependencies, and inference is a bottom-up traversal — exactly the
execution model REASON's compiler schedules onto tree PEs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class OpType(enum.Enum):
    """Atomic reasoning operations."""

    # Logic ops
    LITERAL = "literal"  # payload: signed DIMACS literal
    OR = "or"
    AND = "and"
    NOT = "not"
    # Probabilistic ops
    LEAF = "leaf"  # payload: (variable, probabilities tuple)
    SUM = "sum"  # edge weights on the node
    PRODUCT = "product"
    # Generic named input (used by HMM unrolling for observations)
    INPUT = "input"


#: Ops whose value comes from outside the DAG rather than from children.
LEAF_OPS = frozenset({OpType.LITERAL, OpType.LEAF, OpType.INPUT})


@dataclass
class DagNode:
    """A node in the unified DAG.

    ``payload`` depends on the op: a literal for LITERAL, a
    (variable, probabilities) tuple for LEAF, a name for INPUT.
    ``weights`` parallels ``children`` on SUM nodes.

    ``children`` must not be mutated after the node is added to a
    :class:`Dag`: the DAG memoizes traversal orders and only
    invalidates them on :meth:`Dag.add` / :meth:`Dag.set_root`.  Build
    a new node (or a new DAG) instead of editing edges in place.
    """

    op: OpType
    children: List[int] = field(default_factory=list)
    payload: object = None
    weights: Optional[List[float]] = None

    def __post_init__(self) -> None:
        if self.op is OpType.SUM and self.weights is None:
            self.weights = [1.0] * len(self.children)
        if self.weights is not None and len(self.weights) != len(self.children):
            raise ValueError("weights must parallel children")

    @property
    def fan_in(self) -> int:
        return len(self.children)


class Dag:
    """A rooted DAG of :class:`DagNode` addressed by integer ids."""

    # Memoized topological order, dropped on any mutation.  A class
    # default rather than an __init__ assignment, so a Dag unpickled
    # from an older store entry starts without one too.
    _topo_order: Optional[List[int]] = None

    def __init__(self) -> None:
        self._nodes: Dict[int, DagNode] = {}
        self._next_id = 0
        self.root: Optional[int] = None

    def add(self, node: DagNode) -> int:
        for child in node.children:
            if child not in self._nodes:
                raise KeyError(f"child {child} not in DAG")
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = node
        self._topo_order = None
        return node_id

    def add_op(
        self,
        op: OpType,
        children: Sequence[int] = (),
        payload: object = None,
        weights: Optional[Sequence[float]] = None,
    ) -> int:
        return self.add(
            DagNode(op, list(children), payload, list(weights) if weights else None)
        )

    def node(self, node_id: int) -> DagNode:
        return self._nodes[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def set_root(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise KeyError(f"node {node_id} not in DAG")
        if node_id != self.root:
            self._topo_order = None
        self.root = node_id

    def items(self) -> Iterator[Tuple[int, DagNode]]:
        return iter(self._nodes.items())

    # --------------------------------------------------------------- queries

    def topological_order(self) -> List[int]:
        """Children-before-parents order of nodes reachable from the root.

        Raises if no root is set.  The order is memoized and dropped
        when the DAG mutates through :meth:`add`/:meth:`set_root`, so
        the many traversal-hungry consumers (compiler passes, pruning,
        footprint queries) pay the walk once.  In-place edits of a
        node's ``children`` list are not tracked (see :class:`DagNode`).
        """
        if self.root is None:
            raise ValueError("DAG has no root")
        if self._topo_order is not None:
            return list(self._topo_order)
        order: List[int] = []
        state: Dict[int, int] = {}  # 0 visiting, 1 done
        stack: List[Tuple[int, bool]] = [(self.root, False)]
        while stack:
            node_id, processed = stack.pop()
            if processed:
                state[node_id] = 1
                order.append(node_id)
                continue
            if node_id in state:
                if state[node_id] == 0:
                    raise ValueError("cycle detected in DAG")
                continue
            state[node_id] = 0
            stack.append((node_id, True))
            for child in self._nodes[node_id].children:
                if state.get(child) != 1:
                    if state.get(child) == 0:
                        raise ValueError("cycle detected in DAG")
                    stack.append((child, False))
        self._topo_order = order
        return list(order)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(n.children) for n in self._nodes.values())

    def depth(self) -> int:
        """Longest path (in edges) from any leaf to the root."""
        depths: Dict[int, int] = {}
        for node_id in self.topological_order():
            node = self._nodes[node_id]
            if not node.children:
                depths[node_id] = 0
            else:
                depths[node_id] = 1 + max(depths[c] for c in node.children)
        return depths[self.root] if self.root is not None else 0

    def max_fan_in(self) -> int:
        nodes = self._nodes
        return max(
            (len(nodes[i].children) for i in self.topological_order()), default=0
        )

    def op_histogram(self) -> Dict[OpType, int]:
        hist: Dict[OpType, int] = {}
        for node_id in self.topological_order():
            op = self._nodes[node_id].op
            hist[op] = hist.get(op, 0) + 1
        return hist

    def memory_footprint(self) -> int:
        """Abstract memory cost in words: one per node plus one per edge
        plus one per sum weight — the unit Table IV's memory-reduction
        percentages are measured in."""
        live = self.topological_order()
        words = 0
        for node_id in live:
            node = self._nodes[node_id]
            words += 1 + len(node.children)
            if node.weights is not None:
                words += len(node.weights)
        return words

    def compact(self) -> "Dag":
        """Copy keeping only nodes reachable from the root, renumbered."""
        if self.root is None:
            raise ValueError("DAG has no root")
        live = self.topological_order()
        mapping: Dict[int, int] = {}
        out = Dag()
        for node_id in live:
            node = self._nodes[node_id]
            mapping[node_id] = out.add_op(
                node.op,
                [mapping[c] for c in node.children],
                node.payload,
                node.weights,
            )
        out.set_root(mapping[self.root])
        return out


def default_leaf_inputs(dag: Dag, literal_values: Optional[Dict[int, bool]] = None) -> Dict[int, float]:
    """Default input map for a DAG's leaf nodes.

    Probabilistic LEAF nodes get their marginalized payload mass
    (evaluating the DAG then yields the partition function / joint
    likelihood); LITERAL nodes get the truth value from
    ``literal_values`` (DIMACS variable → bool) or 0.0.
    """
    inputs: Dict[int, float] = {}
    for node_id in dag.topological_order():
        node = dag.node(node_id)
        if node.op is OpType.LEAF and node.payload is not None:
            _, probabilities = node.payload
            inputs[node_id] = float(sum(probabilities))
        elif node.op is OpType.LITERAL:
            if literal_values is not None:
                lit = node.payload
                value = literal_values.get(abs(lit))
                inputs[node_id] = 1.0 if value is not None and value == (lit > 0) else 0.0
            else:
                inputs[node_id] = 0.0
        elif node.op is OpType.INPUT:
            inputs[node_id] = 0.0
    return inputs


def evaluate_dag(dag: Dag, inputs: Dict[int, float]) -> Dict[int, float]:
    """Reference bottom-up evaluation of a unified DAG.

    ``inputs`` maps node_id → value for LITERAL/LEAF/INPUT nodes;
    missing logic leaves default to 0 (false) and missing probabilistic
    leaves to their marginalized mass when the payload provides one.
    Logic ops use Boolean semantics over {0.0, 1.0}; SUM/PRODUCT use
    arithmetic semantics.  Returns values for every reachable node.
    """
    values: Dict[int, float] = {}
    for node_id in dag.topological_order():
        node = dag.node(node_id)
        if node.op in LEAF_OPS:
            if node_id in inputs:
                values[node_id] = float(inputs[node_id])
            elif node.op is OpType.LEAF and node.payload is not None:
                _, probabilities = node.payload
                values[node_id] = float(sum(probabilities))
            else:
                values[node_id] = 0.0
        elif node.op is OpType.NOT:
            values[node_id] = 1.0 - values[node.children[0]]
        elif node.op is OpType.OR:
            values[node_id] = 1.0 if any(values[c] > 0 for c in node.children) else 0.0
        elif node.op is OpType.AND:
            values[node_id] = 1.0 if all(values[c] > 0 for c in node.children) else 0.0
        elif node.op is OpType.PRODUCT:
            out = 1.0
            for child in node.children:
                out *= values[child]
            values[node_id] = out
        elif node.op is OpType.SUM:
            assert node.weights is not None
            values[node_id] = sum(
                w * values[c] for w, c in zip(node.weights, node.children)
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {node.op}")
    return values
