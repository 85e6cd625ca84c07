"""The unified DAG intermediate representation (paper Sec. IV-A, Fig. 5).

One typed DAG covers all three kernel families:

* logic (SAT/FOL): LITERAL leaves, OR clause nodes, AND formula nodes;
* probabilistic circuits: LEAF distributions, SUM and PRODUCT nodes
  (SUM edges carry weights);
* HMMs: the unrolled factor graph uses the same SUM/PRODUCT/LEAF ops.

Nodes are atomic reasoning operations, directed edges are data
dependencies, and inference is a bottom-up traversal — exactly the
execution model REASON's compiler schedules onto tree PEs.  Every pass
that walks a DAG reads its :meth:`Dag.plan`: the graph flattened once
into one node order and per-id columns.
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

    # Members are singletons that compare by identity, so the identity
    # hash agrees with equality; it runs in C, where Enum's own hash is
    # a Python call (``hash(self._name_)``) on every dict or set probe.
    __hash__ = object.__hash__


#: Ops whose value comes from outside the DAG rather than from children.
LEAF_OPS = frozenset({OpType.LITERAL, OpType.LEAF, OpType.INPUT})

# Reading a member off an Enum class is a metaclass lookup; the
# per-node code below reads this one from the module instead.
_SUM = OpType.SUM


@dataclass
class DagNode:
    """A node in the unified DAG.

    ``payload`` depends on the op: a literal for LITERAL, a
    (variable, probabilities) tuple for LEAF, a name for INPUT.
    ``weights`` parallels ``children`` on SUM nodes.

    A node is frozen once it is added to a :class:`Dag`: its
    ``children`` and ``weights`` are read into the DAG's :meth:`Dag.plan`,
    which only :meth:`Dag.add` / :meth:`Dag.set_root` drop.  Build a new
    node (or a new DAG) instead of editing one in place.
    """

    op: OpType
    children: List[int] = field(default_factory=list)
    payload: object = None
    weights: Optional[List[float]] = None

    def __post_init__(self) -> None:
        weights = self.weights
        if weights is None:
            if self.op is _SUM:
                self.weights = [1.0] * len(self.children)
        elif len(weights) != len(self.children):
            raise ValueError("weights must parallel children")

    @property
    def fan_in(self) -> int:
        return len(self.children)


def _post_order(children: Sequence[Sequence[int]], root: int) -> List[int]:
    """Iterative depth-first post-order from ``root``, exploring a node's
    children last-first; raises on a cycle."""
    state = bytearray(len(children))  # 0 unseen, 1 on the path, 2 placed
    order: List[int] = []
    stack = [root]
    pop, push, extend, place = stack.pop, stack.append, stack.extend, order.append
    while stack:
        node_id = pop()
        if node_id < 0:  # ``~id``: every child of the node is placed
            node_id = ~node_id
            state[node_id] = 2
            place(node_id)
            continue
        seen = state[node_id]
        if seen:
            if seen == 1:
                raise ValueError("cycle detected in DAG")
            continue
        kids = children[node_id]
        if kids:
            state[node_id] = 1
            push(~node_id)
            extend(kids)
        else:
            state[node_id] = 2
            place(node_id)
    return order


class DagPlan:
    """The DAG below one root, flattened once for every pass that reads it.

    ``order`` lists the nodes reachable from the root children-first: a
    depth-first post-order that explores a node's children last-first.
    Block ids, the ids of a regularized DAG and so every compiled
    program are functions of it.

    The columns are indexed by node id and cover every node, reachable
    or not: ``nodes`` (the :class:`DagNode`), ``ops``, ``children``,
    ``leaf`` (the op is in :data:`LEAF_OPS`), ``weights`` (a SUM's
    weights as a float tuple, ``()`` for every other op) and ``parents``
    (how many nodes list the id as a child).  The totals are what
    :meth:`Dag.max_fan_in` and :meth:`Dag.memory_footprint` count over
    the reachable nodes and :attr:`Dag.num_edges` over all of them.
    """

    __slots__ = (
        "order", "nodes", "ops", "children", "leaf", "weights", "parents",
        "max_fan_in", "num_edges", "footprint",
    )  # fmt: skip

    def __init__(self, nodes: List[DagNode], root: int):
        self.nodes = nodes
        self.ops = ops = [node.op for node in nodes]
        self.children = children = [node.children for node in nodes]
        self.leaf = [op in LEAF_OPS for op in ops]
        self.weights = [
            tuple(map(float, node.weights))
            if node.op is _SUM and node.weights is not None
            else ()
            for node in nodes
        ]
        self.parents = parents = [0] * len(nodes)
        for kids in children:
            for child in kids:
                parents[child] += 1
        self.num_edges = sum(map(len, children))
        self.order = order = _post_order(children, root)
        fan_in = list(map(len, map(children.__getitem__, order)))
        self.max_fan_in = max(fan_in, default=0)
        weighted = (nodes[node_id].weights for node_id in order)
        self.footprint = (
            len(order) + sum(fan_in) + sum(len(w) for w in weighted if w is not None)
        )


class Dag:
    """A rooted DAG of :class:`DagNode` addressed by integer ids.

    Node ids are dense: the n-th node added gets id n.  Passes read the
    graph through :meth:`plan`, built once and dropped by :meth:`add` /
    :meth:`set_root`.
    """

    # The flattened graph, dropped on any mutation.  A class default
    # rather than an __init__ assignment, so a Dag unpickled from a
    # store entry starts without one too.
    _plan: Optional[DagPlan] = None
    # The cache key's memo (see ``KernelAdapter.fingerprint``), derived
    # the same way but never dropped: it holds what it was computed from.
    _key_memo = None

    def __init__(self) -> None:
        self._nodes: Dict[int, DagNode] = {}
        self._next_id = 0
        self.root: Optional[int] = None

    def __getstate__(self) -> Dict[str, object]:
        # The plan and the key memo are derived data: a stored or copied
        # DAG rebuilds them on first use instead of carrying them.
        state = dict(self.__dict__)
        state.pop("_plan", None)
        state.pop("_key_memo", None)
        return state

    def add(self, node: DagNode) -> int:
        nodes = self._nodes
        for child in node.children:
            if child not in nodes:
                raise KeyError(f"child {child} not in DAG")
        node_id = self._next_id
        self._next_id = node_id + 1
        nodes[node_id] = node
        self._plan = None
        return node_id

    def add_op(
        self,
        op: OpType,
        children: Sequence[int] = (),
        payload: object = None,
        weights: Optional[Sequence[float]] = None,
    ) -> int:
        return self.add(
            DagNode(
                op, list(children), payload, None if weights is None else list(weights)
            )
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
            self._plan = None
        self.root = node_id

    def items(self) -> Iterator[Tuple[int, DagNode]]:
        return iter(self._nodes.items())

    # --------------------------------------------------------------- queries

    def plan(self) -> DagPlan:
        """The flattened graph below the root (see :class:`DagPlan`),
        built on first use and dropped when the DAG mutates through
        :meth:`add` / :meth:`set_root`.  Raises if no root is set.  Two
        threads racing the first build each store an equal plan."""
        plan = self._plan
        if plan is None:
            if self.root is None:
                raise ValueError("DAG has no root")
            plan = self._plan = DagPlan(list(self._nodes.values()), self.root)
        return plan

    def topological_order(self) -> List[int]:
        """Children-before-parents order of nodes reachable from the
        root: a copy of ``plan().order``.  Raises if no root is set."""
        return list(self.plan().order)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Edges of every node, reachable or not; a plan count, so it
        needs a root like every other query."""
        return self.plan().num_edges

    def depth(self) -> int:
        """Longest path (in edges) from any leaf to the root."""
        plan = self.plan()
        children = plan.children
        depths = [0] * len(children)
        for node_id in plan.order:
            kids = children[node_id]
            if kids:
                depths[node_id] = 1 + max(map(depths.__getitem__, kids))
        return depths[self.root]

    def max_fan_in(self) -> int:
        return self.plan().max_fan_in

    def op_histogram(self) -> Dict[OpType, int]:
        plan = self.plan()
        hist: Dict[OpType, int] = {}
        for op in map(plan.ops.__getitem__, plan.order):
            hist[op] = hist.get(op, 0) + 1
        return hist

    def memory_footprint(self) -> int:
        """Abstract memory cost in words: one per node plus one per edge
        plus one per sum weight — the unit Table IV's memory-reduction
        percentages are measured in."""
        return self.plan().footprint

    def compact(self) -> "Dag":
        """Copy keeping only nodes reachable from the root, renumbered."""
        plan = self.plan()
        mapping: Dict[int, int] = {}
        out = Dag()
        for node_id in plan.order:
            node = plan.nodes[node_id]
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
    plan = dag.plan()
    nodes, leaf = plan.nodes, plan.leaf
    leaf_op, literal_op = OpType.LEAF, OpType.LITERAL
    inputs: Dict[int, float] = {}
    for node_id in plan.order:
        if not leaf[node_id]:
            continue
        node = nodes[node_id]
        op = node.op
        if op is leaf_op:
            if node.payload is not None:
                _, probabilities = node.payload
                inputs[node_id] = float(sum(probabilities))
        elif op is literal_op and literal_values is not None:
            lit = node.payload
            value = literal_values.get(abs(lit))
            inputs[node_id] = 1.0 if value is not None and value == (lit > 0) else 0.0
        else:  # a LITERAL without an assignment, or an INPUT
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
