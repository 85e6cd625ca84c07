"""The unified DAG intermediate representation (paper Sec. IV-A, Fig. 5).

One typed DAG covers all three kernel families:

* logic (SAT/FOL): LITERAL leaves, OR clause nodes, AND formula nodes;
* probabilistic circuits: LEAF distributions, SUM and PRODUCT nodes
  (SUM edges carry weights);
* HMMs: the unrolled factor graph uses the same SUM/PRODUCT/LEAF ops.

Nodes are atomic reasoning operations, directed edges are data
dependencies, and inference is a bottom-up traversal — exactly the
execution model REASON's compiler schedules onto tree PEs.  A DAG is
its per-id columns (op, children, payload, weights), appended to by
:meth:`Dag.add_op`; every pass that walks one reads its
:meth:`Dag.plan`: those columns plus one node order and the counts
derived from them, built once.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


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
# per-node code below reads these from the module instead.
_SUM, _LEAF = OpType.SUM, OpType.LEAF


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


class Reach(NamedTuple):
    """What :meth:`DagColumns.reachable` counts below the root."""

    order: List[int]
    max_fan_in: int
    edges: int
    footprint: int


class DagColumns(NamedTuple):
    """A DAG's per-id columns and root, read as they are: ops, children
    as id tuples, payloads, and weights (a SUM's as a float tuple, ``()``
    for every other op).  :meth:`Dag.columns` gives a built DAG's;
    :func:`~repro.core.dag.builders.circuit_columns` lays out a
    circuit's without a DAG.  :func:`~repro.core.dag.regularize.two_input`
    rewrites either into two-input form."""

    ops: List[OpType]
    children: List[Tuple[int, ...]]
    payloads: List[object]
    weights: List[Tuple[float, ...]]
    root: int

    def reachable(self) -> Reach:
        """The nodes below the root in :class:`DagPlan` order, their
        largest fan-in, their edge count and their memory footprint (one
        word per node, per edge and per SUM weight): the plan's own
        counts, so a one-pass walk of the columns needs no plan."""
        children = self.children
        order = _post_order(children, self.root)
        fan_in = list(map(len, map(children.__getitem__, order)))
        edges = sum(fan_in)
        weights = sum(map(len, map(self.weights.__getitem__, order)))
        return Reach(order, max(fan_in, default=0), edges, len(order) + edges + weights)


class DagPlan:
    """The DAG below one root, flattened once for every pass that reads it.

    ``order`` lists the nodes reachable from the root children-first: a
    depth-first post-order that explores a node's children last-first.
    Block ids, the ids of a regularized DAG and so every compiled
    program are functions of it.

    The columns are indexed by node id and cover every node, reachable
    or not.  ``ops``, ``children`` (id tuples), ``payloads`` and
    ``weights`` (a SUM's weights as a float tuple, ``()`` for every other
    op) are the DAG's columns as of the build; ``leaf`` (the op is in
    :data:`LEAF_OPS`) and ``parents`` (how many nodes list the id as a
    child) are derived.  ``max_fan_in`` and ``footprint`` (what
    :meth:`Dag.memory_footprint` returns) are totals over the reachable
    nodes, ``num_edges`` (what :attr:`Dag.num_edges` returns) over all
    of them.
    """

    __slots__ = (
        "order", "ops", "children", "payloads", "weights", "leaf", "parents",
        "max_fan_in", "num_edges", "footprint",
    )  # fmt: skip

    def __init__(self, dag: "Dag", root: int):
        # Copies of the column lists, so a later ``add_op`` leaves them be.
        self.ops = ops = list(dag._ops)
        self.children = children = list(dag._children)
        self.payloads = list(dag._payloads)
        self.weights = weights = list(dag._weights)
        self.leaf = list(map(LEAF_OPS.__contains__, ops))
        self.parents = parents = [0] * len(ops)
        for kids in children:
            for child in kids:
                parents[child] += 1
        self.num_edges = sum(map(len, children))
        reach = DagColumns(ops, children, self.payloads, weights, root).reachable()
        self.order, self.max_fan_in, self.footprint = reach.order, reach.max_fan_in, reach.footprint


class Dag:
    """A rooted DAG addressed by integer ids, stored as per-id columns.

    Node ids are dense: the n-th node added gets id n.  Passes read the
    graph through :meth:`plan`, built once and dropped by
    :meth:`add_op` / :meth:`set_root`.
    """

    # The flattened graph, dropped on any mutation.  A class default
    # rather than an __init__ assignment, so a Dag unpickled from a
    # store entry starts without one too.
    _plan: Optional[DagPlan] = None
    # The cache key's memo (see ``KernelAdapter.fingerprint``), derived
    # the same way but never dropped: it holds what it was computed from.
    _key_memo = None

    def __init__(self) -> None:
        self._ops: List[OpType] = []
        self._children: List[Tuple[int, ...]] = []
        self._payloads: List[object] = []
        self._weights: List[Tuple[float, ...]] = []
        self.root: Optional[int] = None

    def __getstate__(self) -> Dict[str, object]:
        # The plan and the key memo are derived data: a stored or copied
        # DAG rebuilds them on first use instead of carrying them.
        state = dict(self.__dict__)
        state.pop("_plan", None)
        state.pop("_key_memo", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # A DAG pickled while a DAG was a dict of node objects has no
        # columns: refuse it, so a store reads the entry as a miss.
        if "_ops" not in state:
            raise ValueError("a Dag pickled without node columns: recompile it")
        self.__dict__.update(state)

    def add_op(
        self,
        op: OpType,
        children: Sequence[int] = (),
        payload: object = None,
        weights: Optional[Sequence[float]] = None,
    ) -> int:
        """Append a node and return its id.

        ``children`` must be ids already in the DAG; ``weights`` must
        parallel them and only a SUM takes them (a SUM without weights
        gets ones).  Both are copied, the weights as floats.
        """
        ops = self._ops
        node_id = len(ops)
        children = tuple(children)
        if children and (min(children) < 0 or max(children) >= node_id):
            missing = next(child for child in children if not 0 <= child < node_id)
            raise KeyError(f"child {missing} not in DAG")
        if op is _SUM:
            weights = (1.0,) * len(children) if weights is None else tuple(map(float, weights))
            if len(weights) != len(children):
                raise ValueError("weights must parallel children")
        elif weights is not None:
            raise ValueError(f"a {op.name} node takes no weights: only SUM edges carry them")
        else:
            weights = ()
        self._plan = None
        ops.append(op)
        self._children.append(children)
        self._payloads.append(payload)
        self._weights.append(weights)
        return node_id

    def columns(self) -> DagColumns:
        """The DAG's columns and root as they stand, read without a
        plan: for a pass that walks the DAG once and is done with it."""
        return DagColumns(self._ops, self._children, self._payloads, self._weights, self.root)

    def __contains__(self, node_id: int) -> bool:
        return node_id in range(len(self._ops))

    def __len__(self) -> int:
        return len(self._ops)

    def set_root(self, node_id: int) -> None:
        if node_id not in self:
            raise KeyError(f"node {node_id} not in DAG")
        if node_id != self.root:
            self._plan = None
        self.root = node_id

    # --------------------------------------------------------------- queries

    def plan(self) -> DagPlan:
        """The flattened graph below the root (see :class:`DagPlan`),
        built on first use and dropped when the DAG mutates through
        :meth:`add_op` / :meth:`set_root`.  Raises if no root is set.
        Two threads racing the first build each store an equal plan."""
        plan = self._plan
        if plan is None:
            if self.root is None:
                raise ValueError("DAG has no root")
            plan = self._plan = DagPlan(self, self.root)
        return plan

    @property
    def num_nodes(self) -> int:
        return len(self._ops)

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


def default_leaf_inputs(dag: Dag) -> Dict[int, float]:
    """Default input map for a DAG's reachable leaf nodes — the values
    :func:`evaluate_dag` uses for leaves missing from its inputs.

    Probabilistic LEAF nodes get their marginalized payload mass
    (evaluating the DAG then yields the partition function / joint
    likelihood).  Everything else — a LEAF without a payload, a
    LITERAL, an INPUT — gets 0.0.
    """
    plan = dag.plan()
    ops, payloads, leaf = plan.ops, plan.payloads, plan.leaf
    inputs: Dict[int, float] = {}
    for node_id in plan.order:
        if not leaf[node_id]:
            continue
        op, payload = ops[node_id], payloads[node_id]
        if op is _LEAF and payload is not None:
            inputs[node_id] = float(sum(payload[1]))
        else:
            inputs[node_id] = 0.0
    return inputs


def evaluate_dag(dag: Dag, inputs: Dict[int, float]) -> Dict[int, float]:
    """Reference bottom-up evaluation of a unified DAG.

    ``inputs`` maps node_id → value for LITERAL/LEAF/INPUT nodes;
    missing logic leaves default to 0 (false) and missing probabilistic
    leaves to their marginalized mass when the payload provides one
    (0 when it does not).  Logic ops use Boolean semantics over
    {0.0, 1.0}; SUM/PRODUCT use arithmetic semantics.  Returns values
    for every reachable node.
    """
    plan = dag.plan()
    ops, children_of, payloads, weights_of = plan.ops, plan.children, plan.payloads, plan.weights
    values: Dict[int, float] = {}
    for node_id in plan.order:
        op, children = ops[node_id], children_of[node_id]
        if op in LEAF_OPS:
            if node_id in inputs:
                values[node_id] = float(inputs[node_id])
            elif op is _LEAF and payloads[node_id] is not None:
                values[node_id] = float(sum(payloads[node_id][1]))
            else:
                values[node_id] = 0.0
        elif op is OpType.NOT:
            values[node_id] = 1.0 - values[children[0]]
        elif op is OpType.OR:
            values[node_id] = 1.0 if any(values[c] > 0 for c in children) else 0.0
        elif op is OpType.AND:
            values[node_id] = 1.0 if all(values[c] > 0 for c in children) else 0.0
        elif op is OpType.PRODUCT:
            out = 1.0
            for child in children:
                out *= values[child]
            values[node_id] = out
        elif op is _SUM:
            values[node_id] = sum(w * values[c] for w, c in zip(weights_of[node_id], children))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op}")
    return values
