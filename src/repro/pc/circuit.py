"""Probabilistic circuit structure: sum, product and leaf nodes.

A circuit is a rooted DAG.  Leaves carry primitive distributions over a
single discrete variable; product nodes factorize over disjoint variable
scopes; sum nodes mix their children with non-negative normalized
weights (paper Eq. 1).  Structural properties — smoothness (sum children
share a scope) and decomposability (product children have disjoint
scopes) — are what make inference tractable, and :meth:`Circuit.validate`
checks them.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

# Entry kinds of a :class:`CircuitPlan` (also the tags of its structure stream).
_LEAF, _PRODUCT, _SUM = 0, 1, 2

# Taken by every rebind and every layout, so the two never interleave: a
# node is never left viewing a buffer that a layout's flag calls fresh.
_LAYOUT_LOCK = threading.Lock()
# The layout of a plan that has none yet: its flag is raised for good.
_NO_LAYOUT = ([True], b"", None)


def _finite_non_negative(values: np.ndarray) -> bool:
    """Every entry is finite and ≥ 0 (NaN fails both comparisons)."""
    return bool(((values >= 0) & (values < np.inf)).all())


class CircuitNode:
    """Base class for circuit nodes; nodes are identified by object id."""

    _ids = itertools.count()

    def __init__(self) -> None:
        self.node_id: int = next(CircuitNode._ids)

    @property
    def children(self) -> Tuple["CircuitNode", ...]:
        return ()


class _ParameterNode(CircuitNode):
    """A node with one float64 parameter vector — a leaf's table, a
    sum's weights — behind a checked property.

    Once a plan lays out its parameter buffer (:meth:`CircuitPlan.parameters`)
    the vector is a view into that buffer, so an in-place write lands
    where the key reads, and ``_owner`` is the layout's stale flag.  A
    rebind stores the new array as it is and raises the flag; the next
    layout copies it in.  It never copies into the old slot, so an array
    read before the rebind keeps its values.
    """

    #: The name the vector is pickled under (its attribute name before
    #: it became a property), so a node pickles to the same state.
    _field = ""
    #: The stale-flag cell of the layout whose buffer ``_values`` views.
    _owner: Optional[List[bool]] = None

    def _rebind(self, values: np.ndarray) -> None:
        with _LAYOUT_LOCK:
            if self._owner is not None:
                self._owner[0] = True
            self._values, self._owner = values, None

    def __getstate__(self) -> Dict[str, object]:
        # Pickled and copied nodes carry their values, never an owner.
        field = self._field
        return {
            field if name == "_values" else name: value
            for name, value in self.__dict__.items()
            if name != "_owner"
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        field = self._field
        for name, value in state.items():
            setattr(self, "_values" if name == field else name, value)


class LeafNode(_ParameterNode):
    """A primitive distribution over one discrete variable.

    ``probabilities[v]`` is P(X = v); an *indicator* leaf puts all mass
    on a single value and is used when compiling logical constraints.
    """

    _field = "probabilities"

    def __init__(self, variable: int, probabilities: Sequence[float]):
        super().__init__()
        self.variable = variable
        self.probabilities = probabilities

    @property
    def probabilities(self) -> np.ndarray:
        return self._values

    @probabilities.setter
    def probabilities(self, values: Sequence[float]) -> None:
        probs = np.asarray(values, dtype=float)
        if probs.ndim != 1 or len(probs) < 1:
            raise ValueError("leaf needs a 1-D probability vector")
        if not _finite_non_negative(probs):
            raise ValueError("leaf probabilities must be finite and non-negative")
        self._rebind(probs)

    @classmethod
    def _over_checked(cls, variable: int, table: np.ndarray) -> "LeafNode":
        """A leaf over ``table`` as it is, for a caller that has already
        checked it as the setter would (see :func:`copy_leaf_tables`)."""
        leaf = cls.__new__(cls)
        CircuitNode.__init__(leaf)
        leaf.variable, leaf._values = variable, table
        return leaf

    def prob(self, value: Optional[int]) -> float:
        """P(X = value); a None value marginalizes the leaf (sums to total mass)."""
        if value is None:
            return float(self.probabilities.sum())
        if not 0 <= value < len(self.probabilities):
            return 0.0
        return float(self.probabilities[value])

    def __repr__(self) -> str:
        return f"Leaf(X{self.variable}, {np.round(self.probabilities, 3).tolist()})"


class ProductNode(CircuitNode):
    """Factorization over children with disjoint scopes."""

    def __init__(self, children: Sequence[CircuitNode]):
        super().__init__()
        if not children:
            raise ValueError("product node needs at least one child")
        self._children = tuple(children)

    @property
    def children(self) -> Tuple[CircuitNode, ...]:
        return self._children

    def __repr__(self) -> str:
        return f"Product({len(self._children)} children)"


class SumNode(_ParameterNode):
    """Weighted mixture of children sharing a scope."""

    _field = "weights"

    def __init__(self, children: Sequence[CircuitNode], weights: Sequence[float]):
        super().__init__()
        if not children:
            raise ValueError("sum node needs at least one child")
        self._children = tuple(children)
        self.weights = weights

    @property
    def children(self) -> Tuple[CircuitNode, ...]:
        return self._children

    @property
    def weights(self) -> np.ndarray:
        return self._values

    @weights.setter
    def weights(self, values: Sequence[float]) -> None:
        w = np.asarray(values, dtype=float)
        if w.shape != (len(self._children),):
            raise ValueError("one weight per child required")
        if not _finite_non_negative(w):
            raise ValueError("sum weights must be finite and non-negative")
        self._rebind(w)

    def normalize(self) -> None:
        total = self.weights.sum()
        if total > 0:
            self.weights = self.weights / total

    def __repr__(self) -> str:
        return f"Sum({len(self._children)} children, w={np.round(self.weights, 3).tolist()})"


class CircuitPlan:
    """The graph below one root, flattened once for everything that walks it.

    Children are tuples, so all of this is a pure function of the root
    node's identity: node order, dense child indices, sum-edge slots, the
    edge count and the ``structure_digest`` are built by one walk and
    remembered.
    Weights and leaf tables are values anyone may write or rebind, so
    they are not walked here: :meth:`parameters` lays them out once into
    one float64 buffer the nodes then view, and lays them out again only
    after a rebind.

    ``structure_digest`` is the SHA-256 of an int64 stream: the node
    count, then per node in topological order ``(_LEAF, variable)`` or
    ``(_PRODUCT | _SUM, fan-in, child indices...)`` — everything about
    the circuit except its parameter values, in 32 bytes.
    """

    __slots__ = (
        "root", "order", "entries", "root_index", "variables", "leaves",
        "leaf_rows", "sums", "num_edges", "num_sum_edges", "structure_digest",
        "_layout", "levels",
    )  # fmt: skip

    def __init__(self, root: CircuitNode):
        order: List[CircuitNode] = []
        visited: set = set()
        # Iterative post-order DFS (the recursive version overflow-limits
        # deep circuits and pays a Python call per node).
        stack: List[Tuple[CircuitNode, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node.node_id in visited:
                continue
            visited.add(node.node_id)
            stack.append((node, True))
            for child in reversed(node.children):
                if child.node_id not in visited:
                    stack.append((child, False))
        self.root = root
        self.order = order
        index = {node.node_id: i for i, node in enumerate(order)}
        self.root_index = index[root.node_id]
        # entries: (kind, dense index, node, child dense indices, edge slot).
        # A sum's j-th edge is slot ``slot + j``: sums in plan order, each
        # sum's edges in child order, ``num_sum_edges`` slots in all.
        self.entries: List[Tuple[int, int, CircuitNode, Tuple[int, ...], int]] = []
        self.variables: Set[int] = set()
        self.leaves: List[LeafNode] = []
        self.leaf_rows: List[int] = []  # each leaf's dense index
        self.sums: List[SumNode] = []
        self.num_edges = 0
        self.num_sum_edges = 0
        stream = array("q", [len(order)])
        for dense, node in enumerate(order):
            if isinstance(node, LeafNode):
                self.entries.append((_LEAF, dense, node, (), -1))
                self.variables.add(node.variable)
                self.leaves.append(node)
                self.leaf_rows.append(dense)
                stream.extend((_LEAF, node.variable))
                continue
            children = tuple(index[child.node_id] for child in node.children)
            if isinstance(node, ProductNode):
                kind, slot = _PRODUCT, -1
            elif isinstance(node, SumNode):
                kind, slot = _SUM, self.num_sum_edges
                self.sums.append(node)
                self.num_sum_edges += len(children)
            else:
                raise TypeError(f"unsupported circuit node type: {type(node).__name__}")
            self.entries.append((kind, dense, node, children, slot))
            self.num_edges += len(children)
            stream.extend((kind, len(children)))
            stream.extend(children)
        self.structure_digest = hashlib.sha256(stream.tobytes()).digest()
        self._layout = _NO_LAYOUT
        self.levels = None  # the flow passes' level groups, built by pc.flows on first use

    def parameters(self) -> Tuple[List[bool], bytes, np.ndarray]:
        """The parameter layout ``(stale flag, lengths, buffer)``: every
        leaf table in plan order, then every sum's weights, end to end in
        one float64 buffer, and their lengths as int64 bytes.

        Each leaf's ``probabilities`` and each sum's ``weights`` is a view
        into the buffer, so an in-place write is read here for free.  A
        rebind raises the flag (a one-item list), and so does a later
        layout of another plan that takes over a shared node; the next
        call lays the buffer out afresh.  The three travel as one tuple,
        so no reader pairs one layout's buffer with another's flag.
        """
        layout = self._layout
        if layout[0][0]:
            with _LAYOUT_LOCK:
                layout = self._layout
                if layout[0][0]:
                    layout = self._layout = self._lay_out()
        return layout

    def _lay_out(self) -> Tuple[List[bool], bytes, np.ndarray]:
        nodes = [*self.leaves, *self.sums]
        arrays = [node._values for node in nodes]
        lengths = np.fromiter(map(len, arrays), np.int64, len(arrays))
        buffer = np.concatenate(arrays, dtype=np.float64)
        flag = [False]
        start = 0
        for node, end in zip(nodes, np.cumsum(lengths).tolist()):
            if node._owner is not None:
                node._owner[0] = True
            node._values, node._owner = buffer[start:end], flag
            start = end
        return flag, lengths.tobytes(), buffer


@dataclass
class Circuit:
    """A rooted probabilistic circuit.

    ``num_states[v]`` gives the cardinality of variable ``v``; binary
    variables default to 2 states when not specified.
    """

    root: CircuitNode
    num_states: Dict[int, int] = field(default_factory=dict)
    # The one root-keyed memo of the graph walk (see CircuitPlan).
    _plan: Optional[CircuitPlan] = field(
        default=None, init=False, repr=False, compare=False
    )
    # The cache key's memo (see ``KernelAdapter.fingerprint``): a class
    # default rather than a field, so it stays out of ``==`` and ``repr``.
    _key_memo = None

    def __post_init__(self) -> None:
        for variable in self.variables():
            self.num_states.setdefault(variable, 2)

    @classmethod
    def with_states(cls, root: CircuitNode, num_states: Dict[int, int]) -> "Circuit":
        """A circuit over ``root`` holding ``num_states`` as it is, for a
        caller whose map already covers every variable below ``root``:
        unlike the constructor, this walks nothing (and builds no plan)."""
        circuit = cls.__new__(cls)
        circuit.root, circuit.num_states, circuit._plan = root, num_states, None
        return circuit

    def __getstate__(self) -> Dict[str, object]:
        # The plan and the key memo are derived data: a stored or copied
        # circuit rebuilds them on first use instead of carrying them.
        state = dict(self.__dict__)
        state.pop("_plan", None)
        state.pop("_key_memo", None)
        return state

    def variables(self) -> FrozenSet[int]:
        return frozenset(self.plan().variables)

    def plan(self) -> CircuitPlan:
        """The flattened graph below the current root, built on first
        use and rebuilt when ``root`` is reassigned.  Two threads racing
        the first build each store an equal plan; either is served."""
        plan = self._plan
        if plan is None or plan.root is not self.root:
            plan = self._plan = CircuitPlan(self.root)
        return plan

    def topological_order(self) -> List[CircuitNode]:
        """Children-before-parents order (bottom-up evaluation order)."""
        return list(self.plan().order)

    @property
    def num_nodes(self) -> int:
        return len(self.plan().order)

    @property
    def num_edges(self) -> int:
        return self.plan().num_edges

    def _scopes(self) -> List[FrozenSet[int]]:
        """Every node's scope — the variables its distribution ranges
        over — by dense plan index, built bottom-up once."""
        scopes: List[FrozenSet[int]] = []
        for kind, _, node, children, _ in self.plan().entries:
            if kind == _LEAF:
                scopes.append(frozenset((node.variable,)))
            else:
                scopes.append(frozenset().union(*map(scopes.__getitem__, children)))
        return scopes

    def is_smooth(self) -> bool:
        """Every sum node's children share the same scope."""
        scopes = self._scopes()
        return all(
            len({scopes[child] for child in children}) <= 1
            for kind, _, _, children, _ in self.plan().entries
            if kind == _SUM
        )

    def is_decomposable(self) -> bool:
        """Every product node's children have pairwise disjoint scopes:
        their sizes add up to the size of their union."""
        scopes = self._scopes()
        return all(
            sum(len(scopes[child]) for child in children) == len(scopes[dense])
            for kind, dense, _, children, _ in self.plan().entries
            if kind == _PRODUCT
        )

    def validate(self) -> None:
        """Raise ValueError unless the circuit is smooth and decomposable."""
        if not self.is_smooth():
            raise ValueError("circuit is not smooth")
        if not self.is_decomposable():
            raise ValueError("circuit is not decomposable")


def copy_leaf_tables(plan: CircuitPlan) -> Tuple[List[np.ndarray], bool]:
    """Copies of the plan's leaf tables — views into one copy of its
    buffer's leaf prefix — and whether every entry is finite and
    non-negative.  The setters check the rest of :class:`LeafNode`'s
    rule (1-D, non-empty) and the entries too, so only an in-place
    write can make this ``False``."""
    _, lengths, buffer = plan.parameters()
    ends = np.cumsum(np.frombuffer(lengths, np.int64, len(plan.leaves))).tolist()
    flat = buffer[: ends[-1]].copy()
    tables = [flat[start:end] for start, end in zip([0, *ends], ends)]
    return tables, _finite_non_negative(flat)


def bernoulli_leaf(variable: int, p_true: float) -> LeafNode:
    """Binary leaf with P(X=1) = p_true."""
    if not 0.0 <= p_true <= 1.0:
        raise ValueError("p_true must lie in [0, 1]")
    return LeafNode(variable, [1.0 - p_true, p_true])
