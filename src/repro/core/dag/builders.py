"""Stage 1: kernel → unified DAG builders (paper Sec. IV-A).

* CNF: literal leaves → OR clause nodes → one AND formula root.
* PC: structural isomorphism (leaves/sums/products map one-to-one).
* HMM: the sequence is unrolled over time steps; each step multiplies
  transition-weighted prior state beliefs by emission factors — the
  forward recurrence as a SUM/PRODUCT DAG.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hmm.model import HMM
from repro.logic.cnf import CNF
from repro.core.dag.graph import Dag, DagColumns, OpType
from repro.pc.circuit import _LEAF, _PRODUCT, _SUM, Circuit, CircuitPlan


def cnf_to_dag(formula: CNF) -> Tuple[Dag, Dict[int, int]]:
    """CNF → three-layer logic DAG.

    Returns the DAG and a map literal → LITERAL node id.  Shared literal
    leaves give the DAG its reconvergent structure.
    """
    dag = Dag()
    literal_nodes: Dict[int, int] = {}

    def literal_node(lit: int) -> int:
        if lit not in literal_nodes:
            literal_nodes[lit] = dag.add_op(OpType.LITERAL, payload=lit)
        return literal_nodes[lit]

    clause_ids: List[int] = []
    for clause in formula.clauses:
        children = [literal_node(l) for l in clause.literals]
        clause_ids.append(dag.add_op(OpType.OR, children))
    root = dag.add_op(OpType.AND, clause_ids)
    dag.set_root(root)
    return dag, literal_nodes


def circuit_to_dag(circuit: Circuit) -> Tuple[Dag, Dict[int, int]]:
    """PC → DAG (structure-preserving).

    Returns the DAG and a map circuit node_id → DAG node id.  A fresh
    DAG numbers nodes as they are added, so adding them in the order of
    the circuit's plan makes each DAG id the node's dense plan index.
    """
    plan = circuit.plan()
    dag = Dag()
    add_op = dag.add_op
    leaf_op, product_op, sum_op = OpType.LEAF, OpType.PRODUCT, OpType.SUM
    # Tables and weights are read as Python floats by ``tolist`` (one C
    # call, where iterating an array boxes a numpy scalar per entry).
    for kind, _, node, children, _ in plan.entries:
        if kind == _LEAF:
            table = np.asarray(node.probabilities, dtype=float).tolist()
            add_op(leaf_op, payload=(node.variable, tuple(table)))
        elif kind == _PRODUCT:
            add_op(product_op, children)
        else:
            add_op(sum_op, children, weights=np.asarray(node.weights, dtype=float).tolist())
    dag.set_root(plan.root_index)
    return dag, {node.node_id: dense for dense, node in enumerate(plan.order)}


#: A plan entry's kind (``_LEAF``, ``_PRODUCT``, ``_SUM``) → its DAG op.
_KIND_OPS = (OpType.LEAF, OpType.PRODUCT, OpType.SUM)


def circuit_columns(plan: CircuitPlan) -> DagColumns:
    """The columns :func:`circuit_to_dag` builds, laid out without a
    :class:`Dag`: one node per plan entry by dense index, a leaf's
    payload ``(variable, table)``, a sum's weights its own.  Tables and
    weights are read as Python floats by one ``tolist`` of the plan's
    parameter buffer (every leaf table in plan order, then every sum's
    weights in edge-slot order)."""
    _, lengths, buffer = plan.parameters()
    flat = buffer.tolist()
    ends = np.cumsum(np.frombuffer(lengths, np.int64, len(plan.leaves))).tolist()
    tables = iter(map(flat.__getitem__, map(slice, [0, *ends], ends)))
    weights_at = ends[-1]  # a circuit has a leaf; its sums' weights follow
    ops, children_of, payloads, weights_of = [], [], [], []
    for kind, _, node, children, slot in plan.entries:
        ops.append(_KIND_OPS[kind])
        children_of.append(children)
        if kind == _LEAF:
            payloads.append((node.variable, tuple(next(tables))))
            weights_of.append(())
        else:
            payloads.append(None)
            start = weights_at + slot
            weights_of.append(tuple(flat[start : start + len(children)]) if kind == _SUM else ())
    return DagColumns(ops, children_of, payloads, weights_of, plan.root_index)


def hmm_to_dag(
    hmm: HMM,
    observations: Sequence[int],
    prune_transition_below: float = 0.0,
) -> Dag:
    """Unroll an HMM over an observation sequence into a SUM/PRODUCT DAG.

    The DAG computes the joint likelihood p(x_1:T): layer t holds one
    node per hidden state s with value
    ``alpha_t(s) = emission[s, x_t] * Σ_s' transition[s', s] · alpha_{t-1}(s')``
    and the root sums the last layer.  Emission factors are LEAF nodes
    (observations baked into leaf payloads); transitions appear as SUM
    edge weights, so transition edges below ``prune_transition_below``
    can simply be omitted (used by HMM pruning experiments).
    """
    T = len(observations)
    if T == 0:
        raise ValueError("cannot unroll an empty observation sequence")
    hmm.check_observations(observations)
    S = hmm.num_states
    dag = Dag()
    add_op = dag.add_op
    leaf_op, sum_op, product_op = OpType.LEAF, OpType.SUM, OpType.PRODUCT
    # The parameters as Python floats, read once; column s of the
    # transition matrix holds the weights into state s.
    emission = np.asarray(hmm.emission, dtype=float).tolist()
    into = list(zip(*np.asarray(hmm.transition, dtype=float).tolist()))
    initial = np.asarray(hmm.initial, dtype=float).tolist()

    def emission_leaf(t: int, s: int) -> int:
        probability = emission[s][observations[t]]
        return add_op(leaf_op, payload=(t * S + s, (probability,)))

    # Layer 0: alpha_0(s) = initial[s] * emission[s, x_0].
    previous: List[int] = []
    for s in range(S):
        leaf = emission_leaf(0, s)
        previous.append(add_op(sum_op, [leaf], weights=[initial[s]]))

    for t in range(1, T):
        current: List[int] = []
        for s in range(S):
            incoming: List[int] = []
            weights: List[float] = []
            for s_prev, w in enumerate(into[s]):
                if w <= prune_transition_below:
                    continue
                incoming.append(previous[s_prev])
                weights.append(w)
            if not incoming:
                # State unreachable after pruning: contributes zero.
                current.append(add_op(leaf_op, payload=(-1, (0.0,))))
                continue
            mixed = add_op(sum_op, incoming, weights=weights)
            current.append(add_op(product_op, [mixed, emission_leaf(t, s)]))
        previous = current

    root = add_op(sum_op, previous, weights=[1.0] * len(previous))
    dag.set_root(root)
    return dag


# ``Dag.memory_footprint()`` of a builder's output, counted on the kernel
# itself — one word per node, per edge and per SUM weight — so a caller
# that only reports the baseline size builds no DAG to read it.


def cnf_dag_footprint(formula: CNF) -> int:
    """``cnf_to_dag(formula)[0].memory_footprint()`` without the DAG."""
    literals = {lit for clause in formula.clauses for lit in clause.literals}
    clause_words = sum(1 + len(clause.literals) for clause in formula.clauses)
    return len(literals) + clause_words + 1 + len(formula.clauses)


def circuit_dag_footprint(circuit: Circuit) -> int:
    """``circuit_to_dag(circuit)[0].memory_footprint()`` without the DAG:
    a word per node, per edge and per sum edge's weight."""
    plan = circuit.plan()
    return len(plan.order) + plan.num_edges + plan.num_sum_edges


def hmm_dag_footprint(hmm: HMM, num_steps: int) -> int:
    """``hmm_to_dag(hmm, observations).memory_footprint()`` for any
    ``num_steps`` observations, without the DAG.

    Walks the unroll's layers from the root down, because only states
    with a positive transition into a live state of the next layer are
    reachable and counted.
    """
    if num_steps == 0:
        raise ValueError("cannot unroll an empty observation sequence")
    S = hmm.num_states
    positive = hmm.transition > 0.0  # [s_prev, s]: the edges hmm_to_dag keeps
    fan_in = positive.sum(axis=0)
    # alpha[t, s] for t >= 1: a zero LEAF when nothing reaches s, else
    # emission LEAF + PRODUCT (two edges) + SUM (fan_in edges and weights).
    state_words = np.where(fan_in == 0, 1, 5 + 2 * fan_in)
    words = 1 + 2 * S  # the root SUM over the last layer
    live = np.ones(S, dtype=bool)
    for _ in range(num_steps - 1):
        words += int(state_words[live].sum())
        live = positive[:, live].any(axis=1)
    # Layer 0: emission LEAF under a one-child weighted SUM.
    return words + 4 * int(live.sum())
