"""The seeded kernel corpus every suite of ``tests/`` draws from.

An entry is a name and a builder: :func:`build` calls the builder, so
each call returns a fresh ``(kernel, options)``.  Fresh, because a
kernel keeps memos (``_key_memo``, a plan, a circuit's parameter
buffer) that a test warms or writes through; one kernel shared between
tests would carry the first test's state into the next.

The pin tables of ``tests/`` (recorded reports, programs and traces,
DAG keys and sizes, prune reports, search pins, verifier findings) key
into :data:`FAMILIES` by name, so changing a builder here means
re-recording every pin of that name.  ``tests/test_corpus.py`` holds the
corpus to that contract.  The Hypothesis strategy of random DAGs the DAG
suites share (:func:`built_graphs`) lives here too.
"""

import copy
import dataclasses
import hashlib
import itertools
import random

import numpy as np
from hypothesis import strategies as st

from repro.api.adapters import RunOptions, adapter_for
from repro.api.types import CompiledArtifact
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.compiler.program import InstructionKind, VLIWInstruction
from repro.core.dag import Dag, OpType, circuit_to_dag, hmm_to_dag
from repro.core.dag.graph import LEAF_OPS
from repro.hmm.model import HMM
from repro.logic.cnf import CNF, Clause
from repro.logic.generators import (
    graph_coloring_cnf,
    pigeonhole,
    planted_sat,
    random_graph,
    random_ksat,
    redundant_sat,
)
from repro.logic.implication_graph import prune_hidden_literals
from repro.pc.circuit import Circuit, ProductNode, SumNode, bernoulli_leaf
from repro.pc.learn import random_circuit, sample_dataset

# ------------------------------------------------------------ formulas


def graph_pigeonhole(holes: int, degree: int, rng: random.Random) -> CNF:
    """``holes + 1`` pigeons, each allowed ``degree`` random holes: the
    refutation family ``cold-logic`` spends most of its time in (built
    as ``bench/kernels.py`` builds it, from a string-seeded generator)."""
    pigeons = holes + 1
    allowed = [sorted(rng.sample(range(holes), degree)) for _ in range(pigeons)]
    pairs = [(p, h) for p in range(pigeons) for h in allowed[p]]
    names = list(range(1, len(pairs) + 1))
    rng.shuffle(names)
    var = dict(zip(pairs, names))
    clauses = [[var[(p, h)] for h in allowed[p]] for p in range(pigeons)]
    for hole in range(holes):
        sharing = [p for p in range(pigeons) if hole in allowed[p]]
        for a, b in itertools.combinations(sharing, 2):
            clauses.append([-var[(a, hole)], -var[(b, hole)]])
    rng.shuffle(clauses)
    return CNF([Clause(literals) for literals in clauses], len(pairs))


def wide_cnf(num_vars: int, num_clauses: int, rng: random.Random) -> CNF:
    """Random clauses of 4 to 8 distinct variables: the replacement-watch
    scan of BCP goes well past slot 2, which the 2- and 3-literal
    clauses of the other entries seldom make it do."""
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), rng.randint(4, 8))
        clauses.append(Clause([v if rng.random() < 0.5 else -v for v in variables]))
    return CNF(clauses, num_vars)


def chain_implications(num_vars: int) -> CNF:
    """A long binary implication chain x1 → x2 → ... → xn: every later
    literal is hidden with respect to x1."""
    formula = CNF(num_vars=num_vars)
    for v in range(1, num_vars):
        formula.add_clause([-v, v + 1])
    return formula


def brute_force_sat(formula: CNF) -> bool:
    variables = sorted(frozenset().union(*(clause.variables() for clause in formula.clauses)))
    for mask in range(1 << len(variables)):
        assignment = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
        if formula.is_satisfied_by(assignment):
            return True
    return False


# ------------------------------------------------------------ circuits

#: What an evidence dict may hold for a variable besides leaving it out:
#: ``None``, values inside a binary or three-state table, values past
#: the end of either, and negatives.
EVIDENCE_VALUES = (None, 0, 1, 2, 3, 7, -1, -4)


def shared_circuit_and_data(seed: int, m: int):
    """A DAG-shaped circuit and ``m`` evidence dicts over
    :data:`EVIDENCE_VALUES`.  ``random_circuit`` never reuses a node, so
    these are built by hand: either a diamond (levels of
    ``SumNode([a, a])`` over a product), or one sub-circuit reused under
    sums at several depths."""
    rng = random.Random(seed)
    num_vars = rng.randint(2, 5)
    if rng.random() < 0.3:
        node = ProductNode([bernoulli_leaf(v, rng.uniform(0.1, 0.9)) for v in range(num_vars)])
        for _ in range(rng.randint(1, 6)):
            node = SumNode([node, node], [0.5, 0.5])
    else:
        shared = random_circuit(num_vars, depth=1, sum_children=2, seed=seed).root
        node = shared
        for level in range(rng.randint(1, 4)):
            other = random_circuit(
                num_vars, depth=rng.randint(1, 2), sum_children=3, seed=seed + level + 1
            )
            children = [node, shared, other.root]
            rng.shuffle(children)
            node = SumNode(children, [rng.uniform(0.1, 1.0) for _ in children])
        node = SumNode([node, shared], [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)])
    circuit = Circuit(node)
    circuit.validate()
    for leaf in circuit.plan().leaves:
        if leaf.variable % 2:
            leaf.probabilities = np.array([rng.random() for _ in range(3)])
    data = [
        {v: rng.choice(EVIDENCE_VALUES) for v in range(num_vars) if rng.random() < 0.75}
        for _ in range(m)
    ]
    return circuit, data


def _calibrated(circuit: Circuit, samples: int, seed: int):
    return circuit, {"calibration": sample_dataset(circuit, samples, seed=seed)}


def _hmm_calibrated(hmm: HMM):
    sequence = [observation % 8 for observation in hmm.sample(20, random.Random(4))[1]]
    return hmm, {"calibration": [sequence]}


def _circuit_dag(num_vars: int, depth: int, sum_children: int, seed: int) -> Dag:
    circuit = random_circuit(num_vars, depth=depth, sum_children=sum_children, seed=seed)
    return circuit_to_dag(circuit)[0]


def _hand_dag() -> Dag:
    """An INPUT, a LITERAL, a NOT and a weighted SUM under an OR that
    shares the NOT with the SUM, plus an unreachable PRODUCT."""
    dag = Dag()
    x = dag.add_op(OpType.INPUT, payload="x")
    literal = dag.add_op(OpType.LITERAL, payload=-3)
    negated = dag.add_op(OpType.NOT, [x])
    mixed = dag.add_op(OpType.SUM, [negated, literal], weights=[0.25, 0.75])
    dag.add_op(OpType.PRODUCT, [literal, x])
    dag.set_root(dag.add_op(OpType.OR, [mixed, negated]))
    return dag


#: The associative ops: the ones regularization splits into binary trees.
WIDE_OPS = (OpType.SUM, OpType.PRODUCT, OpType.AND, OpType.OR)


@st.composite
def built_graphs(draw, min_fan_in: int = 0):
    """``(op, children, payload or weights)`` per node of a random DAG
    (Hypothesis): leaves of each kind, then ops of fan-in
    ``min_fan_in``-6 over any earlier nodes (so children are shared and
    repeated).  A SUM's weights mix 1.0 with other values, ints among
    them, or are left to the default."""
    specs = [
        (OpType.LITERAL, [], 1),
        (OpType.LEAF, [], (0, (0.5, 0.5))),
        (OpType.INPUT, [], "x"),
        (OpType.LEAF, [], None),
    ]
    weight = st.sampled_from([1.0, 1, 0.5, 0.25, 2.0])
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        op = draw(st.sampled_from([*WIDE_OPS, OpType.NOT]))
        fan_in = 1 if op is OpType.NOT else draw(st.integers(min_value=min_fan_in, max_value=6))
        children = [draw(st.integers(min_value=0, max_value=len(specs) - 1)) for _ in range(fan_in)]
        weights = None
        if op is OpType.SUM and draw(st.booleans()):
            weights = [draw(weight) for _ in children]
        specs.append((op, children, weights))
    return specs


def build_from_specs(specs) -> Dag:
    """The DAG :func:`built_graphs` drew, rooted at its last node."""
    dag = Dag()
    for op, children, extra in specs:
        if op in LEAF_OPS:
            dag.add_op(op, payload=extra)
        else:
            dag.add_op(op, children, weights=extra)
    dag.set_root(len(specs) - 1)
    return dag


# ------------------------------------------------------------- search


def _search(formula: CNF, solver=None):
    """A search entry: the formula and its ``CDCLSolver`` kwargs."""
    return formula, {"solver": solver or {}}


def _graph_php(index: int) -> CNF:
    """The ``index``-th of three pigeonhole draws from one generator."""
    rng = random.Random("search-identity")
    shapes = [(7, 5), (7, 5), (6, 5)]
    for holes, degree in shapes[:index]:
        graph_pigeonhole(holes, degree, rng)
    return graph_pigeonhole(*shapes[index], rng)


#: family -> name -> builder of a fresh ``(kernel, options)``.  For the
#: ``tiny``, ``full`` and ``small`` families the options are
#: ``ReasonSession.run`` keywords; a ``search`` entry's are its solver
#: kwargs; a ``verifier`` or ``dag`` entry is a raw DAG.  The
#: ``compiler`` family's options are ``run`` keywords too.
FAMILIES = {
    # The mixed cold trace the report, program and trace pins record.
    "tiny": {
        "cnf/ksat-40": lambda: (random_ksat(40, 160, seed=7), {}),
        "circuit/rand-6": lambda: _calibrated(
            random_circuit(6, depth=2, sum_children=2, seed=3), 8, seed=5
        ),
        "hmm/rand-6": lambda: (
            HMM.random(6, 5, seed=1),
            {"hmm_observations": [0, 1, 2, 3, 4, 0, 1, 2]},
        ),
    },
    "full": {
        "cnf/ksat-120": lambda: (random_ksat(120, 500, seed=7), {}),
        "cnf/php-5": lambda: (pigeonhole(5), {}),
        "circuit/rand-10": lambda: _calibrated(
            random_circuit(10, depth=3, sum_children=3, seed=3), 256, seed=5
        ),
        "circuit/rand-12": lambda: _calibrated(
            random_circuit(12, depth=3, sum_children=3, seed=9), 128, seed=6
        ),
        "hmm/rand-10": lambda: _hmm_calibrated(HMM.random(10, 8, seed=1)),
        "hmm/rand-12": lambda: (
            HMM.random(12, 6, seed=2),
            {"hmm_observations": [i % 6 for i in range(12)]},
        ),
    },
    # The CDCL search pins: deletion and restarts on top of
    # the trace's formulas and the refutation family ``cold-logic`` runs.
    "search": {
        "ksat-120": lambda: _search(build("cnf/ksat-120")[0]),
        "php-5": lambda: _search(build("cnf/php-5")[0]),
        "ksat-40": lambda: _search(build("cnf/ksat-40")[0]),
        "graph-php-7x5/a": lambda: _search(_graph_php(0)),
        "graph-php-7x5/b": lambda: _search(_graph_php(1)),
        "graph-php-6x5": lambda: _search(_graph_php(2)),
        "ksat-60x250": lambda: _search(random_ksat(60, 250, seed=5)),
        "planted-80": lambda: _search(planted_sat(80, 344, seed=11)[0]),
        "redundant-100": lambda: _search(redundant_sat(100, 420, seed=3)[0]),
        "colouring-20": lambda: _search(graph_coloring_cnf(random_graph(20, 40, seed=9), 20, 3)),
        "php-5/reduce-db": lambda: _search(
            pigeonhole(5), {"clause_db_limit": 10, "restart_base": 10_000}
        ),
        "php-5/restarts": lambda: _search(pigeonhole(5), {"restart_base": 5}),
        "wide": lambda: _search(wide_cnf(30, 1200, random.Random("search-identity/wide"))),
        "graph-php-7x5/a/reduce-db": lambda: _search(
            _graph_php(0), {"clause_db_limit": 20, "restart_base": 10_000}
        ),
        "graph-php-7x5/b/restarts": lambda: _search(_graph_php(1), {"restart_base": 5}),
        # What the serving path solves is the pruned formula.
        "redundant-100/pruned": lambda: _search(
            prune_hidden_literals(build("redundant-100")[0])[0]
        ),
    },
    # Every kernel family the compiler emits, for the verifier.
    "verifier": {
        "overflow": lambda: (_circuit_dag(8, 3, 3, seed=13), {}),
        "hmm": lambda: (hmm_to_dag(HMM.random(6, 4, seed=1), [0, 1, 2, 3]), {}),
        **{
            f"circuit-s{seed}": (lambda seed=seed: (_circuit_dag(6, 2, 2, seed=seed), {}))
            for seed in range(8)
        },
    },
    # One small kernel of each kind, for tests whose kernel is incidental.
    "small": {
        "small/cnf": lambda: (random_ksat(12, 40, seed=0), {}),
        "small/circuit": lambda: _calibrated(random_circuit(5, depth=2, seed=1), 15, seed=2),
        "small/hmm": lambda: (HMM.random(3, 4, seed=3), {"hmm_observations": [0, 1, 2, 3]}),
        "small/dag": lambda: (circuit_to_dag(random_circuit(4, depth=2, seed=4))[0], {}),
    },
    # Every op a raw DAG request can carry.
    "dag": {"hand": lambda: (_hand_dag(), {})},
    # A larger calibrated HMM, for walks that count compiled blocks.
    "compiler": {"hmm/rand-16": lambda: _hmm_calibrated(HMM.random(16, 8, seed=3))},
}

ENTRIES = {name: builder for family in FAMILIES.values() for name, builder in family.items()}

#: The kinds of the ``small`` family, in its order.
KINDS = ("cnf", "circuit", "hmm", "dag")


def build(name: str):
    """A fresh ``(kernel, options)`` for the entry ``name``."""
    return ENTRIES[name]()


def trace(family: str):
    """Fresh ``(name, kernel, options)`` for every entry of ``family``."""
    return [(name, *build(name)) for name in FAMILIES[family]]


def probabilistic():
    """The names of the trace's circuits and HMMs, tiny first."""
    names = [*FAMILIES["tiny"], *FAMILIES["full"]]
    return [name for name in names if not name.startswith("cnf/")]


def small(kind: str):
    """A fresh ``(kernel, options)`` of the ``small`` family."""
    return build(f"small/{kind}")


def small_kernels():
    """One fresh kernel of each kind, without their options."""
    return [small(kind)[0] for kind in KINDS]


# ------------------------------------------------------------ configs

#: name -> ``ArchConfig`` overrides: the register pressures the verifier
#: entries compile under, and the configs the compiler and the traced
#: stream branch on.
CONFIGS = {
    "default": {},
    "mid-regfile": {"num_banks": 4, "regs_per_bank": 6, "num_pes": 2},
    # Far fewer registers than the overflow kernel's live values, so
    # allocation spills on most issues.
    "tiny-regfile": {"num_banks": 2, "regs_per_bank": 3, "num_pes": 2},
    "tree-depth-2": {"tree_depth": 2},
    "tree-depth-4": {"tree_depth": 4},
    "4-banks-x-4-regs": {"num_banks": 4, "regs_per_bank": 4},
    "unpipelined": {"pipelined_scheduling": False},
    "fixed-function": {"reconfigurable": False},
}


def config(name: str):
    return dataclasses.replace(DEFAULT_CONFIG, **CONFIGS[name])


TINY_REGFILE = config("tiny-regfile")

#: The verifier's 28 (entry, register pressure) pairs.
VERIFIER_CASES = [
    ("overflow", "tiny-regfile"),
    ("overflow", "default"),
    ("hmm", "default"),
    ("hmm", "tiny-regfile"),
] + [
    (f"circuit-s{seed}", pressure)
    for seed in range(8)
    for pressure in ("default", "mid-regfile", "tiny-regfile")
]


# ---------------------------------------------------- verifier negatives


def compute(output, reads, cycle, operands=None):
    return VLIWInstruction(
        InstructionKind.COMPUTE,
        reads=list(reads),
        write=reads[0] if reads else (0, 0),
        issue_cycle=cycle,
        leaf_operands=dict(enumerate(operands or [])),
        output_value=output,
    )


def _move(kind, value, write=None, reads=()):
    return VLIWInstruction(kind, value=value, write=write, reads=list(reads))


_LOAD, _STORE = InstructionKind.LOAD, InstructionKind.STORE
_SPILL, _RELOAD = InstructionKind.SPILL, InstructionKind.RELOAD
_LOAD_1 = _move(_LOAD, 1, (0, 0))
_COMPUTE_5 = compute(5, [(0, 0)], 0, operands=[1])
#: One smallest stream per error that no compiled program and no
#: catalogued mutant raises: (instructions, invariant, message), checked
#: with ``root_value=5`` on two registers per bank.
NEGATIVES = {
    "write-without-slot": ([_move(_LOAD, 1)], "bank-capacity", "LOAD has no register slot"),
    "fractional-addresses-overfill-a-bank": (
        [_move(_LOAD, value, (0, addr)) for value, addr in enumerate((0, 1, 0.5))],
        "bank-capacity",
        "bank 0 holds 3 live values (capacity 2)",
    ),
    "reload-of-resident": (
        [_LOAD_1, _move(_RELOAD, 1, (0, 1))],
        "spill-reload-pairing",
        "RELOAD of value 1 which is already resident at (0, 0)",
    ),
    "spill-reads-wrong-register": (
        [_LOAD_1, _move(_SPILL, 1, reads=[(0, 1)])],
        "spill-reload-pairing",
        "SPILL of value 1 reads (0, 1) but the value lives at (0, 0)",
    ),
    "store-of-undefined": ([_move(_STORE, 7)], "def-before-use", "STORE of undefined value 7"),
    "operand-read-at-stale-address": (
        [_LOAD_1, compute(5, [(0, 1)], 0, operands=[1])],
        "def-before-use",
        "operand 1 is resident at (0, 0) but the instruction reads [(0, 1)]",
    ),
    "root-never-written": (
        [_LOAD_1, dataclasses.replace(_COMPUTE_5, write=None)],
        "def-before-use",
        "root value 5 is never defined",
    ),
    "nop-in-a-busy-cycle": (
        [_LOAD_1, _COMPUTE_5, VLIWInstruction(InstructionKind.NOP, issue_cycle=0)],
        "cycle-monotonic",
        "NOP at cycle 0 which already issued work",
    ),
    "unaccounted-cycle": (
        [_LOAD_1, _COMPUTE_5, _move(_LOAD, 2, (1, 0)), compute(6, [(1, 0)], 2, operands=[2])],
        "cycle-monotonic",
        "cycles [1] are neither issue nor NOP cycles",
    ),
}


# ------------------------------------------------------------ helpers


def key(kernel, config=DEFAULT_CONFIG, **options):
    """The cache key of ``kernel`` under a fresh ``RunOptions``."""
    return adapter_for(kernel).fingerprint(kernel, RunOptions(**options), config)


def fresh_key(kernel, config=DEFAULT_CONFIG, **options):
    """The key of a never-keyed ``copy.deepcopy``: no memo, no layout."""
    twin = copy.deepcopy(kernel)
    assert twin._key_memo is None and getattr(twin, "_plan", None) is None
    return key(twin, config, **options)


def stub_artifact(key: str) -> CompiledArtifact:
    return CompiledArtifact(kind="cnf", key=key, kernel=None)


def serve(cache, key: str):
    """One request through the cache's only entry point; a miss (at
    every level) compiles ``stub_artifact(key)`` and publishes it.
    Returns ``(artifact, cache_hit)``."""
    return cache.get_or_compile(key, lambda: stub_artifact(key))


def program_digest(program) -> str:
    """Every instruction's kind, operand reads, write-back, issue cycle,
    PE, tree configuration, leaf operands and moved value."""
    rows = [
        (
            i.kind.value,
            tuple(i.reads),
            i.write,
            i.issue_cycle,
            i.pe,
            tuple(
                (c.position, c.op.value if c.op else None, c.child_weights)
                for c in i.tree_config
            ),
            tuple(sorted(i.leaf_operands.items())),
            i.value,
        )
        for i in program.instructions
    ]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
