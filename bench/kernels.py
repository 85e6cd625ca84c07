"""Seeded kernel generators: the only inputs the program under test sees.

Every generator draws from a :class:`random.Random` the caller derived
from ``--seed`` (string-seeded, so independent of ``PYTHONHASHSEED``);
the same seed gives the same kernels, fingerprints included.

Logic families are chosen so every verdict can be checked without
trusting the solver (see :mod:`bench.oracle`): UNSAT instances are
pigeonhole-style and UNSAT by construction, big SAT instances carry a
planted model, and the only kernels of unknown verdict are small enough
for the independent DPLL solver.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
from repro.pc.learn import random_circuit, sample_dataset
from repro.workloads import R2GuardWorkload, all_workloads


@dataclass
class KernelRequest:
    """One request of a workload: a kernel plus its run options.

    ``satisfiable`` is what the generator knows about a CNF by
    construction (None: unknown, the oracle asks DPLL; always None for
    probabilistic kernels).
    """

    name: str
    kernel: object
    options: Dict[str, object] = field(default_factory=dict)
    queries: int = 1
    satisfiable: Optional[bool] = None
    #: Times the request appears in one pass of a workload that repeats
    #: its pool (``service-steady``).
    repeats: int = 1


def _seed32(rng: random.Random) -> int:
    return rng.getrandbits(32)


# ------------------------------------------------------------------ logic


def relabel(formula: CNF, rng: random.Random) -> CNF:
    """A random isomorphic copy: variables renamed, polarities flipped,
    clauses and literals shuffled.  Same structure and verdict, another
    fingerprint and another search path."""
    names = list(range(1, formula.num_vars + 1))
    rng.shuffle(names)
    flipped = [rng.random() < 0.5 for _ in names]
    clauses = []
    for clause in formula.clauses:
        literals = []
        for literal in clause.literals:
            variable = abs(literal)
            positive = (literal > 0) != flipped[variable - 1]
            literals.append(names[variable - 1] if positive else -names[variable - 1])
        rng.shuffle(literals)
        clauses.append(literals)
    rng.shuffle(clauses)
    return CNF([Clause(literals) for literals in clauses], formula.num_vars)


def graph_pigeonhole(holes: int, degree: int, rng: random.Random) -> CNF:
    """Pigeonhole on a random bipartite graph: ``holes + 1`` pigeons,
    each allowed ``degree`` random holes, no hole shared.  More pigeons
    than holes, so UNSAT by construction; the random graph gives every
    seed a different instance of near-constant refutation cost."""
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
    for literals in clauses:
        rng.shuffle(literals)
    rng.shuffle(clauses)
    return CNF([Clause(literals) for literals in clauses], len(pairs))


def graph_php_request(rng: random.Random, holes: int, degree: int) -> KernelRequest:
    return KernelRequest(
        f"graph-php-{holes}x{degree}", graph_pigeonhole(holes, degree, rng), satisfiable=False
    )


def light_logic(rng: random.Random, slot: int, tiny: bool = False) -> KernelRequest:
    """One of six cheaper families, by slot — SAT and UNSAT, random and
    structured, prunable and not."""
    scale = 0.4 if tiny else 1.0
    family = slot % 6
    if family == 0:
        return KernelRequest(
            "pigeonhole", relabel(pigeonhole(3 if tiny else 5), rng), satisfiable=False
        )
    if family == 1:
        n = int(80 * scale)
        formula, _ = planted_sat(n, int(4.3 * n), seed=_seed32(rng))
        return KernelRequest(f"planted-{n}", formula, satisfiable=True)
    if family == 2:
        n = int(100 * scale)
        formula, _ = redundant_sat(n, int(4.2 * n), seed=_seed32(rng))
        return KernelRequest(f"redundant-{n}", formula, satisfiable=True)
    if family == 3:
        nodes = int(20 * scale)
        edges = random_graph(nodes, 2 * nodes, seed=_seed32(rng))
        return KernelRequest(f"colouring-{nodes}", graph_coloring_cnf(edges, nodes, 3))
    if family == 4:
        n = int(36 * scale) + 4
        return KernelRequest(f"ksat-{n}", random_ksat(n, int(4.2 * n), seed=_seed32(rng)))
    holes = 4 if tiny else 6
    return graph_php_request(rng, holes, holes - 1)


# ---------------------------------------------------------- probabilistic


def circuit_request(
    rng: random.Random, num_vars: int, calibration: int, depth: int = 3
) -> KernelRequest:
    """A random smooth, decomposable circuit; ``calibration`` samples
    drawn from it switch flow pruning on (0: compiled as is)."""
    circuit = random_circuit(num_vars, depth=depth, sum_children=3, seed=_seed32(rng))
    options: Dict[str, object] = {}
    if calibration:
        options["calibration"] = sample_dataset(circuit, calibration, seed=_seed32(rng))
    return KernelRequest(f"circuit-{num_vars}v-cal{calibration}", circuit, options)


def hmm_request(
    rng: random.Random, states: int, symbols: int, steps: int, calibrated: bool
) -> KernelRequest:
    """A random HMM unrolled over a sampled observation sequence;
    ``calibrated`` adds three more sequences so posterior pruning runs."""
    hmm = HMM.random(states, symbols, seed=_seed32(rng))

    def sequence() -> List[int]:
        return [int(o) for o in hmm.sample(steps, random.Random(_seed32(rng)))[1]]

    if calibrated:
        options = {"calibration": [sequence() for _ in range(4)]}
    else:
        options = {"hmm_observations": sequence()}
    label = "cal" if calibrated else "plain"
    return KernelRequest(f"hmm-{states}s-{steps}t-{label}", hmm, options)


def prob_request(rng: random.Random, slot: int, tiny: bool = False) -> KernelRequest:
    """Cold probabilistic mix, by slot: pruned circuits, pruned HMMs,
    plain HMM unrolls.  Sizes cycle with the slot, so every pass holds
    the same sizes and the seed only decides the models."""
    family, turn = slot % 4, slot // 4
    if tiny:
        if family < 2:
            return circuit_request(rng, 5, 8, depth=2)
        return hmm_request(rng, 4, 4, 5, calibrated=family == 2)
    if family == 0:
        return circuit_request(rng, 10 + turn % 3, (64, 128)[turn // 3 % 2])
    if family == 1:
        return circuit_request(rng, 10 + turn % 3, 256)
    return hmm_request(
        rng, 8 + turn % 3, 6, 8 + (turn + turn // 3) % 3, calibrated=family == 2
    )


# ------------------------------------------------------------ paper tasks

#: ``(task, instances, repeats)``: how many instances of a task a pool
#: holds and how often ``service-steady`` sends each one in a pass.
#: The two theorem-proving tasks spread their share of a pass over more
#: instances because their CNFs' modeled cost depends on the instance;
#: the others' does not.  The R2-Guard circuit is EM-fitted at
#: generation — half a second apiece even with one EM iteration, which
#: keeps the circuit's structure — so those tasks get one instance.
STEADY_MIX = (
    ("IMO", 16, 1), ("MiniF2F", 16, 1),
    ("CommonGen", 3, 4), ("News", 3, 4), ("CoAuthor", 3, 4), ("AwA2", 3, 4),
    ("FOLIO", 3, 4), ("ProofWriter", 3, 4),
    ("TwinSafety", 1, 4), ("XSTest", 1, 4),
)
#: ``service-churn`` draws by rank, not by repeats: three instances of
#: every cheap task, one of each R2-Guard task.
CHURN_MIX = tuple((task, min(instances, 3), 1) for task, instances, _ in STEADY_MIX)
TINY_MIX = (("IMO", 1, 36), ("MiniF2F", 1, 36), ("CommonGen", 1, 36))
_R2GUARD_TASKS = ("TwinSafety", "XSTest")


def paper_task_requests(seed: int, mix=STEADY_MIX) -> List[KernelRequest]:
    """The paper's task kernels through :mod:`repro.workloads`."""
    workloads = {
        task: workload for workload in all_workloads() for task in workload.tasks
    }
    for task in _R2GUARD_TASKS:
        workloads[task] = R2GuardWorkload(em_iterations=1)
    requests = []
    for number, (task, instances, repeats) in enumerate(mix):
        workload = workloads[task]
        for offset in range(instances):
            # Tasks of one generator must not share instance seeds: IMO
            # and MiniF2F drew near-identical CNFs from equal seeds, and
            # their modeled cycles rose and fell together.
            instance = workload.generate_instance(
                task, seed=1000 * number + instances * seed + offset
            )
            requests.append(
                KernelRequest(
                    f"{task}/{offset}", workload.reason_kernel(instance), repeats=repeats
                )
            )
    return requests


def small_request(rng: random.Random, slot: int) -> KernelRequest:
    """Small generated kernels that run with default options (so a
    whole burst can share one ``submit_batch`` call)."""
    family = slot % 3
    if family == 0:
        return graph_php_request(rng, 4, 3)
    if family == 1:
        return circuit_request(rng, 5 + slot // 3 % 2, 0, depth=2)
    return KernelRequest("hmm-4s", HMM.random(4, 8, seed=_seed32(rng)))
