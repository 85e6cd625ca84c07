"""Synthetic task generators standing in for the paper's ten datasets.

Each generator produces problem instances with *known ground truth by
construction* in the same structural class as the original benchmark, so
workload accuracy is measured (not assumed) while remaining reproducible
offline.  The substitution is documented per-dataset in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.logic.fol.chase import HornRule
from repro.logic.fol.terms import Const, Predicate, Var


# --------------------------------------------------------------- geometry


@dataclass
class DeductionProblem:
    """A Horn-rule derivation task (AlphaGeometry-style deduction DB)."""

    facts: List[Predicate]
    rules: List[HornRule]
    goal: Predicate
    provable: bool
    candidate_constructions: List[Predicate] = field(default_factory=list)
    key_construction: Optional[Predicate] = None  # unlocks hard instances


_GEOMETRY_PREDICATES = ["cong", "para", "perp", "coll", "eqangle", "midp", "cyclic"]


def geometry_rules() -> List[HornRule]:
    """Transitivity/symmetry rules over geometric relations."""
    x, y, z = Var("x"), Var("y"), Var("z")
    rules: List[HornRule] = []
    for name in ("cong", "para", "eqangle", "coll", "cyclic"):
        rules.append(
            HornRule(Predicate(name, (x, z)), (Predicate(name, (x, y)), Predicate(name, (y, z))), name=f"{name}-trans")
        )
        rules.append(HornRule(Predicate(name, (y, x)), (Predicate(name, (x, y)),), name=f"{name}-sym"))
    # Cross-relation rules: perp ∘ perp → para; midp + coll → cong.
    rules.append(
        HornRule(Predicate("para", (x, z)), (Predicate("perp", (x, y)), Predicate("perp", (y, z))), name="perp-perp")
    )
    rules.append(
        HornRule(Predicate("cong", (x, y)), (Predicate("midp", (x, y)), Predicate("coll", (x, y))), name="midp-cong")
    )
    return rules


def generate_deduction_problem(
    num_points: int = 8,
    chain_length: int = 4,
    hard: bool = False,
    provable: bool = True,
    seed: int = 0,
) -> DeductionProblem:
    """A derivation task over a synthetic geometric configuration.

    Provable instances embed a relation chain whose closure reaches the
    goal; *hard* instances withhold one chain link, which appears among
    ``candidate_constructions`` (the auxiliary-point proposal the LLM
    stage must supply in AlphaGeometry).  Unprovable instances ask for a
    relation disconnected from the fact base.
    """
    rng = random.Random(seed)
    points = [Const(f"p{i}") for i in range(num_points)]
    relation = rng.choice(["cong", "para", "eqangle", "cyclic"])
    chain = rng.sample(points, min(chain_length + 1, num_points))
    facts: List[Predicate] = [
        Predicate(relation, (chain[i], chain[i + 1])) for i in range(len(chain) - 1)
    ]
    # Distractor facts over other relations.
    for _ in range(num_points):
        name = rng.choice(_GEOMETRY_PREDICATES)
        a, b = rng.sample(points, 2)
        facts.append(Predicate(name, (a, b)))

    goal = Predicate(relation, (chain[0], chain[-1]))
    key: Optional[Predicate] = None
    candidates: List[Predicate] = []
    if provable and hard:
        # Withhold a middle link; offer it among decoys.
        withheld_index = rng.randrange(len(chain) - 1)
        key = Predicate(relation, (chain[withheld_index], chain[withheld_index + 1]))
        facts = [f for f in facts if f != key]
        candidates = [key]
        for _ in range(5):
            name = rng.choice(_GEOMETRY_PREDICATES)
            a, b = rng.sample(points, 2)
            decoy = Predicate(name, (a, b))
            if decoy != key:
                candidates.append(decoy)
        rng.shuffle(candidates)
    if not provable:
        isolated = [Const(f"q{i}") for i in range(2)]
        goal = Predicate(relation, (isolated[0], isolated[1]))

    return DeductionProblem(facts, geometry_rules(), goal, provable, candidates, key)


# ----------------------------------------------------------- safety (PC)


@dataclass
class SafetyDataset:
    """Feature vectors + safety labels from a known rule structure."""

    features: List[Tuple[int, ...]]
    labels: List[int]
    num_features: int
    rule_weights: List[float]
    threshold: float


def generate_safety_dataset(
    num_features: int = 8,
    num_examples: int = 300,
    noise: float = 0.08,
    seed: int = 0,
) -> SafetyDataset:
    """Binary unsafety-category features; label = weighted rule vote.

    Mirrors R2-Guard's knowledge: categories (e.g. "violence", "fraud")
    combine through weighted logical rules into an unsafe verdict; label
    noise models annotation disagreement.
    """
    rng = random.Random(seed)
    weights = [rng.uniform(0.2, 1.0) for _ in range(num_features)]
    threshold = 0.45 * sum(weights)
    features: List[Tuple[int, ...]] = []
    labels: List[int] = []
    for _ in range(num_examples):
        x = tuple(int(rng.random() < 0.35) for _ in range(num_features))
        score = sum(w for w, bit in zip(weights, x) if bit)
        label = int(score > threshold)
        if rng.random() < noise:
            label = 1 - label
        features.append(x)
        labels.append(label)
    return SafetyDataset(features, labels, num_features, weights, threshold)


# ------------------------------------------------------- text (HMM tasks)


@dataclass
class TextCorpus:
    """Sequences from a hidden teacher HMM (synthetic language)."""

    sequences: List[List[int]]
    vocab_size: int
    teacher_states: int
    seed: int


def generate_text_corpus(
    vocab_size: int = 12,
    num_states: int = 6,
    num_sequences: int = 60,
    length: int = 16,
    seed: int = 0,
) -> TextCorpus:
    from repro.hmm.model import HMM

    teacher = HMM.random(num_states, vocab_size, seed=seed, concentration=0.5)
    rng = random.Random(seed + 1)
    sequences = [teacher.sample(length, rng)[1] for _ in range(num_sequences)]
    return TextCorpus(sequences, vocab_size, num_states, seed)


# ----------------------------------------------- attributes (NeuroPC/AwA2)


@dataclass
class AttributeDataset:
    """Zero-shot classification by attribute signatures (AwA2-style)."""

    class_signatures: List[Tuple[int, ...]]
    examples: List[Tuple[Tuple[float, ...], int]]  # (noisy attribute scores, class)
    num_attributes: int


def generate_attribute_dataset(
    num_classes: int = 6,
    num_attributes: int = 10,
    num_examples: int = 120,
    noise: float = 0.15,
    seed: int = 0,
) -> AttributeDataset:
    """Classes defined by binary attribute signatures; examples carry
    noisy neural attribute scores (probability the attribute is on)."""
    rng = random.Random(seed)
    signatures: List[Tuple[int, ...]] = []
    while len(signatures) < num_classes:
        signature = tuple(int(rng.random() < 0.5) for _ in range(num_attributes))
        if signature not in signatures:
            signatures.append(signature)
    examples: List[Tuple[Tuple[float, ...], int]] = []
    for _ in range(num_examples):
        cls = rng.randrange(num_classes)
        scores = []
        for bit in signatures[cls]:
            p = 1.0 - noise if bit else noise
            # Neural scores: beta-ish noise around the true probability.
            scores.append(min(1.0, max(0.0, p + rng.gauss(0, 0.1))))
        examples.append((tuple(scores), cls))
    return AttributeDataset(signatures, examples, num_attributes)


# ------------------------------------------------------------ FOL (LINC)


@dataclass
class EntailmentProblem:
    """A FOL entailment task with a constructed label."""

    theory: List[object]  # formulas
    goal: object
    entailed: bool


def generate_entailment_problem(
    depth: int = 3,
    num_distractors: int = 3,
    entailed: bool = True,
    seed: int = 0,
) -> EntailmentProblem:
    """Chained universally-quantified implications over unary predicates.

    Entailed instances close a predicate chain P0(a) → P1 → ... → Pd(a);
    non-entailed instances break one link (replace it with an unrelated
    implication), so resolution cannot reach the goal.

    Up to two shortcut rules (P_i → P_j already entailed by the chain)
    and as many entailed wide disjunctions are added — the natural-language
    restatements present in FOLIO/ProofWriter theories that REASON's
    Stage-2 pruning removes.  Shortcuts never span a broken link, so
    the entailment label is unaffected.
    """
    from repro.logic.fol.terms import ForAll, Implies, Or as FolOr

    rng = random.Random(seed)
    x = Var("x")
    constant = Const("c")
    predicates = [f"P{i}" for i in range(depth + 1)]
    theory: List[object] = [Predicate(predicates[0], (constant,))]
    broken = rng.randrange(depth) if not entailed else -1
    for i in range(depth):
        if i == broken:
            theory.append(
                ForAll(x, Implies(Predicate(f"Q{i}", (x,)), Predicate(predicates[i + 1], (x,))))
            )
        else:
            theory.append(
                ForAll(x, Implies(Predicate(predicates[i], (x,)), Predicate(predicates[i + 1], (x,))))
            )

    def intact(i: int, j: int) -> bool:
        return broken == -1 or j <= broken or i > broken

    added = 0
    attempts = 0
    while added < 2 and attempts < 20:
        attempts += 1
        i = rng.randrange(depth - 1) if depth >= 2 else 0
        j = min(i + rng.randint(2, 3), depth)
        if j <= i + 1 or not intact(i, j):
            continue
        # Shortcut rule: entailed by the chain, hence redundant.
        theory.append(
            ForAll(x, Implies(Predicate(predicates[i], (x,)), Predicate(predicates[j], (x,))))
        )
        # Entailed wide disjunction: ¬P_i ∨ P_{i+1} ∨ P_j — subsumed by
        # the direct link, so its extra literal is prunable.
        theory.append(
            ForAll(
                x,
                FolOr(
                    Implies(Predicate(predicates[i], (x,)), Predicate(predicates[i + 1], (x,))),
                    Predicate(predicates[j], (x,)),
                ),
            )
        )
        added += 1
    for j in range(num_distractors):
        theory.append(
            ForAll(x, Implies(Predicate(f"R{j}", (x,)), Predicate(f"R{j + 1}", (x,))))
        )
    goal = Predicate(predicates[depth], (constant,))
    return EntailmentProblem(theory, goal, entailed)
