"""Tests for the first-order-logic layer."""

import pytest

from repro.logic.fol import (
    And,
    Const,
    Exists,
    ForAll,
    ForwardChainer,
    Func,
    HornRule,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    ResolutionProver,
    Var,
    clausify,
    ground_to_cnf,
    substitute,
    unify,
)
from repro.logic.cdcl import SolveResult, solve_cnf
from repro.logic.fol.clausify import clausify_all
from repro.logic.fol.terms import formula_variables, term_variables
from repro.logic.fol.unification import substitute_predicate, unify_predicates

x, y, z = Var("x"), Var("y"), Var("z")
alice, bob = Const("alice"), Const("bob")


class TestUnification:
    def test_var_binds_to_const(self):
        assert unify(x, alice) == {x: alice}

    def test_const_mismatch_fails(self):
        assert unify(alice, bob) is None

    def test_function_decomposition(self):
        subst = unify(Func("f", (x, bob)), Func("f", (alice, y)))
        assert subst == {x: alice, y: bob}

    def test_occurs_check(self):
        assert unify(x, Func("f", (x,))) is None

    def test_chained_substitution(self):
        subst = unify(x, y)
        subst = unify(y, alice, subst)
        assert substitute(x, subst) == alice

    def test_arity_mismatch_fails(self):
        assert unify(Func("f", (x,)), Func("f", (x, y))) is None

    def test_unify_predicates(self):
        subst = unify_predicates(Predicate("P", (x,)), Predicate("P", (alice,)))
        assert subst == {x: alice}
        assert unify_predicates(Predicate("P", (x,)), Predicate("Q", (alice,))) is None

    def test_unifier_makes_nested_terms_equal(self):
        left = Func("f", (x, Func("g", (y,))))
        right = Func("f", (Func("g", (z,)), x))
        subst = unify(left, right)
        assert subst is not None
        assert substitute(left, subst) == substitute(right, subst)
        assert substitute(x, subst) in (Func("g", (y,)), Func("g", (z,)))

    def test_occurs_check_sees_through_bindings(self):
        # With x already bound to y, y = f(x) would make y = f(y).
        assert unify(y, Func("f", (x,)), {x: y}) is None

    def test_constant_never_unifies_with_a_function(self):
        assert unify(alice, Func("alice", ())) is None
        assert unify(Func("f", (x,)), bob) is None

    def test_given_substitution_is_not_mutated(self):
        given_subst = {x: alice}
        assert unify(y, bob, given_subst) == {x: alice, y: bob}
        assert given_subst == {x: alice}

    def test_predicate_arguments_share_bindings(self):
        same = Predicate("P", (x, x))
        assert unify_predicates(same, Predicate("P", (alice, bob))) is None
        subst = unify_predicates(same, Predicate("P", (alice, y)))
        assert substitute(y, subst) == alice
        assert substitute_predicate(same, subst) == Predicate("P", (alice, alice))
        assert unify_predicates(same, Predicate("P", (alice,))) is None


class TestClausify:
    def test_implication_becomes_disjunction(self):
        clauses = clausify(Implies(Predicate("P"), Predicate("Q")))
        assert len(clauses) == 1
        signs = sorted((l.atom.name, l.positive) for l in clauses[0])
        assert signs == [("P", False), ("Q", True)]

    def test_conjunction_splits_clauses(self):
        clauses = clausify(And(Predicate("P"), Predicate("Q")))
        assert len(clauses) == 2

    def test_skolem_constant_for_top_level_exists(self):
        clauses = clausify(Exists(x, Predicate("P", (x,))))
        atom = clauses[0].literals[0].atom
        assert isinstance(atom.args[0], Const)

    def test_skolem_function_under_forall(self):
        # ∀x ∃y R(x, y): y becomes sk(x).
        clauses = clausify(ForAll(x, Exists(y, Predicate("R", (x, y)))))
        atom = clauses[0].literals[0].atom
        assert isinstance(atom.args[1], Func)

    def test_mentor_example_from_paper(self):
        # ∀x (Student(x) → ∃y (Mentor(y) ∧ hasMentor(x, y)))
        formula = ForAll(
            x,
            Implies(
                Predicate("Student", (x,)),
                Exists(y, And(Predicate("Mentor", (y,)), Predicate("hasMentor", (x, y)))),
            ),
        )
        clauses = clausify(formula)
        assert len(clauses) == 2
        names = sorted({l.atom.name for c in clauses for l in c})
        assert names == ["Mentor", "Student", "hasMentor"]

    def test_free_variables_universally_closed(self):
        clauses = clausify(Predicate("P", (x,)))
        assert not clauses[0].is_ground()

    def test_double_negation_collapses(self):
        clauses = clausify(Not(Not(Predicate("P"))))
        assert clauses[0].literals[0].positive

    def test_demorgan(self):
        clauses = clausify(Not(Or(Predicate("P"), Predicate("Q"))))
        assert len(clauses) == 2
        assert all(not c.literals[0].positive for c in clauses)

    def test_biconditional_becomes_two_implications(self):
        clauses = clausify(Iff(Predicate("P"), Predicate("Q")))
        signs = sorted(sorted((l.atom.name, l.positive) for l in c) for c in clauses)
        assert signs == [[("P", False), ("Q", True)], [("P", True), ("Q", False)]]

    def test_negated_conjunction_becomes_one_disjunction(self):
        (clause,) = clausify(Not(And(Predicate("P"), Predicate("Q"))))
        assert sorted((l.atom.name, l.positive) for l in clause) == [("P", False), ("Q", False)]

    def test_negated_forall_skolemizes_a_counterexample(self):
        # ¬∀x P(x) is ∃x ¬P(x): one negative literal on a Skolem constant.
        (clause,) = clausify(Not(ForAll(x, Predicate("P", (x,)))))
        (literal,) = clause.literals
        assert not literal.positive
        assert isinstance(literal.atom.args[0], Const)

    def test_clausify_all_keeps_skolems_distinct(self):
        f1 = Exists(x, Predicate("P", (x,)))
        f2 = Exists(x, Predicate("Q", (x,)))
        clauses = clausify_all([f1, f2])
        consts = {c.literals[0].atom.args[0] for c in clauses}
        assert len(consts) == 2

    def test_ground_to_cnf_roundtrip(self):
        clauses = clausify_all(
            [Predicate("P", (alice,)), Implies(Predicate("P", (alice,)), Predicate("Q", (alice,)))]
        )
        cnf, atom_map = ground_to_cnf(clauses)
        assert len(atom_map) == 2
        result, model = solve_cnf(cnf)
        assert result is SolveResult.SAT

    def test_ground_to_cnf_rejects_variables(self):
        clauses = clausify(Predicate("P", (x,)))
        with pytest.raises(ValueError):
            ground_to_cnf(clauses)


class TestFormulaHelpers:
    def test_formulas_print_in_logic_notation(self):
        formula = ForAll(
            x,
            Implies(
                And(Predicate("P", (x,)), Not(Predicate("Q", (x,)))),
                Exists(
                    y,
                    Or(
                        Predicate("R", (x, Func("f", (y, alice)))),
                        Iff(Predicate("P", (y,)), Predicate("Q", (y,))),
                    ),
                ),
            ),
        )
        assert repr(formula) == (
            "∀x. ((P(?x) ∧ ¬Q(?x)) → ∃y. (R(?x, f(?y, alice)) ∨ (P(?y) ↔ Q(?y))))"
        )

    def test_term_variables_collects_nested_arguments(self):
        term = Func("f", (x, alice, Func("g", (y, x))))
        assert term_variables(term) == frozenset({x, y})
        assert term_variables(alice) == frozenset()

    def test_formula_variables_respects_binding(self):
        formula = ForAll(x, Predicate("R", (x, y)))
        assert formula_variables(formula) == frozenset({y})


class TestResolution:
    def test_modus_ponens(self):
        theory = [Predicate("P", (alice,)), ForAll(x, Implies(Predicate("P", (x,)), Predicate("Q", (x,))))]
        assert ResolutionProver().prove(theory, Predicate("Q", (alice,))) is True

    def test_chained_implication(self):
        theory = [
            Predicate("A", (alice,)),
            ForAll(x, Implies(Predicate("A", (x,)), Predicate("B", (x,)))),
            ForAll(x, Implies(Predicate("B", (x,)), Predicate("C", (x,)))),
        ]
        assert ResolutionProver().prove(theory, Predicate("C", (alice,))) is True

    def test_non_entailment_saturates_false(self):
        theory = [Predicate("P", (alice,))]
        assert ResolutionProver().prove(theory, Predicate("Q", (alice,))) is False

    def test_existential_goal(self):
        theory = [Predicate("P", (alice,))]
        goal = Exists(x, Predicate("P", (x,)))
        assert ResolutionProver().prove(theory, goal) is True

    def test_syllogism(self):
        # All humans are mortal; Socrates is human; therefore mortal.
        socrates = Const("socrates")
        theory = [
            ForAll(x, Implies(Predicate("Human", (x,)), Predicate("Mortal", (x,)))),
            Predicate("Human", (socrates,)),
        ]
        assert ResolutionProver().prove(theory, Predicate("Mortal", (socrates,))) is True

    def test_budget_exhaustion_returns_none(self):
        # Unprovable goal with a generative rule: saturation won't finish.
        theory = [
            Predicate("P", (alice,)),
            ForAll(x, Implies(Predicate("P", (x,)), Predicate("P", (Func("s", (x,)),)))),
        ]
        prover = ResolutionProver(max_clauses=30)
        assert prover.prove(theory, Predicate("Q", (alice,))) is None

    def test_factoring_merges_unifiable_literals(self):
        # {P(x) ∨ P(y)}, {¬P(u) ∨ ¬P(v)} is unsatisfiable.  The prover
        # merges duplicate literals of a resolvent, so the refutation does
        # not strictly need factoring; what this checks is that factoring
        # steps are recorded, each unifying two literals into one.
        u, v = Var("u"), Var("v")
        theory = clausify_all(
            [
                ForAll(x, ForAll(y, Or(Predicate("P", (x,)), Predicate("P", (y,))))),
                ForAll(u, ForAll(v, Or(Not(Predicate("P", (u,))), Not(Predicate("P", (v,)))))),
            ]
        )
        prover = ResolutionProver()
        assert prover.refute(theory) is True
        factors = [step.conclusion for step in prover.proof if step.rule == "factoring"]
        assert factors and all(len(clause.literals) == 1 for clause in factors)

    def test_proof_steps_recorded(self):
        prover = ResolutionProver()
        theory = [Predicate("P"), Implies(Predicate("P"), Predicate("Q"))]
        assert prover.prove(theory, Predicate("Q")) is True
        assert prover.proof  # at least one resolution step


class TestForwardChaining:
    def _kinship(self):
        parent = lambda a, b: Predicate("parent", (a, b))
        anc = lambda a, b: Predicate("ancestor", (a, b))
        rules = [
            HornRule(anc(x, y), (parent(x, y),), name="base"),
            HornRule(anc(x, z), (parent(x, y), anc(y, z)), name="step"),
        ]
        carol = Const("carol")
        facts = [parent(alice, bob), parent(bob, carol)]
        return facts, rules, anc, carol

    def test_rules_print_as_clauses(self):
        _, (base, step), _, _ = self._kinship()
        assert repr(base) == "[base] ancestor(?x, ?y) :- parent(?x, ?y)"
        assert repr(HornRule(step.head, step.body)) == (
            "ancestor(?x, ?z) :- parent(?x, ?y), ancestor(?y, ?z)"
        )

    def test_transitive_closure(self):
        facts, rules, anc, carol = self._kinship()
        chainer = ForwardChainer()
        closure = chainer.run(facts, rules)
        assert anc(alice, carol) in closure

    def test_entails_goal(self):
        facts, rules, anc, carol = self._kinship()
        assert ForwardChainer().entails(facts, rules, anc(alice, carol))
        assert not ForwardChainer().entails(facts, rules, anc(carol, alice))

    def test_explain_produces_derivation(self):
        facts, rules, anc, carol = self._kinship()
        chainer = ForwardChainer()
        chainer.run(facts, rules)
        trace = chainer.explain(anc(alice, carol))
        assert any(rule == "step" for _, rule, _ in trace)

    def test_fixpoint_reached_without_rules(self):
        chainer = ForwardChainer()
        closure = chainer.run([Predicate("P", (alice,))], [])
        assert closure == frozenset({Predicate("P", (alice,))})

    def test_fact_budget_enforced(self):
        grow = HornRule(
            Predicate("P", (Func("s", (x,)),)), (Predicate("P", (x,)),), name="grow"
        )
        chainer = ForwardChainer(max_iterations=10_000, max_facts=50)
        with pytest.raises(RuntimeError):
            chainer.run([Predicate("P", (alice,))], [grow])

    def test_stats_track_work(self):
        facts, rules, _, _ = self._kinship()
        chainer = ForwardChainer()
        chainer.run(facts, rules)
        assert chainer.stats.facts_derived >= 3
        assert chainer.stats.iterations >= 2
