"""Formulas shared by the logic suites."""

from repro.logic.cnf import CNF


def chain_implications(num_vars: int) -> CNF:
    """A long binary implication chain x1 → x2 → ... → xn: every later
    literal is hidden with respect to x1."""
    formula = CNF(num_vars=num_vars)
    for v in range(1, num_vars):
        formula.add_clause([-v, v + 1])
    return formula
