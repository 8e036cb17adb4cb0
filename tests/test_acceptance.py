"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test runs one criterion of criteria.py on its committed seed,
prints its `[criterion N] PASS/FAIL` line (run with -s to see them on
success; pytest shows them on failure regardless) and asserts that it
passed.  The whole module is seeded and deterministic.
"""

import criteria


def check(record):
    print(record.line)
    assert record.passed, record.line


def test_criterion_1_oracle_equivalence():
    check(criteria.criterion_1())


def test_criterion_2_coefficient_identities():
    check(criteria.criterion_2())


def test_criterion_3_row_identity_oracle():
    check(criteria.criterion_3())


def test_criterion_4_intermediate_vs_meanfield_bound():
    check(criteria.criterion_4())


def test_criterion_5_dense_regime_convergence():
    check(criteria.criterion_5())


def test_criterion_6_semi_sparse_row_error():
    check(criteria.criterion_6())


def test_criterion_7_propagation_of_chaos():
    check(criteria.criterion_7())


def test_criterion_8_limit_exchange():
    check(criteria.criterion_8())


def test_criterion_9_concentration_bounds():
    check(criteria.criterion_9())


def test_criterion_10_tree_scaling():
    check(criteria.criterion_10())


def test_criterion_11_boundedness_gate():
    check(criteria.criterion_11())
