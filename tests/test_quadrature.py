from fractions import Fraction

import pytest

from cotesroot import builtin_rule, check_moments, derive_rule
from cotesroot.quadrature import MAX_RULE, RuleSpec

TABLE = {
    0: ((1,), 1),
    1: ((1, 1), 2),
    2: ((1, 4, 1), 6),
    3: ((1, 3, 3, 1), 8),
    4: ((7, 32, 12, 32, 7), 90),
    5: ((19, 75, 50, 50, 75, 19), 288),
    6: ((41, 216, 27, 272, 27, 216, 41), 840),
    7: ((751, 3577, 1323, 2989, 2989, 1323, 3577, 751), 17280),
}


@pytest.mark.parametrize("n", range(8))
def test_builtin_matches_reference_table(n):
    rule = builtin_rule(n)
    weights, c = TABLE[n]
    assert rule.weights == weights
    assert rule.c == c


@pytest.mark.parametrize("n", [-1, 8, 9, 100])
def test_out_of_range_rules_rejected(n):
    message = rf"^no closed rule for n={n}; supported range is 0\.\.7$"
    with pytest.raises(ValueError, match=message):
        builtin_rule(n)
    with pytest.raises(ValueError, match=message):
        derive_rule(n)


@pytest.mark.parametrize("n", range(8))
def test_derived_equals_builtin(n):
    assert derive_rule(n) == builtin_rule(n)


def test_derive_examples():
    assert derive_rule(1) == RuleSpec(1, (1, 1), 2)
    assert derive_rule(4) == RuleSpec(4, (7, 32, 12, 32, 7), 90)
    assert derive_rule(0) == RuleSpec(0, (1,), 1)


@pytest.mark.parametrize("n", range(8))
def test_moment_identities_hold_exactly(n):
    rule = builtin_rule(n)
    flags = check_moments(rule)
    assert len(flags) == n
    assert all(flags)
    assert rule.weights == rule.weights[::-1]  # so the mirrored identities hold too


def test_moments_single_node_rule_empty():
    assert check_moments(builtin_rule(0)) == []


def test_trapezoid_first_moment_by_hand():
    # sum_i A_i (i/1)^1 = 0*1 + 1*1 = 1 = c/2
    rule = builtin_rule(1)
    assert sum(w * Fraction(i, 1) for i, w in enumerate(rule.weights)) == Fraction(rule.c, 2)
    assert check_moments(rule) == [True]


def test_three_node_second_moment_by_hand():
    # independent rational evaluation: 1*(0)^2 + 4*(1/2)^2 + 1*(1)^2 = 2 = 6/3
    rule = builtin_rule(2)
    total = sum(w * Fraction(i, 2) ** 2 for i, w in enumerate(rule.weights))
    assert total == 2
    assert total == Fraction(rule.c, 3)


@pytest.mark.parametrize("n", range(8))
def test_weight_symmetry(n):
    rule = builtin_rule(n)
    assert rule.weights == tuple(reversed(rule.weights))


def test_rulespec_validates_invariants():
    with pytest.raises(ValueError):
        RuleSpec(1, (1, 1), 3)  # c must be the weight sum
    with pytest.raises(ValueError):
        RuleSpec(1, (2, 1), 3)  # symmetry
    with pytest.raises(ValueError):
        RuleSpec(2, (1, 4), 5)  # length
    for weights in ((1, 0, 1), (-1, 4, -1)):
        with pytest.raises(ValueError, match="strictly positive"):
            RuleSpec(2, weights, sum(weights))
    with pytest.raises(ValueError, match=r"^rule index must be in 0\.\.7, got 8$"):
        RuleSpec(8, (1,) * 9, 9)


def test_max_rule_constant():
    assert MAX_RULE == 7
