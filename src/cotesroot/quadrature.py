"""Closed Newton-Cotes rule weights in exact integer arithmetic.

Weights are stored and derived exactly (integers and fractions, never
floats): the moment identities that underpin the high-order convergence of
the iterative maps must check out with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

MAX_RULE = 7

# weights A_0..A_n and scale c_n = sum(A) for the closed rules of n+1 nodes;
# n >= 8 is rejected because weights turn negative and the formulas lose
# numerical stability
_BUILTIN = {
    0: ((1,), 1),
    1: ((1, 1), 2),
    2: ((1, 4, 1), 6),
    3: ((1, 3, 3, 1), 8),
    4: ((7, 32, 12, 32, 7), 90),
    5: ((19, 75, 50, 50, 75, 19), 288),
    6: ((41, 216, 27, 272, 27, 216, 41), 840),
    7: ((751, 3577, 1323, 2989, 2989, 1323, 3577, 751), 17280),
}


@dataclass(frozen=True)
class RuleSpec:
    """One closed rule: node count minus one, integer weights, their sum."""

    n: int
    weights: tuple[int, ...]
    c: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_RULE:
            raise ValueError(f"rule index must be in 0..{MAX_RULE}, got {self.n}")
        if len(self.weights) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} weights, got {len(self.weights)}")
        if self.c != sum(self.weights):
            raise ValueError("scale c must equal the sum of the weights")
        if any(w <= 0 for w in self.weights):
            raise ValueError("closed-rule weights must be strictly positive for n <= 7")
        if any(self.weights[i] != self.weights[self.n - i] for i in range(self.n + 1)):
            raise ValueError("weights must be symmetric")


def builtin_rule(n: int) -> RuleSpec:
    """Hard-coded weight row for the closed rule with ``n + 1`` nodes."""
    if not isinstance(n, int) or not 0 <= n <= MAX_RULE:
        raise ValueError(f"no closed rule for n={n}; supported range is 0..{MAX_RULE}")
    weights, c = _BUILTIN[n]
    return RuleSpec(n, weights, c)


def _solve_fraction_free(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Exact solve of an integer system by fraction-free (Bareiss) elimination."""
    size = len(rhs)
    a = [row[:] + [r] for row, r in zip(matrix, rhs)]
    prev = 1
    for col in range(size - 1):
        # no pivot swap: a[col][col], a leading minor, is (col+1)!·Vandermonde(0..col) != 0
        for row in range(col + 1, size):
            for j in range(col + 1, size + 1):
                a[row][j] = (a[row][j] * a[col][col] - a[row][col] * a[col][j]) // prev
            a[row][col] = 0
        prev = a[col][col]
    solution = [Fraction(0)] * size
    for row in range(size - 1, -1, -1):
        acc = Fraction(a[row][size])
        for j in range(row + 1, size):
            acc -= a[row][j] * solution[j]
        solution[row] = acc / a[row][row]
    return solution


def derive_rule(n: int) -> RuleSpec:
    """Derive the weight row by undetermined coefficients.

    Solves the exact moment system on the interval [0, n] (the rule must
    integrate 1, t, ..., t^n exactly), then rescales so all weights are
    integers with the least possible integer sum.
    """
    if not isinstance(n, int) or not 0 <= n <= MAX_RULE:
        raise ValueError(f"no closed rule for n={n}; supported range is 0..{MAX_RULE}")
    if n == 0:
        # single equation A_0 = c_0; least integer scale is 1
        return RuleSpec(0, (1,), 1)

    # row j demands sum_i i^j * A_i = n^(j+1)/(j+1) (0**0 is 1); scale row
    # by (j+1) so the system is purely integer
    matrix = [[(j + 1) * i**j for i in range(n + 1)] for j in range(n + 1)]
    rhs = [n ** (j + 1) for j in range(n + 1)]
    raw = _solve_fraction_free(matrix, rhs)

    normalized = [w / n for w in raw]  # weights for a unit-length interval
    scale = 1
    for w in normalized:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    weights = tuple(int(w * scale) for w in normalized)
    return RuleSpec(n, weights, scale)


def check_moments(rule: RuleSpec) -> list[bool]:
    """Exact rational check of the moment identities, one flag per order.

    Entry j-1 reports whether sum_i A_i (i/n)^j equals c/(j+1) exactly.  The
    weights are symmetric (``RuleSpec`` rejects others), so the sums with the
    node index running from the far end are these same sums.  A single-node
    rule has no identities.
    """
    if rule.n == 0:
        return []
    out = []
    for j in range(1, rule.n + 1):
        total = Fraction(0)
        for i, w in enumerate(rule.weights):
            total += w * Fraction(i, rule.n) ** j
        out.append(total == Fraction(rule.c, j + 1))
    return out
