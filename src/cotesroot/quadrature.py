"""Closed Newton-Cotes rule weights in exact integer arithmetic.

Weights are stored and derived exactly (integers and fractions, never
floats).  ``derive_rule`` derives a row from the definition of the closed
rule: the weight of node i is the integral of its Lagrange basis polynomial
over the nodes 0..n (Davis & Rabinowitz, *Methods of Numerical Integration*,
ch. 2).  ``check_moments`` checks the moment identities that underpin the
high-order convergence of the iterative maps with zero tolerance; the
derivation does not use them, so the two are independent checks of a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def _is_int(v) -> bool:
    """Whether ``v`` is an int and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_index(n) -> bool:
    """Whether ``n`` indexes a closed rule or a map: an int, not a bool, in 0..MAX_RULE."""
    return _is_int(n) and 0 <= n <= MAX_RULE


@dataclass(frozen=True)
class RuleSpec:
    """One closed rule: node count minus one, integer weights, their sum."""

    n: int
    weights: tuple[int, ...]
    c: int

    def __post_init__(self):
        if not _is_index(self.n):
            raise ValueError(f"rule index must be in 0..{MAX_RULE}, got {self.n}")
        if len(self.weights) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} weights, got {len(self.weights)}")
        if not all(map(_is_int, self.weights)):
            raise ValueError(f"weights must be ints, got {self.weights!r}")
        if not _is_int(self.c):
            raise ValueError(f"scale c must be an int, got {self.c!r}")
        if self.c != sum(self.weights):
            raise ValueError("scale c must equal the sum of the weights")
        if any(w <= 0 for w in self.weights):
            raise ValueError("closed-rule weights must be strictly positive for n <= 7")
        if any(self.weights[i] != self.weights[self.n - i] for i in range(self.n + 1)):
            raise ValueError("weights must be symmetric")


def builtin_rule(n: int) -> RuleSpec:
    """Hard-coded weight row for the closed rule with ``n + 1`` nodes."""
    if not _is_index(n):
        raise ValueError(f"no closed rule for n={n}; supported range is 0..{MAX_RULE}")
    weights, c = _BUILTIN[n]
    return RuleSpec(n, weights, c)


def derive_rule(n: int) -> RuleSpec:
    """Derive the weight row from the definition of the closed rule.

    The weight of node i on the unit interval is the integral of its Lagrange
    basis polynomial prod_{j != i} (t - j)/(i - j) over [0, n], divided by n:
    sum_k b_k n^k/(k+1), where b_0..b_n are the basis polynomial's
    coefficients multiplied out in exact rationals (at n = 0 the one weight is
    0**0 = 1).  Scaled by c, the least common denominator of the n+1 weights,
    the row is all integers with the least possible integer sum c.  The
    moment identities play no part here, so ``check_moments`` checks the row
    independently.
    """
    if not _is_index(n):
        raise ValueError(f"no closed rule for n={n}; supported range is 0..{MAX_RULE}")
    weights = []
    for i in range(n + 1):
        basis = [Fraction(1)]  # coefficients of the basis polynomial, constant first
        for j in range(n + 1):
            if j != i:
                # times (t - j)/(i - j): coefficient k becomes (b_(k-1) - j b_k)/(i - j)
                basis = [(lower - j * b) / (i - j) for lower, b in zip([0] + basis, basis + [0])]
        weights.append(sum(b * Fraction(n**k, k + 1) for k, b in enumerate(basis)))
    c = lcm(*(w.denominator for w in weights))
    return RuleSpec(n, tuple(int(w * c) for w in weights), c)


def check_moments(rule: RuleSpec) -> list[bool]:
    """Exact rational check of the moment identities, one flag per order.

    Entry j-1 reports whether sum_i A_i (i/n)^j equals c/(j+1) exactly.  The
    weights are symmetric (``RuleSpec`` rejects others), so the sums with the
    node index running from the far end are these same sums.  A single-node
    rule has no identities.  ``derive_rule`` does not use them, so they check
    its rows independently.
    """
    out = []
    for j in range(1, rule.n + 1):
        total = Fraction(0)
        for i, w in enumerate(rule.weights):
            total += w * Fraction(i, rule.n) ** j
        out.append(total == Fraction(rule.c, j + 1))
    return out
