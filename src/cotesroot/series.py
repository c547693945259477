"""Truncated power series on raw libmp tuples, under the names of libmp's calls.

A series is a list [c_0, c_1, ..., c_d] of raw mpfs, the Taylor coefficients
of a function of ε truncated at degree d; every series in one computation has
the same degree.  A raw mpf is a constant, and stays raw.  ``NAMES`` maps the
name of each libmp call of the compiled tape and the ladder to its stand-in,
which takes that call's arguments, series or raw in any mix, by one rule,
decided there once: a call whose operands are all raw is the libmp call
itself; otherwise each raw operand becomes the constant series [c, 0, ..., 0]
of the same degree, so each counterpart below takes series only.  It makes
the named call on the constant terms for c_0, so c_0 has the bits the raw
computation would have, and gets c_1..c_d from the standard recurrences
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed. 2008, ch. 13; Knuth,
TAOCP vol. 2, section 4.7), each product, sum and quotient rounded to
``prec``.  The lifted zeros change no bit: every coefficient past c_0 is a
libmp result at ``prec`` or the exact 1 or 0 of z + ε, so adding a lifted 0
to one returns it unchanged, and its product with a lifted 0 is 0, which
adds nothing to a sum.

So code written for raw libmp tuples, run against ``NAMES`` on x = z + ε,
gives the Taylor coefficients of what it computes at z.  The comparisons,
the zero test, the magnitude guard, the sign and the decimal text are their
raw calls on the constant terms: code that checks its operands before a call
judges the point z itself.  Nothing here reads or sets mpmath's context.
"""

from __future__ import annotations

from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_cbrt, mpf_cos_sin,
                          mpf_cosh_sinh, mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pos, mpf_pow, mpf_pow_int, mpf_rdiv_int, mpf_sqrt, mpf_sub, mpf_tan,
                          round_nearest)

from .expr import _NAMESPACE

_RND = round_nearest


def _lift(c, size):
    """The constant series of the raw mpf c with ``size`` coefficients."""
    return [c] + [fzero] * (size - 1)


def _dot(pairs, prec):
    """sum p·q over the (p, q) pairs, each product and sum rounded to ``prec``."""
    total = fzero
    for p, q in pairs:
        total = mpf_add(total, mpf_mul(p, q, prec, _RND), prec, _RND)
    return total


def _weighted(a, b, k, prec):
    """sum_{j=1..k} j·a_j·b_{k-j} / k, the coefficient k of g where g' = a'·b."""
    return mpf_div(_dot(((mpf_mul_int(a[j], j, prec, _RND), b[k - j]) for j in range(1, k + 1)),
                        prec), from_int(k), prec, _RND)


def add(a, b, prec, rnd):
    return [mpf_add(p, q, prec, rnd) for p, q in zip(a, b)]


def neg(a, prec, rnd):
    return [mpf_neg(a[0], prec, rnd), *map(mpf_neg, a[1:])]


def sub(a, b, prec, rnd):
    return [mpf_sub(p, q, prec, rnd) for p, q in zip(a, b)]


def pos(a, prec, rnd):
    return [mpf_pos(c, prec, rnd) for c in a]


def abs_(a, prec, rnd):
    tail = map(mpf_neg, a[1:]) if a[0][0] else a[1:]
    return [mpf_abs(a[0], prec, rnd), *tail]


def mul(a, b, prec, rnd):
    return [_dot(zip(a[:k + 1], b[k::-1]), prec) for k in range(len(a))]


def mul_int(a, n, prec, rnd):
    return [mpf_mul_int(c, n, prec, rnd) for c in a]


def _quotient(a, b, c0, prec):
    """a/b for series a and b with b_0 != 0, from its constant term c0:
    c_k = (a_k - sum_{i=1..k} b_i c_{k-i}) / b_0."""
    c = [c0]
    for k in range(1, len(b)):
        c.append(mpf_div(mpf_sub(a[k], _dot(zip(b[1:k + 1], c[k - 1::-1]), prec), prec, _RND),
                         b[0], prec, _RND))
    return c


def div(a, b, prec, rnd):
    return _quotient(a, b, mpf_div(a[0], b[0], prec, rnd), prec)


def rdiv_int(n, b, prec, rnd):
    return _quotient(_lift(from_int(n), len(b)), b, mpf_rdiv_int(n, b[0], prec, rnd), prec)


def _power(a, b0, w, den, prec):
    """a^(w/den) for a series a with a_0 != 0, from its constant term b0; w is
    a raw mpf and den a positive integer.  From a·b' = (w/den)·a'·b (J. C. P.
    Miller's recurrence): den·k·a_0·b_k = sum_{j=1..k} ((w + den) j - den k) a_j b_{k-j},
    whose multipliers are exact."""
    b, top = [b0], mpf_add(w, from_int(den))
    for k in range(1, len(a)):
        total = _dot(((mpf_sub(mpf_mul(top, from_int(j)), from_int(den * k)), mpf_mul(
            a[j], b[k - j], prec, _RND)) for j in range(1, k + 1)), prec)
        b.append(mpf_div(total, mpf_mul(a[0], from_int(den * k)), prec, _RND))
    return b


def pow_int(a, n, prec, rnd):
    b0 = mpf_pow_int(a[0], n, prec, rnd)
    if a[0] != fzero:
        return _power(a, b0, from_int(n), 1, prec)
    # a = ε·u: n >= 0, since a negative power of 0 failed above
    b = _lift(fone, len(a))
    for _ in range(n):
        b = mul(b, a, prec, rnd)
    return [b0, *b[1:]]


def pow_(a, w, prec, rnd):
    """a^w for a constant w, of which only w_0 is read: the compiled tape
    takes a^b for a b that depends on x as exp(b·log a)."""
    return _power(a, mpf_pow(a[0], w[0], prec, rnd), w[0], 1, prec)


def sqrt(a, prec, rnd):
    return _power(a, mpf_sqrt(a[0], prec, rnd), fone, 2, prec)


def cbrt(a, prec, rnd):
    return _power(a, mpf_cbrt(a[0], prec, rnd), fone, 3, prec)


def exp(a, prec, rnd):
    b = [mpf_exp(a[0], prec, rnd)]
    for k in range(1, len(a)):
        b.append(_weighted(a, b, k, prec))
    return b


def log(a, prec, rnd):
    """b' = a'/a: b_k = (a_k - sum_{j=1..k-1} j b_j a_{k-j} / k) / a_0."""
    b = [mpf_log(a[0], prec, rnd)]
    for k in range(1, len(a)):
        inner = mpf_div(_dot(((mpf_mul_int(b[j], j, prec, _RND), a[k - j]) for j in range(1, k)),
                             prec), from_int(k), prec, _RND)
        b.append(mpf_div(mpf_sub(a[k], inner, prec, _RND), a[0], prec, _RND))
    return b


def _pair(a, c0, s0, sign, prec):
    """(c, s) with c' = sign·s·a' and s' = c·a': cos and sin for sign -1,
    cosh and sinh for +1."""
    c, s = [c0], [s0]
    for k in range(1, len(a)):
        ck = _weighted(a, s, k, prec)
        c.append(ck if sign > 0 else mpf_neg(ck))
        s.append(_weighted(a, c, k, prec))
    return c, s


def cos_sin(a, prec, rnd):
    return _pair(a, *mpf_cos_sin(a[0], prec, rnd), -1, prec)


def cosh_sinh(a, prec, rnd):
    return _pair(a, *mpf_cosh_sinh(a[0], prec, rnd), 1, prec)


def tan(a, prec, rnd):
    """t' = (1 + t^2)·a', with w = 1 + t^2 built up beside t."""
    t = [mpf_tan(a[0], prec, rnd)]
    w = [mpf_add(fone, mpf_mul(t[0], t[0], prec, _RND), prec, _RND)]
    for k in range(1, len(a)):
        t.append(_weighted(a, w, k, prec))
        w.append(_dot(zip(t, t[::-1]), prec))
    return t


def _on_series(call, counterpart):
    """``call`` where no operand is a series, else ``counterpart`` with each
    raw operand lifted to the constant series of the series' size."""

    def run(*args):
        for a in args:
            if type(a) is list:
                size = len(a)
                return counterpart(*[_lift(b, size) if type(b) is tuple else b for b in args])
        return call(*args)

    return run


def _on_constant(call):
    """``call`` on the constant terms of its operands."""
    return lambda *args: call(*[a[0] if type(a) is list else a for a in args])


# every libmp name of the compiled tape and the solver's ladder that takes
# operands: the series counterpart of each call that returns mpfs, and the
# calls that judge their operands, on the constant terms
NAMES = {name: _on_series(_NAMESPACE[name], counterpart) for name, counterpart in {
    "mpf_add": add, "mpf_sub": sub, "mpf_neg": neg, "mpf_pos": pos, "mpf_abs": abs_,
    "mpf_mul": mul, "mpf_mul_int": mul_int, "mpf_div": div, "mpf_rdiv_int": rdiv_int,
    "mpf_pow_int": pow_int, "mpf_pow": pow_, "mpf_sqrt": sqrt, "mpf_cbrt": cbrt,
    "mpf_exp": exp, "mpf_log": log, "mpf_tan": tan, "mpf_cos_sin": cos_sin,
    "mpf_cosh_sinh": cosh_sinh}.items()}
NAMES.update((name, _on_constant(_NAMESPACE[name]))
             for name in ("mpf_lt", "mpf_le", "mpf_gt", "_sign", "_zero", "_beyond", "to_str"))
