"""Reference evaluation of an expression tape and of the scalar maps on mpf operators.

The same formulas in the same order as ``expr._eval``, written with mpf's
operators and functions, so every operation rounds at the precision of the
active ``mp.workdps`` context.  ``expr._eval`` runs them on raw
``mpmath.libmp`` tuples at a precision it is passed; it must return the same
bits and raise the same ``domain`` Breakdown messages, which ``test_expr.py``
checks against this copy.  ``reference_map`` is the scalar map t(x) the same
way: the ladder, the "+F" transform and the breakdown and bound checks of
``solver._method_map`` on mpf operators, which ``test_solver.py`` checks the
raw map against.
"""

import mpmath as mp

from cotesroot.errors import Breakdown
from cotesroot.quadrature import builtin_rule
from cotesroot.solver import SEED_NEWTON

_BINARY = ("+", "-", "*", "/", "^")

_ZERO = mp.mpf(0)
_ONE = mp.mpf(1)


def _too_large(name, v):
    """The nonfinite Breakdown where |v| >= 2^prec at the working precision,
    so that one ulp of v is at least 1 and ``name`` of v has no correct bit."""
    if abs(v) >= mp.ldexp(1, mp.mp.prec):
        raise Breakdown(Breakdown.NONFINITE, f"{name} of an argument too large for the precision")


def reference_eval(expr, x, order):
    """Run the tape at ``x`` on mpf operators; call under the working precision.

    Order 0 returns f(x) and applies only the value-level domain rules.
    Order 1 returns (f, f') and order 2 (f, f', f''); both add the
    derivative-level rules: no sqrt, cbrt or abs at 0, no real or variable
    power of a nonpositive base.  Every order computes a value by the same
    formula, so where order 0 and the jets both evaluate, f has the same bits.
    exp, sin, cos, tan and, at orders 1 and 2, tanh raise the nonfinite
    Breakdown at an argument of 2^prec or more in magnitude.
    """
    second = order == 2
    vals = []  # f of each operand
    ders = []  # (f', f'') of each operand at orders 1 and 2; order 1 skips f''
    for op, arg in expr.tape:
        if op == "x":
            vals.append(x)
            if order:
                ders.append((_ONE, _ZERO))
        elif op == "num" or op == "const":
            vals.append(mp.mpf(arg) if op == "num" else getattr(mp, arg) + 0)
            if order:
                ders.append((_ZERO, _ZERO))
        elif op in _BINARY:
            b = vals.pop()
            a = vals[-1]
            if order:
                b1, b2 = ders.pop()
                a1, a2 = ders[-1]
            if op == "+":
                vals[-1] = a + b
                if order:
                    ders[-1] = (a1 + b1, a2 + b2 if second else None)
            elif op == "-":
                vals[-1] = a - b
                if order:
                    ders[-1] = (a1 - b1, a2 - b2 if second else None)
            elif op == "*":
                vals[-1] = a * b
                if order:
                    ders[-1] = (a1 * b + a * b1,
                                a2 * b + 2 * a1 * b1 + a * b2 if second else None)
            elif op == "/":
                if b == 0:
                    raise Breakdown(Breakdown.DOMAIN, "division by zero")
                v = vals[-1] = a / b
                if order:
                    d1 = (a1 - v * b1) / b
                    ders[-1] = (d1, (a2 - 2 * d1 * b1 - v * b2) / b if second else None)
            elif not arg and mp.isint(b):  # power with a constant integer exponent
                c = int(b)
                if a == 0 and c < 0:
                    raise Breakdown(Breakdown.DOMAIN, "zero raised to a negative power")
                if c == 0:
                    vals[-1] = _ONE
                    if order:
                        ders[-1] = (_ZERO, _ZERO)
                elif c != 1:  # a first power leaves its operand as it is
                    pm2 = a ** (c - 2)  # 0^0 == 1 covers the c == 2 corner
                    pm1 = pm2 * a
                    vals[-1] = pm1 * a
                    if order:
                        ders[-1] = (c * pm1 * a1,
                                    c * (c - 1) * pm2 * a1 * a1 + c * pm1 * a2 if second else None)
            elif order and a <= 0:
                raise Breakdown(Breakdown.DOMAIN, "variable power of a nonpositive base" if arg else
                                "real power of a nonpositive base; use cbrt() for odd roots")
            elif a < 0 or (a == 0 and b < 0):  # order 0 only
                raise Breakdown(Breakdown.DOMAIN,
                                "real power of a negative base; use cbrt() for odd roots")
            elif not arg or a == 0:  # a real power, or 0^b, which only order 0 reaches
                vals[-1] = a**b
                if not order:
                    continue
                pm1 = a ** (b - 1)
                ders[-1] = (b * pm1 * a1,
                            b * (b - 1) * a ** (b - 2) * a1 * a1 + b * pm1 * a2 if second else None)
            else:  # variable exponent: a^b = exp(b * log a), through the jets of log and *
                lv = mp.log(a)
                _too_large("exp", b * lv)
                e = vals[-1] = mp.exp(b * lv)
                if not order:
                    continue
                l1 = a1 / a
                p1 = b1 * lv + b * l1
                if second:
                    p2 = b2 * lv + 2 * b1 * l1 + b * (-a1 * a1 / (a * a) + a2 / a)
                ders[-1] = (e * p1, e * p1 * p1 + e * p2 if second else None)
        elif op == "neg":
            vals[-1] = -vals[-1]
            if order:
                d1, d2 = ders[-1]
                ders[-1] = (-d1, -d2 if second else None)
        else:  # function call
            v = vals[-1]
            if op == "log" and v <= 0:
                raise Breakdown(Breakdown.DOMAIN, f"log of nonpositive value {mp.nstr(v, 8)}")
            if op == "sqrt" and v < 0:
                raise Breakdown(Breakdown.DOMAIN, f"sqrt of negative value {mp.nstr(v, 8)}")
            if order and v == 0 and op in ("sqrt", "cbrt", "abs"):
                raise Breakdown(Breakdown.DOMAIN, f"derivative of {op} at 0")
            if op in ("exp", "sin", "cos", "tan") or order and op == "tanh":
                _too_large(op, v)
            if op == "cbrt":
                r = mp.sign(v) * mp.cbrt(abs(v))  # real odd root
            elif op == "abs":
                r = abs(v)
            elif op == "tanh":  # s/c, with sech = 1/c, all from cosh and sinh at 10 more bits
                with mp.extraprec(10):
                    c, s = mp.cosh(v), mp.sinh(v)
                    sech = 1 / c
                r = mp.sign(s) if mp.isinf(c) else s / c
            else:
                r = getattr(mp, op)(v)
            vals[-1] = r
            if not order:
                continue
            u1, u2 = ders[-1]
            if op == "log":
                ders[-1] = (u1 / v, -u1 * u1 / (v * v) + u2 / v if second else None)
                continue
            if op == "abs":
                sgn = mp.sign(v)
                ders[-1] = (sgn * u1, sgn * u2 if second else None)
                continue
            # g(u)' = g'(v) u', g(u)'' = g''(v) u'^2 + g'(v) u''
            if op == "sin":
                gp, gpp = mp.cos(v), -r
            elif op == "cos":
                gp, gpp = -mp.sin(v), -r
            elif op == "exp":
                gp = gpp = r
            elif op == "tan":
                gp = 1 + r * r
                gpp = 2 * r * gp if second else None
            elif op == "tanh":
                gp = (+sech) ** 2  # 1 - r*r underflows to 0 for large |v|
                gpp = -2 * r * gp if second else None
            elif op == "sqrt":
                gp = 1 / (2 * r)
                gpp = -gp / (2 * v) if second else None
            else:  # cbrt
                r2 = r * r
                gp = 1 / (3 * r2)
                gpp = -2 / (9 * r2 * r2 * r) if second else None
            ders[-1] = (gp * u1, gpp * u1 * u1 + gp * u2 if second else None)
    return (vals[0], *ders[0][:order]) if order else vals[0]


def _reference_transform_pair(f, x):
    """(F, F') for F = -f/f' at x; call under the working precision."""
    v, d1, d2 = reference_eval(f, x, 2)
    if d1 == 0:
        if v == 0:
            raise Breakdown(Breakdown.DOMAIN, "transform is 0/0 at a root of both f and f'")
        raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished under the transform")
    return -v / d1, v * d2 / (d1 * d1) - 1


def _reference_ladder(n, x, base, slope_at, solve, simpson_seed, bound):
    """y_n at x from the Newton value y_0, as ``solver._ladder_full`` builds it."""
    k = 0
    try:
        fx, slope0 = base(x)
        y = newton = x - solve(slope0, 1, fx)
        for k in range(1, n + 1):
            rule = builtin_rule(k)
            h = ((newton if (k == 2 and simpson_seed == SEED_NEWTON) else y) - x) / k
            nodes = [x + i * h for i in range(1, k + 1)]
            if abs(nodes[-1]) > bound:
                raise Breakdown(Breakdown.DIVERGED, "a ladder node left the divergence bound")
            slopes = [slope0] + [slope_at(p) for p in nodes]
            y = x - solve(sum(w * s for w, s in zip(rule.weights, slopes)), rule.c, fx)
    except Breakdown as exc:
        exc.level = k
        raise
    return y


def reference_map(m, f, precision, bound):
    """x -> t(x) for the MethodId ``m``, inner map first, with every ladder node
    inside ``bound``; call under the working precision of ``precision``, which
    sets the cancellation trap 10^(5 - precision)."""
    levels = (m.outer,) if m.inner is None else (m.inner, m.outer)
    trap = mp.mpf(10) ** (5 - precision)

    def pair(p):
        return _reference_transform_pair(f, p) if m.transform else reference_eval(f, p, 1)

    def apply(x):
        tiny = None

        def base(p):
            nonlocal tiny
            fx, slope0 = pair(p)
            if slope0 == 0:
                raise Breakdown(Breakdown.ZERO_DERIVATIVE, "f' vanished at the base point")
            tiny = trap * abs(slope0)
            return fx, slope0

        def solve(b, c, fx):
            if b == 0 or abs(b) < tiny:
                raise Breakdown(Breakdown.ZERO_DENOMINATOR, "weighted slope sum vanished")
            return c * fx / b

        for i, n in enumerate(levels):
            if i and abs(x) > bound:
                raise Breakdown(Breakdown.DIVERGED, "a ladder node left the divergence bound", 0)
            x = _reference_ladder(n, x, base, lambda p: pair(p)[1], solve, m.simpson_seed, bound)
        return x

    return apply
