"""Reference evaluation of an expression tape on mpf operators.

The same formulas in the same order as ``expr._eval``, written with mpf's
operators and functions, so every operation rounds at the precision of the
active ``mp.workdps`` context.  ``expr._eval`` runs them on raw
``mpmath.libmp`` tuples at a precision it is passed; it must return the same
bits and raise the same ``domain`` Breakdown messages, which ``test_expr.py``
checks against this copy.
"""

import mpmath as mp

from cotesroot.errors import Breakdown

_BINARY = ("+", "-", "*", "/", "^")

_ZERO = mp.mpf(0)
_ONE = mp.mpf(1)


def reference_eval(expr, x, order):
    """Run the tape at ``x`` on mpf operators; call under the working precision.

    Order 0 returns f(x) and applies only the value-level domain rules.
    Order 1 returns (f, f') and order 2 (f, f', f''); both add the
    derivative-level rules: no sqrt, cbrt or abs at 0, no real or variable
    power of a nonpositive base.  Every order computes a value by the same
    formula, so where order 0 and the jets both evaluate, f has the same bits.
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
            if op == "cbrt":
                r = mp.sign(v) * mp.cbrt(abs(v))  # real odd root
            elif op == "abs":
                r = abs(v)
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
                gp = mp.sech(v) ** 2  # 1 - r*r underflows to 0 for large |v|
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
