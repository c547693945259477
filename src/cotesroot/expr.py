"""Scalar function parsing and evaluation at derivative order 0, 1 or 2.

Functions are given as text over one variable ``x``.  Parsing turns the text
into a tape: a tuple of instructions in post-order, so every instruction
finds its operands on top of a stack.  One loop runs the tape.  Order 0
computes f alone; orders 1 and 2 carry (f, f') and (f, f', f'') forward
through every instruction, which is forward-mode automatic differentiation.
The maps consume f and f', and the multiple-root transform additionally
needs f'' for its own slope.  Neither parsing nor evaluation recurses, so
the nesting depth of a function is limited only by memory.

The loop computes on raw ``mpmath.libmp`` tuples at a precision in bits that
its caller passes, rounding to nearest, and never touches the mpmath
context: ``eval_jet`` and ``eval_value`` may run in several threads at once.
Each step makes the libmp call that the same formula on mpf operators would
make, so results are bit for bit those of plain mpf arithmetic of the same
formulas at that precision.  tanh is s/c from one ``mpf_cosh_sinh`` call at
10 more bits, whose c also gives sech = 1/c for the derivatives (order 0
takes the sign instead where that call would give c = s); sin and cos come
from one ``mpf_cos_sin`` call, with the bits of ``mpf_sin`` and ``mpf_cos``.
Literals are converted once per precision and kept beside the tape.

Grammar (whitespace-insensitive, ``^`` right-associative):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := number | "x" | "pi" | "e" | ident "(" expr ")" | "(" expr ")"
    ident  := sin | cos | tan | tanh | exp | log | sqrt | cbrt | abs

``x^(1/3)`` is not rewritten to the real cube root: real powers of negative
bases are undefined, so the odd root must be spelled ``cbrt(x)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import mpmath as mp
from mpmath.libmp import (
    finf, fnan, fone, fnone, from_str, ftwo, fzero, mpf_abs, mpf_add, mpf_cbrt, mpf_cos_sin,
    mpf_cosh_sinh, mpf_div, mpf_e, mpf_exp, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_mul_int,
    mpf_neg, mpf_pi, mpf_pos, mpf_pow, mpf_pow_int, mpf_rdiv_int, mpf_sqrt, mpf_sub, mpf_tan,
    round_nearest, to_int, to_str,
)

from .bigreal import BigReal, as_mpf, working_prec
from .errors import Breakdown, ParseError

FUNCTIONS = ("sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "cbrt", "abs")
CONSTANTS = ("pi", "e")


@dataclass(frozen=True)
class Expression:
    """Parsed function of one variable.

    ``tape`` holds (op, arg) instructions in post-order: ("x", None),
    ("num", literal text), ("const", "pi" or "e"), ("neg", None), a binary
    operator ("+", "-", "*", "/") with None, ("^", whether the exponent
    depends on x), or a function name from FUNCTIONS with None.
    """

    tape: tuple
    text: str
    # the tape at each working precision in bits, its literals converted there
    _tapes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives of a function at one point."""

    f: BigReal
    d1: BigReal
    d2: BigReal


_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if not text[pos:].strip():
                break  # trailing whitespace
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1):
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("ident", m.group(2), m.start(2)))
        elif m.group(3):
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_BINARY = ("+", "-", "*", "/", "^")
# unary minus binds tighter than "^", so "-x^2" is (-x)^2
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3, "neg": 4}


def parse(text: str) -> Expression:
    """Parse function text into an Expression; errors carry the offset.

    Operator-precedence parsing with an explicit operator stack: the parser
    alternates between expecting an operand and expecting an operator, and
    emits each instruction once its operands are on the tape.
    """
    if not text or not text.strip():
        raise ParseError("empty function text", 0)
    tape = []
    uses_x = []  # per operand on the tape: whether it depends on x
    pending = []  # operators, "(" and function names awaiting their ")"
    opened = 0  # number of "(" and function names in ``pending``

    def emit(op):
        depends = None
        if op in _BINARY:
            depends = uses_x.pop()
            uses_x[-1] = uses_x[-1] or depends
        tape.append((op, depends if op == "^" else None))

    tokens = iter(_tokenize(text))
    want_operand = True
    for kind, tok, pos in tokens:
        if want_operand:
            if kind == "op" and tok in "-(":
                pending.append("neg" if tok == "-" else "(")
                opened += tok == "("
            elif kind == "ident" and tok in FUNCTIONS:
                _, after, after_pos = next(tokens)
                if after != "(":
                    raise ParseError("expected '('", after_pos)
                pending.append(tok)
                opened += 1
            elif kind == "num" or tok == "x" or tok in CONSTANTS:
                tape.append(("x", None) if tok == "x" else
                            ("num" if kind == "num" else "const", tok))
                uses_x.append(tok == "x")
                want_operand = False
            elif kind == "ident":
                raise ParseError(f"unknown identifier {tok!r}", pos)
            elif kind == "end":
                raise ParseError("unexpected end of input", pos)
            else:
                raise ParseError(f"unexpected {tok!r}", pos)
        elif kind == "op" and tok in _BINARY:
            bar = _PRECEDENCE[tok] + (tok == "^")  # right-associative
            while pending and _PRECEDENCE.get(pending[-1], 0) >= bar:
                emit(pending.pop())
            pending.append(tok)
            want_operand = True
        elif tok == ")" and opened:
            while pending[-1] in _PRECEDENCE:
                emit(pending.pop())
            opener = pending.pop()
            opened -= 1
            if opener != "(":
                emit(opener)
        elif kind == "end" and not opened:
            while pending:
                emit(pending.pop())
        elif opened:
            raise ParseError("expected ')'", pos)
        else:
            raise ParseError(f"unexpected {tok!r} after expression", pos)
    return Expression(tuple(tape), text)


_RND = round_nearest
# the functions the tape calls as mpmath does: one libmp call at the working precision
_LIBMP = {"tan": mpf_tan, "exp": mpf_exp, "log": mpf_log, "sqrt": mpf_sqrt}
_CONSTANT = {"pi": mpf_pi, "e": mpf_e}


def _tape_at(expr: Expression, prec: int) -> tuple:
    """The tape with each literal converted at ``prec`` bits, once per precision.

    Threads that race here build equal tuples, so either may stay cached.
    """
    tape = expr._tapes.get(prec)
    if tape is None:
        tape = expr._tapes[prec] = tuple(
            ("lit", from_str(arg, prec, _RND) if op == "num" else _CONSTANT[arg](prec, _RND))
            if op == "num" or op == "const" else (op, arg)
            for op, arg in expr.tape)
    return tape


def _sign(v):
    """``mp.sign`` of a raw mpf: v itself when it is 0 or NaN, else +-1."""
    if v == fzero or v == fnan:
        return v
    return fone if mpf_gt(v, fzero) else fnone


def _tanh_saturates(v, wp: int) -> bool:
    """Whether ``mpf_cosh_sinh`` at working precision wp gives c = s = exp|v|/2, up to sign."""
    mag = v[2] + v[3]
    return bool(v[1]) and mag > 10 and 3 << min(mag - 1, wp.bit_length()) > wp


def _eval(expr: Expression, x, order: int, prec: int):
    """Run the tape at the raw mpf ``x`` with every operation rounded to ``prec`` bits.

    The loop takes and returns raw ``mpmath.libmp`` tuples and never reads or
    sets the mpmath context, so concurrent calls do not interfere; callers
    that want mpf values wrap them with ``mp.make_mpf``.  Each step is the
    libmp call mpf's operator or function would make under
    ``mp.workprec(prec)``, so the bits are those of plain mpf arithmetic of
    the same formulas.
    Order 0 returns f(x) and applies only the value-level domain rules.
    Order 1 returns (f, f') and order 2 (f, f', f''); both add the
    derivative-level rules: no sqrt, cbrt or abs at 0, no real or variable
    power of a nonpositive base.  Every order computes a value by the same
    formula, so where order 0 and the jets both evaluate, f has the same bits.
    """
    rnd = _RND
    second = order == 2
    vals = []  # f of each operand
    ders = []  # (f', f'') of each operand at orders 1 and 2; order 1 skips f''
    for op, arg in _tape_at(expr, prec):
        if op == "x":
            vals.append(x)
            if order:
                ders.append((fone, fzero))
        elif op == "lit":
            vals.append(arg)
            if order:
                ders.append((fzero, fzero))
        elif op in _BINARY:
            b = vals.pop()
            a = vals[-1]
            if order:
                b1, b2 = ders.pop()
                a1, a2 = ders[-1]
            if op == "+":
                vals[-1] = mpf_add(a, b, prec, rnd)
                if order:
                    ders[-1] = (mpf_add(a1, b1, prec, rnd),
                                mpf_add(a2, b2, prec, rnd) if second else None)
            elif op == "-":
                vals[-1] = mpf_sub(a, b, prec, rnd)
                if order:
                    ders[-1] = (mpf_sub(a1, b1, prec, rnd),
                                mpf_sub(a2, b2, prec, rnd) if second else None)
            elif op == "*":
                vals[-1] = mpf_mul(a, b, prec, rnd)
                if order:
                    ders[-1] = (
                        mpf_add(mpf_mul(a1, b, prec, rnd), mpf_mul(a, b1, prec, rnd), prec, rnd),
                        mpf_add(mpf_add(mpf_mul(a2, b, prec, rnd),
                                        mpf_mul(mpf_mul_int(a1, 2, prec, rnd), b1, prec, rnd),
                                        prec, rnd),
                                mpf_mul(a, b2, prec, rnd), prec, rnd) if second else None)
            elif op == "/":
                if b == fzero:
                    raise Breakdown(Breakdown.DOMAIN, "division by zero")
                v = vals[-1] = mpf_div(a, b, prec, rnd)
                if order:
                    d1 = mpf_div(mpf_sub(a1, mpf_mul(v, b1, prec, rnd), prec, rnd), b, prec, rnd)
                    ders[-1] = (d1, mpf_div(
                        mpf_sub(mpf_sub(a2, mpf_mul(mpf_mul_int(d1, 2, prec, rnd), b1, prec, rnd),
                                        prec, rnd),
                                mpf_mul(v, b2, prec, rnd), prec, rnd),
                        b, prec, rnd) if second else None)
            elif not arg and (b[1] and b[2] >= 0 or b == fzero):  # constant integer exponent
                c = int(to_int(b))
                if a == fzero and c < 0:
                    raise Breakdown(Breakdown.DOMAIN, "zero raised to a negative power")
                if c == 0:
                    vals[-1] = fone
                    if order:
                        ders[-1] = (fzero, fzero)
                elif c != 1:  # a first power leaves its operand as it is
                    pm2 = mpf_pow_int(a, c - 2, prec, rnd)  # 0^0 == 1 covers the c == 2 corner
                    pm1 = mpf_mul(pm2, a, prec, rnd)
                    vals[-1] = mpf_mul(pm1, a, prec, rnd)
                    if order:
                        cpm1 = mpf_mul_int(pm1, c, prec, rnd)
                        ders[-1] = (mpf_mul(cpm1, a1, prec, rnd), mpf_add(
                            mpf_mul(mpf_mul(mpf_mul_int(pm2, c * (c - 1), prec, rnd), a1,
                                            prec, rnd), a1, prec, rnd),
                            mpf_mul(cpm1, a2, prec, rnd), prec, rnd) if second else None)
            elif order and mpf_le(a, fzero):
                raise Breakdown(Breakdown.DOMAIN, "variable power of a nonpositive base" if arg else
                                "real power of a nonpositive base; use cbrt() for odd roots")
            elif mpf_lt(a, fzero) or (a == fzero and mpf_lt(b, fzero)):  # order 0 only
                raise Breakdown(Breakdown.DOMAIN,
                                "real power of a negative base; use cbrt() for odd roots")
            elif not arg or a == fzero:  # a real power, or 0^b, which only order 0 reaches
                vals[-1] = mpf_pow(a, b, prec, rnd)
                if not order:
                    continue
                bm1 = mpf_sub(b, fone, prec, rnd)
                bpm1 = mpf_mul(b, mpf_pow(a, bm1, prec, rnd), prec, rnd)
                ders[-1] = (mpf_mul(bpm1, a1, prec, rnd), mpf_add(
                    mpf_mul(mpf_mul(mpf_mul(mpf_mul(b, bm1, prec, rnd),
                                            mpf_pow(a, mpf_sub(b, ftwo, prec, rnd), prec, rnd),
                                            prec, rnd),
                                    a1, prec, rnd),
                            a1, prec, rnd),
                    mpf_mul(bpm1, a2, prec, rnd), prec, rnd) if second else None)
            else:  # variable exponent: a^b = exp(b * log a), through the jets of log and *
                lv = mpf_log(a, prec, rnd)
                e = vals[-1] = mpf_exp(mpf_mul(b, lv, prec, rnd), prec, rnd)
                if not order:
                    continue
                l1 = mpf_div(a1, a, prec, rnd)
                p1 = mpf_add(mpf_mul(b1, lv, prec, rnd), mpf_mul(b, l1, prec, rnd), prec, rnd)
                ep1 = mpf_mul(e, p1, prec, rnd)
                if second:
                    p2 = mpf_add(
                        mpf_add(mpf_mul(b2, lv, prec, rnd),
                                mpf_mul(mpf_mul_int(b1, 2, prec, rnd), l1, prec, rnd), prec, rnd),
                        mpf_mul(b, mpf_add(
                            mpf_div(mpf_mul(mpf_neg(a1, prec, rnd), a1, prec, rnd),
                                    mpf_mul(a, a, prec, rnd), prec, rnd),
                            mpf_div(a2, a, prec, rnd), prec, rnd), prec, rnd),
                        prec, rnd)
                ders[-1] = (ep1, mpf_add(mpf_mul(ep1, p1, prec, rnd), mpf_mul(e, p2, prec, rnd),
                                         prec, rnd) if second else None)
        elif op == "neg":
            vals[-1] = mpf_neg(vals[-1], prec, rnd)
            if order:
                d1, d2 = ders[-1]
                ders[-1] = (mpf_neg(d1, prec, rnd), mpf_neg(d2, prec, rnd) if second else None)
        else:  # function call
            v = vals[-1]
            if op == "log" and mpf_le(v, fzero):
                raise Breakdown(Breakdown.DOMAIN, f"log of nonpositive value {to_str(v, 8)}")
            if op == "sqrt" and mpf_lt(v, fzero):
                raise Breakdown(Breakdown.DOMAIN, f"sqrt of negative value {to_str(v, 8)}")
            if order and v == fzero and op in ("sqrt", "cbrt", "abs"):
                raise Breakdown(Breakdown.DOMAIN, f"derivative of {op} at 0")
            if op == "cbrt":  # real odd root
                r = mpf_mul(_sign(v), mpf_cbrt(mpf_abs(v, prec, rnd), prec, rnd), prec, rnd)
            elif op == "abs":
                r = mpf_abs(v, prec, rnd)
            elif op == "tanh":  # s/c, and sech = 1/c below, from one cosh_sinh call
                if not order and _tanh_saturates(v, prec + 24):  # the call works at +14 bits
                    r = _sign(v)  # = s/c there, without exp|v|, which takes ln 2 to mag bits
                else:
                    c, s = mpf_cosh_sinh(v, prec + 10, rnd)
                    r = _sign(s) if c == finf else mpf_div(s, c, prec, rnd)
            elif op == "sin" or op == "cos":  # the bits of mpf_sin and mpf_cos
                c, s = mpf_cos_sin(v, prec, rnd)
                r = s if op == "sin" else c
            else:
                r = _LIBMP[op](v, prec, rnd)
            vals[-1] = r
            if not order:
                continue
            u1, u2 = ders[-1]
            if op == "log":
                ders[-1] = (mpf_div(u1, v, prec, rnd), mpf_add(
                    mpf_div(mpf_mul(mpf_neg(u1, prec, rnd), u1, prec, rnd),
                            mpf_mul(v, v, prec, rnd), prec, rnd),
                    mpf_div(u2, v, prec, rnd), prec, rnd) if second else None)
                continue
            if op == "abs":
                sgn = _sign(v)
                ders[-1] = (mpf_mul(sgn, u1, prec, rnd),
                            mpf_mul(sgn, u2, prec, rnd) if second else None)
                continue
            # g(u)' = g'(v) u', g(u)'' = g''(v) u'^2 + g'(v) u''
            gpp = None
            if op == "sin" or op == "cos":
                gp = c if op == "sin" else mpf_neg(s, prec, rnd)
                if second:
                    gpp = mpf_neg(r, prec, rnd)
            elif op == "exp":
                gp = gpp = r
            elif op == "tan":
                gp = mpf_add(mpf_mul(r, r, prec, rnd), fone, prec, rnd)
                if second:
                    gpp = mpf_mul(mpf_mul_int(r, 2, prec, rnd), gp, prec, rnd)
            elif op == "tanh":
                sech = mpf_pos(mpf_div(fone, c, prec + 10, rnd), prec, rnd)
                gp = mpf_pow_int(sech, 2, prec, rnd)  # 1 - r*r underflows for large |v|
                if second:
                    gpp = mpf_mul(mpf_mul_int(r, -2, prec, rnd), gp, prec, rnd)
            elif op == "sqrt":
                gp = mpf_rdiv_int(1, mpf_mul_int(r, 2, prec, rnd), prec, rnd)
                if second:
                    gpp = mpf_div(mpf_neg(gp, prec, rnd), mpf_mul_int(v, 2, prec, rnd), prec, rnd)
            else:  # cbrt
                r2 = mpf_mul(r, r, prec, rnd)
                gp = mpf_rdiv_int(1, mpf_mul_int(r2, 3, prec, rnd), prec, rnd)
                if second:
                    gpp = mpf_rdiv_int(-2, mpf_mul(mpf_mul(mpf_mul_int(r2, 9, prec, rnd), r2,
                                                           prec, rnd), r, prec, rnd), prec, rnd)
            ders[-1] = (mpf_mul(gp, u1, prec, rnd), mpf_add(
                mpf_mul(mpf_mul(gpp, u1, prec, rnd), u1, prec, rnd),
                mpf_mul(gp, u2, prec, rnd), prec, rnd) if second else None)
    if not order:
        return vals[0]
    d1, d2 = ders[0]
    return (vals[0], d1, d2) if second else (vals[0], d1)


def eval_jet(expr: Expression, x, precision: int) -> Jet2:
    """Evaluate (f, f', f'') at ``x`` with ``precision`` (at least ``MIN_DIGITS``) digits."""
    prec = working_prec(precision)
    return Jet2(*(BigReal(mp.make_mpf(v), precision)
                  for v in _eval(expr, as_mpf(x, prec)._mpf_, 2, prec)))


def eval_value(expr: Expression, x, precision: int) -> BigReal:
    """Evaluate f(x) only; no derivative-level domain restrictions.

    ``precision`` must be at least ``MIN_DIGITS``; a point that is not a
    BigReal is converted at its working precision, as in ``eval_jet``.
    """
    prec = working_prec(precision)
    return BigReal(mp.make_mpf(_eval(expr, as_mpf(x, prec)._mpf_, 0, prec)), precision)
