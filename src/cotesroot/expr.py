"""Scalar function parsing and evaluation at derivative order 0, 1 or 2.

Functions are given as text over one variable ``x``.  Parsing turns the text
into a tape: a tuple of instructions in post-order, so every instruction
finds its operands on top of a stack.  One loop runs the tape.  Order 0
computes f alone; orders 1 and 2 carry (f, f') and (f, f', f'') forward
through every instruction, which is forward-mode automatic differentiation.
The maps consume f and f', and the multiple-root transform additionally
needs f'' for its own slope.  Neither parsing nor evaluation recurses, so
the nesting depth of a function is limited only by memory.

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
from dataclasses import dataclass

import mpmath as mp

from .bigreal import BigReal, as_mpf, working_dps
from .errors import DomainError, ParseError, UnknownIdentifier

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
                raise UnknownIdentifier(f"unknown identifier {tok!r}", pos)
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


_ZERO = mp.mpf(0)
_ONE = mp.mpf(1)


def _eval(expr: Expression, x, order: int):
    """Run the tape at ``x``; call under the working precision.

    Order 0 returns f(x) and applies only the value-level domain rules.
    Order 1 returns (f, f') and order 2 (f, f', f''); both add the
    derivative-level rules: no sqrt, cbrt or abs at 0, no real or variable
    power of a nonpositive base.  The value of a power may differ between
    order 0 and the jets in the last bits (``v**c`` against ``v**(c-2)*v*v``).
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
                    raise DomainError("division by zero")
                v = vals[-1] = a / b
                if order:
                    d1 = (a1 - v * b1) / b
                    ders[-1] = (d1, (a2 - 2 * d1 * b1 - v * b2) / b if second else None)
            elif not arg and mp.isint(b):  # power with a constant integer exponent
                c = int(b)
                if a == 0 and c < 0:
                    raise DomainError("zero raised to a negative power")
                if not order:
                    vals[-1] = a**c
                elif c == 0:
                    vals[-1], ders[-1] = _ONE, (_ZERO, _ZERO)
                elif c != 1:  # a first power leaves its operand as it is
                    pm2 = a ** (c - 2)  # 0^0 == 1 covers the c == 2 corner
                    pm1 = pm2 * a
                    vals[-1] = pm1 * a
                    ders[-1] = (c * pm1 * a1,
                                c * (c - 1) * pm2 * a1 * a1 + c * pm1 * a2 if second else None)
            elif not order:
                if a < 0 or (a == 0 and b < 0):
                    raise DomainError("real power of a negative base; use cbrt() for odd roots")
                vals[-1] = a**b
            elif a <= 0:
                raise DomainError("variable power of a nonpositive base" if arg else
                                  "real power of a nonpositive base; use cbrt() for odd roots")
            elif not arg:
                vals[-1] = a**b
                pm1 = a ** (b - 1)
                ders[-1] = (b * pm1 * a1,
                            b * (b - 1) * a ** (b - 2) * a1 * a1 + b * pm1 * a2 if second else None)
            else:  # variable exponent: a^b = exp(b * log a), through the jets of log and *
                lv, l1 = mp.log(a), a1 / a
                p, p1 = b * lv, b1 * lv + b * l1
                e = vals[-1] = mp.exp(p)
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
                raise DomainError(f"log of nonpositive value {mp.nstr(v, 8)}")
            if op == "sqrt" and v < 0:
                raise DomainError(f"sqrt of negative value {mp.nstr(v, 8)}")
            if order and v == 0 and op in ("sqrt", "cbrt", "abs"):
                raise DomainError(f"derivative of {op} at 0")
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


def eval_jet(expr: Expression, x, precision: int) -> Jet2:
    """Evaluate (f, f', f'') at ``x`` with ``precision`` working digits."""
    with mp.workdps(working_dps(precision)):
        v, d1, d2 = _eval(expr, as_mpf(x), 2)
    return Jet2(
        BigReal(v, precision), BigReal(d1, precision), BigReal(d2, precision)
    )


def eval_value(expr: Expression, x, precision: int) -> BigReal:
    """Evaluate f(x) only; no derivative-level domain restrictions."""
    with mp.workdps(working_dps(precision)):
        return BigReal(_eval(expr, as_mpf(x), 0), precision)
