"""Scalar function parsing and evaluation with second-order forward jets.

Functions are given as text over one variable ``x``.  Evaluation propagates
(value, first, second derivative) triples through the syntax tree, which is
all the iterative maps need: the maps consume f and f', and the multiple-root
transform additionally needs f'' for its own slope.

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
from typing import Union

import mpmath as mp

from .bigreal import BigReal, as_mpf, working_dps
from .errors import DomainError, ParseError, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "cbrt", "abs")
CONSTANTS = ("pi", "e")


@dataclass(frozen=True)
class Number:
    literal: str  # kept as text so conversion is exact at any precision


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class Negate:
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Number, Variable, Constant, Negate, Binary, Call]


@dataclass(frozen=True)
class Expression:
    """Parsed function of one variable."""

    root: Node
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
        if not text[pos:].strip():
            break
        m = _TOKEN.match(text, pos)
        if m is None:
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.take()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after expression", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.unary()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.take()
            node = Binary("^", node, self.factor())  # right-associative
        return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Negate(self.unary())
        return self.atom()

    def atom(self) -> Node:
        kind, text, pos = self.take()
        if kind == "num":
            return Number(text)
        if kind == "ident":
            if text == "x":
                return Variable()
            if text in CONSTANTS:
                return Constant(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise UnknownIdentifier(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {text!r}", pos)


def parse(text: str) -> Expression:
    """Parse function text into an Expression; errors carry the offset."""
    if not text or not text.strip():
        raise ParseError("empty function text", 0)
    return Expression(_Parser(text).parse(), text)


def _depends_on_x(node: Node) -> bool:
    if isinstance(node, Variable):
        return True
    if isinstance(node, Negate):
        return _depends_on_x(node.operand)
    if isinstance(node, Binary):
        return _depends_on_x(node.left) or _depends_on_x(node.right)
    if isinstance(node, Call):
        return _depends_on_x(node.arg)
    return False


def _chain(g, gp, gpp, u):
    v, u1, u2 = u
    return g(v), gp(v) * u1, gpp(v) * u1 * u1 + gp(v) * u2


def _call_jet(func: str, u):
    v, u1, u2 = u
    if func == "sin":
        return _chain(mp.sin, mp.cos, lambda t: -mp.sin(t), u)
    if func == "cos":
        return _chain(mp.cos, lambda t: -mp.sin(t), lambda t: -mp.cos(t), u)
    if func == "tan":
        t = mp.tan(v)
        sec2 = 1 + t * t
        return t, sec2 * u1, 2 * t * sec2 * u1 * u1 + sec2 * u2
    if func == "tanh":
        t = mp.tanh(v)
        sech2 = mp.sech(v) ** 2  # 1 - t*t underflows to 0 for large |v|
        return t, sech2 * u1, -2 * t * sech2 * u1 * u1 + sech2 * u2
    if func == "exp":
        e = mp.exp(v)
        return e, e * u1, e * u1 * u1 + e * u2
    if func == "log":
        if v <= 0:
            raise DomainError(f"log of nonpositive value {mp.nstr(v, 8)}")
        return mp.log(v), u1 / v, -u1 * u1 / (v * v) + u2 / v
    if func == "sqrt":
        if v < 0:
            raise DomainError(f"sqrt of negative value {mp.nstr(v, 8)}")
        if v == 0:
            raise DomainError("derivative of sqrt at 0")
        r = mp.sqrt(v)
        gp = 1 / (2 * r)
        return r, gp * u1, -gp / (2 * v) * u1 * u1 + gp * u2
    if func == "cbrt":
        if v == 0:
            raise DomainError("derivative of cbrt at 0")
        r = mp.sign(v) * mp.cbrt(abs(v))  # real odd root
        r2 = r * r
        gp = 1 / (3 * r2)
        gpp = -2 / (9 * r2 * r2 * r)
        return r, gp * u1, gpp * u1 * u1 + gp * u2
    if func == "abs":
        if v == 0:
            raise DomainError("derivative of abs at 0")
        sgn = mp.sign(v)
        return abs(v), sgn * u1, sgn * u2
    raise ValueError(f"no such function {func!r}")


def _pow_jet(base, exponent_node: Node, exp_value):
    v, u1, u2 = base
    w = exp_value[0]
    if not _depends_on_x(exponent_node):
        if mp.isint(w):
            c = int(w)
            if c == 0:
                return mp.mpf(1), mp.mpf(0), mp.mpf(0)
            if c == 1:
                return base
            if v == 0 and c < 0:
                raise DomainError("zero raised to a negative power")
            pm2 = v ** (c - 2)  # 0^0 == 1 covers the c == 2 corner
            pm1 = pm2 * v
            p = pm1 * v
            return p, c * pm1 * u1, c * (c - 1) * pm2 * u1 * u1 + c * pm1 * u2
        if v <= 0:
            raise DomainError("real power of a nonpositive base; use cbrt() for odd roots")
        p = v**w
        pm1 = v ** (w - 1)
        return p, w * pm1 * u1, w * (w - 1) * v ** (w - 2) * u1 * u1 + w * pm1 * u2
    # variable exponent: u^w = exp(w * log u), defined for u > 0
    if v <= 0:
        raise DomainError("variable power of a nonpositive base")
    log_u = _call_jet("log", base)
    prod = _mul_jet(exp_value, log_u)
    return _call_jet("exp", prod)


def _mul_jet(a, b):
    av, a1, a2 = a
    bv, b1, b2 = b
    return av * bv, a1 * bv + av * b1, a2 * bv + 2 * a1 * b1 + av * b2


def _div_jet(a, b):
    av, a1, a2 = a
    bv, b1, b2 = b
    if bv == 0:
        raise DomainError("division by zero")
    v = av / bv
    d1 = (a1 - v * b1) / bv
    d2 = (a2 - 2 * d1 * b1 - v * b2) / bv
    return v, d1, d2


def _jet(node: Node, x):
    if isinstance(node, Number):
        return mp.mpf(node.literal), mp.mpf(0), mp.mpf(0)
    if isinstance(node, Variable):
        return x, mp.mpf(1), mp.mpf(0)
    if isinstance(node, Constant):
        return (mp.pi if node.name == "pi" else mp.e) + 0, mp.mpf(0), mp.mpf(0)
    if isinstance(node, Negate):
        v, d1, d2 = _jet(node.operand, x)
        return -v, -d1, -d2
    if isinstance(node, Binary):
        left = _jet(node.left, x)
        if node.op == "^":
            return _pow_jet(left, node.right, _jet(node.right, x))
        right = _jet(node.right, x)
        if node.op == "+":
            return tuple(a + b for a, b in zip(left, right))
        if node.op == "-":
            return tuple(a - b for a, b in zip(left, right))
        if node.op == "*":
            return _mul_jet(left, right)
        return _div_jet(left, right)
    return _call_jet(node.func, _jet(node.arg, x))


def _value(node: Node, x):
    """Order-0 evaluation; only value-level domain constraints apply."""
    if isinstance(node, Number):
        return mp.mpf(node.literal)
    if isinstance(node, Variable):
        return x
    if isinstance(node, Constant):
        return (mp.pi if node.name == "pi" else mp.e) + 0
    if isinstance(node, Negate):
        return -_value(node.operand, x)
    if isinstance(node, Binary):
        a = _value(node.left, x)
        b = _value(node.right, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        if not _depends_on_x(node.right) and mp.isint(b):
            if a == 0 and b < 0:
                raise DomainError("zero raised to a negative power")
            return a ** int(b)
        if a < 0 or (a == 0 and b < 0):
            raise DomainError("real power of a negative base; use cbrt() for odd roots")
        return a**b
    func, v = node.func, _value(node.arg, x)
    if func == "log":
        if v <= 0:
            raise DomainError(f"log of nonpositive value {mp.nstr(v, 8)}")
        return mp.log(v)
    if func == "sqrt":
        if v < 0:
            raise DomainError(f"sqrt of negative value {mp.nstr(v, 8)}")
        return mp.sqrt(v)
    if func == "cbrt":
        return mp.sign(v) * mp.cbrt(abs(v))
    if func == "abs":
        return abs(v)
    return getattr(mp, func)(v)


def eval_jet(expr: Expression, x, precision: int) -> Jet2:
    """Evaluate (f, f', f'') at ``x`` with ``precision`` working digits."""
    with mp.workdps(working_dps(precision)):
        v, d1, d2 = _jet(expr.root, as_mpf(x))
    return Jet2(
        BigReal(v, precision), BigReal(d1, precision), BigReal(d2, precision)
    )


def eval_value(expr: Expression, x, precision: int) -> BigReal:
    """Evaluate f(x) only; no derivative-level domain restrictions."""
    with mp.workdps(working_dps(precision)):
        return BigReal(_value(expr.root, as_mpf(x)), precision)
