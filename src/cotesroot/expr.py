"""Scalar function parsing and evaluation of f, f' and f'' in any combination.

Functions are given as text over one variable ``x``.  Parsing turns the text
into a tape: a tuple of instructions in post-order, so every instruction
finds its operands on top of a stack.  Evaluation compiles the tape once per
output set into one function of straight-line ``mpmath.libmp`` calls.  An
output set names what the code returns, in order: ("f",), ("d1",),
("f", "d1") or ("f", "d1", "d2"); the orders 0, 1 and 2 stand for the first,
third and fourth.  The source is written in one of two modes: value code
for f alone, and for every other output set the full jet, which carries
(f, f', f'') forward through every instruction (forward-mode automatic
differentiation) and is then pruned to the outputs.  The maps consume f and
f' at their base point and f' alone at every ladder node, and the
multiple-root transform additionally needs f'' for its own slope.  Neither
parsing, compiling nor evaluation recurses, so the nesting depth of a
function is limited only by memory.

The compiled code computes on raw libmp tuples at a precision in bits that
its caller passes, rounding to nearest, and never touches the mpmath
context: ``eval_jet`` and ``eval_value`` may run in several threads at once.
Each call is the libmp call that the same formula on mpf operators would
make, so results are bit for bit those of plain mpf arithmetic of the same
formulas at that precision.  Compiling skips the calls whose result it
knows or does not need, which is activity analysis (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed. 2008), done by folding and liveness.
Forward, the derivatives of a subtree without x are the name ``fzero`` and
x's derivative is ``fone``, and arithmetic on them is folded, so a passive
subtree's derivative arithmetic writes no call, ``k*x`` has the derivative
k, ``x^c`` has (c·x^(c-1), c(c-1)·x^(c-2)), ``g(x)`` has (g', g'') and
``a + k`` passes a's derivatives through.  A folded call would only have
returned its operand, already rounded, so the bits do not change.
Backward, one liveness pass from the outputs drops every call that no
output reads, at every depth: the f'-only code of ``log(x)+x-2`` makes no
log call, and no code makes the g'(v) of a passive g(v).  It keeps every
domain check and branch header, in order, so the code for any output set
raises the Breakdown of the full jet, or of the value code, at the same
point.  The calls that remain are the jet's own, in the jet's order, so
they give its bits.  tanh is s/c from one ``mpf_cosh_sinh`` call at 10
more bits, whose c also gives sech = 1/c for the derivatives (value code
takes the sign instead where that call would give c = s); sin and cos come
from one ``mpf_cos_sin`` call, with the bits of ``mpf_sin`` and
``mpf_cos``.  Where the argument of exp, sin, cos, tan or the jets' tanh is
2^prec or more in magnitude, no bit of the result is correct, and the code
raises the ``nonfinite`` Breakdown instead of making the call.  Literals
are converted once per precision and kept beside the tape for the last few
precisions.

The same source also runs against a second namespace, in which each libmp
name the code calls is its counterpart on truncated power series
(``series``): on x = z + ε it returns the Taylor coefficients of f, f' and
f'' at z, whose constant terms have the bits of the raw code at z.  Its
domain checks test their operands through names of that namespace too
(``_zero``, ``mpf_le``, ...), which read a series' constant term, so the
series code raises the Breakdown of the raw code at z.  ``analysis`` takes
the derivatives of a map from it.

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
from functools import lru_cache
from itertools import count

import mpmath as mp
from mpmath.libmp import (
    fone, fnone, from_str, ftwo, fzero, mpf_abs, mpf_add, mpf_cbrt, mpf_cos_sin, mpf_cosh_sinh,
    mpf_div, mpf_e, mpf_exp, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg,
    mpf_pi, mpf_pos, mpf_pow, mpf_pow_int, mpf_rdiv_int, mpf_sqrt, mpf_sub, mpf_tan, round_nearest,
    to_int, to_str,
)

from .bigreal import BigReal, _check_finite, as_mpf, working_prec
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
    # the literals converted at each of the last few working precisions in bits
    _literals: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the compiled tape per output set, as _eval is asked for it, and per
    # ("series", output set), as _eval_series is
    _code: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
_CONSTANT = {"pi": mpf_pi, "e": mpf_e}
# the precisions whose literals an Expression keeps, oldest out first: the
# schedule's reduced passes use a new precision on almost every run
_PRECISIONS_KEPT = 8


def _literals_at(expr: Expression, prec: int) -> tuple:
    """The tape's literals and constants converted at ``prec`` bits, in tape order.

    Threads that race here build equal tuples, so either may stay cached, and
    evict with ``pop(k, None)``, so neither fails on a key the other removed.
    """
    literals = expr._literals.get(prec)
    if literals is None:
        literals = tuple(from_str(arg, prec, _RND) if op == "num" else _CONSTANT[arg](prec, _RND)
                         for op, arg in expr.tape if op == "num" or op == "const")
        kept = list(expr._literals)
        for old in kept[:max(0, len(kept) + 1 - _PRECISIONS_KEPT)]:
            expr._literals.pop(old, None)
        expr._literals[prec] = literals
    return literals


def _sign(v):
    """``mp.sign`` of a finite raw mpf: v itself when it is 0, else +-1."""
    if v == fzero:
        return v
    return fone if mpf_gt(v, fzero) else fnone


def _tanh_saturates(v, wp: int) -> bool:
    """Whether ``mpf_cosh_sinh`` at working precision wp gives c = s = exp|v|/2, up to sign."""
    mag = v[2] + v[3]
    return bool(v[1]) and mag > 10 and 3 << min(mag - 1, wp.bit_length()) > wp


def _beyond(v, prec: int) -> bool:
    """Whether |v| >= 2^prec for a raw mpf v, so that one ulp of v is at least 1.

    exp, sin, cos, tan and tanh's derivatives then have no correct bit at
    ``prec`` (exp's condition number is |v|; Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed. 2002), and libmp would reduce the
    argument with about prec + log2|v| bits, which costs seconds from about
    2^(2^17) up."""
    return v[2] + v[3] > prec


def _too_large(name: str):
    """The Breakdown of a transcendental ``name`` whose argument is ``_beyond`` the precision."""
    raise Breakdown(Breakdown.NONFINITE, f"{name} of an argument too large for the precision")


def _guarded(name: str, v: str, call: str) -> str:
    """The source of ``call``, a transcendental of ``v``, behind the ``_beyond``
    guard: one expression, so that liveness drops the guard with the call."""
    return f"_too_large({name!r}) if _beyond({v}, prec) else {call}"


# the derivative of a literal and of x, as names in the compiled source
_ZERO, _ONE = "fzero", "fone"


class _Source:
    """The straight-line source of one run of a tape, before ``_live``
    prunes it to its outputs; see ``_compile``.

    It has two modes: value code (``jet`` false), which applies the
    value-level domain rules only, and the full jet (f, f', f''), which adds
    the derivative-level ones.  A slot is the (f, f', f'') of one operand as
    names in the source; value code seeds x with the derivatives ``fzero``.
    The names ``fzero`` and ``fone`` decide at compile time what a derivative
    call on them returns: 0·u is 0, 1·u and u ± 0 are u, 0 - u is -u, so the
    derivative arithmetic of a passive operand (no x below it) is ``fzero``
    and writes no call, and what it wrote only for that arithmetic is left to
    ``_live``.  A folded call would have returned u rounded to ``prec``,
    which is u itself, since every name but x and those in ``raw`` holds a
    literal, a constant or a libmp result at ``prec``.  0·u is 0 only for a
    finite u, and with a finite x every value is finite.  A literal integer
    exponent is resolved here, and a call the code has made already is not
    made again (libmp is pure).
    """

    def __init__(self, jet: bool):
        self.jet = jet
        self.lines, self.pad = [], "    "
        self.names = count()
        self.raw = {"x"}  # names that may hold x itself, which may carry more than prec bits
        self.known = {}  # expression -> the name that holds it, where the code can read it
        self.integers = {}  # literal name -> its value, an integer exact at 32 bits or more

    def line(self, text):
        self.lines.append(self.pad + text)

    def name(self):
        return f"t{next(self.names)}"

    def let(self, expression):
        """A name for the expression, which every call here may share: libmp is pure."""
        if expression not in self.known:
            self.known[expression] = self.name()
            self.line(f"{self.known[expression]} = {expression}")
        return self.known[expression]

    def call(self, function, *args):
        """One libmp call rounded to ``prec``."""
        return self.let(f"{function}({', '.join(map(str, args))}, prec, rnd)")

    def fail(self, condition, message):
        self.line(f"if {condition}: raise Breakdown(DOMAIN, {message})")

    # derivative arithmetic, folded where the operands allow
    def add(self, p, q):
        if q == _ZERO and p not in self.raw:
            return p
        if p == _ZERO and q not in self.raw:
            return q
        return self.call("mpf_add", p, q)

    def sub(self, p, q):
        if q == _ZERO and p not in self.raw:
            return p
        if p == _ZERO:
            return self.neg(q)
        return self.call("mpf_sub", p, q)

    def neg(self, p):
        if p in (_ZERO, _ONE):
            return _ZERO if p == _ZERO else "fnone"
        return self.call("mpf_neg", p)

    def mul(self, p, q):
        if _ZERO in (p, q):
            return _ZERO
        if p == _ONE and q not in self.raw:
            return q
        if q == _ONE and p not in self.raw:
            return p
        return self.call("mpf_mul", p, q)

    def twice(self, p, q):
        """2·p·q, as (2·p)·q."""
        if _ZERO in (p, q):
            return _ZERO
        return self.mul("ftwo" if p == _ONE else self.call("mpf_mul_int", p, 2), q)

    def div(self, p, q):
        if p == _ZERO:
            return _ZERO
        return self.call("mpf_div", p, q)

    def branches(self, cases):
        """if/elif/else over (condition, body) cases, the last condition None.

        Each body emits its branch and returns its slot, or None where it
        raises.  Where the slots differ, every branch assigns the one it
        gives to a new name, which the merged slot holds.
        """
        pad, known, bodies = self.pad, self.known, []
        self.pad += "    "
        for condition, body in cases:
            start, self.known = len(self.lines), dict(known)
            slot = body()
            bodies.append((condition, self.lines[start:], slot))
            del self.lines[start:]
        self.pad, self.known = pad, known
        merged = []
        for i in range(3):
            names = {slot[i] for _, _, slot in bodies if slot}
            if len(names) == 1:
                merged.append(names.pop())
                continue
            merged.append(self.name())
            for _, lines, slot in bodies:
                if slot:
                    lines.append(f"{pad}    {merged[-1]} = {slot[i]}")
            if names & self.raw:
                self.raw.add(merged[-1])
        for k, (condition, lines, _) in enumerate(bodies):
            self.line("else:" if condition is None else f"{'elif' if k else 'if'} {condition}:")
            self.lines += lines
        return tuple(merged)

    def binary(self, op, variable, a, b):
        (v, a1, a2), (w, b1, b2) = a, b
        if op == "^":
            return self.power(a, b, variable)
        if op == "/":
            self.fail(f"_zero({w})", '"division by zero"')
        f = self.call({"+": "mpf_add", "-": "mpf_sub", "*": "mpf_mul", "/": "mpf_div"}[op], v, w)
        if op == "+" or op == "-":
            combine = self.add if op == "+" else self.sub
            return f, combine(a1, b1), combine(a2, b2)
        if op == "*":
            return f, self.add(self.mul(a1, w), self.mul(v, b1)), self.add(self.add(
                self.mul(a2, w), self.twice(a1, b1)), self.mul(v, b2))
        d1 = self.div(self.sub(a1, self.mul(f, b1)), w)
        return f, d1, self.div(self.sub(self.sub(a2, self.twice(d1, b1)), self.mul(f, b2)), w)

    def power(self, a, b, variable):
        v, w = a[0], b[0]
        if w in self.integers:  # the same integer at every precision
            return self.integer_power(a, self.integers[w])
        cases = [] if variable else [(  # a constant integer exponent
            f"{w}[1] and {w}[2] >= 0 or {w} == fzero", lambda: self.integer_power(a, w))]
        if self.jet:
            message = ("variable power of a nonpositive base" if variable else
                       "real power of a nonpositive base; use cbrt() for odd roots")
            cases.append((f"mpf_le({v}, fzero)", lambda: self.line(
                f"raise Breakdown(DOMAIN, {message!r})")))
        else:
            cases.append((f"mpf_lt({v}, fzero) or ({v} == fzero and mpf_lt({w}, fzero))",
                          lambda: self.line("raise Breakdown(DOMAIN, 'real power of a negative"
                                            " base; use cbrt() for odd roots')")))
            if variable:  # 0^b, which only value code reaches
                cases.append((f"{v} == fzero", lambda: self.real_power(a, w)))
        cases.append((None, lambda: self.variable_power(a, b) if variable else
                      self.real_power(a, w)))
        return self.branches(cases)

    def integer_power(self, a, c):
        """a^c for the integer c, given as a nonnegative int or as the name of its mpf."""
        if isinstance(c, int):  # a first power leaves its operand as it is
            return ("fone", _ZERO, _ZERO) if c == 0 else a if c == 1 else self.higher_power(a, c)
        c = self.let(f"int(to_int({c}))")
        self.fail(f"_zero({a[0]}) and {c} < 0", '"zero raised to a negative power"')
        return self.branches([(f"{c} == 0", lambda: self.integer_power(a, 0)),
                              (f"{c} == 1", lambda: self.integer_power(a, 1)),
                              (None, lambda: self.higher_power(a, c))])

    def higher_power(self, a, c):
        """a^c for an integer c other than 0 and 1, as a^(c-2)·a·a."""
        (v, a1, a2), known = a, isinstance(c, int)
        # a^0 == 1, also at a == 0, and a^1 is a rounded
        if known and (c == 2 or c == 3 and v not in self.raw):
            pm2 = "fone" if c == 2 else v
        else:
            pm2 = self.call("mpf_pow_int", v, c - 2 if known else f"{c} - 2")
        pm1 = self.mul(pm2, v)
        f = self.call("mpf_mul", pm1, v)
        cpm1 = self.call("mpf_mul_int", pm1, c)
        return f, self.mul(cpm1, a1), self.add(self.mul(self.mul(self.call(
            "mpf_mul_int", pm2, c * (c - 1) if known else f"{c} * ({c} - 1)"), a1), a1),
            self.mul(cpm1, a2))

    def real_power(self, a, w):
        v, a1, a2 = a
        f = self.call("mpf_pow", v, w)
        bm1 = self.call("mpf_sub", w, "fone")
        bpm1 = self.call("mpf_mul", w, self.call("mpf_pow", v, bm1))
        return f, self.mul(bpm1, a1), self.add(self.mul(self.mul(self.call(
            "mpf_mul", self.call("mpf_mul", w, bm1),
            self.call("mpf_pow", v, self.call("mpf_sub", w, "ftwo"))), a1), a1),
            self.mul(bpm1, a2))

    def variable_power(self, a, b):
        """a^b = exp(b * log a), through the jets of log and *."""
        (v, a1, a2), (w, b1, b2) = a, b
        lv = self.call("mpf_log", v)
        b_log_a = self.call("mpf_mul", w, lv)
        e = self.let(_guarded("exp", b_log_a, f"mpf_exp({b_log_a}, prec, rnd)"))
        l1 = self.div(a1, v)
        p1 = self.add(self.mul(b1, lv), self.mul(w, l1))
        ep1 = self.mul(e, p1)
        square = self.div(self.mul(self.neg(a1), a1), self.call("mpf_mul", v, v))
        p2 = self.add(self.add(self.mul(b2, lv), self.twice(b1, l1)),
                      self.mul(w, self.add(square, self.div(a2, v))))
        return e, ep1, self.add(self.mul(ep1, p1), self.mul(e, p2))

    def negate(self, u):
        return self.call("mpf_neg", u[0]), self.neg(u[1]), self.neg(u[2])

    def function(self, op, u):
        v, u1, u2 = u
        if op == "log":
            self.fail(f"mpf_le({v}, fzero)", f'f"log of nonpositive value {{to_str({v}, 8)}}"')
        if op == "sqrt":
            self.fail(f"mpf_lt({v}, fzero)", f'f"sqrt of negative value {{to_str({v}, 8)}}"')
        if self.jet and op in ("sqrt", "cbrt", "abs"):
            self.fail(f"_zero({v})", f'"derivative of {op} at 0"')
        if op == "cbrt":  # real odd root
            r = self.call("mpf_mul", f"_sign({v})", self.call("mpf_cbrt", self.call("mpf_abs", v)))
        elif op == "tanh":  # s/c, and sech = 1/c below, from one cosh_sinh call
            c, s, r = self.name(), self.name(), self.name()
            if self.jet:
                self.line(f"{c}, {s} = " + _guarded(op, v, f"mpf_cosh_sinh({v}, prec + 10, rnd)"))
                self.line(f"{r} = mpf_div({s}, {c}, prec, rnd)")
            else:  # the call works at +14 bits; where it gives c = s, take the sign, in
                # one assignment, which liveness drops where no output reads r
                self.line(f"{r} = _sign({v}) if _tanh_saturates({v}, prec + 24) else "
                          f"mpf_div(*mpf_cosh_sinh({v}, prec + 10, rnd)[::-1], prec, rnd)")
        elif op == "sin" or op == "cos":  # the bits of mpf_sin and mpf_cos
            c, s = self.name(), self.name()
            self.line(f"{c}, {s} = " + _guarded(op, v, f"mpf_cos_sin({v}, prec, rnd)"))
            r = s if op == "sin" else c
        elif op == "tan" or op == "exp":  # one libmp call, as mpmath makes
            r = self.let(_guarded(op, v, f"mpf_{op}({v}, prec, rnd)"))
        else:  # abs, log, sqrt
            r = self.call(f"mpf_{op}", v)
        if op == "log":
            return r, self.div(u1, v), self.add(
                self.div(self.mul(self.neg(u1), u1), self.call("mpf_mul", v, v)), self.div(u2, v))
        if op == "abs":
            sign = self.let(f"_sign({v})")
            return r, self.mul(sign, u1), self.mul(sign, u2)
        if op == "sin" or op == "cos":
            gp, gpp = c if op == "sin" else self.call("mpf_neg", s), self.call("mpf_neg", r)
        elif op == "exp":
            gp = gpp = r
        elif op == "tan":
            gp = self.call("mpf_add", self.call("mpf_mul", r, r), "fone")
            gpp = self.call("mpf_mul", self.call("mpf_mul_int", r, 2), gp)
        elif op == "tanh":
            sech = self.let(f"mpf_pos(mpf_div(fone, {c}, prec + 10, rnd), prec, rnd)")
            gp = self.call("mpf_pow_int", sech, 2)  # 1 - r*r underflows for large |v|
            gpp = self.call("mpf_mul", self.call("mpf_mul_int", r, -2), gp)
        elif op == "sqrt":
            gp = self.call("mpf_rdiv_int", 1, self.call("mpf_mul_int", r, 2))
            gpp = self.call("mpf_div", self.call("mpf_neg", gp), self.call("mpf_mul_int", v, 2))
        else:  # cbrt
            r2 = self.call("mpf_mul", r, r)
            gp = self.call("mpf_rdiv_int", 1, self.call("mpf_mul_int", r2, 3))
            gpp = self.call("mpf_rdiv_int", -2, self.call(
                "mpf_mul", self.call("mpf_mul", self.call("mpf_mul_int", r2, 9), r2), r))
        # the chain rule: g(u)' = g'(v) u', g(u)'' = g''(v) u'^2 + g'(v) u''
        return r, self.mul(gp, u1), self.add(self.mul(self.mul(gpp, u1), u1), self.mul(gp, u2))


# the names the compiled source uses besides its arguments, and those the
# solver's ladder computes with; ``_zero`` tests an operand of a domain check
_NAMESPACE = {name: globals()[name] for name in (
    "Breakdown", "_beyond", "_sign", "_tanh_saturates", "_too_large", "fnone", "fone", "ftwo",
    "fzero", "mpf_abs", "mpf_add", "mpf_cbrt", "mpf_cos_sin", "mpf_cosh_sinh", "mpf_div",
    "mpf_exp", "mpf_gt", "mpf_le", "mpf_log", "mpf_lt", "mpf_mul", "mpf_mul_int", "mpf_neg",
    "mpf_pos", "mpf_pow", "mpf_pow_int", "mpf_rdiv_int", "mpf_sqrt", "mpf_sub", "mpf_tan",
    "to_int", "to_str")}
_NAMESPACE.update(rnd=_RND, DOMAIN=Breakdown.DOMAIN, _zero=fzero.__eq__)


@lru_cache(maxsize=None)
def _series_namespace() -> dict:
    """The same names on truncated power series: the same source computes
    Taylor coefficients there, and its domain checks judge the constant terms.

    ``series`` is imported on first use: only map derivatives need it, and
    where Python caches no bytecode every module imported at start-up costs
    its compile (about 3 ms for ``series``) in every run.
    """
    from . import series
    return {**_NAMESPACE, **series.NAMES}


# what compiled code can return, and the output set of the jet of each order
_OUTPUTS = ("f", "d1", "d2")
_JETS = {0: ("f",), 1: ("f", "d1"), 2: ("f", "d1", "d2")}
# an assignment of the source at any depth, and a name it assigns, wherever it appears
_ASSIGNMENT = re.compile(r" *(t\d+(?:, t\d+)*) = ")
_NAME = re.compile(r"\bt\d+\b")


def _live(lines: list, returned: str) -> list:
    """The lines of a ``_Source`` that the returned names need: backward liveness.

    An assignment, at any depth, stays when a line kept after it reads a
    name it sets.  Every name is assigned once, but for a branch block's
    merged names, which each branch assigns, so a name once live stays live.
    Every other line stays: a domain check, so that the code raises the
    Breakdown of the full jet, with its message, at the same point, and a
    branch header; a block that pruning empties gets ``pass``.  What stays
    keeps its order, so the calls that remain are made as the full jet makes
    them.  The one Breakdown that is not kept is a transcendental's of an
    argument ``_beyond`` the precision: it sits in the call's own assignment,
    so code that drops the call does not raise it, just as value-code tanh,
    which saturates, does not raise it where the jet does.
    """
    live, kept = set(_NAME.findall(returned)), []
    for line in reversed(lines):
        assigned = _ASSIGNMENT.match(line)
        if assigned is None or live.intersection(assigned.group(1).split(", ")):
            block = line[:len(line) - len(line.lstrip())] + "    "
            if line.endswith(":") and not (kept and kept[-1].startswith(block)):
                kept.append(block + "pass")  # a header whose block pruning emptied
            kept.append(line)
            live.update(_NAME.findall(line))
    kept.reverse()
    return kept


# shared by every Expression with the same tape: run_table, for one, parses
# its function afresh on every run
@lru_cache(maxsize=256)
def _compile(tape: tuple, outputs: tuple, on_series: bool = False):
    """The tape as one function ``run(x, prec, literals)`` of libmp calls that
    returns ``outputs``: one of "f", "d1" and "d2" bare, several as a tuple.
    With ``on_series`` the same source runs against ``series.NAMES``.

    ``_Source`` writes value code for f alone and the full jet for every
    other output set, and ``_live`` drops every assignment, at any depth,
    that no output reads, so ("d1",) makes only the calls of the jet that f'
    needs, and every domain check of the jet.  Passive work goes the same
    way: folding leaves a passive operand's derivatives ``fzero``, and
    liveness drops the calls that only those would have read.  This is the
    library's one ``exec``.  The source holds names, integers and the fixed
    texts of ``_Source``: no text of the function enters it, and an
    instruction outside the grammar is refused, so a tape cannot inject code.
    """
    source = _Source(outputs != ("f",))
    stack, literals = [], 0
    for op, arg in tape:
        if op == "x":
            stack.append(("x", _ONE if source.jet else _ZERO, _ZERO))
        elif op == "num" or op == "const":
            stack.append((f"L{literals}", _ZERO, _ZERO))
            if op == "num" and re.fullmatch("[0-9]+", arg) and int(arg) < 2 ** 32:
                source.integers[f"L{literals}"] = int(arg)
            literals += 1
        elif op in _BINARY:
            b = stack.pop()
            stack[-1] = source.binary(op, arg, stack[-1], b)
        elif op == "neg":
            stack[-1] = source.negate(stack[-1])
        elif op in FUNCTIONS:
            stack[-1] = source.function(op, stack[-1])
        else:
            raise ValueError(f"unknown tape instruction {op!r}")
    unpack = "".join(f"L{i}, " for i in range(literals)) + "= literals"
    returned = ", ".join(stack[0][_OUTPUTS.index(name)] for name in outputs)
    scope = {}
    exec("\n".join(["def run(x, prec, literals):", f"    {unpack}" if literals else "",
                    *_live(source.lines, returned), f"    return {returned}"]),
         _series_namespace() if on_series else _NAMESPACE, scope)
    return scope["run"]


def _eval(expr: Expression, x, outputs, prec: int):
    """Evaluate ``outputs`` of the tape at the raw mpf ``x`` with every
    operation rounded to ``prec`` bits.

    ``outputs`` is an output set of ``_compile``, or an order 0, 1 or 2,
    which stands for the output set of its jet: f, (f, f') or (f, f', f'').
    The tape is compiled once per output set, on first use, and the
    Expression keeps the code, which takes ``prec`` and the literals at
    ``prec`` as arguments, so a new precision compiles nothing.  The code
    takes and returns raw ``mpmath.libmp`` tuples and never reads or sets
    the mpmath context, so concurrent calls do not interfere; callers that
    want mpf values wrap them with ``mp.make_mpf``.  Each call is the libmp
    call mpf's operator or function would make under ``mp.workprec(prec)``,
    so the bits are those of plain mpf arithmetic of the same formulas: the
    code folds the calls whose result it knows (see ``_Source``), which
    holds at a finite x, the only kind any caller passes (at inf, 0·x is
    NaN, not 0).  ``prec`` is at least 32 bits, so that an integer exponent
    below 2^32 is exact.
    Order 0 returns f(x) and applies only the value-level domain rules.
    Order 1 returns (f, f') and order 2 (f, f', f''); both add the
    derivative-level rules: no sqrt, cbrt or abs at 0, no real or variable
    power of a nonpositive base.  Every order computes a value by the same
    formula, so where order 0 and the jets both evaluate, f has the same bits.
    An output set with f' or f'' applies the derivative-level rules and gives
    the bits of the order-2 jet's outputs, and ("d1",) its f' alone.
    """
    run = expr._code.get(outputs)
    if run is None:  # racing threads compile equal code; either may stay cached
        run = expr._code[outputs] = _compile(expr.tape, _JETS.get(outputs, outputs))
    return run(x, prec, _literals_at(expr, prec))


def _eval_series(expr: Expression, x, outputs, prec: int):
    """``_eval`` on the truncated power series x (``series``): the Taylor
    coefficients of each output at x's constant term, with the breakdowns of
    ``_eval`` there.  The constant terms have the bits of ``_eval`` at it."""
    key = ("series", outputs)
    run = expr._code.get(key)
    if run is None:
        run = expr._code[key] = _compile(expr.tape, _JETS.get(outputs, outputs), True)
    return run(x, prec, _literals_at(expr, prec))


def eval_jet(expr: Expression, x, precision: int) -> Jet2:
    """(f, f', f'') at a finite ``x`` with ``precision`` (at least ``MIN_DIGITS``) digits."""
    prec = working_prec(precision)
    x = as_mpf(x, prec)._mpf_
    _check_finite("x", [x])
    return Jet2(*(BigReal(mp.make_mpf(v), precision) for v in _eval(expr, x, 2, prec)))


def eval_value(expr: Expression, x, precision: int) -> BigReal:
    """Evaluate f(x) only; no derivative-level domain restrictions.

    ``precision`` must be at least ``MIN_DIGITS``; a point that is not a
    BigReal is converted at its working precision, and must be finite, as in
    ``eval_jet``.
    """
    prec = working_prec(precision)
    x = as_mpf(x, prec)._mpf_
    _check_finite("x", [x])
    return BigReal(mp.make_mpf(_eval(expr, x, 0, prec)), precision)
