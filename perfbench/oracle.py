"""Reference answers computed with plain mpmath, never with cotesroot.

Every scalar family carries its own mpmath definition of f, so neither the
parser nor the evaluator under test is involved in judging its output.
"""

from __future__ import annotations

import mpmath as mp


class OracleError(RuntimeError):
    """The reference root could not be found or certified."""


def certified_root(fn, start: str, digits: int) -> mp.mpf:
    """Root of ``fn`` near ``start`` to ``digits`` digits.

    ``mpmath.findroot`` runs at ``digits + 20``; the result is accepted only
    when ``fn`` changes sign across ``[r - 10^-(digits+10), r + 10^-(digits+10)]``.
    """
    with mp.workdps(digits + 20):
        try:
            r = mp.findroot(fn, mp.mpf(start))
        except ValueError as exc:
            raise OracleError(f"findroot failed from {start}: {exc}") from exc
        delta = mp.mpf(10) ** -(digits + 10)
        if mp.sign(fn(r - delta)) * mp.sign(fn(r + delta)) >= 0:
            raise OracleError(f"no sign change of f around {mp.nstr(r, 20)}")
        return +r


def tolerance(digits: int, root, multiplicity: int = 1) -> mp.mpf:
    """Largest accepted |x - z| for an answer asked for at ``digits``.

    A simple root must be right to ``digits - 10`` digits, relative to
    ``max(1, |z|)``.  The solver stops once |f(x)| < 10^(10-digits), and at a
    root of multiplicity m, where f ~ c (x - z)^m, that certifies only the
    m-th root of the tolerance; one extra decimal covers the constant c.
    """
    with mp.workdps(digits + 20):
        scale = max(mp.mpf(1), abs(root))
        if multiplicity == 1:
            return mp.mpf(10) ** (10 - digits) * scale
        return mp.mpf(10) ** (mp.mpf(10 - digits) / multiplicity + 1) * scale


def within(x, root, tol, digits: int) -> bool:
    with mp.workdps(digits + 20):
        return abs(mp.mpf(x) - root) <= tol
