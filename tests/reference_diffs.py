"""Reference map derivatives by mpmath's ``diffs``.

``analysis.map_derivatives_at`` runs the map on truncated power series.  This
is the finite-difference way it replaced: ``diffs`` takes central differences
of the map with a step below the working precision, sampling it at
(max_order + 2) times the working bits plus guard bits, so truncation and
roundoff stay below the working precision.  It runs on a private mpmath
context made per call, so the global one is neither read nor set; a
Breakdown of the map at any sample point propagates.  ``test_analysis.py``
compares the series derivatives against it.
"""

import mpmath as mp

from cotesroot.bigreal import BigReal, as_mpf, working_prec
from cotesroot.solver import _method_map


def reference_map_derivatives(m, f, z, max_order, precision):
    """Derivatives 1..max_order of the map ``m`` on f at z, as BigReals."""
    ctx = mp.MPContext()
    ctx.prec = working_prec(precision)
    z = ctx.make_mpf(as_mpf(z, ctx.prec)._mpf_)
    bound = (10**6 * (1 + abs(z)))._mpf_  # every ladder node stays inside 10^6 (1 + |z|)
    # each sample of the map runs at the precision diffs sets for it
    _, *derivs = ctx.diffs(
        lambda x: ctx.make_mpf(_method_map(m, f, precision, ctx.prec, bound)(x._mpf_)), z, max_order)
    return [BigReal(mp.make_mpf(d._mpf_), precision) for d in derivs]
