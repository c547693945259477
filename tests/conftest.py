"""Shared test helpers: independent reference-root oracles."""

from __future__ import annotations

import mpmath as mp
import pytest


def bisect_mpf(fn, lo, hi, dps):
    """Plain bisection on an mpf callable; independent of the package code."""
    with mp.workdps(dps):
        a, b = mp.mpf(lo), mp.mpf(hi)
        fa = fn(a)
        assert mp.sign(fa) != mp.sign(fn(b)), "bracket must change sign"
        target = mp.mpf(10) ** (10 - dps)
        while b - a > target:
            mid = (a + b) / 2
            if mid == a or mid == b:
                break
            fm = fn(mid)
            if fm == 0:
                return mid
            if mp.sign(fm) == mp.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        return (a + b) / 2


def cubic(x):
    return x**3 + 2 * x - 5


@pytest.fixture(scope="session")
def cubic_root_10000():
    """Root of x^3 + 2x - 5 to ~10400 digits (4x the largest working precision
    used in the order measurements).

    Bisection to about 40 digits seeds ``mp.findroot`` at 10400 digits; the
    result is then certified as bisection's would be: f changes sign across
    an interval of the width of bisection's final bracket, 10^(10 - dps),
    centred on it.
    """
    dps = 10400
    seed = bisect_mpf(cubic, 1, 2, 50)
    with mp.workdps(dps):
        root = mp.findroot(cubic, seed)
        half_width = mp.mpf(10) ** (10 - dps) / 2
        if mp.sign(cubic(root - half_width)) == mp.sign(cubic(root + half_width)):
            pytest.fail("polished root is not bracketed by a sign change of f")
    return root
