"""Reference LU solve on mpf operators.

``multivariate._lu`` runs LU with partial pivoting on raw ``mpmath.libmp``
tuples at the working precision of the precision it is passed.  This copy
does the same on mpf's operators, so every operation rounds at the
precision of the active ``mp.workdps`` context; called under
``mp.workdps(working_dps(precision))`` it must return the same bits and raise
the same ``singular_matrix`` or ``nonfinite`` Breakdown message, which
``test_multivariate.py`` checks.
"""

import mpmath as mp

from cotesroot.errors import Breakdown


def reference_lu_solve(matrix, rhs, precision):
    """Ax = b by LU with partial pivoting; a ``singular_matrix`` Breakdown on a
    pivot at most 10^(5 - precision) of the largest |entry| of its row of A,
    a ``nonfinite`` one when the largest |entry| of A is infinite or NaN."""
    d = len(rhs)
    a = [row[:] for row in matrix]
    b = rhs[:]
    scale = max((abs(v) for row in a for v in row), default=mp.mpf(0))
    if not mp.isfinite(scale):
        raise Breakdown(Breakdown.NONFINITE, "a value became NaN or infinite")
    thresholds = [mp.mpf(10) ** (5 - precision) * max(abs(v) for v in row) for row in a]
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(a[r][col]))
        if abs(a[pivot_row][col]) <= thresholds[pivot_row]:
            raise Breakdown(Breakdown.SINGULAR_MATRIX, f"pivot below threshold in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
            thresholds[col], thresholds[pivot_row] = thresholds[pivot_row], thresholds[col]
        inv = 1 / a[col][col]
        for row in range(col + 1, d):
            factor = a[row][col] * inv
            if factor == 0:
                continue
            for j in range(col, d):
                a[row][j] -= factor * a[col][j]
            b[row] -= factor * b[col]
    x = [mp.mpf(0)] * d
    for row in range(d - 1, -1, -1):
        acc = b[row]
        for j in range(row + 1, d):
            acc -= a[row][j] * x[j]
        x[row] = acc / a[row][row]
    return x
