"""Fraction Gauss-Jordan reference solves for the tests.

rref and solve_membership eliminate over the rationals with immediate pivot
normalization, the textbook way, independently of the integer echelon and
the certified rank of movsurf.linalg.  The tests check the integer core
against them; the package does not use them.
"""

from fractions import Fraction
from typing import NamedTuple

from movsurf.linalg import RatMatrix


class RrefResult(NamedTuple):
    R: RatMatrix
    pivots: list
    transform: RatMatrix


def _eliminate(rows, trows=None):
    """Gauss-Jordan in place.  Returns pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            if trows is not None:
                trows[r], trows[pr] = trows[pr], trows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = 1 / pv
            rows[r] = [x * inv for x in rows[r]]
            if trows is not None:
                trows[r] = [x * inv for x in trows[r]]
        prow = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i == r or not f:
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
            if trows is not None:
                tp = trows[r]
                trows[i] = [a - f * b for a, b in zip(trows[i], tp)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(A):
    """Reduced row echelon form with the invertible transform.

    Returns (R, pivots, transform) with R = transform * A.
    """
    rows = [list(r) for r in A.entries]
    trows = [[Fraction(int(i == j)) for j in range(A.rows)]
             for i in range(A.rows)]
    pivots = _eliminate(rows, trows)
    return RrefResult(RatMatrix(rows, _trusted=True), pivots,
                      RatMatrix(trows, _trusted=True))


def solve_membership(A, b):
    """Solve A x = b exactly; None when b is outside the column span."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch: %d rows, vector of %d"
                         % (A.rows, len(b)))
    aug = RatMatrix([row + [x] for row, x in zip(A.entries, b)])
    R, pivots, _ = rref(aug)
    if pivots and pivots[-1] == A.cols:
        return None
    x = [Fraction(0)] * A.cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r, A.cols]
    return x
