"""Reference solves for the tests.

rref and solve_membership eliminate over the rationals with immediate pivot
normalization, the textbook way, independently of the integer echelon and
the certified rank of movsurf.linalg.  modular_basis is the row-by-row
reduced echelon form modulo a prime on plain lists, the reference for the
packed linalg._modular_basis.  det_cofactor is memoized minor expansion of
an MMatrix over XPoly, the reference for the interpolated determinant.  The
tests check the integer core against them; the package does not use them.
"""

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from movsurf.linalg import RatMatrix
from movsurf.ring import XPoly


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

    Returns (R, pivots, transform) with R = transform * A.  The entries are
    converted to Fractions first, so that the divisions stay exact.
    """
    rows = [[Fraction(x) for x in r] for r in A.entries]
    trows = [[Fraction(int(i == j)) for j in range(A.rows)]
             for i in range(A.rows)]
    pivots = _eliminate(rows, trows)
    return RrefResult(RatMatrix(rows), pivots, RatMatrix(trows))


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


def modular_basis(rows, ncols, p):
    """Reduced row echelon form modulo p, built one row at a time, on lists.

    Returns (basis, free, used) as linalg._modular_basis does: free lists
    the non-pivot columns; basis maps each pivot column, in the order the
    pivots were found, to its row at the free columns, as integers
    congruent to it mod p; used lists the indices of the rows that gave
    the pivots.  Stops once every column is a pivot.
    """
    free = list(range(ncols))
    basis = {}
    used = []
    for i, row in enumerate(rows):
        # every basis row is 0 at the other pivots, so each pivot entry of
        # the row is its coefficient in the reduction
        hits = [(c, f) for c in basis if (f := row[c] % p)]
        x = [row[j] for j in free]
        if hits:
            fs = [f for _, f in hits]
            cols = zip(*[basis[c] for c, _ in hits])
            y = [(a - sum(map(mul, fs, col))) % p for a, col in zip(x, cols)]
        else:
            y = [a % p for a in x]
        k = next((k for k, a in enumerate(y) if a), None)
        if k is None:
            continue
        c = free.pop(k)
        inv = pow(y.pop(k), -1, p)
        y = [a * inv % p for a in y]
        for d, prow in basis.items():
            f = prow.pop(k) % p
            if f:
                basis[d] = [a - f * b for a, b in zip(prow, y)]
        basis[c] = y
        used.append(i)
        if not free:
            break
    return basis, free, used


def det_cofactor(M):
    """Minor expansion along rows, memoized on (row, remaining columns)."""
    n = M.size
    memo = {}

    def minor(r, cols):
        if not cols:
            return XPoly.monomial((0, 0, 0, 0))
        key = (r, cols)
        got = memo.get(key)
        if got is not None:
            return got
        acc = XPoly.zero()
        row = M.entries[r]
        for pos, c in enumerate(cols):
            e = row[c]
            if e.is_zero():
                continue
            sub = minor(r + 1, cols[:pos] + cols[pos + 1:])
            term = e * sub
            acc = acc + (-term if pos % 2 else term)
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))
