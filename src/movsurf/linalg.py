"""Dense exact rational linear algebra.

RREF, ranks, kernels and membership solves use Gauss-Jordan elimination over
Fraction with immediate pivot normalization; rows with a zero in the pivot
column are never touched, which keeps the very sparse multiplication matrices
of this package cheap.  Determinants use fraction-free Bareiss elimination
over integers after clearing row denominators; a matrix whose entries are
already ints (the integer evaluation grid of the interpolated determinant)
goes through the same routine with no Fraction arithmetic until the result.

Pivoting is always "first nonzero in column order": arithmetic is exact, so
pivot choice is about reproducibility, not stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .ring import content_normalize


class RatMatrix:
    """Immutable dense matrix of Fractions, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, _trusted=False):
        if _trusted:
            rows = entries
        else:
            rows = [[Fraction(x) for x in row] for row in entries]
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
                   _trusted=True)

    @classmethod
    def from_columns(cls, columns, nrows):
        return cls([[col[i] for col in columns] for i in range(nrows)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def row(self, i):
        return list(self.entries[i])

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch: %d cols, vector of %d"
                             % (self.cols, len(v)))
        return [sum((r[j] * v[j] for j in range(self.cols) if v[j]),
                    Fraction(0)) for r in self.entries]

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.entries[i]
            out.append([sum((ri[k] * other.entries[k][j]
                             for k in range(self.cols) if ri[k]), Fraction(0))
                        for j in range(other.cols)])
        return RatMatrix(out, _trusted=True)

    def __repr__(self):
        return "RatMatrix(%d x %d)" % (self.rows, self.cols)


class RrefResult(NamedTuple):
    R: RatMatrix
    pivots: list
    transform: RatMatrix


@dataclass(frozen=True)
class KernelBasis:
    dim: int
    vectors: list  # canonical: coprime integers, first nonzero positive


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


def _int_rows(entries):
    """Denominator-cleared, gcd-reduced integer rows; zero rows dropped."""
    out = []
    for row in entries:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g == 0:
            continue
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def rank(A):
    """Rank by fraction-free forward elimination over the integers.

    Row contents stay gcd-reduced, so entries remain small on the sparse
    matrices this package produces; rows keep an all-zero prefix up to the
    current sweep column, which the inner loop skips.
    """
    rows = _int_rows(A.entries)
    ncols = A.cols
    nrows = len(rows)
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
        prow = rows[r][c:]
        p = prow[0]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if not f:
                continue
            new = [a * p - f * b for a, b in zip(rows[i][c:], prow)]
            g = 0
            for x in new:
                g = gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                new = [x // g for x in new]
            rows[i] = [0] * c + new
        r += 1
        if r == nrows:
            break
    return r


def kernel_basis(A):
    """Canonical basis of the right kernel, one vector per free column."""
    rows = [list(r) for r in A.entries]
    pivots = _eliminate(rows)
    pivot_set = set(pivots)
    vectors = []
    for free in range(A.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * A.cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        vectors.append(content_normalize(v))
    return KernelBasis(dim=len(vectors), vectors=vectors)


class SpanSolver:
    """Factor a matrix once, then answer `A x = b` queries for many b."""

    def __init__(self, A):
        self.A = A
        R, pivots, T = rref(A)
        self.R = R
        self.pivots = pivots
        self.T = T
        self.rank = len(pivots)

    def solve(self, b):
        """A coefficient vector x with A x = b, or None if b is not in the span."""
        if len(b) != self.A.rows:
            raise ValueError("dimension mismatch: %d rows, vector of %d"
                             % (self.A.rows, len(b)))
        tb = self.T.matvec(b)
        for i in range(self.rank, self.A.rows):
            if tb[i]:
                return None
        x = [Fraction(0)] * self.A.cols
        for r, pc in enumerate(self.pivots):
            x[pc] = tb[r]
        return x

    def contains(self, b):
        return self.solve(b) is not None


def solve_membership(A, b):
    """Solve A x = b exactly; None when b is outside the column span."""
    return SpanSolver(A).solve(b)


def invert(A):
    """Inverse of a square matrix, or None if singular."""
    if A.rows != A.cols:
        raise ValueError("inverse of non-square matrix")
    R, pivots, T = rref(A)
    if len(pivots) != A.rows:
        return None
    return T


def det_bareiss(A):
    """Exact determinant by fraction-free Bareiss elimination.

    Entries may be ints or Fractions; each row is cleared to integers by the
    lcm of its denominators, and the result divided by their product.
    """
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square %d x %d matrix"
                         % (A.rows, A.cols))
    n = A.rows
    if n == 0:
        return Fraction(1)
    scale = 1
    m = []
    for row in A.entries:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        scale *= den
        m.append([x.numerator * (den // x.denominator) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return Fraction(0)
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mi = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pkk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pkk
    return Fraction(sign * m[n - 1][n - 1], scale)
