"""Dense exact rational linear algebra.

RatMatrix is only a shape around nested lists of ints or Fractions.
Kernels and changes of basis share one fraction-free integer echelon: rows
are cleared of denominators and gcd-reduced, then eliminated over Z with
their contents kept reduced.  kernel_basis back-solves each kernel vector
from this forward echelon alone.  reduced_echelon back-substitutes it to a
scaled reduced echelon form, from which the implicitization reads its
unit-pivot bases and saturation its lattice.

Integer kernels (integer_kernel) are computed modulo primes and certified
over Z.  Modulo the first prime, r pivots give a nonzero r x r minor, so
the rank is at least r.  Below full rank, one kernel vector per free column
is lifted through further primes by CRT and rational reconstruction, and
checked against every row over Z; independent kernel vectors in that
number bound the rank by r from above, so they span the kernel.  No answer
rests on chance: whatever cannot be certified so (an unlucky prime, a
kernel too large for the primes, a failed check) is the kernel_basis of
the integer echelon instead, the same vectors up to content.  Ranks
(integer_rank, and rank for a RatMatrix) are the column count minus the
size of that kernel, taken in the orientation with fewer columns.

Both halves of the certificate work on packed integers, in the manner of
Dumas, Fousse and Salvy, "Simultaneous modular reduction and Kronecker
substitution for small finite fields" (J. Symb. Comput. 46, 2011): the
modular echelon keeps each basis row as one Python int with one slot of a
fixed bit width per free column, wide enough that unreduced nonnegative
updates never carry into the next slot, and the check over Z packs all
kernel vectors into one vector of ints, so each row takes one dot product.
Both are exact; no floating point is involved.

Determinants use one fraction-free Bareiss loop over the integers,
det_integer: the interpolated determinant hands it the int rows of each grid
point, and det_bareiss hands it the rows of a RatMatrix cleared of
denominators.

Two lattice routines shrink the integer rows of M before the determinant
grid, exactly.  saturation returns a basis of the integer vectors in the
rational span of independent integer rows, built as a Hermite basis modulo
the common denominator of their reduced echelon form.  lll reduces a
lattice basis with the integral LLL algorithm (Cohen, Alg. 2.6.7), whose
Gram-Schmidt data are integers.

The tests check this integer core against Fraction Gauss-Jordan reference
solves in tests/oracle.py, which the package does not use.

Pivoting is always "first nonzero in column order": arithmetic is exact, so
pivot choice is about reproducibility, not stability.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .ring import clear, content_normalize, primitive


class RatMatrix:
    """Dense matrix of rationals, ints or Fractions, as row-major nested
    lists: the shape and entries that kernel_basis, rank and det_bareiss
    read.  The entries are kept as given."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        ncols = len(entries[0]) if entries else 0
        if any(len(row) != ncols for row in entries):
            raise ValueError("ragged rows")
        self.rows = len(entries)
        self.cols = ncols
        self.entries = entries

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)


@dataclass(frozen=True)
class KernelBasis:
    dim: int
    vectors: list  # canonical: coprime integers, first nonzero positive


def _int_rows(entries):
    """Denominator-cleared, gcd-reduced integer rows; zero rows dropped."""
    return [row for row in map(primitive, entries) if any(row)]


def _combine(row, prow, p, f):
    """p*row - f*prow, divided by its content."""
    new = [a * p - f * b for a, b in zip(row, prow)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


class Echelon(NamedTuple):
    pivots: list   # pivot column of each row, increasing
    rows: list     # gcd-reduced integer rows, row r zero before pivots[r]


def echelon(entries, ncols):
    """Fraction-free forward elimination of rows over the integers.

    Row contents stay gcd-reduced, so entries remain small on the sparse
    matrices this package produces; rows keep an all-zero prefix up to the
    current sweep column, which the inner loop skips.
    """
    rows = _int_rows(entries)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
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
            rows[i] = [0] * c + _combine(rows[i][c:], prow, p, f)
        pivots.append(c)
        r += 1
    return Echelon(pivots, rows[:r])


# Primes just below 2**30, written out so that importing the module does no
# work.  The certified kernel takes them in this order; together they
# reconstruct kernel vectors with entries up to about 59 bits, and a larger
# kernel falls back to kernel_basis.
_PRIMES = (1073741789, 1073741783, 1073741741, 1073741723)


def _pack(values, nbytes):
    """The nonnegative values, each below 2**(8*nbytes), as one int with
    values[j] in slot j, slot 0 lowest."""
    return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(nbytes),
                                       repeat("little"))), "little")


def _unpack(x, nslots, nbytes):
    """The nslots slot values of a packed int, slot 0 first."""
    width = 8 * nbytes
    mask = (1 << width) - 1
    return [x >> shift & mask for shift in range(0, nslots * width, width)]


def _modular_basis(rows, ncols, p):
    """Reduced row echelon form modulo p, built one row at a time.

    Returns (basis, free, used).  free lists the columns that are not
    pivots; basis maps each pivot column, in the order the pivots were
    found, to its row at the free columns (it is 1 at its own pivot and 0
    at the other pivots), as integers congruent to it mod p; used lists the
    indices of the rows that gave the pivots.  Stops once every column is a
    pivot.

    While it runs, each basis row is one int that packs its entries at the
    free columns, slot j at bits [j*W, (j+1)*W), so one big-int
    multiply-add updates a whole row.  W is the multiple of 8 at or above
    3*bits(p) + 2*bits(ncols) + 1.  Slots stay nonnegative: a multiple f
    of a row is subtracted by adding (p - f) times it, unreduced.  A basis
    row enters with slots below p and gains less than p**2 per later
    pivot, so its slots stay below (ncols+1)*p**2; the reduction of an
    incoming row adds at most ncols such rows, each times less than p, so
    its slots stay below ncols*(ncols+1)*p**3 < 2**W and never carry into
    the next slot.
    """
    nbytes = (3 * p.bit_length() + 2 * ncols.bit_length() + 8) // 8
    width = 8 * nbytes
    mask = (1 << width) - 1
    free = list(range(ncols))
    basis = {}
    used = []
    for i, row in enumerate(rows):
        # every basis row is 0 at the other pivots, so each pivot entry of
        # the row is its coefficient in the reduction
        acc = sum([(p - f) * prow for c, prow in basis.items()
                   if (f := row[c] % p)])
        if acc:
            y = [(row[j] + a) % p
                 for j, a in zip(free, _unpack(acc, len(free), nbytes))]
        else:
            y = [row[j] % p for j in free]
        k = next((k for k, a in enumerate(y) if a), None)
        if k is None:
            continue
        c = free.pop(k)
        inv = pow(y.pop(k), -1, p)
        y = _pack([a * inv % p for a in y], nbytes)
        # drop slot k of each basis row and clear its entry there
        shift = k * width
        low = (1 << shift) - 1
        for d, prow in basis.items():
            f = (prow >> shift & mask) % p
            prow = (prow & low) | (prow >> (shift + width) << shift)
            basis[d] = prow + (p - f) * y if f else prow
        basis[c] = y
        used.append(i)
        if not free:
            break
    nfree = len(free)
    return ({c: _unpack(x, nfree, nbytes) for c, x in basis.items()},
            free, used)


def _reconstruct(residues, modulus):
    """Integers w and D > 0 with w_i = D * x_i for the rationals x_i that the
    residues mod modulus stand for, or None.

    Rational reconstruction with a common denominator: D and each
    numerator found on the way stay below sqrt(modulus / 2).
    """
    bound = isqrt(modulus // 2)
    den = 1
    parts = []
    for x in residues:
        y = x * den % modulus
        if y > modulus - bound:
            num, b = y - modulus, 1
        else:
            r0, r1, s0, s1 = modulus, y, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            num, b = (r1, s1) if s1 > 0 else (-r1, -s1)
            den *= b
            if den > bound or gcd(num, b) != 1:
                return None
        parts.append((num, den))
    return [num * (den // d) for num, d in parts], den


def _lift_kernel(free, pivots, residues, modulus, ncols):
    """The integer kernel vectors that the residues stand for, or None.

    residues[k][i] is the entry of the reduced basis row of pivots[i] at
    free[k], mod modulus: minus the kernel vector of free[k] there.
    """
    vectors = []
    for f, column in zip(free, residues):
        found = _reconstruct(column, modulus)
        if found is None:
            return None
        w, den = found
        v = [0] * ncols
        v[f] = den
        for c, x in zip(pivots, w):
            v[c] = -x
        vectors.append(v)
    return vectors


def _annihilates(rows, vectors):
    """Whether every row times every vector is 0 over Z, with one packed
    sum per row.

    V_j = sum_t v_t[j] * 2**(S*t) packs the vectors, and row . V is the
    base-2**S expansion with digits row . v_t.  With
    S = bits(max|row|) + bits(max|v|) + bits(ncols) + 1, every digit has
    absolute value below 2**(S-1), and such an expansion is 0 only when
    every digit is: its lowest nonzero digit d would leave d plus a
    multiple of 2**S, which is not 0.
    """
    row_bits = max(max(max(row), -min(row)) for row in rows).bit_length()
    vec_bits = max(max(max(v), -min(v)) for v in vectors).bit_length()
    S = row_bits + vec_bits + len(vectors[0]).bit_length() + 1
    V = [sum(v[j] << (S * t) for t, v in enumerate(vectors) if v[j])
         for j in range(len(vectors[0]))]
    return all(not sum(map(mul, row, V)) for row in rows)


def integer_kernel(rows, ncols):
    """Basis of the right kernel of a list of integer rows of length ncols:
    one integer vector per free column f, nonzero at f and 0 at the other
    free columns, with coprime entries.

    Modulo the first prime the rows give r pivots; a nonzero r x r minor
    mod p is nonzero over Z, so the rank is at least r, and r = ncols
    settles it.  Otherwise the reduced basis rows give one kernel vector per
    free column, the identity there, so the ncols - r vectors are
    independent.  They are lifted through further primes (the same pivot
    rows, required to give the same pivot columns), combined by CRT and
    rationally reconstructed; once every row times every vector is 0 over Z
    (_annihilates, one packed dot product per row), the rank is at most r
    and the vectors span the kernel.  Any failure on the way returns the
    vectors of kernel_basis instead, as ints: the same up to content.
    """
    if not rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    modulus = _PRIMES[0]
    basis, free, used = _modular_basis(rows, ncols, modulus)
    if not free:
        return []
    pivots = list(basis)
    pivot_rows = [rows[i] for i in used]
    residues = [[row[k] % modulus for row in basis.values()]
                for k in range(len(free))]
    for q in _PRIMES[1:] + (None,):
        vectors = _lift_kernel(free, pivots, residues, modulus, ncols)
        if vectors is not None and _annihilates(rows, vectors):
            return vectors
        if q is None:
            break
        qbasis, _, _ = _modular_basis(pivot_rows, ncols, q)
        if list(qbasis) != pivots:
            break
        shift = pow(modulus, -1, q)
        residues = [[x + modulus * ((row[k] - x) * shift % q)
                     for x, row in zip(column, qbasis.values())]
                    for k, column in enumerate(residues)]
        modulus *= q
    return [[x.numerator for x in v]
            for v in kernel_basis(RatMatrix(rows)).vectors]


def integer_rank(rows, ncols):
    """Exact rank of a list of integer rows of length ncols: ncols minus
    the dimension of integer_kernel, taken in the orientation with at least
    as many rows as columns."""
    if len(rows) < ncols:
        rows, ncols = [list(col) for col in zip(*rows)], len(rows)
    return ncols - len(integer_kernel(rows, ncols))


def rank(A):
    """Exact rank of a RatMatrix: integer_rank of its cleared rows."""
    return integer_rank(_int_rows(A.entries), A.cols)


def reduced_echelon(entries, ncols):
    """The integer echelon form back-substituted over Z.

    Each pivot column is zero outside its own row, so dividing every row by
    its pivot entry gives the reduced row echelon form, which is unique for
    the given column order.
    """
    pivots, rows = echelon(entries, ncols)
    for r in range(len(rows) - 1, 0, -1):
        c = pivots[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r):
            f = rows[i][c]
            if not f:
                continue
            rows[i] = _combine(rows[i], prow, p, f)
    return Echelon(pivots, rows)


def kernel_basis(A):
    """Canonical basis of the right kernel, one vector per free column.

    The vector of a free column f is the kernel vector that is 1 at f and 0
    at the other free columns; it is unique, so after content normalization
    it is canonical.  It is back-solved from the forward echelon, pivot rows
    from last to first; rows whose pivot lies right of f give 0 and are
    skipped.  The vector is kept as an integer multiple of itself: when a
    pivot p does not divide the partial sum s of its row, the vector is
    first scaled by |p| / gcd(s, p).
    """
    pivots, rows = echelon(A.entries, A.cols)
    pivot_set = set(pivots)
    vectors = []
    for free in range(A.cols):
        if free in pivot_set:
            continue
        v = {free: 1}
        for r in range(bisect_left(pivots, free) - 1, -1, -1):
            pc, row = pivots[r], rows[r]
            s = sum(row[j] * x for j, x in v.items())
            if not s:
                continue
            p = row[pc]
            if s % p:
                g = abs(p) // gcd(s, p)
                v = {j: x * g for j, x in v.items()}
                s *= g
            v[pc] = -s // p
        vectors.append(content_normalize([v.get(j, 0)
                                          for j in range(A.cols)]))
    return KernelBasis(dim=len(vectors), vectors=vectors)


def det_integer(rows):
    """Exact determinant of a square matrix of ints, given as rows, by
    fraction-free Bareiss elimination; the rows are left unchanged."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        pkk = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pkk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1] if n else 1


def det_bareiss(A):
    """Exact determinant of a RatMatrix as a Fraction.

    Each row is cleared to integers by the lcm of its denominators, the
    integer determinant is taken by det_integer, and the result divided by
    the product of the lcms.
    """
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square %d x %d matrix"
                         % (A.rows, A.cols))
    scale = 1
    m = []
    for row in A.entries:
        ints, den = clear(row)
        scale *= den
        m.append(ints)
    return Fraction(det_integer(m), scale)


# ---------------------------------------------------------------------------
# lattices


def _xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def _fold_mod(rows, values, modulus):
    """Fold one column into a pivot, modulo a lattice that contains
    modulus * Z^n.

    rows are the generators of such a lattice, besides the vectors
    modulus * e_i, and values their entries in the column, in
    [0, modulus).  The pivot starts as the generator of value modulus in
    the column; each row with a nonzero value is combined with it by a
    unimodular 2 x 2 step of extended gcds, which leaves the row with value
    0.  Entries are reduced modulo modulus, which adds multiples of the
    vectors modulus * e_i.  The rows are replaced in place; returns the
    pivot (its entries, without the column) and its value, which is
    gcd(values, modulus).
    """
    pivot = [0] * len(rows[0])
    value = modulus
    for i, w in enumerate(values):
        if not w:
            continue
        d, u, v = _xgcd(w, value)
        a, b = value // d, w // d
        z = rows[i]
        rows[i] = [(a * x - b * y) % modulus for x, y in zip(z, pivot)]
        pivot = [(u * x + v * y) % modulus for x, y in zip(z, pivot)]
        value = d
    return pivot, value


def saturation(rows, ncols):
    """Basis of the saturation of the row lattice of integer rows: the
    integer vectors in their rational span.  None when the rows are
    linearly dependent.

    With E the reduced row echelon form of the rows, pivot columns P, and
    L the lcm of its denominators, A = L*E is integral, and a vector of the
    span is z*E for z its entries at P.  So the saturation is
    {z*E : z in Lambda}, Lambda = {z in Z^r : z*A = 0 mod L}.  Lambda
    contains L*Z^r, and its Hermite basis H is built modulo L: the
    generators start as the identity and each column of A outside P folds
    into a discarded pivot (its congruence), then each coordinate folds
    into a kept pivot.  The result H*E is an Echelon with the pivot columns
    P, and H, upper triangular, is its restriction to P.
    """
    pivots, ech = reduced_echelon(rows, ncols)
    r = len(rows)
    if len(pivots) < r:
        return None
    L = lcm(*(row[p] for p, row in zip(pivots, ech)))
    A = [[x * (L // row[p]) for x in row] for p, row in zip(pivots, ech)]
    gens = [[int(i == j) for j in range(r)] for i in range(r)]
    taken = set(pivots)
    for c in range(ncols):
        col = [a[c] % L for a in A]
        if c in taken or not any(col):
            continue
        _fold_mod(gens, [sum(map(mul, z, col)) % L for z in gens], L)
    H = []
    for k in range(r):
        pivot, value = _fold_mod(gens, [z[k] for z in gens], L)
        pivot[k] = value
        H.append(pivot)
    for k in range(1, r):
        for i in range(k):
            f = H[i][k] // H[k][k]
            if f:
                H[i] = [x - f * y for x, y in zip(H[i], H[k])]
    basis = [[sum(map(mul, h, col)) // L for col in zip(*A)] for h in H]
    return Echelon(pivots, basis)


# Lovasz constant of the LLL reduction
_DELTA = Fraction(3, 4)


def lll(rows):
    """LLL-reduced basis of the lattice with basis rows (independent
    integer rows), with size reduction |mu_ij| <= 1/2 and Lovasz constant
    _DELTA.

    Integral LLL with incremental Gram-Schmidt (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, Alg. 2.6.7): it keeps
    d_i, the Gram determinant of the first i vectors, and
    lam[k][j] = d_{j+1} * mu_kj, both integers, so no fraction is formed.
    The steps act on the Gram matrix of the rows and on the change of
    basis U, which is short next to the rows; the result is U times the
    rows.  A vector enters the Gram-Schmidt data only once, while it is
    still its input row, so its inner products are U times a Gram row.
    """
    n = len(rows)
    G = [[sum(map(mul, x, y)) for y in rows] for x in rows]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)       # d[i]: Gram determinant of the first i vectors
    lam = [[0] * n for _ in range(n)]
    p, q = _DELTA.numerator, _DELTA.denominator

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(map(mul, U[j], G[k]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u:
                d[k + 1] = u
            else:
                raise ValueError("LLL needs linearly independent rows")

    def reduce(k, l):
        t = lam[k][l]
        D = d[l + 1]
        if 2 * abs(t) <= D:
            return
        f = (2 * t + D) // (2 * D)
        U[k] = [x - f * y for x, y in zip(U[k], U[l])]
        lam[k][l] = t - f * D
        for i in range(l):
            lam[k][i] -= f * lam[l][i]

    def swap(k, kmax):
        U[k], U[k - 1] = U[k - 1], U[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        t0 = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + t0 * t0) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t0 * t) // d[k]
            lam[i][k - 1] = (B * t + t0 * lam[i][k]) // d[k + 1]
        d[k] = B

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        t = lam[k][k - 1]
        if q * d[k + 1] * d[k - 1] < p * d[k] * d[k] - q * t * t:
            swap(k, kmax)
            k = max(1, k - 1)
            continue
        for l in range(k - 2, -1, -1):
            reduce(k, l)
        k += 1
    return [[sum(map(mul, u, col)) for col in zip(*rows)] for u in U]
