"""Reference solves for the tests.

rref and solve_membership eliminate over the rationals with immediate pivot
normalization, the textbook way, independently of the integer echelon and
the certified rank of movsurf.linalg.  modular_basis is the row-by-row
reduced echelon form modulo a prime on plain lists, the reference for the
packed linalg._modular_basis.  det_cofactor is memoized minor expansion of
an MMatrix over XPoly, the reference for the interpolated determinant.
saturation_by_ranks is the saturation search by two certified ranks per
power, the reference for the search that walks the inverse system.
half_step_by_dots lifts every half-step kernel vector by dot products, the
reference for basepoints._half_step; multiple_rows_by_index places each
multiple through a dict of monomials and unpack_bytes splits the bytes of
a packed int, the references for syzygy.multiple_rows and linalg._unpack.
sample_point draws the rational parameter points of the verification, and
verification_by_fractions builds its whole record by Fraction arithmetic,
the reference for the integer implicitize.verify_polynomial.
The tests check the integer core against them; the package does not use
them.
"""

import random
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import NamedTuple

from movsurf.basepoints import SaturationResult
from movsurf.implicitize import VerificationRecord
from movsurf.linalg import RatMatrix, integer_kernel, integer_rank
from movsurf.ring import XPoly, bidegree_leq, clear, monomial_basis, primitive
from movsurf.syzygy import multiple_rows


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


def saturation_by_ranks(f, generators, max_power):
    """The SaturationResult of basepoints.saturation_member, by ranks.

    At each N = 0..max_power every mu*f of bidegree t = deg f + (N, N)
    lies in the ideal I of the generators exactly when (I + (f))_t, which
    contains I_t, has the same dimension: when appending the multiples of
    f to those of the generators leaves the rank unchanged.
    """
    for N in range(max_power + 1):
        t = (f.bidegree[0] + N, f.bidegree[1] + N)
        full = (t[0] + 1) * (t[1] + 1)
        rows = multiple_rows([g for g in generators
                              if bidegree_leq(g.bidegree, t)], t)
        if integer_rank(rows, full) == integer_rank(
                rows + multiple_rows([f], t), full):
            return SaturationResult(member=True, power=N)
    return SaturationResult(member=False, bound_reached=True)


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


def half_step_by_dots(dual, d, axis):
    """basepoints._half_step with every monomial that x divides lifted by
    the dot product K(M/x) . alpha, every other one by K(M/y) . beta, and
    the content divided out by ring.primitive."""
    a, b = d
    block = b + 1
    size = (a + 2) * block if axis == 0 else (a + 1) * (b + 2)
    if axis == 0:
        up = [q if q < size - block else None for q in range(size)]
        down = [q - block if q >= block else None for q in range(size)]
    else:
        up, down = [], []
        for q in range(size):
            blk, r = divmod(q, b + 2)
            up.append(blk * block + r if r <= b else None)
            down.append(blk * block + r - 1 if r else None)
    h = len(dual)
    columns = [list(column) for column in zip(*dual)]
    rows = [[*columns[x], *(-c for c in columns[y])]
            for x, y in zip(up, down) if x is not None and y is not None]
    rows = list({str(row): row for row in rows if any(row)}.values())
    lifted = []
    for coeffs in integer_kernel(rows, 2 * h):
        alpha, beta = coeffs[:h], coeffs[h:]
        lifted.append(primitive([sum(map(mul, alpha, columns[x]))
                                 if x is not None
                                 else sum(map(mul, beta, columns[y]))
                                 for x, y in zip(up, down)]))
    return lifted


def multiple_rows_by_index(generators, target):
    """syzygy.multiple_rows, each multiple placed through a dict from the
    monomials of the target to their positions."""
    target = (int(target[0]), int(target[1]))
    row_index = {m: i for i, m in enumerate(monomial_basis(target))}
    coeffs = iter(clear([c for g in generators for c in g.terms.values()])[0])
    rows = []
    for g in generators:
        d = (target[0] - g.bidegree[0], target[1] - g.bidegree[1])
        if d[0] < 0 or d[1] < 0:
            raise ValueError("bidegree underflow: generator %s into target %s"
                             % (g.bidegree, target))
        terms = list(zip(g.terms, coeffs))
        for mu in monomial_basis(d):
            row = [0] * len(row_index)
            for mono, c in terms:
                row[row_index[(mono[0] + mu[0], mono[1] + mu[1],
                               mono[2] + mu[2], mono[3] + mu[3])]] = c
            rows.append(row)
    return rows


def unpack_bytes(x, nslots, nbytes):
    """linalg._unpack by the bytes of the packed int at every slot count."""
    data = x.to_bytes(nslots * nbytes, "little")
    return list(map(int.from_bytes,
                    [data[i:i + nbytes] for i in range(0, len(data), nbytes)],
                    repeat("little")))


def sample_point(rng):
    """A random point (s, u, t, v) of P1 x P1, each coordinate
    Fraction(randint(-9, 9), randint(1, 5)), drawn again until
    (s,u) != (0,0) and (t,v) != (0,0)."""
    while True:
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in range(4))
        if (pt[0] or pt[1]) and (pt[2] or pt[3]):
            return pt


def verification_by_fractions(poly, phi, k, samples, seed, check_x3=True):
    """implicitize.verify_polynomial by Fraction arithmetic: phi and then
    poly evaluated at each sample point off the base locus, and the degrees
    read off the terms."""
    rng = random.Random(seed)
    failures = []
    drawn = 0
    while drawn < samples:
        pt = sample_point(rng)
        image = phi.evaluate(pt)
        if not any(image):
            continue
        drawn += 1
        if poly.evaluate(image) != 0:
            failures.append(pt)
    expected = 2 * phi.mn - k
    degrees = {sum(mono) for mono in poly.terms}
    if not check_x3:
        x3_power = "skipped"
    else:
        x3_power = "ok" if (0, 0, 0, expected) in poly.terms else "zero"
    return VerificationRecord(
        samples=samples, failures=failures, vanishing_ok=not failures,
        degree=max(degrees, default=-1), expected_degree=expected,
        degree_ok=degrees == {expected}, x3_power=x3_power)
