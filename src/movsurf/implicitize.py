"""Determinantal implicitization.

The pipeline selects an echelon basis of the k moving planes (unit pivot in
the x3 block), completes it with mn-k moving quadrics singled out by
projection onto distinguished coordinates, stacks everything into an mn x mn
matrix M of linear and quadratic forms, and expands det M.  The normalized
determinant is the implicit equation of the parametrized surface, of total
degree 2mn - k.

The bases stay coefficient rows from the kernel to M, in the layout of
the syzygy module: position b*mn + i of a row is the coefficient of the i-th
parameter monomial of bidegree (m-1, n-1) in front of the b-th x-monomial
(4mn positions for a plane, 10mn for a quadric).  Both changes of basis put
the identity on a chosen set of those positions, so each is the reduced row
echelon form of the rows with those positions ordered first, computed by
the integer echelon of linalg.  A chosen set of rank below the basis
dimension shows up as a pivot outside it.  Entry (r, c) of M is the linear
or quadratic form read from position i of every block of row r, where the
c-th column of M stands for the i-th parameter monomial.

When there are no base points (k = 0) the projection can be singular -- the
Segre quadric x0*x3 - x1*x2 has no pure-square component at all -- and the
construction falls back to an arbitrary canonical basis of the mn moving
quadrics, which is all that case needs.

The determinant and the verification run on Python ints.  Each row of M is
scaled once to integer coefficients, and every term of a plane row must have
degree 1 and every term of a quadric row degree 2, or ArithmeticError is
raised before the grid.  Then det M is zero or a form of degree
D = 2mn - k, which its values on the principal lattice {i + j + l <= D}
determine (Chung-Yao, SIAM J. Numer. Anal. 14, 1977), so the interpolation
is exact with no further check.  Before the grid, the plane rows and the
quadric rows, each group on its own, are replaced by an LLL-reduced basis of
the saturation of their integer lattice (the integer vectors in their
rational span), which makes the coefficients small; this multiplies det M by
a known rational factor.  At every size of M, det of the reduced rows is
evaluated on an integer grid by fraction-free Bareiss elimination,
interpolated with integer differences and integer Newton weights, and
scaled once at the end, so det_poly returns det M exactly; it is
the package's one determinant.  Along each grid line the entries advance by
integer differences, so each is expanded once per line, not per point.
Verification is a certificate on the same reduced rows: each is laid out
again as a coefficient row of a moving plane or quadric and must lie in the
kernel of its multiplication map, checked over Z.  The rows of M then follow
phi, so det M vanishes on the image (Sederberg-Chen 1995; Cox 2001), and
with the exact grid so does the returned polynomial.  The sampled check
verify_polynomial stays for the benchmark and as a cross-check in the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import mul

from .basepoints import CheckConfig, ConditionReport, check_all
# det_bareiss is not called here: perfbench/spans.py reads it from this module
# to install its grid-point counter, while the grid itself calls det_integer
from .linalg import (RatMatrix, _annihilates, det_bareiss, det_integer, lll,
                     reduced_echelon, saturation)
from .ring import XPoly, clear, content_normalize, monomial_basis
from .syzygy import (Parametrization, SyzygyBasis, X_MONOMIALS, moving_planes,
                     moving_quadrics, multiple_rows, x_monomial)

X3SQ = x_monomial(3, 3)


class ConditionError(RuntimeError):
    """The parametrization failed a precondition of the construction."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class VerificationError(RuntimeError):
    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class PipelineConfig:
    """`det_backend` accepts only "auto" and raises ValueError otherwise.
    `samples` (at least 1, or ValueError) and `verify_seed` are validated
    but not read: pipeline() verifies by certificate, not by sampling.  All
    three stay only because perfbench/run.py passes them and
    perfbench/spans.py hands `samples` and `verify_seed` to
    verify_polynomial; they go once the benchmark reads the library's stage
    records (ROADMAP items 1 and 3)."""
    check: CheckConfig = CheckConfig()
    det_backend: str = "auto"
    samples: int = 100
    verify_seed: int = 0
    force: bool = False
    assert_one_to_one: bool = True

    def __post_init__(self):
        _auto_only(self.det_backend)
        _at_least_one_sample(self.samples)


@dataclass
class MMatrix:
    entries: list                  # size x size nested lists of XPoly
    linear_rows: int               # k plane rows, then size-k quadric rows
    col_monomials: list            # parameter monomials indexing the columns

    @property
    def size(self):
        return len(self.entries)

    def row_degrees(self):
        return [1] * self.linear_rows + [2] * (self.size - self.linear_rows)

    def evaluate(self, point):
        """Scalar matrix at a rational x-point."""
        return RatMatrix([[e.evaluate(point) for e in row]
                          for row in self.entries])


@dataclass
class VerificationRecord:
    """vanishing_ok is the certificate that the rows of M follow phi on a
    pipeline record.  Only the sampled verify_polynomial sets samples and
    failures, the nonvanishing sample points."""
    vanishing_ok: bool
    degree: int
    expected_degree: int
    degree_ok: bool
    x3_power: str                  # "ok" | "zero" | "skipped"
    samples: int = None
    failures: list = None

    @property
    def ok(self):
        return (self.vanishing_ok and self.degree_ok
                and self.x3_power in ("ok", "skipped"))


@dataclass
class ImplicitResult:
    polynomial: XPoly
    degree: int
    k: int
    backend: str                   # always "interp"
    pivots: list
    projection_fallback: bool
    verification: VerificationRecord = None
    report: ConditionReport = None
    coordinate_change: list = None  # four rows of ints, see generic_change
    coordinate_seed: int = None
    phi: Parametrization = None


# ---------------------------------------------------------------------------
# changes of basis


def _unit_basis(rows, first, width):
    """The reduced row echelon basis of the span of the coefficient `rows`,
    of `width` entries each, with the positions `first` ordered first.

    Returns (pivots, basis): pivots are the indices in `first` of the unit
    columns, one per basis element, and basis holds the unit rows in the
    column order of `rows`.  basis is None when the positions `first` have
    rank below len(rows), so that some pivot would lie outside them.
    """
    taken = set(first)
    order = first + [j for j in range(width) if j not in taken]
    pivots, echelon = reduced_echelon([[v[j] for j in order] for v in rows],
                                      width)
    pivots = [p for p in pivots if p < len(first)]
    if len(pivots) < len(rows):
        return pivots, None
    units = []
    for p, row in zip(pivots, echelon):
        vec = [None] * width
        for j, x in zip(order, row):
            vec[j] = Fraction(x, row[p])
        units.append(vec)
    return pivots, units


def echelon_plane_basis(planes, working_bidegree):
    """Echelonize the x3 blocks of a moving-plane basis.

    Returns (basis, pivots) where the i-th element carries x3-coefficient 1
    on its pivot monomial and 0 on every other pivot monomial, and pivots is
    the list of (alpha, beta) = (s-exponent, t-exponent) pivot pairs.  Fails
    when the x3 block has rank below the basis dimension, which contradicts
    the no-syzygy condition on a0, a1, a2.
    """
    basis = monomial_basis(working_bidegree)
    mn = len(basis)
    # x3 is the last of the four blocks of X_MONOMIALS[1]
    pivot_cols, elements = _unit_basis(planes.elements,
                                       list(range(3 * mn, 4 * mn)), 4 * mn)
    if elements is None:
        raise ConditionError(
            "x3 block of the moving planes has rank %d < %d; "
            "a0,a1,a2 admit a syzygy" % (len(pivot_cols), planes.dim))
    pivots = [(basis[c][0], basis[c][2]) for c in pivot_cols]
    return SyzygyBasis(elements), pivots


def distinguished_columns(pivots, working_bidegree):
    """The mn + 3k of the 10mn quadric-map coordinates that the projection
    keeps, each a (parameter monomial, x monomial) pair."""
    basis = monomial_basis(working_bidegree)
    pairs = [(m[0], m[2]) for m in basis]
    chosen = [(basis[pairs.index(pivot)], x_monomial(j, 3))
              for pivot in pivots for j in range(3)]
    return chosen + [(mono, X3SQ) for mono in basis]


def quadric_basis_via_projection(phi, pivots, quadrics=None):
    """Basis of moving quadrics with unit coordinates on the distinguished
    columns, one per column.

    Returns (elements, columns, fallback).  elements[i] projects to the unit
    vector on columns[i]: the elements are the reduced row echelon form of
    the quadric basis with the distinguished columns ordered first, in their
    listed order.  With base points (k > 0) a singular projection, seen as a
    pivot outside the distinguished columns, means an upstream condition was
    certified wrongly and raises; without base points it falls back to the
    plain canonical kernel basis (fallback=True), keeping the construction
    available for quadrics like the Segre one that have no pure-square
    component.
    """
    if quadrics is None:
        quadrics = moving_quadrics(phi)
    k = len(pivots)
    expected = phi.mn + 3 * k
    if quadrics.dim != expected:
        raise ConditionError(
            "moving-quadric space has dimension %d, expected mn + 3k = %d"
            % (quadrics.dim, expected))
    basis = monomial_basis(phi.working_bidegree)
    mn = len(basis)
    columns = distinguished_columns(pivots, phi.working_bidegree)
    first = [X_MONOMIALS[2].index(xm) * mn + basis.index(mono)
             for mono, xm in columns]
    _, elements = _unit_basis(quadrics.elements, first, 10 * mn)
    if elements is None:
        if k > 0:
            raise ConditionError(
                "projection onto the distinguished quadric columns is "
                "singular; the certified conditions cannot all hold")
        return list(quadrics.elements), columns, True
    return elements, columns, False


# ---------------------------------------------------------------------------
# matrix assembly


def assemble_M(planes, quadric_rows, pivots, working_bidegree):
    """Stack k echelon plane rows over mn-k quadric rows.

    Columns are permuted so the pivot monomials come first, aligned with the
    plane rows: the first k diagonal entries then carry x3 with coefficient 1
    and the remaining diagonal entries carry x3^2 (on the projection path).
    """
    basis = monomial_basis(working_bidegree)
    mn = len(basis)
    k = len(planes.elements)
    if k + len(quadric_rows) != mn:
        raise ValueError("need %d rows, got %d plane + %d quadric"
                         % (mn, k, len(quadric_rows)))
    pairs = [(m[0], m[2]) for m in basis]
    pivot_idx = [pairs.index(pivot) for pivot in pivots]
    col_order = pivot_idx + [i for i in range(mn) if i not in pivot_idx]

    def entries(row, xmonos):
        # the entry at parameter monomial i: position i of each x block
        return [XPoly({xm: row[b * mn + i] for b, xm in enumerate(xmonos)})
                for i in col_order]

    rows = [entries(p, X_MONOMIALS[1]) for p in planes.elements]
    rows += [entries(q, X_MONOMIALS[2]) for q in quadric_rows]
    return MMatrix(entries=rows, linear_rows=k,
                   col_monomials=[basis[i] for i in col_order])


def select_quadric_rows(elements, columns, pivots, working_bidegree, fallback):
    """The mn - k quadric rows that enter M: the elements whose column is
    the x3^2 column of a non-pivot monomial.  On the fallback path (k = 0)
    every column is an x3^2 column, so every row enters.  working_bidegree
    and fallback are unused; the benchmark passes them positionally."""
    return [e for e, (mono, xm) in zip(elements, columns)
            if xm == X3SQ and (mono[0], mono[2]) not in pivots]


# ---------------------------------------------------------------------------
# determinants


def _auto_only(backend):
    """Reject every determinant backend but "auto", the interpolation grid."""
    if backend != "auto":
        raise ValueError("unknown determinant backend %r: the interpolation "
                         "grid is the only determinant" % backend)


class _IntegerRows:
    """The rows of M as integer vectors, reduced, for the grid.

    M must be square, or ValueError names its shape.  Every term of the first M.linear_rows rows must have degree 1 and every
    term of the others degree 2, or ArithmeticError names the declared and
    the found degree; so det M is zero or a form of degree
    sum(M.row_degrees()), which is what makes the grid exact.  Each row is
    scaled to integer coefficients and read as a vector over the (column,
    monomial) pairs of its group, the linear rows or the quadratic rows.
    Within each group the vectors are replaced by an LLL-reduced basis of
    the saturation of their lattice, the integer vectors in their rational
    span, which makes the coefficients small.  The old rows are C times the
    new ones for an integer matrix C, so by multilinearity det M is `ratio`
    times the determinant of the new rows at any point; det C is the
    quotient of the two groups' minors at the saturation's pivot columns.
    A group of dependent rows makes det M zero and is kept as it is.
    Entries are compiled to (coefficient, monomial index) pairs over the
    distinct monomials of M; `groups` keeps each group's degree, its
    (column, monomial) pairs and its vectors, which `follows` reads.

    Every entry is a form of degree at most 2, so on a line along x2 it is
    e0 + e1*x2 + e2*x2**2.  dets computes (e0, e1, e2) once per line and
    per entry, from one x0^a*x1^b*x3^e product per monomial, and then
    advances every entry by two integer additions per step.
    """

    def __init__(self, M):
        for row in M.entries:
            if len(row) != M.size:
                raise ValueError("determinant of a non-square %d x %d matrix"
                                 % (M.size, len(row)))
        index = {}
        self.rows = []
        self.groups = []
        self.ratio = Fraction(1)
        self.degree = sum(M.row_degrees())
        self.col_monomials = M.col_monomials
        for degree, group in ((1, M.entries[:M.linear_rows]),
                              (2, M.entries[M.linear_rows:])):
            monos = sorted({m for row in group for e in row for m in e.terms})
            found = {sum(m) for m in monos} - {degree}
            if found:
                raise ArithmeticError(
                    "a row of M declared of degree %d has a term of degree %d"
                    % (degree, max(found)))
            coords = [(c, m) for c in range(M.size) for m in monos]
            vecs = []
            for row in group:
                ints, den = clear([row[c].coeff(m) for c, m in coords])
                self.ratio /= den
                vecs.append(ints)
            sat = saturation(vecs, len(coords))
            if sat is not None:
                reduced = lll(sat.rows)
                self.ratio *= Fraction(
                    det_integer([[v[p] for p in sat.pivots] for v in vecs]),
                    det_integer([[v[p] for p in sat.pivots]
                                 for v in reduced]))
                vecs = reduced
            self.groups.append((degree, coords, vecs))
            for v in vecs:
                row = [[] for _ in range(M.size)]
                for (c, m), x in zip(coords, v):
                    if x:
                        row[c].append((x, index.setdefault(m, len(index))))
                self.rows.append(row)
        self.monomials = list(index)

    def dets(self, point, count):
        """det M / ratio at the integer points (x0, x1, y + t, x3) for
        t = 0..count-1, where point = (x0, x1, y, x3), by Bareiss over Z."""
        x0, x1, y, x3 = point
        pv = [x0 ** a * x1 ** b * x3 ** e for a, b, _, e in self.monomials]
        deg = [d for _, _, d, _ in self.monomials]
        vals, d1s, d2s = [], [], []
        for row in self.rows:
            for entry in row:
                e = [0, 0, 0]
                for c, i in entry:
                    e[deg[i]] += c * pv[i]
                e0, e1, e2 = e
                # value at y, and its first and second forward differences
                vals.append(e0 + y * (e1 + y * e2))
                d1s.append(e1 + (2 * y + 1) * e2)
                d2s.append(2 * e2)
        n = len(self.rows)
        out = []
        for t in range(count):
            out.append(det_integer([vals[r:r + n]
                                    for r in range(0, n * n, n)]))
            if t + 1 < count:
                vals = [v + d for v, d in zip(vals, d1s)]
                d1s = [d + dd for d, dd in zip(d1s, d2s)]
        return out

    def follows(self, phi):
        """Whether every row follows phi, checked over Z.

        A row of degree d is laid out as a coefficient row of a moving plane
        (d = 1) or quadric (d = 2): position b*mn + i holds its coefficient
        of the x-monomial X_MONOMIALS[d][b] in the column of the i-th
        parameter monomial of bidegree (m-1, n-1).  It follows phi when it
        lies in the kernel of the plane or quadric map, whose columns
        multiple_rows gives; one _annihilates per group checks that.  Then
        the rows at phi(s,t) times the column monomials at (s,t) give 0, and
        the column monomials never vanish together on P1 x P1, so det of the
        rows, and det M with it, vanishes on the image of phi.
        """
        basis = monomial_basis(phi.working_bidegree)
        mn = len(basis)
        column = [basis.index(mono) for mono in self.col_monomials]
        for degree, coords, vecs in self.groups:
            if not vecs:
                continue
            # a row is 0 off these positions, so the map's columns are read
            # at them only
            at = [X_MONOMIALS[degree].index(m) * mn + column[c]
                  for c, m in coords]
            generators = phi.a if degree == 1 else phi.products()
            target = ((degree + 1) * phi.m - 1, (degree + 1) * phi.n - 1)
            columns = zip(*multiple_rows(generators, target))
            if not _annihilates([[col[p] for p in at] for col in columns],
                                vecs):
                return False
        return True


def _forward_diffs(line):
    """Forward differences of values at the nodes 0..len-1, from the node 0."""
    d = list(line)
    for level in range(1, len(d)):
        for i in range(len(d) - 1, level - 1, -1):
            d[i] -= d[i - 1]
    return d


def _newton_weights(D):
    """Monomial coefficients of D!/a! * prod_{p<a}(y - p), a = 0..D.

    These are the Newton basis polynomials with 1/a! folded in, times D! so
    that every coefficient is an integer.
    """
    out = [[1]]
    for a in range(D):
        prev = out[-1]
        nxt = [0] * (len(prev) + 1)
        for e, c in enumerate(prev):
            nxt[e + 1] += c
            nxt[e] -= a * c
        out.append(nxt)
    fact = factorial(D)
    return [[fact // factorial(a) * c for c in w] for a, w in enumerate(out)]


def _sweep(values, D, transform):
    """Apply a line transform along the third, second, then first axis of
    the triangular grid {(i, j, l) : i + j + l <= D}."""
    for axis in (2, 1, 0):
        for a in range(D + 1):
            for b in range(D + 1 - a):
                keys = [(a, b, x) if axis == 2 else
                        (a, x, b) if axis == 1 else (x, a, b)
                        for x in range(D + 1 - a - b)]
                for key, v in zip(keys, transform([values[k] for k in keys])):
                    values[key] = v


def _grid_det(rows):
    """det M from the _IntegerRows of M, by the grid of det_poly."""
    D = rows.degree
    values = {}
    for i in range(D + 1):
        for j in range(D + 1 - i):
            for l, v in enumerate(rows.dets((i, j, 0, 1), D + 1 - i - j)):
                values[(i, j, l)] = v
    _sweep(values, D, _forward_diffs)
    weights = _newton_weights(D)

    def expand(line):
        out = [0] * len(line)
        for a, v in enumerate(line):
            if v:
                for p, w in enumerate(weights[a]):
                    out[p] += v * w
        return out

    _sweep(values, D, expand)
    # values now holds (D!)^3 / ratio times the coefficients of det M
    ratio = rows.ratio / factorial(D) ** 3
    return XPoly({(a, b, c, D - a - b - c): v * ratio
                  for (a, b, c), v in values.items() if v})


def det_poly(M, backend="auto"):
    """Exact determinant of an MMatrix as an XPoly, by evaluating det M on a
    triangular integer grid and interpolating, over Z, at every size.

    det M is homogeneous of degree D = (number of linear rows) + 2*(number of
    quadratic rows), so its dehomogenization at x3 = 1 has total degree <= D
    in (x0, x1, x2) and is pinned down by its values on the principal lattice
    {(i, j, l) : i + j + l <= D}.

    The grid runs on the reduced integer rows of _IntegerRows, and every
    grid value is an integer Bareiss determinant of them.  Forward
    differences along each axis in turn give a! b! c! times the coefficients
    in the tensor Newton basis; coefficients of combined order above D vanish
    for a polynomial of total degree <= D, which is exactly why the
    triangular data suffices.  Expanding with the integer weights
    D!/a! * prod_{p<a}(y - p) keeps everything in Z, and a single
    multiplication by the rows' ratio over (D!)^3 at the end returns det M
    exactly.  The degree bound is certified, not assumed: _IntegerRows
    raises ArithmeticError before the grid when an entry's terms do not all
    have their row's degree, so the result needs no check off the grid.
    The empty matrix has determinant 1.

    `backend` accepts only "auto" and raises ValueError otherwise.  It stays
    only for the benchmark's calls, and goes with PipelineConfig.det_backend
    once the benchmark reads the library's stage records (ROADMAP items 1
    and 3).
    """
    _auto_only(backend)
    if M.size == 0:
        return XPoly.monomial((0, 0, 0, 0))
    return _grid_det(_IntegerRows(M))


# ---------------------------------------------------------------------------
# normalization and verification


def normalize(p):
    """Integer coprime coefficients with a positive leading coefficient.

    The implicit equation is only defined up to a nonzero rational scalar;
    this fixes the representative.  Idempotent; rejects the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    terms = p.sorted_terms()
    coeffs = content_normalize([c for _, c in terms])
    return XPoly({m: c for (m, _), c in zip(terms, coeffs)})


def _at_least_one_sample(samples):
    if samples < 1:
        raise ValueError("verification needs at least 1 sample, got %d"
                         % samples)


def _draw(rng):
    """The numerators and denominators (n_i, d_i) of a random point
    (n0/d0, n1/d1; n2/d2, n3/d3) of P1 x P1, drawn per coordinate as
    randint(-9, 9) then randint(1, 5), again until (s,u) != (0,0) and
    (t,v) != (0,0)."""
    while True:
        nd = [(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        if (nd[0][0] or nd[1][0]) and (nd[2][0] or nd[3][0]):
            return nd


def _record(poly, phi, k, check_x3, vanishing_ok, **sampled):
    """The VerificationRecord of poly with the given vanishing verdict, and
    the checks that poly is homogeneous of total degree 2mn - k and that
    x3^(2mn-k) has a nonzero coefficient (skipped when not check_x3)."""
    expected = 2 * phi.mn - k
    top = poly.total_degree()
    degree_ok = poly.is_homogeneous() and top == expected
    if check_x3:
        x3_power = "ok" if poly.coeff((0, 0, 0, expected)) else "zero"
    else:
        x3_power = "skipped"
    return VerificationRecord(vanishing_ok=vanishing_ok, degree=top,
                              expected_degree=expected, degree_ok=degree_ok,
                              x3_power=x3_power, **sampled)


def verify_polynomial(poly, phi, k, samples=100, seed=0, check_x3=True):
    """Check the three certificates of a claimed implicit equation by
    sampling.  pipeline() does not call it: it stays because
    perfbench/spans.py (`recompose`) times it, and the tests use it as a
    cross-check of the exact certificate.

    (a) it vanishes exactly at `samples` seeded random parameter points that
        avoid the base locus, (b) it is homogeneous of total degree 2mn - k,
    (c) the monomial x3^(2mn-k) appears with nonzero coefficient (skipped on
    the k = 0 fallback path, where the echelon structure is unavailable).

    The vanishing test runs over Z.  A sample point is drawn as integer
    pairs (n_i, d_i), and (s,u) = (n0*d1, n1*d0), (t,v) = (n2*d3, n3*d2)
    is the same point of P1 x P1.  The a_i are cleared once by a common
    integer den, and their images are four dot products with one table of
    the (m+1)(n+1) parameter monomials at that point, so phi(pt) is scaled
    by c = den*(d0*d1)^m*(d2*d3)^n.  The polynomial's own denominators are
    cleared once.  Each term is summed directly from tables of the powers
    of the four image coordinates and of c, a term of degree d weighted by
    c^(top - d), so the integer value is zero exactly when poly(phi(pt))
    is.  `failures` lists the rational points (n0/d0, n1/d1, n2/d2, n3/d3).
    """
    _at_least_one_sample(samples)
    rng = random.Random(seed)
    m, n = phi.m, phi.n
    # one common factor for all four a_i only scales the image
    basis = monomial_basis((m, n))
    coeffs, den = clear([f.coeff(mono) for f in phi.a for mono in basis])
    width = len(basis)
    forms = [coeffs[i:i + width] for i in range(0, 4 * width, width)]
    top = poly.total_degree()
    ints, _ = clear(list(poly.terms.values()))
    terms = [(c, a, b, d, e, top - a - b - d - e)
             for c, (a, b, d, e) in zip(ints, poly.terms)]
    failures = []
    drawn = 0
    attempts = 0
    while drawn < samples:
        attempts += 1
        if attempts > 100 * samples + 100:
            raise VerificationError("could not sample points off the base "
                                    "locus; the map is degenerate")
        nd = _draw(rng)
        (n0, d0), (n1, d1), (n2, d2), (n3, d3) = nd
        s, u, t, v = n0 * d1, n1 * d0, n2 * d3, n3 * d2
        su = [s ** i * u ** (m - i) for i in range(m, -1, -1)]
        tv = [t ** j * v ** (n - j) for j in range(n, -1, -1)]
        table = [x * y for x in su for y in tv]
        image = [sum(map(mul, f, table)) for f in forms]
        if not any(image):
            continue  # base point
        drawn += 1
        scale = den * (d0 * d1) ** m * (d2 * d3) ** n
        p0, p1, p2, p3, ps = ([x ** i for i in range(top + 1)]
                              for x in (*image, scale))
        if sum(c * p0[a] * p1[b] * p2[d] * p3[e] * ps[w]
               for c, a, b, d, e, w in terms):
            failures.append(tuple(Fraction(a, b) for a, b in nd))
    return _record(poly, phi, k, check_x3, not failures, samples=samples,
                   failures=failures)


# ---------------------------------------------------------------------------
# pipeline


def pipeline(phi, config=None, report=None):
    """Conditions, basis selection, assembly, determinant, verification.

    Refuses to run when the condition battery fails, and refuses to return a
    polynomial whose verification failed, unless config.force is set.  When a
    coordinate change was needed, the returned polynomial describes the
    transformed parametrization and the change is reported alongside.

    The grid and the vanishing certificate (_IntegerRows.follows) read one
    _IntegerRows of M; nothing is sampled.
    """
    config = config or PipelineConfig()
    if report is None:
        report = check_all(phi, config.check)
    if not report.all_passed and not config.force:
        raise ConditionError("condition %s failed: %s"
                             % (report.failure,
                                report.witnesses.get(report.failure)),
                             report=report)
    if not config.assert_one_to_one and not config.force:
        raise ConditionError(
            "the construction needs a generically one-to-one map; "
            "assert it in the input or pass force", report=report)

    phi_run = report.phi
    planes = moving_planes(phi_run)
    k = report.k if report.k is not None else planes.dim
    if planes.dim != k and not config.force:
        raise ConditionError(
            "moving-plane dimension %d disagrees with the certified "
            "multiplicity %d" % (planes.dim, k), report=report)
    k = planes.dim

    echelon, pivots = echelon_plane_basis(planes, phi_run.working_bidegree)
    elements, columns, fallback = quadric_basis_via_projection(phi_run, pivots)
    quadric_rows = select_quadric_rows(elements, columns, pivots,
                                       phi_run.working_bidegree, fallback)
    M = assemble_M(echelon, quadric_rows, pivots, phi_run.working_bidegree)

    rows = _IntegerRows(M)
    raw = _grid_det(rows)
    if raw.is_zero():
        raise ConditionError("det M is identically zero; the construction "
                             "does not apply", report=report)
    poly = normalize(raw)

    record = _record(poly, phi_run, k, not fallback, rows.follows(phi_run))
    result = ImplicitResult(polynomial=poly, degree=poly.total_degree(), k=k,
                            backend="interp", pivots=pivots,
                            projection_fallback=fallback,
                            verification=record, report=report,
                            coordinate_change=report.coordinate_change,
                            coordinate_seed=report.coordinate_seed,
                            phi=phi_run)
    if not record.ok and not config.force:
        raise VerificationError(
            "verification failed: the rows of M %s phi, degree %d vs %d, "
            "x3 power %s" % ("follow" if record.vanishing_ok
                             else "do not follow", record.degree,
                             record.expected_degree, record.x3_power),
            record=record)
    return result
