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
scaled once to integer coefficients.  Before the grid, the plane rows and the
quadric rows, each group on its own, are replaced by an LLL-reduced basis of
the saturation of their integer lattice (the integer vectors in their
rational span), which makes the coefficients small; this multiplies det M by
a known rational factor.  At every size of M, det of the reduced rows is
evaluated on an integer grid by fraction-free Bareiss elimination,
interpolated with integer differences and integer Newton weights, and
scaled once at the end, so det_interpolation returns det M exactly; it is
the package's one determinant.  Verification clears the
denominators of each sample point and of the polynomial and tests vanishing
over Z.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .basepoints import CheckConfig, ConditionReport, check_all
# det_bareiss is not called here: perfbench/spans.py reads it from this module
# to install its grid-point counter, while the grid itself calls det_integer
from .linalg import (RatMatrix, det_bareiss, det_integer, lll, reduced_echelon,
                     saturation)
from .ring import XPoly, clear, content_normalize, monomial_basis
from .syzygy import (Parametrization, SyzygyBasis, X_MONOMIALS, moving_planes,
                     moving_quadrics, x_monomial)

X3 = x_monomial(3)
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
    It stays only for the benchmark's calls, and goes with `samples` and
    `verify_seed` once the benchmark reads the library's stage records
    (ROADMAP items 1 and 3)."""
    check: CheckConfig = CheckConfig()
    det_backend: str = "auto"
    samples: int = 100
    verify_seed: int = 0
    force: bool = False
    assert_one_to_one: bool = True

    def __post_init__(self):
        _auto_only(self.det_backend)


@dataclass
class ColumnIndexSet:
    """The quadric-map coordinates the projection keeps.

    `distinguished` lists mn + 3k of the 10mn coordinates, each a
    (parameter monomial, x monomial) pair.
    """
    distinguished: list


@dataclass
class MMatrix:
    size: int
    entries: list                  # size x size nested lists of XPoly
    linear_rows: int               # k plane rows, then size-k quadric rows
    col_monomials: list            # parameter monomials indexing the columns
    row_labels: list

    def row_degrees(self):
        return [1] * self.linear_rows + [2] * (self.size - self.linear_rows)

    def evaluate(self, point):
        """Scalar matrix at a rational x-point."""
        return RatMatrix([[e.evaluate(point) for e in row]
                          for row in self.entries])


@dataclass
class VerificationRecord:
    samples: int
    failures: list
    vanishing_ok: bool
    degree: int
    expected_degree: int
    degree_ok: bool
    x3_power: str                  # "ok" | "zero" | "skipped"

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


def _x_blocks(row, mn):
    """The x-monomials of the mn-column blocks of a plane row (4mn entries)
    or a quadric row (10mn entries)."""
    return X_MONOMIALS[1 if len(row) == 4 * mn else 2]


def _unit_basis(rows, chosen, wdeg):
    """The reduced row echelon basis of the span of the coefficient `rows`,
    with the coordinates `chosen`, (parameter monomial, x monomial) pairs,
    ordered first.

    Returns (pivots, basis): pivots are the positions in `chosen` of the
    unit columns, one per basis element, and basis holds the unit rows in
    the column order of `rows`.  basis is None when the chosen coordinates
    have rank below len(rows), so that some pivot would lie outside them.
    """
    mono_basis = monomial_basis(wdeg)
    mn = len(mono_basis)
    flat = {(mono, xm): b * mn + i
            for b, xm in enumerate(_x_blocks(rows[0], mn))
            for i, mono in enumerate(mono_basis)}
    first = [flat[c] for c in chosen]
    taken = set(first)
    order = first + [j for j in range(len(flat)) if j not in taken]
    pivots, echelon = reduced_echelon([[v[j] for j in order] for v in rows],
                                      len(order))
    pivots = [p for p in pivots if p < len(first)]
    if len(pivots) < len(rows):
        return pivots, None
    units = []
    for p, row in zip(pivots, echelon):
        vec = [None] * len(order)
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
    k = planes.dim
    if k == 0:
        return SyzygyBasis([]), []
    basis = monomial_basis(working_bidegree)
    pivot_cols, elements = _unit_basis(
        planes.elements, [(mono, X3) for mono in basis], working_bidegree)
    if elements is None:
        raise ConditionError(
            "x3 block of the moving planes has rank %d < %d; "
            "a0,a1,a2 admit a syzygy" % (len(pivot_cols), k))
    pivots = [(basis[c][0], basis[c][2]) for c in pivot_cols]
    return SyzygyBasis(elements), pivots


def distinguished_columns(pivots, working_bidegree):
    """The mn + 3k projection coordinates."""
    basis = monomial_basis(working_bidegree)
    mono_index = {(m[0], m[2]): i for i, m in enumerate(basis)}
    chosen = []
    for alpha, beta in pivots:
        for j in range(3):
            chosen.append((basis[mono_index[(alpha, beta)]], x_monomial(j, 3)))
    for mono in basis:
        chosen.append((mono, X3SQ))
    return ColumnIndexSet(distinguished=chosen)


def quadric_basis_via_projection(phi, pivots, quadrics=None):
    """Basis of moving quadrics with unit coordinates on the distinguished
    columns, one per column.

    Returns (elements, columns, fallback).  elements[i] projects to the unit
    vector on columns.distinguished[i]: the elements are the reduced row
    echelon form of the quadric basis with the distinguished columns ordered
    first, in their listed order.  With base points (k > 0) a singular
    projection, seen as a pivot outside the distinguished columns, means an
    upstream condition was certified wrongly and raises; without base points
    it falls back to the plain canonical kernel basis (fallback=True),
    keeping the construction available for quadrics like the Segre one that
    have no pure-square component.
    """
    if quadrics is None:
        quadrics = moving_quadrics(phi)
    k = len(pivots)
    expected = phi.mn + 3 * k
    if quadrics.dim != expected:
        raise ConditionError(
            "moving-quadric space has dimension %d, expected mn + 3k = %d"
            % (quadrics.dim, expected))
    columns = distinguished_columns(pivots, phi.working_bidegree)
    _, elements = _unit_basis(quadrics.elements, columns.distinguished,
                              phi.working_bidegree)
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
    pivot_idx = []
    mono_index = {(m[0], m[2]): i for i, m in enumerate(basis)}
    for alpha, beta in pivots:
        pivot_idx.append(mono_index[(alpha, beta)])
    rest_idx = [i for i in range(mn) if i not in set(pivot_idx)]
    col_order = pivot_idx + rest_idx
    col_monomials = [basis[i] for i in col_order]

    def entries(row):
        # the entry at parameter monomial i: position i of each x block
        blocks = list(enumerate(_x_blocks(row, mn)))
        return [XPoly({xm: row[b * mn + i] for b, xm in blocks})
                for i in col_order]

    rows = [entries(p) for p in planes.elements]
    rows += [entries(q) for q in quadric_rows]
    labels = ["plane %d" % (i + 1) for i in range(k)]
    labels += ["quadric %s" % (basis[i],) for i in rest_idx]
    return MMatrix(size=mn, entries=rows, linear_rows=k,
                   col_monomials=col_monomials, row_labels=labels)


def select_quadric_rows(elements, columns, pivots, working_bidegree, fallback):
    """The mn - k quadric rows that enter M (all rows when falling back)."""
    if fallback:
        return list(elements)
    pivot_pairs = set(pivots)
    out = []
    for pos, (mono, xm) in enumerate(columns.distinguished):
        if xm != X3SQ:
            continue
        if (mono[0], mono[2]) in pivot_pairs:
            continue
        out.append(elements[pos])
    return out


# ---------------------------------------------------------------------------
# determinants


def _auto_only(backend):
    """Reject every determinant backend but "auto", the interpolation grid."""
    if backend != "auto":
        raise ValueError("unknown determinant backend %r: the interpolation "
                         "grid is the only determinant" % backend)


def _int_polys(polys):
    """The polynomials scaled by one common integer that clears all their
    denominators, as lists of (int coefficient, exponents) pairs; returns
    (lists, scale)."""
    ints, den = clear([c for f in polys for c in f.terms.values()])
    it = iter(ints)
    return [[(next(it), mono) for mono in f.terms] for f in polys], den


def _int_eval(terms, point):
    """Value of an integer polynomial, given as (coefficient, exponents)
    pairs, at an integer point, by int power tables."""
    if not terms:
        return 0
    top = max(max(mono) for _, mono in terms)
    tables = []
    for x in point:
        pw = [1] * (top + 1)
        for e in range(1, top + 1):
            pw[e] = pw[e - 1] * x
        tables.append(pw)
    p0, p1, p2, p3 = tables
    return sum(c * p0[a] * p1[b] * p2[d] * p3[e] for c, (a, b, d, e) in terms)


class _IntegerRows:
    """The rows of M as integer vectors, reduced, for the grid.

    Each row is scaled to integer coefficients and read as a vector over
    the (column, monomial) pairs of its group, the linear rows or the
    quadratic rows.  Within each group the vectors are replaced by an
    LLL-reduced basis of the saturation of their lattice, the integer
    vectors in their rational span, which makes the coefficients small.
    The old rows are C times the new ones for an integer matrix C, so by
    multilinearity det M is `ratio` times the determinant of the new rows
    at any point; det C is the quotient of the two groups' minors at the
    saturation's pivot columns.  A group of dependent rows makes det M
    zero and is kept as it is.  Entries are compiled to (coefficient,
    monomial index) pairs over the distinct monomials of M, so that
    evaluating at an integer point costs one power product per monomial
    and int dot products.
    """

    def __init__(self, M):
        index = {}
        self.rows = []
        self.ratio = Fraction(1)
        for group in (M.entries[:M.linear_rows], M.entries[M.linear_rows:]):
            monos = sorted({m for row in group for e in row for m in e.terms})
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
            for v in vecs:
                row = [[] for _ in range(M.size)]
                for (c, m), x in zip(coords, v):
                    if x:
                        row[c].append((x, index.setdefault(m, len(index))))
                self.rows.append(row)
        self.monomials = list(index)

    def det(self, point):
        """det M / ratio at an integer x-point, by Bareiss over Z."""
        x0, x1, x2, x3 = point
        mv = [x0 ** a * x1 ** b * x2 ** c * x3 ** d
              for a, b, c, d in self.monomials]
        return det_integer([[sum(c * mv[i] for c, i in entry)
                             for entry in row] for row in self.rows])


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


def det_interpolation(M):
    """Evaluate det M on a triangular integer grid and interpolate, over Z.

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
    exactly.  The off-grid guard evaluates the same reduced rows.
    """
    D = sum(M.row_degrees())
    if M.size == 0:
        return XPoly.monomial((0, 0, 0, 0))
    rows = _IntegerRows(M)
    values = {}
    for i in range(D + 1):
        for j in range(D + 1 - i):
            for l in range(D + 1 - i - j):
                values[(i, j, l)] = rows.det((i, j, l, 1))
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
    terms = [(v, (a, b, c, D - a - b - c))
             for (a, b, c), v in values.items() if v]
    cube = factorial(D) ** 3
    # guard: cross-check at a few random points off the grid, each cleared
    # to integers; both sides are homogeneous of degree D in the point
    rng = random.Random(1)
    for _ in range(3):
        pt, _ = clear([Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                        for _ in range(4)])
        if _int_eval(terms, pt) != cube * rows.det(pt):
            raise ArithmeticError(
                "interpolated determinant disagrees with a direct evaluation;"
                " the determinant degree exceeds %d" % D)
    ratio = rows.ratio / cube
    return XPoly({mono: v * ratio for v, mono in terms})


def det_poly(M, backend="auto"):
    """Exact determinant of an MMatrix as an XPoly: det_interpolation at
    every size.

    `backend` accepts only "auto" and raises ValueError otherwise.  It stays
    only for the benchmark's calls, and goes with PipelineConfig.det_backend
    once the benchmark reads the library's stage records (ROADMAP items 1
    and 3).
    """
    _auto_only(backend)
    return det_interpolation(M)


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


def _sample_point(rng):
    # a point of P1 x P1 needs (s,u) != (0,0) and (t,v) != (0,0)
    while True:
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in range(4))
        if (pt[0] or pt[1]) and (pt[2] or pt[3]):
            return pt


def verify_polynomial(poly, phi, k, samples=100, seed=0, check_x3=True):
    """Check the three certificates of a claimed implicit equation.

    (a) it vanishes exactly at `samples` seeded random parameter points that
        avoid the base locus, (b) it is homogeneous of total degree 2mn - k,
    (c) the monomial x3^(2mn-k) appears with nonzero coefficient (skipped on
    the k = 0 fallback path, where the echelon structure is unavailable).

    The vanishing test runs over Z.  Clearing the denominators of the a_i,
    of (s,u) and of (t,v) separately scales the bihomogeneous image phi(pt)
    by a nonzero integer c.  The polynomial's own denominators are cleared
    once, and its homogeneous part of degree d is weighted by c^(top - d),
    so the integer value is zero exactly when poly(phi(pt)) is.  `failures`
    lists the original rational points.
    """
    if samples < 1:
        raise ValueError("verification needs at least 1 sample, got %d"
                         % samples)
    rng = random.Random(seed)
    expected = 2 * phi.mn - k
    # one common factor for all four a_i only scales the image
    forms, den = _int_polys(phi.a)
    (terms,), _ = _int_polys([poly])
    parts = {}
    for c, mono in terms:
        parts.setdefault(sum(mono), []).append((c, mono))
    top = poly.total_degree()
    failures = []
    drawn = 0
    attempts = 0
    while drawn < samples:
        attempts += 1
        if attempts > 100 * samples + 100:
            raise VerificationError("could not sample points off the base "
                                    "locus; the map is degenerate")
        pt = _sample_point(rng)
        (s, u), den_su = clear(pt[:2])
        (t, v), den_tv = clear(pt[2:])
        image = [_int_eval(f, (s, u, t, v)) for f in forms]
        if not any(image):
            continue  # base point
        drawn += 1
        scale = den * den_su ** phi.m * den_tv ** phi.n
        value = sum(scale ** (top - d) * _int_eval(part, image)
                    for d, part in parts.items())
        if value:
            failures.append(pt)
    degree_ok = poly.is_homogeneous() and poly.total_degree() == expected
    if check_x3:
        x3_power = "ok" if poly.coeff((0, 0, 0, expected)) else "zero"
    else:
        x3_power = "skipped"
    return VerificationRecord(samples=samples, failures=failures,
                              vanishing_ok=not failures, degree=poly.total_degree(),
                              expected_degree=expected, degree_ok=degree_ok,
                              x3_power=x3_power)


def verify(result, phi, samples=100, seed=0):
    """Re-run the verification certificates for a pipeline result."""
    return verify_polynomial(result.polynomial, phi, result.k,
                             samples=samples, seed=seed,
                             check_x3=not result.projection_fallback)


def compose_linear(poly, T):
    """Substitute x_i -> sum_j T[i][j] x_j.

    With a coordinate change x' = T x applied to the parametrization, the
    transformed equation composed with T is an equation for the original
    surface.
    """
    subs = []
    for i in range(4):
        subs.append(XPoly({x_monomial(j): T[i][j] for j in range(4)
                           if T[i][j]}))
    out = XPoly.zero()
    for mono, c in poly.terms.items():
        term = XPoly.monomial((0, 0, 0, 0), c)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * subs[i]
        out = out + term
    return out


# ---------------------------------------------------------------------------
# pipeline


def pipeline(phi, config=None, report=None):
    """Conditions, basis selection, assembly, determinant, verification.

    Refuses to run when the condition battery fails, and refuses to return a
    polynomial whose verification failed, unless config.force is set.  When a
    coordinate change was needed, the returned polynomial describes the
    transformed parametrization and the change is reported alongside.
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

    raw = det_poly(M, config.det_backend)
    if raw.is_zero():
        raise ConditionError("det M is identically zero; the construction "
                             "does not apply", report=report)
    poly = normalize(raw)

    record = verify_polynomial(poly, phi_run, k, samples=config.samples,
                               seed=config.verify_seed, check_x3=not fallback)
    result = ImplicitResult(polynomial=poly, degree=poly.total_degree(), k=k,
                            backend="interp", pivots=pivots,
                            projection_fallback=fallback,
                            verification=record, report=report,
                            coordinate_change=report.coordinate_change,
                            coordinate_seed=report.coordinate_seed,
                            phi=phi_run)
    if not record.ok and not config.force:
        raise VerificationError(
            "verification failed: %d nonvanishing samples, degree %d vs %d, "
            "x3 power %s" % (len(record.failures), record.degree,
                             record.expected_degree, record.x3_power),
            record=record)
    return result
