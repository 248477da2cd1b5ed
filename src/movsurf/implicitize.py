"""Determinantal implicitization.

The pipeline selects an echelon basis of the k moving planes (unit pivot in
the x3 block), completes it with mn-k moving quadrics singled out by
projection onto distinguished coordinates, stacks everything into an mn x mn
matrix M of linear and quadratic forms, and expands det M.  The normalized
determinant is the implicit equation of the parametrized surface, of total
degree 2mn - k.

When there are no base points (k = 0) the projection can be singular -- the
Segre quadric x0*x3 - x1*x2 has no pure-square component at all -- and the
construction falls back to an arbitrary canonical basis of the mn moving
quadrics, which is all that case needs.

The determinant and the verification run on Python ints.  Each row of M is
scaled once to integer coefficients; det M is evaluated on an integer grid by
fraction-free Bareiss elimination, interpolated with integer differences and
integer Newton weights, and divided once at the end, so det_interpolation
returns det M exactly.  Verification clears the denominators of each sample
point and of the polynomial and tests vanishing over Z.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .basepoints import CheckConfig, ConditionReport, check_all
from .linalg import RatMatrix, det_bareiss, invert, rref
from .ring import XPoly, monomial_basis, coeff_vector, content_normalize
from .syzygy import (Parametrization, PROD_ORDER, SyzygyBasis,
                     moving_planes, moving_quadrics, surface_to_vector,
                     x_monomial)

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
    check: CheckConfig = CheckConfig()
    det_backend: str = "auto"      # cofactor | interp | both | auto
    samples: int = 100
    verify_seed: int = 0
    force: bool = False
    assert_one_to_one: bool = True


@dataclass
class ColumnIndexSet:
    """Partition of the 10mn quadric-map coordinates used by the projection.

    Each entry is a (parameter monomial, x monomial) pair; `distinguished`
    has mn + 3k of them, `rest` the other 9mn - 3k.
    """
    distinguished: list
    rest: list


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
    backend: str
    pivots: list
    projection_fallback: bool
    verification: VerificationRecord = None
    report: ConditionReport = None
    coordinate_change: RatMatrix = None
    coordinate_seed: int = None
    backend_agreement: bool = None
    phi: Parametrization = None


# ---------------------------------------------------------------------------
# plane echelonization


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
        return SyzygyBasis([], pivot_set=[]), []
    basis = monomial_basis(working_bidegree)
    x3rows = RatMatrix([coeff_vector(p.coeffs[X3], basis)
                        for p in planes.elements])
    R, pivot_cols, T = rref(x3rows)
    if len(pivot_cols) < k:
        raise ConditionError(
            "x3 block of the moving planes has rank %d < %d; "
            "a0,a1,a2 admit a syzygy" % (len(pivot_cols), k))
    new_elements = []
    for e in range(k):
        acc = None
        for j in range(k):
            c = T[e, j]
            if not c:
                continue
            part = planes.elements[j].scale(c)
            acc = part if acc is None else acc.add(part)
        new_elements.append(acc)
    pivots = [(basis[c][0], basis[c][2]) for c in pivot_cols]
    return SyzygyBasis(new_elements, pivot_set=pivots), pivots


# ---------------------------------------------------------------------------
# quadric selection


def _column_index(block, mono_idx, mn):
    return block * mn + mono_idx


def distinguished_columns(pivots, working_bidegree):
    """The mn + 3k projection coordinates and their complement."""
    basis = monomial_basis(working_bidegree)
    mono_index = {(m[0], m[2]): i for i, m in enumerate(basis)}
    chosen = []
    for alpha, beta in pivots:
        for j in range(3):
            chosen.append((basis[mono_index[(alpha, beta)]], x_monomial(j, 3)))
    for mono in basis:
        chosen.append((mono, X3SQ))
    chosen_set = set(chosen)
    rest = [(mono, x_monomial(i, j))
            for (i, j) in PROD_ORDER for mono in basis
            if (mono, x_monomial(i, j)) not in chosen_set]
    return ColumnIndexSet(distinguished=chosen, rest=rest)


def quadric_basis_via_projection(phi, pivots, quadrics=None):
    """Basis of moving quadrics with unit coordinates on the distinguished
    columns, one per column.

    Returns (elements, columns, fallback).  elements[i] projects to the unit
    vector on columns.distinguished[i].  With base points (k > 0) a singular
    projection means an upstream condition was certified wrongly and raises;
    without base points it falls back to the plain canonical kernel basis
    (fallback=True), keeping the construction available for quadrics like the
    Segre one that have no pure-square component.
    """
    if quadrics is None:
        quadrics = moving_quadrics(phi)
    mn = phi.mn
    k = len(pivots)
    expected = mn + 3 * k
    if quadrics.dim != expected:
        raise ConditionError(
            "moving-quadric space has dimension %d, expected mn + 3k = %d"
            % (quadrics.dim, expected))
    columns = distinguished_columns(pivots, phi.working_bidegree)

    basis = monomial_basis(phi.working_bidegree)
    mono_pos = {m: i for i, m in enumerate(basis)}
    block_pos = {x_monomial(i, j): b for b, (i, j) in enumerate(PROD_ORDER)}
    vectors = [surface_to_vector(q, phi) for q in quadrics.elements]
    idx = [_column_index(block_pos[xm], mono_pos[mono], mn)
           for mono, xm in columns.distinguished]
    # square restriction of the coordinate projection to the quadric space
    P = RatMatrix([[vectors[j][i] for j in range(expected)] for i in idx])
    Pinv = invert(P)
    if Pinv is None:
        if k > 0:
            raise ConditionError(
                "projection onto the distinguished quadric columns is "
                "singular; the certified conditions cannot all hold")
        return list(quadrics.elements), columns, True

    elements = []
    for w in range(expected):
        acc = None
        for j in range(expected):
            c = Pinv[j, w]
            if not c:
                continue
            part = quadrics.elements[j].scale(c)
            acc = part if acc is None else acc.add(part)
        elements.append(acc)
    return elements, columns, False


# ---------------------------------------------------------------------------
# matrix assembly


def _entry(surface, mono):
    coeff = {}
    for xm, f in surface.coeffs.items():
        c = f.terms.get(mono)
        if c:
            coeff[xm] = c
    return XPoly(coeff)


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

    entries = []
    labels = []
    for i, p in enumerate(planes.elements):
        entries.append([_entry(p, mono) for mono in col_monomials])
        labels.append("plane %d" % (i + 1))
    for q, mono in zip(quadric_rows, [basis[i] for i in rest_idx]):
        entries.append([_entry(q, m) for m in col_monomials])
        labels.append("quadric %s" % (mono,))
    return MMatrix(size=mn, entries=entries, linear_rows=k,
                   col_monomials=col_monomials, row_labels=labels)


def select_quadric_rows(elements, columns, pivots, working_bidegree, fallback):
    """The mn - k quadric rows that enter M (all rows when falling back)."""
    if fallback:
        return list(elements)
    basis = monomial_basis(working_bidegree)
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

BACKENDS = ("cofactor", "interp", "both")


def resolve_backend(M, backend="auto"):
    """The backend det_poly runs for M.

    `auto` is cofactor expansion up to size 2 and grid interpolation above;
    `cofactor` and `both` remain as oracles for the interpolated path.
    """
    if backend == "auto":
        return "cofactor" if M.size <= 2 else "interp"
    if backend not in BACKENDS:
        raise ValueError("unknown determinant backend %r" % backend)
    return backend


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


def _clear(values):
    """Integer multiples of `values` (ints or Fractions) by the lcm of their
    denominators; returns (ints, lcm)."""
    den = 1
    for x in values:
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in values], den


def _int_polys(polys):
    """The polynomials scaled by one common integer that clears all their
    denominators, as lists of (int coefficient, exponents) pairs; returns
    (lists, scale)."""
    ints, den = _clear([c for f in polys for c in f.terms.values()])
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
    """M with each row scaled once to integer coefficients.

    det of the scaled matrix is `scale` times det M, where `scale` is the
    product of the row lcms.  Entries are compiled to (coefficient, monomial
    index) pairs over the distinct monomials of M, so that evaluating at an
    integer point costs one power product per monomial and int dot products.
    """

    def __init__(self, M):
        index = {}
        self.rows = []
        self.scale = 1
        for row in M.entries:
            entries, den = _int_polys(row)
            self.scale *= den
            self.rows.append([[(c, index.setdefault(m, len(index)))
                               for c, m in e] for e in entries])
        self.monomials = list(index)

    def det(self, point):
        """scale * det M at an integer x-point, by Bareiss over Z."""
        x0, x1, x2, x3 = point
        mv = [x0 ** a * x1 ** b * x2 ** c * x3 ** d
              for a, b, c, d in self.monomials]
        A = RatMatrix([[sum(c * mv[i] for c, i in entry) for entry in row]
                       for row in self.rows], _trusted=True)
        return det_bareiss(A).numerator


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

    Each row of M is scaled once to integer coefficients, and every grid
    value is an integer Bareiss determinant of that scaled matrix.  Forward
    differences along each axis in turn give a! b! c! times the coefficients
    in the tensor Newton basis; coefficients of combined order above D vanish
    for a polynomial of total degree <= D, which is exactly why the
    triangular data suffices.  Expanding with the integer weights
    D!/a! * prod_{p<a}(y - p) keeps everything in Z, and a single division
    by (D!)^3 times the row scale at the end returns det M exactly.
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
    # values now holds (D!)^3 * scale times the coefficients of det M
    terms = [(v, (a, b, c, D - a - b - c))
             for (a, b, c), v in values.items() if v]
    cube = factorial(D) ** 3
    # guard: cross-check at a few random points off the grid, each cleared
    # to integers; both sides are homogeneous of degree D in the point
    rng = random.Random(1)
    for _ in range(3):
        pt, _ = _clear([Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                        for _ in range(4)])
        if _int_eval(terms, pt) != cube * rows.det(pt):
            raise ArithmeticError(
                "interpolated determinant disagrees with a direct evaluation;"
                " the determinant degree exceeds %d" % D)
    den = cube * rows.scale
    return XPoly({mono: Fraction(v, den) for v, mono in terms})


def det_poly(M, backend="auto"):
    """Exact determinant of an MMatrix as an XPoly."""
    backend = resolve_backend(M, backend)
    if backend == "cofactor":
        return det_cofactor(M)
    if backend == "interp":
        return det_interpolation(M)
    a = det_cofactor(M)
    if a != det_interpolation(M):
        raise ArithmeticError("cofactor and interpolation determinants disagree")
    return a


# ---------------------------------------------------------------------------
# normalization and verification


def normalize(p):
    """Integer coprime coefficients with a positive leading coefficient.

    The implicit equation is only defined up to a nonzero rational scalar;
    this fixes the representative.  Idempotent; rejects the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    monos = sorted(p.terms, key=lambda m: (sum(m), m[0], m[1], m[2]),
                   reverse=True)
    coeffs = content_normalize([p.terms[m] for m in monos])
    return XPoly({m: c for m, c in zip(monos, coeffs)})


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
        (s, u), den_su = _clear(pt[:2])
        (t, v), den_tv = _clear(pt[2:])
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
        subs.append(XPoly({x_monomial(j): T[i, j] for j in range(4)
                           if T[i, j]}))
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

    backend_used = resolve_backend(M, config.det_backend)
    raw = det_poly(M, backend_used)
    agreement = True if backend_used == "both" else None
    if raw.is_zero():
        raise ConditionError("det M is identically zero; the construction "
                             "does not apply", report=report)
    poly = normalize(raw)

    record = verify_polynomial(poly, phi_run, k, samples=config.samples,
                               seed=config.verify_seed, check_x3=not fallback)
    result = ImplicitResult(polynomial=poly, degree=poly.total_degree(), k=k,
                            backend=backend_used, pivots=pivots,
                            projection_fallback=fallback,
                            verification=record, report=report,
                            coordinate_change=report.coordinate_change,
                            coordinate_seed=report.coordinate_seed,
                            backend_agreement=agreement, phi=phi_run)
    if not record.ok and not config.force:
        raise VerificationError(
            "verification failed: %d nonvanishing samples, degree %d vs %d, "
            "x3 power %s" % (len(record.failures), record.degree,
                             record.expected_degree, record.x3_power),
            record=record)
    return result
