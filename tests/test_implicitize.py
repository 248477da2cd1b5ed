import hashlib
import math
import random
from fractions import Fraction

import pytest

from movsurf import (BihomPoly, ConditionError, MMatrix, Parametrization,
                     PipelineConfig, RatMatrix, SyzygyBasis, XPoly,
                     assemble_M, det_bareiss,
                     det_poly, implicitize,
                     echelon_plane_basis, generic_change, monomial_basis,
                     moving_planes, moving_quadrics, normalize, parse,
                     parse_xpoly, pipeline, quadric_basis_via_projection,
                     VerificationError, verify_polynomial)
from movsurf import linalg
from movsurf.basepoints import CheckConfig
from movsurf.implicitize import _IntegerRows, select_quadric_rows
from movsurf.syzygy import X_MONOMIALS, x_monomial

import oracle
from conftest import (QUARTIC_BP_STRINGS, assembled_M, counted_calls,
                      job_phi, load_golden, nonzero_blocks, perfbench_jobs,
                      random_parametrization, row_surface, substitute,
                      surface_row, two_base_points, x_multiple)
from oracle import (coeff_vector, compose_linear, det_cofactor, rref,
                    verification_by_fractions)


# --- plane echelonization -----------------------------------------------------

def test_echelon_quartic(quartic_bp):
    planes = moving_planes(quartic_bp)
    basis, pivots = echelon_plane_basis(planes, (1, 1))
    assert pivots == [(1, 1)]  # the s*t monomial
    plane = row_surface(basis.elements[0], (1, 1))
    assert plane[x_monomial(3)] == parse("s*t + u*t")
    assert plane[x_monomial(0)] == parse("-s*t")
    assert plane[x_monomial(1)] == parse("s*v")
    assert plane[x_monomial(2)] == parse("-u*v")


def test_echelon_empty_basis():
    basis, pivots = echelon_plane_basis(SyzygyBasis([]), (1, 1))
    assert basis.dim == 0 and pivots == []


def test_echelon_idempotent_on_synthetic_pair():
    # two fake planes already in echelon position on the x3 block
    b = monomial_basis((1, 1))
    def surf(x3_poly, x0_poly):
        return surface_row({x_monomial(0): x0_poly,
                            x_monomial(1): BihomPoly.zero((1, 1)),
                            x_monomial(2): BihomPoly.zero((1, 1)),
                            x_monomial(3): x3_poly}, (1, 1))
    p1 = surf(parse("s*t + u*v"), parse("s*v"))
    p2 = surf(parse("s*v - u*v"), parse("u*t"))
    basis, pivots = echelon_plane_basis(SyzygyBasis([p1, p2]), (1, 1))
    assert pivots == [(1, 1), (1, 0)]
    assert (row_surface(basis.elements[0], (1, 1))[x_monomial(3)]
            == parse("s*t + u*v"))
    assert (row_surface(basis.elements[1], (1, 1))[x_monomial(3)]
            == parse("s*v - u*v"))


def test_echelon_fails_when_x3_block_degenerate():
    zero = BihomPoly.zero((1, 1))
    p = surface_row({x_monomial(0): parse("s*t"), x_monomial(1): zero,
                     x_monomial(2): zero, x_monomial(3): zero}, (1, 1))
    with pytest.raises(ConditionError):
        echelon_plane_basis(SyzygyBasis([p]), (1, 1))


# --- quadric selection ----------------------------------------------------------

def test_projection_quartic_pivot_multiples_are_plane_multiples(quartic_bp):
    planes = moving_planes(quartic_bp)
    ech, pivots = echelon_plane_basis(planes, (1, 1))
    elements, columns, fallback = quadric_basis_via_projection(quartic_bp, pivots)
    assert not fallback
    assert len(elements) == 7
    assert len(columns) == 7
    p1 = ech.elements[0]

    # the first three distinguished columns are (pivot, x_j*x3), j = 0..2;
    # their preimages are exactly the x_j multiples of the echelon plane
    for j in range(3):
        assert columns[j][1] == x_monomial(j, 3)
        assert (nonzero_blocks(elements[j], (1, 1))
                == x_multiple(p1, j, (1, 1)))
    # the preimage of the pivot square column is a plane multiple only up to
    # contributions from other distinguished columns: here the projection of
    # x3*P1 hits (s*t, x0*x3) with -1 and (u*t, x3^2) with +1 besides the
    # pivot square, so the exact relation is
    #     Q_pivot_sq = x3*P1 + x0*P1 - Q_ut_sq
    pivot_mono = (1, 0, 1, 0)
    pos = columns.index((pivot_mono, x_monomial(3, 3)))
    assert substitute(elements[pos], quartic_bp).is_zero()
    ut_pos = columns.index(((0, 1, 1, 0), x_monomial(3, 3)))
    terms = [(row_surface(elements[pos], (1, 1)), 1),
             (x_multiple(p1, 3, (1, 1)), -1),
             (x_multiple(p1, 0, (1, 1)), -1),
             (row_surface(elements[ut_pos], (1, 1)), 1)]
    zero = BihomPoly.zero((1, 1))
    for xm in set().union(*(surface for surface, _ in terms)):
        combo = zero
        for surface, sign in terms:
            combo = combo + surface.get(xm, zero).scale(sign)
        assert combo.is_zero()


def test_projection_quartic_quadric_rows_follow(quartic_bp):
    _, pivots = echelon_plane_basis(moving_planes(quartic_bp), (1, 1))
    elements, columns, fallback = quadric_basis_via_projection(quartic_bp, pivots)
    rows = select_quadric_rows(elements, columns, pivots, (1, 1), fallback)
    assert len(rows) == 3
    for q in rows:
        assert substitute(q, quartic_bp).is_zero()
        # unit coefficient on its own x3^2 column, zero on the others
        x3sq = row_surface(q, (1, 1))[x_monomial(3, 3)]
        assert sum(1 for c in x3sq.terms.values() if c) == 1
        assert list(x3sq.terms.values())[0] == 1


def test_projection_segre_falls_back(segre):
    elements, columns, fallback = quadric_basis_via_projection(segre, [])
    assert fallback
    assert len(elements) == 1


def test_projection_generic_k0_keeps_square_pattern():
    # on a generic base-point-free instance the projection succeeds and every
    # selected quadric carries a unit coefficient on its own x3^2 column
    rng = random.Random(100)  # first qualifying seed from the shared stream
    phi = random_parametrization(rng, 2, 2)
    assert moving_planes(phi).dim == 0
    elements, columns, fallback = quadric_basis_via_projection(phi, [])
    assert not fallback
    assert len(elements) == phi.mn
    for q, (mono, xm) in zip(elements, columns):
        assert xm == x_monomial(3, 3)
        x3sq = row_surface(q, phi.working_bidegree)[x_monomial(3, 3)]
        assert x3sq.terms == {mono: 1}


@pytest.mark.parametrize("swaps", ["tv", "su tv"],
                         ids=["t-v", "s-u-and-t-v"])
def test_plane_pivot_off_the_first_monomial(swaps):
    # swapping t and v (and s and u) reparametrizes P1 x P1, so the surface
    # and its equation stay the quartic's, but the plane pivot moves from
    # s*t to s*v, which is not the first monomial of bidegree (1, 1)
    table = {}
    for a, b in swaps.split():
        table.update({a: b, b: a})
    strings = [s.translate(str.maketrans(table)) for s in QUARTIC_BP_STRINGS]
    phi = Parametrization(2, 2, tuple(parse(s, bidegree=(2, 2))
                                      for s in strings))
    res = pipeline(phi)
    assert res.pivots == [(1, 0)] and res.report.coordinate_change is None
    assert res.verification.ok
    golden = parse_xpoly(load_golden("quartic_base_point_implicit.txt"))
    assert res.polynomial == golden
    M = assembled_M(phi)
    assert M.linear_rows == 1 and M.col_monomials[0] == (1, 0, 0, 1)
    assert M.entries[0][0].coeff(x_monomial(3)) == 1
    for i in range(1, M.size):
        assert M.entries[i][i].coeff(x_monomial(3, 3)) == 1


def test_projection_dimension_mismatch_raises(quartic_bp):
    bogus = SyzygyBasis(list(moving_quadrics(quartic_bp).elements[:5]))
    with pytest.raises(ConditionError):
        quadric_basis_via_projection(quartic_bp, [(1, 1)], quadrics=bogus)


def test_projection_singular_raises_with_base_points_and_falls_back_without(
        quartic_bp):
    # a duplicated quadric keeps the dimension count but makes the
    # distinguished columns singular
    def duplicated(phi):
        elements = list(moving_quadrics(phi).elements)
        return SyzygyBasis(elements[:-1] + [elements[0]])

    with pytest.raises(ConditionError, match="singular"):
        quadric_basis_via_projection(quartic_bp, [(1, 1)],
                                     quadrics=duplicated(quartic_bp))
    phi = random_parametrization(random.Random(100), 2, 2)
    quadrics = duplicated(phi)
    elements, columns, fallback = quadric_basis_via_projection(
        phi, [], quadrics=quadrics)
    assert fallback
    assert elements == quadrics.elements
    assert len(columns) == phi.mn


@pytest.mark.parametrize("which", ["quartic", "two_base_points",
                                   "changed_quartic"])
def test_bases_match_fraction_rref_reference(quartic_bp, which):
    phi = {"quartic": lambda: quartic_bp,
           "two_base_points": two_base_points,
           "changed_quartic": lambda: generic_change(quartic_bp, 1)[0]}[which]()
    wdeg = phi.working_bidegree
    basis = monomial_basis(wdeg)
    planes = moving_planes(phi)
    ech, pivots = echelon_plane_basis(planes, wdeg)
    surfaces = [row_surface(p, wdeg) for p in planes.elements]
    # reference: the transform T of the Fraction RREF of the x3 rows
    x3rows = RatMatrix([coeff_vector(p[x_monomial(3)], basis)
                        for p in surfaces])
    _, pivot_cols, T = rref(x3rows)
    assert pivots == [(basis[c][0], basis[c][2]) for c in pivot_cols]
    assert ech.dim == planes.dim == len(pivots)
    zero = BihomPoly.zero(wdeg)
    for i, plane in enumerate(ech.elements):
        expected = {}
        for xm in surfaces[0]:
            acc = zero
            for j, p in enumerate(surfaces):
                acc = acc + p[xm].scale(T[i, j])
            expected[xm] = acc
        assert row_surface(plane, wdeg) == expected

    elements, columns, fallback = quadric_basis_via_projection(phi, pivots)
    assert not fallback
    assert len(elements) == len(columns) == phi.mn + 3 * len(pivots)
    for i, q in enumerate(elements):
        assert substitute(q, phi).is_zero()
        surface = row_surface(q, wdeg)
        assert [surface[xm].coeff(mono)
                for mono, xm in columns] == [
                    int(i == j) for j in range(len(elements))]


# --- assembly -------------------------------------------------------------------

def test_assemble_quartic_matrix(quartic_bp):
    planes = moving_planes(quartic_bp)
    ech, pivots = echelon_plane_basis(planes, (1, 1))
    elements, columns, fallback = quadric_basis_via_projection(quartic_bp, pivots)
    rows = select_quadric_rows(elements, columns, pivots, (1, 1), fallback)
    M = assemble_M(ech, rows, pivots, (1, 1))
    assert M.size == 4 and M.linear_rows == 1
    # pivot column (s*t) comes first
    assert M.col_monomials[0] == (1, 0, 1, 0)
    # first row carries the plane coefficients: by column monomial
    by_mono = dict(zip(M.col_monomials, M.entries[0]))
    assert by_mono[(1, 0, 1, 0)] == parse_xpoly("x3 - x0")
    assert by_mono[(1, 0, 0, 1)] == parse_xpoly("x1")
    assert by_mono[(0, 1, 1, 0)] == parse_xpoly("x3")
    assert by_mono[(0, 1, 0, 1)] == parse_xpoly("-x2")
    # diagonal structure: x3 on the first entry, x3^2 on the rest
    assert M.entries[0][0].coeff((0, 0, 0, 1)) == 1
    for i in range(1, 4):
        assert M.entries[i][i].coeff((0, 0, 0, 2)) == 1


def test_assemble_rejects_wrong_row_count(quartic_bp):
    planes = moving_planes(quartic_bp)
    ech, pivots = echelon_plane_basis(planes, (1, 1))
    with pytest.raises(ValueError):
        assemble_M(ech, [], pivots, (1, 1))


def test_quadric_rows_never_duplicate_plane_multiples(quartic_bp):
    planes = moving_planes(quartic_bp)
    ech, pivots = echelon_plane_basis(planes, (1, 1))
    elements, columns, fallback = quadric_basis_via_projection(quartic_bp, pivots)
    rows = select_quadric_rows(elements, columns, pivots, (1, 1), fallback)
    multiples = [x_multiple(ech.elements[0], j, (1, 1)) for j in range(4)]
    for q in rows:
        assert nonzero_blocks(q, (1, 1)) not in multiples


# --- determinants ----------------------------------------------------------------

def _diag_matrix(entries):
    n = len(entries)
    zero = XPoly.zero()
    rows = [[entries[i] if i == j else zero for j in range(n)]
            for i in range(n)]
    degs = [e.total_degree() for e in entries]
    linear = sum(1 for d in degs if d == 1)
    return MMatrix(entries=rows, linear_rows=linear,
                   col_monomials=list(range(n)))


def test_det_of_diagonal_matrix():
    d1 = parse_xpoly("x0 + x3")
    d2 = parse_xpoly("x1*x2 - x3^2")
    d3 = parse_xpoly("x0*x1 + 2*x2*x3")
    M = _diag_matrix([d1, d2, d3])
    assert det_cofactor(M) == d1 * d2 * d3


def test_det_backends_agree_on_random_homogeneous_matrices():
    # rows carry Fraction coefficients, each row over its own denominators;
    # interpolation must give det M exactly, not just up to a scalar
    rng = random.Random(31)
    xm1 = [x_monomial(i) for i in range(4)]
    xm2 = [x_monomial(i, j) for i in range(4) for j in range(i, 4)]
    for trial in range(10):
        n = trial % 4 + 1
        linear = rng.randint(0, n)
        rows = []
        for i in range(n):
            monos = xm1 if i < linear else xm2
            dens = rng.sample([1, 2, 3, 5, 7, 11], 3)
            rows.append([XPoly({m: Fraction(rng.randint(-6, 6), rng.choice(dens))
                                for m in monos if rng.random() < 0.7})
                         for _ in range(n)])
        M = MMatrix(entries=rows, linear_rows=linear,
                    col_monomials=list(range(n)))
        assert det_cofactor(M) == det_poly(M)


def test_det_interpolation_through_row_swaps_and_zero_columns():
    rows = [["x0", "2/3*x2", "1/2*x1 + x3"],
            ["1/5*x0 + x3", "x2", "x1"],
            ["x1*x3", "x0*x2", "3/7*x0^2 - x3^2"]]
    M = MMatrix(entries=[[parse_xpoly(e) for e in row] for row in rows],
                linear_rows=2, col_monomials=[0, 1, 2])
    # at x0 = 0 the first pivot is zero and Bareiss swaps rows; at x2 = 0
    # the whole second column vanishes and Bareiss stops on a zero column
    assert M.evaluate((0, 1, 1, 1))[0, 0] == 0
    assert M.evaluate((0, 1, 1, 1))[1, 0] != 0
    assert [row[1] for row in M.evaluate((1, 1, 0, 1)).entries] == [0, 0, 0]
    det = det_poly(M)
    assert det == det_cofactor(M)
    assert not det.is_zero()


def test_det_interpolation_guard_catches_underdeclared_degrees():
    rows = [["x0^2 + x1*x3", "x2^2"], ["x1^2", "x3^2 - x0*x2"]]
    entries = [[parse_xpoly(e) for e in row] for row in rows]
    # declaring the quadratic rows linear makes D = 2 instead of 4
    M = MMatrix(entries=entries, linear_rows=2, col_monomials=[0, 1])
    with pytest.raises(ArithmeticError):
        det_poly(M)
    honest = MMatrix(entries=entries, linear_rows=0, col_monomials=[0, 1])
    assert det_poly(honest) == det_cofactor(honest)


@pytest.mark.parametrize("rows, linear, declared, found", [
    ([["x2^3"]], 0, 2, 3),
    ([["x0 + x3^2"]], 1, 1, 2),
    ([["x0^2 + x1*x3", "x2^2"], ["x1^2", "x3^2 - x0*x2"]], 2, 1, 2),
], ids=["cubic", "nonhomogeneous", "underdeclared"])
def test_degree_check_fails_before_the_grid(rows, linear, declared, found,
                                            monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid ran on a malformed M")

    monkeypatch.setattr(_IntegerRows, "dets", no_grid)
    M = MMatrix(entries=[[parse_xpoly(e) for e in row] for row in rows],
                linear_rows=linear, col_monomials=list(range(len(rows))))
    with pytest.raises(ArithmeticError,
                       match="declared of degree %d has a term of degree %d"
                       % (declared, found)):
        det_poly(M)


@pytest.mark.parametrize("rows", [
    [["x0", "x1"]],
    [["x0"], ["x1"]],
], ids=["long-row", "short-rows"])
def test_non_square_M_fails_before_the_grid(rows, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid ran on a non-square M")

    monkeypatch.setattr(_IntegerRows, "dets", no_grid)
    M = MMatrix(entries=[[parse_xpoly(e) for e in row] for row in rows],
                linear_rows=len(rows), col_monomials=list(range(len(rows))))
    with pytest.raises(ValueError,
                       match="non-square %d x %d" % (len(rows), len(rows[0]))):
        det_poly(M)


@pytest.fixture(scope="module")
def generic_33():
    """M of a seeded generic (3,3) input, and its interpolated determinant."""
    M = assembled_M(random_parametrization(random.Random(0), 3, 3))
    return M, det_poly(M)


def test_det_interpolation_is_exact_at_3_3(generic_33):
    M, det = generic_33
    assert M.size == 9 and M.linear_rows == 0
    rng = random.Random(8)
    for _ in range(5):
        # x3 >= 2 keeps the points off the grid (i, j, l, 1)
        point = tuple(rng.randint(-30, 30) for _ in range(3)) + (
            rng.randint(2, 30),)
        value = det_bareiss(M.evaluate(point))
        assert value and det.evaluate(point) == value


def test_det_3_3_grid_rows_are_reduced(generic_33):
    # the rows of M itself have coefficients of about 230 bits here
    M, _ = generic_33
    rows = _IntegerRows(M).rows
    assert max(abs(c).bit_length()
               for row in rows for entry in row for c, _ in entry) <= 64


def test_det_3_3_normalized_digest(generic_33):
    # sha256 of the rendered normalized determinant, as written by the code
    # that took the determinant of the unreduced rows
    _, det = generic_33
    digest = hashlib.sha256(normalize(det).render().encode()).hexdigest()
    assert digest[:16] == "f21d1a26addcd63e"


def test_dependent_quadric_rows_give_a_zero_determinant(quartic_bp,
                                                        monkeypatch):
    M = assembled_M(quartic_bp)
    entries = [list(row) for row in M.entries]
    entries[3] = [e.scale(Fraction(3, 2)) for e in entries[2]]
    dependent = MMatrix(entries=entries, linear_rows=1,
                        col_monomials=M.col_monomials)
    assert det_poly(dependent).is_zero()
    assert det_cofactor(dependent).is_zero()

    def dependent_rows(*args):
        rows = select_quadric_rows(*args)
        return rows[:-1] + [[2 * x for x in rows[-2]]]

    monkeypatch.setattr(implicitize, "select_quadric_rows", dependent_rows)
    with pytest.raises(ConditionError, match="identically zero"):
        pipeline(quartic_bp)


def test_det_poly_of_the_empty_matrix_is_one():
    M = MMatrix(entries=[], linear_rows=0, col_monomials=[])
    assert det_poly(M) == det_cofactor(M) == XPoly.monomial((0, 0, 0, 0))


def test_det_poly_runs_the_grid_at_sizes_one_and_two(segre, monkeypatch):
    two_to_one = Parametrization(2, 1, tuple(parse(s) for s in (
        "s^2*t", "s^2*v", "u^2*t", "u^2*v")))
    calls = []
    grid_det = implicitize._grid_det

    def counted(rows):
        calls.append(len(rows.rows))
        return grid_det(rows)

    monkeypatch.setattr(implicitize, "_grid_det", counted)
    for phi, size in ((segre, 1), (two_to_one, 2)):
        M = assembled_M(phi)
        assert M.size == size
        assert det_poly(M) == det_cofactor(M)
        assert calls[-1] == size
    assert len(calls) == 2


def test_det_poly_accepts_only_auto(segre):
    M = assembled_M(segre)
    for backend in ("cofactor", "interp", "both", "lu"):
        with pytest.raises(ValueError, match="backend"):
            det_poly(M, backend)
    for backend in ("cofactor", "both"):
        with pytest.raises(ValueError, match="backend"):
            PipelineConfig(det_backend=backend)


def grid_inputs():
    """(id, parametrization) whose M the line path is checked on."""
    quartic = Parametrization(2, 2, tuple(parse(f, bidegree=(2, 2))
                                          for f in QUARTIC_BP_STRINGS))
    segre = Parametrization(1, 1, tuple(parse(f) for f in (
        "s*t", "s*v", "u*t", "u*v")))
    return [("segre", segre), ("quartic", quartic),
            ("seeded_23", random_parametrization(random.Random(0), 2, 3)),
            ("two_base_points", two_base_points())]


@pytest.mark.parametrize("name, phi", grid_inputs(),
                         ids=[name for name, _ in grid_inputs()])
def test_grid_lines_give_the_bareiss_determinants(name, phi):
    M = assembled_M(phi)
    rows = _IntegerRows(M)
    D = sum(M.row_degrees())
    for i in range(D + 1):
        for j in range(D + 1 - i):
            count = D + 1 - i - j
            assert rows.dets((i, j, 0, 1), count) == [
                det_bareiss(M.evaluate((i, j, l, 1))) / rows.ratio
                for l in range(count)]
    # the guard's lines: any x3, and a start off the origin
    rng = random.Random(4)
    for _ in range(4):
        x0, x1, x2, x3 = (rng.randint(-9, 9) for _ in range(4))
        assert rows.dets((x0, x1, x2, x3), 3) == [
            det_bareiss(M.evaluate((x0, x1, x2 + t, x3))) / rows.ratio
            for t in range(3)]


# --- normalization ----------------------------------------------------------------

def test_normalize_examples():
    assert normalize(parse_xpoly("2*x0 - 4*x1")) == parse_xpoly("x0 - 2*x1")
    assert normalize(parse_xpoly("-x3")) == parse_xpoly("x3")
    p = parse_xpoly("x0^2 - 3*x1*x2")
    assert normalize(p) == p
    assert normalize(normalize(parse_xpoly("2/3*x0 - 4/5*x1"))) == \
        normalize(parse_xpoly("2/3*x0 - 4/5*x1"))


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize(XPoly.zero())


def test_normalize_clears_denominators():
    p = normalize(parse_xpoly("1/2*x0 + 1/3*x1"))
    assert p == parse_xpoly("3*x0 + 2*x1")


# --- verification -----------------------------------------------------------------

def test_verify_golden_polynomial(quartic_bp):
    golden = parse_xpoly(load_golden("quartic_base_point_implicit.txt"))
    assert golden.evaluate((2, 2, 2, 1)) == 0  # phi at (1,1,1,1)
    record = verify_polynomial(golden, quartic_bp, k=1, samples=50, seed=5)
    assert record.ok and record.vanishing_ok
    assert record.degree == 7 == 2 * quartic_bp.mn - 1
    assert record.x3_power == "ok"


def test_verify_flags_wrong_polynomial(quartic_bp):
    wrong = parse_xpoly("x0^7 + x1^7")
    record = verify_polynomial(wrong, quartic_bp, k=1, samples=20, seed=1)
    assert not record.vanishing_ok
    assert record.failures


def test_verify_segre_identity(segre):
    p = parse_xpoly("x0*x3 - x1*x2")
    record = verify_polynomial(p, segre, k=0, samples=50, seed=2,
                               check_x3=False)
    assert record.ok
    assert record.x3_power == "skipped"


def _oracle_failures(poly, phi, samples, seed):
    """The sample points at which poly(phi(pt)) != 0, by Fraction arithmetic."""
    return verification_by_fractions(poly, phi, 0, samples, seed).failures


RATIONAL_SEGRE = ["1/2*s*t", "2/3*s*v - u*t", "u*t", "3/5*u*v + s*t"]


@pytest.mark.parametrize("polystr", [
    "0",                                        # the zero polynomial
    "x0^7 + x1^7",                              # wrong, integer
    "2/3*x0*x3 - 5/7*x1*x2",                    # wrong, non-integer
    "x0 - 1",                                   # inhomogeneous
    "1/2*x0^2*x3 - 1/3*x1*x2*x3 + x0 - 2/5*x2", # inhomogeneous, non-integer
])
@pytest.mark.parametrize("which", ["quartic", "rational_segre"])
def test_verify_failures_match_fraction_oracle(quartic_bp, which, polystr):
    phi = quartic_bp if which == "quartic" else Parametrization(
        1, 1, tuple(parse(s) for s in RATIONAL_SEGRE))
    poly = parse_xpoly(polystr)
    record = verify_polynomial(poly, phi, k=0, samples=60, seed=3)
    assert record.failures == _oracle_failures(poly, phi, 60, 3)


def test_verify_oracle_sees_mixed_outcomes_on_inhomogeneous_input(segre):
    # x0 - 1 vanishes only where s*t = 1: the integer path has to weight the
    # two homogeneous parts correctly to agree with the oracle
    poly = parse_xpoly("x0 - 1")
    record = verify_polynomial(poly, segre, k=0, samples=200, seed=0)
    assert 0 < len(record.failures) < 200
    assert record.failures == _oracle_failures(poly, segre, 200, 0)


def test_verify_raises_verification_error_when_sampling_fails():
    zero = BihomPoly.zero((1, 1))
    phi = Parametrization(1, 1, (zero, zero, zero, zero))
    with pytest.raises(VerificationError) as info:
        verify_polynomial(parse_xpoly("x0"), phi, k=0, samples=1)
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("samples", [0, -4])
def test_verify_rejects_fewer_than_one_sample(quartic_bp, samples):
    golden = parse_xpoly(load_golden("quartic_base_point_implicit.txt"))
    with pytest.raises(ValueError, match="at least 1 sample"):
        verify_polynomial(golden, quartic_bp, k=1, samples=samples)


@pytest.mark.parametrize("samples", [0, -4])
def test_pipeline_config_rejects_fewer_than_one_sample(quartic_bp, samples,
                                                       monkeypatch):
    built = []
    integer_rows = _IntegerRows

    def counted(M):
        built.append(M)
        return integer_rows(M)

    monkeypatch.setattr(implicitize, "_IntegerRows", counted)
    with pytest.raises(ValueError, match="at least 1 sample"):
        pipeline(quartic_bp, PipelineConfig(samples=samples))
    assert built == []


def _changed(poly):
    """poly with the coefficient of its leading term raised by 1."""
    mono, c = poly.sorted_terms()[0]
    return XPoly({**poly.terms, mono: c + 1})


def _benchmark_results(workload, seed):
    """(job, pipeline result) of each implicit benchmark job, run with the
    job's seed as the command line runs it."""
    for job in perfbench_jobs().make_jobs(workload, seed):
        if job["expect"]["outcome"] != "implicit":
            continue
        config = PipelineConfig(check=CheckConfig(seed=job["seed"]),
                                assert_one_to_one=job["assert_one_to_one"])
        yield job, pipeline(job_phi(job), config)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["generic", "basepoints"])
def test_verify_record_matches_fraction_reference_on_the_benchmark(workload,
                                                                   seed):
    # fewer samples than the pipeline's 100: the Fraction reference takes
    # about 0.005 s per sample of a (2,2) output and 0.03 s at (3,3)
    for job, res in _benchmark_results(workload, seed):
        samples = 20 if res.phi.mn <= 4 else 5
        for poly in (res.polynomial, _changed(res.polynomial)):
            args = (poly, res.phi, res.k, samples, job["seed"],
                    not res.projection_fallback)
            record = verify_polynomial(*args)
            assert record == verification_by_fractions(*args), job["name"]
            assert record.ok == (poly is res.polynomial)


@pytest.mark.parametrize("polystr", [
    None,                  # the pipeline's output
    "x0*x2 - x2",          # inhomogeneous, vanishes where u*t*(s*t - 2) = 0
])
def test_verify_record_matches_fraction_reference_at_reducing_samples(
        polystr):
    phi = Parametrization(1, 1, tuple(parse(s) for s in RATIONAL_SEGRE))
    output = pipeline(phi).polynomial
    seed, samples = 4, 100
    # the first draws of the seed are (numerator, denominator) pairs, and
    # some of them reduce, like 4/2
    rng = random.Random(seed)
    draws = [(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(4 * samples)]
    assert any(math.gcd(n, d) > 1 for n, d in draws)
    polys = ([output, _changed(output)] if polystr is None
             else [parse_xpoly(polystr)])
    for poly in polys:
        args = (poly, phi, 0, samples, seed, False)
        record = verify_polynomial(*args)
        assert record == verification_by_fractions(*args)
    if polystr == "x0*x2 - x2":
        assert 0 < len(record.failures) < samples


# --- the full pipeline -------------------------------------------------------------

def test_pipeline_quartic_matches_golden(quartic_bp):
    res = pipeline(quartic_bp)
    golden = parse_xpoly(load_golden("quartic_base_point_implicit.txt"))
    assert res.polynomial == golden
    assert res.degree == 7 and res.k == 1
    assert len(res.polynomial.terms) == 27
    assert res.verification.ok
    assert res.report.coordinate_change is None


def test_pipeline_segre(segre):
    res = pipeline(segre)
    assert res.polynomial == parse_xpoly(load_golden("segre_implicit.txt"))
    assert res.projection_fallback
    assert res.k == 0 and res.degree == 2
    assert res.verification.ok


def test_pipeline_deterministic_across_backends(quartic_bp):
    # the grid against the cofactor oracle, on the M the pipeline assembles
    a = pipeline(quartic_bp)
    b = pipeline(quartic_bp)
    assert a.polynomial == b.polynomial
    assert a.polynomial == normalize(det_cofactor(assembled_M(a.phi)))


def test_pipeline_random_base_point_free_22():
    rng = random.Random(7)
    phi = random_parametrization(rng, 2, 2)
    res = pipeline(phi)
    assert res.k == 0
    assert res.degree == 8 == 2 * phi.mn
    assert res.verification.ok


def test_pipeline_refuses_bad_input(quartic_bp):
    a0, a1, a2, _ = quartic_bp.a
    phi = Parametrization(2, 2, (a0, a1, a2, a0))
    with pytest.raises(ConditionError):
        pipeline(phi)


def test_pipeline_forced_run_on_degenerate_input(quartic_bp):
    # with force, a dependent quadruple still yields a consistent (if
    # degenerate) answer instead of crashing: the image lies in the plane
    # x0 = x3 and the determinant is that plane to the mn-th power
    a0, a1, a2, _ = quartic_bp.a
    phi = Parametrization(2, 2, (a0, a1, a2, a0))
    res = pipeline(phi, PipelineConfig(force=True))
    assert res.k == 4
    assert res.polynomial == parse_xpoly(
        "x0^4 - 4*x0^3*x3 + 6*x0^2*x3^2 - 4*x0*x3^3 + x3^4")
    assert res.verification.vanishing_ok


def test_pipeline_refuses_without_one_to_one_assertion(quartic_bp):
    with pytest.raises(ConditionError):
        pipeline(quartic_bp, PipelineConfig(assert_one_to_one=False))
    res = pipeline(quartic_bp, PipelineConfig(assert_one_to_one=False,
                                              force=True))
    assert res.verification.ok


def test_pipeline_pullback_through_coordinate_change(quartic_bp):
    golden = parse_xpoly(load_golden("quartic_base_point_implicit.txt"))
    changed, T = generic_change(quartic_bp, seed=3)
    res = pipeline(changed)
    assert res.verification.ok
    pulled = normalize(compose_linear(res.polynomial, T))
    assert pulled == golden


def test_pipeline_two_base_points_mixed_rows():
    # two simple base points, so M mixes 2 linear rows with 2 quadric rows
    phi = two_base_points()
    for f in phi.a:
        assert f.evaluate((0, 1, 0, 1)) == 0
        assert f.evaluate((1, 0, 1, 0)) == 0
    res = pipeline(phi)
    assert res.k == 2
    assert res.degree == 6 == 2 * phi.mn - res.k
    assert len(res.pivots) == 2
    assert res.verification.ok
    assert res.verification.x3_power == "ok"
    assert res.report.coordinate_change is None


def test_pipeline_degenerate_k_equals_mn():
    # bidegree (1,2) reparametrization of the rank-4 quadric with two simple
    # base points: k = mn = 2, so M consists entirely of linear rows
    a = (parse("s*t^2"), parse("s*t*v"), parse("u*t*v"), parse("u*v^2"))
    phi = Parametrization(1, 2, a)
    res = pipeline(phi)
    assert res.k == 2 == phi.mn
    assert res.degree == 2 * phi.mn - res.k == 2
    assert res.verification.ok
    # pull the equation back through the recorded recombination, if any
    p = res.polynomial
    if res.report.coordinate_change is not None:
        p = normalize(compose_linear(p, res.report.coordinate_change))
    assert p == parse_xpoly("x0*x3 - x1*x2")


def test_pipeline_runs_without_fraction_gauss_jordan(quartic_bp, monkeypatch):
    # rref and solve_membership are reference solves; the pipeline itself
    # runs on the integer echelon and det_bareiss only
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction Gauss-Jordan reached from the pipeline")

    monkeypatch.setattr(oracle, "_eliminate", refuse)
    for phi in (quartic_bp, two_base_points()):
        assert pipeline(phi).verification.ok


# --- the vanishing certificate -----------------------------------------------------

def _perturb_a_reduced_row(monkeypatch):
    # add 1 to the first LLL-reduced row of each group at a column off the
    # saturation's pivots, where the ratio of det M to the reduced
    # determinant is read
    pivots = []

    def saturation(rows, ncols):
        sat = linalg.saturation(rows, ncols)
        pivots.append(set(sat.pivots))
        return sat

    def lll(rows):
        out = linalg.lll(rows)
        if out:
            out[0][min(set(range(len(out[0]))) - pivots[-1])] += 1
        return out

    monkeypatch.setattr(implicitize, "saturation", saturation)
    monkeypatch.setattr(implicitize, "lll", lll)


def _reverse_x_blocks(monkeypatch):
    def reversed_blocks(*args):
        M = assemble_M(*args)
        entries = []
        for row, degree in zip(M.entries, M.row_degrees()):
            blocks = X_MONOMIALS[degree]
            entries.append([XPoly({blocks[-1 - blocks.index(m)]: c
                                   for m, c in e.terms.items()})
                            for e in row])
        return MMatrix(entries=entries, linear_rows=M.linear_rows,
                       col_monomials=M.col_monomials)

    monkeypatch.setattr(implicitize, "assemble_M", reversed_blocks)


def _rotate_column_monomials(monkeypatch):
    def rotated(*args):
        M = assemble_M(*args)
        return MMatrix(entries=M.entries, linear_rows=M.linear_rows,
                       col_monomials=M.col_monomials[1:] + M.col_monomials[:1])

    monkeypatch.setattr(implicitize, "assemble_M", rotated)


def _check_against_another_phi(monkeypatch):
    # phi with a0 and a1 swapped
    follows = _IntegerRows.follows

    def swapped(self, phi):
        a0, a1, a2, a3 = phi.a
        return follows(self, Parametrization(phi.m, phi.n, (a1, a0, a2, a3)))

    monkeypatch.setattr(_IntegerRows, "follows", swapped)


MUTATIONS = [_perturb_a_reduced_row, _reverse_x_blocks,
             _rotate_column_monomials, _check_against_another_phi]


@pytest.mark.parametrize("mutate", MUTATIONS,
                         ids=[f.__name__[1:] for f in MUTATIONS])
@pytest.mark.parametrize("which", ["quartic", "two_base_points",
                                   "generic_22"])
def test_certificate_fails_under_a_mutation(quartic_bp, monkeypatch, which,
                                            mutate):
    # k = 1 and k = 2 have both row groups, k = 0 only quadric rows
    phi = {"quartic": quartic_bp, "two_base_points": two_base_points(),
           "generic_22": random_parametrization(random.Random(7), 2, 2)
           }[which]
    mutate(monkeypatch)
    with pytest.raises(VerificationError) as info:
        pipeline(phi)
    assert not info.value.record.vanishing_ok
    assert "do not follow phi" in str(info.value)
    res = pipeline(phi, PipelineConfig(force=True))
    assert not res.verification.vanishing_ok
    assert not res.verification.ok


def test_pipeline_certifies_without_sampling(quartic_bp, monkeypatch):
    calls = counted_calls(monkeypatch, ["verify_polynomial", "_IntegerRows"],
                          module=implicitize)
    assert pipeline(quartic_bp).verification.ok
    assert {name: len(args) for name, args in calls.items()} == {
        "verify_polynomial": 0, "_IntegerRows": 1}


@pytest.mark.parametrize("which, golden", [
    ("quartic", "quartic_base_point_implicit.txt"),
    ("segre", "segre_implicit.txt")])
def test_certificate_and_sampling_agree_on_the_goldens(quartic_bp, segre,
                                                       which, golden):
    phi = quartic_bp if which == "quartic" else segre
    res = pipeline(phi)
    assert res.polynomial == parse_xpoly(load_golden(golden))
    assert res.verification.vanishing_ok and res.verification.ok
    assert verify_polynomial(res.polynomial, res.phi, res.k,
                             check_x3=not res.projection_fallback).ok


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["generic", "basepoints"])
def test_certificate_and_sampling_agree_on_the_benchmark(workload, seed):
    for job, res in _benchmark_results(workload, seed):
        assert res.verification.vanishing_ok, job["name"]
        assert verify_polynomial(res.polynomial, res.phi, res.k, 100,
                                 job["seed"],
                                 not res.projection_fallback).ok, job["name"]
