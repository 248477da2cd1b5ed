import random
from fractions import Fraction

import pytest

from movsurf import (BihomPoly, ConditionError, MMatrix, Parametrization,
                     PipelineConfig, SyzygyBasis, XPoly,
                     assemble_M, compose_linear, det_poly,
                     echelon_plane_basis, generic_change, monomial_basis,
                     moving_planes, moving_quadrics, normalize, parse,
                     parse_xpoly, pipeline, quadric_basis_via_projection,
                     VerificationError, verify_polynomial)
from movsurf.implicitize import (_sample_point, det_cofactor, det_interpolation,
                                 resolve_backend, select_quadric_rows)
from movsurf.syzygy import MovingSurface, x_monomial

from conftest import load_golden, random_parametrization


# --- plane echelonization -----------------------------------------------------

def test_echelon_quartic(quartic_bp):
    planes = moving_planes(quartic_bp)
    basis, pivots = echelon_plane_basis(planes, (1, 1))
    assert pivots == [(1, 1)]  # the s*t monomial
    plane = basis.elements[0]
    assert plane.coeffs[x_monomial(3)] == parse("s*t + u*t")
    assert plane.coeffs[x_monomial(0)] == parse("-s*t")
    assert plane.coeffs[x_monomial(1)] == parse("s*v")
    assert plane.coeffs[x_monomial(2)] == parse("-u*v")


def test_echelon_empty_basis():
    basis, pivots = echelon_plane_basis(SyzygyBasis([]), (1, 1))
    assert basis.dim == 0 and pivots == []


def test_echelon_idempotent_on_synthetic_pair():
    # two fake planes already in echelon position on the x3 block
    b = monomial_basis((1, 1))
    def surf(x3_poly, x0_poly):
        return MovingSurface(1, {x_monomial(0): x0_poly,
                                 x_monomial(1): BihomPoly.zero((1, 1)),
                                 x_monomial(2): BihomPoly.zero((1, 1)),
                                 x_monomial(3): x3_poly})
    p1 = surf(parse("s*t + u*v"), parse("s*v"))
    p2 = surf(parse("s*v - u*v"), parse("u*t"))
    basis, pivots = echelon_plane_basis(SyzygyBasis([p1, p2]), (1, 1))
    assert pivots == [(1, 1), (1, 0)]
    assert basis.elements[0].coeffs[x_monomial(3)] == parse("s*t + u*v")
    assert basis.elements[1].coeffs[x_monomial(3)] == parse("s*v - u*v")


def test_echelon_fails_when_x3_block_degenerate():
    zero = BihomPoly.zero((1, 1))
    p = MovingSurface(1, {x_monomial(0): parse("s*t"), x_monomial(1): zero,
                          x_monomial(2): zero, x_monomial(3): zero})
    with pytest.raises(ConditionError):
        echelon_plane_basis(SyzygyBasis([p]), (1, 1))


# --- quadric selection ----------------------------------------------------------

def test_projection_quartic_pivot_multiples_are_plane_multiples(quartic_bp):
    planes = moving_planes(quartic_bp)
    ech, pivots = echelon_plane_basis(planes, (1, 1))
    elements, columns, fallback = quadric_basis_via_projection(quartic_bp, pivots)
    assert not fallback
    assert len(elements) == 7
    assert len(columns.distinguished) == 7
    assert len(columns.rest) == 33
    p1 = ech.elements[0]

    def same_surface(a, b):
        za = {m: f for m, f in a.coeffs.items() if not f.is_zero()}
        zb = {m: f for m, f in b.coeffs.items() if not f.is_zero()}
        return za == zb

    # the first three distinguished columns are (pivot, x_j*x3), j = 0..2;
    # their preimages are exactly the x_j multiples of the echelon plane
    for j in range(3):
        assert columns.distinguished[j][1] == x_monomial(j, 3)
        assert same_surface(elements[j], p1.x_multiple(j))
    # the preimage of the pivot square column is a plane multiple only up to
    # contributions from other distinguished columns: here the projection of
    # x3*P1 hits (s*t, x0*x3) with -1 and (u*t, x3^2) with +1 besides the
    # pivot square, so the exact relation is
    #     Q_pivot_sq = x3*P1 + x0*P1 - Q_ut_sq
    pivot_mono = (1, 0, 1, 0)
    pos = columns.distinguished.index((pivot_mono, x_monomial(3, 3)))
    assert elements[pos].substitute(quartic_bp).is_zero()
    ut_pos = columns.distinguished.index(((0, 1, 1, 0), x_monomial(3, 3)))
    combo = (elements[pos]
             .add(p1.x_multiple(3).scale(-1))
             .add(p1.x_multiple(0).scale(-1))
             .add(elements[ut_pos]))
    assert all(f.is_zero() for f in combo.coeffs.values())


def test_projection_quartic_quadric_rows_follow(quartic_bp):
    _, pivots = echelon_plane_basis(moving_planes(quartic_bp), (1, 1))
    elements, columns, fallback = quadric_basis_via_projection(quartic_bp, pivots)
    rows = select_quadric_rows(elements, columns, pivots, (1, 1), fallback)
    assert len(rows) == 3
    for q in rows:
        assert q.substitute(quartic_bp).is_zero()
        # unit coefficient on its own x3^2 column, zero on the others
        x3sq = q.coeffs[x_monomial(3, 3)]
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
    for q, (mono, xm) in zip(elements, columns.distinguished):
        assert xm == x_monomial(3, 3)
        x3sq = q.coeffs[x_monomial(3, 3)]
        assert x3sq.terms == {mono: 1}


def test_projection_dimension_mismatch_raises(quartic_bp):
    bogus = SyzygyBasis(list(moving_quadrics(quartic_bp).elements[:5]))
    with pytest.raises(ConditionError):
        quadric_basis_via_projection(quartic_bp, [(1, 1)], quadrics=bogus)


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
    multiples = [ech.elements[0].x_multiple(j).coeffs for j in range(4)]
    for q in rows:
        assert q.coeffs not in multiples


# --- determinants ----------------------------------------------------------------

def _diag_matrix(entries):
    n = len(entries)
    zero = XPoly.zero()
    rows = [[entries[i] if i == j else zero for j in range(n)]
            for i in range(n)]
    degs = [e.total_degree() for e in entries]
    linear = sum(1 for d in degs if d == 1)
    return MMatrix(size=n, entries=rows, linear_rows=linear,
                   col_monomials=list(range(n)), row_labels=["d"] * n)


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
        M = MMatrix(size=n, entries=rows, linear_rows=linear,
                    col_monomials=list(range(n)), row_labels=["r"] * n)
        assert det_cofactor(M) == det_interpolation(M)


def test_det_interpolation_through_row_swaps_and_zero_columns():
    rows = [["x0", "2/3*x2", "1/2*x1 + x3"],
            ["1/5*x0 + x3", "x2", "x1"],
            ["x1*x3", "x0*x2", "3/7*x0^2 - x3^2"]]
    M = MMatrix(size=3, entries=[[parse_xpoly(e) for e in row] for row in rows],
                linear_rows=2, col_monomials=[0, 1, 2], row_labels=["r"] * 3)
    # at x0 = 0 the first pivot is zero and Bareiss swaps rows; at x2 = 0
    # the whole second column vanishes and Bareiss stops on a zero column
    assert M.evaluate((0, 1, 1, 1))[0, 0] == 0
    assert M.evaluate((0, 1, 1, 1))[1, 0] != 0
    assert M.evaluate((1, 1, 0, 1)).column(1) == [0, 0, 0]
    det = det_interpolation(M)
    assert det == det_cofactor(M)
    assert not det.is_zero()


def test_det_interpolation_guard_catches_underdeclared_degrees():
    rows = [["x0^2 + x1*x3", "x2^2"], ["x1^2", "x3^2 - x0*x2"]]
    entries = [[parse_xpoly(e) for e in row] for row in rows]
    # declaring the quadratic rows linear makes D = 2 instead of 4
    M = MMatrix(size=2, entries=entries, linear_rows=2, col_monomials=[0, 1],
                row_labels=["r"] * 2)
    with pytest.raises(ArithmeticError):
        det_interpolation(M)
    honest = MMatrix(size=2, entries=entries, linear_rows=0,
                     col_monomials=[0, 1], row_labels=["r"] * 2)
    assert det_interpolation(honest) == det_cofactor(honest)


def test_auto_backend_is_cofactor_only_up_to_size_two():
    for n, expected in [(1, "cofactor"), (2, "cofactor"), (3, "interp"),
                        (6, "interp"), (9, "interp")]:
        M = MMatrix(size=n, entries=[], linear_rows=0,
                    col_monomials=list(range(n)), row_labels=[])
        assert resolve_backend(M) == expected
        assert resolve_backend(M, "both") == "both"
        with pytest.raises(ValueError):
            resolve_backend(M, "lu")


def test_det_poly_backend_dispatch(quartic_bp):
    res = pipeline(quartic_bp, PipelineConfig(det_backend="both"))
    assert res.backend_agreement is True


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
    rng = random.Random(seed)
    failures = []
    drawn = 0
    while drawn < samples:
        pt = _sample_point(rng)
        image = phi.evaluate(pt)
        if not any(image):
            continue
        drawn += 1
        if poly.evaluate(image) != 0:
            failures.append(pt)
    return failures


RATIONAL_SEGRE = ["1/2*s*t", "2/3*s*v - u*t", "u*t", "3/5*u*v + s*t"]


@pytest.mark.parametrize("polystr", [
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


def test_verify_wrapper_reruns_certificates(quartic_bp):
    from movsurf import verify
    res = pipeline(quartic_bp)
    record = verify(res, quartic_bp, samples=25, seed=99)
    assert record.ok and record.samples == 25


# --- the full pipeline -------------------------------------------------------------

def test_pipeline_quartic_matches_golden(quartic_bp):
    res = pipeline(quartic_bp)
    golden = parse_xpoly(load_golden("quartic_base_point_implicit.txt"))
    assert res.polynomial == golden
    assert res.degree == 7 and res.k == 1
    assert len(res.polynomial.terms) == 27
    assert res.verification.ok
    assert res.coordinate_change is None


def test_pipeline_segre(segre):
    res = pipeline(segre)
    assert res.polynomial == parse_xpoly(load_golden("segre_implicit.txt"))
    assert res.projection_fallback
    assert res.k == 0 and res.degree == 2
    assert res.verification.ok


def test_pipeline_deterministic_across_backends(quartic_bp):
    a = pipeline(quartic_bp, PipelineConfig(det_backend="cofactor"))
    b = pipeline(quartic_bp, PipelineConfig(det_backend="interp"))
    c = pipeline(quartic_bp)
    assert a.polynomial == b.polynomial == c.polynomial


def test_pipeline_random_base_point_free_22():
    rng = random.Random(7)
    phi = random_parametrization(rng, 2, 2)
    res = pipeline(phi, PipelineConfig(samples=50))
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
    res = pipeline(phi, PipelineConfig(force=True, samples=20))
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
    # bidegree (2,2) vanishing at (0:1;0:1) and (1:0;1:0): two simple base
    # points, so M mixes 2 linear rows with 2 quadric rows
    strings = [
        "2*s^2*v^2 - 3*s*u*t^2 + 3*s*u*t*v + 3*s*u*v^2 + 3*u^2*t^2 - u^2*t*v",
        "3*s^2*t*v - s^2*v^2 - 2*s*u*t^2 - s*u*t*v + s*u*v^2 - 2*u^2*t*v",
        "-s^2*t*v - 3*s^2*v^2 + 3*s*u*t^2 - s*u*v^2 + u^2*t^2 + 2*u^2*t*v",
        "-2*s^2*t*v + s^2*v^2 + s*u*t^2 - 2*s*u*t*v - s*u*v^2 + 2*u^2*t^2 + 2*u^2*t*v",
    ]
    phi = Parametrization(2, 2, tuple(parse(s, bidegree=(2, 2))
                                      for s in strings))
    for f in phi.a:
        assert f.evaluate((0, 1, 0, 1)) == 0
        assert f.evaluate((1, 0, 1, 0)) == 0
    res = pipeline(phi, PipelineConfig(samples=60))
    assert res.k == 2
    assert res.degree == 6 == 2 * phi.mn - res.k
    assert len(res.pivots) == 2
    assert res.verification.ok
    assert res.verification.x3_power == "ok"
    assert res.coordinate_change is None


def test_pipeline_degenerate_k_equals_mn():
    # bidegree (1,2) reparametrization of the rank-4 quadric with two simple
    # base points: k = mn = 2, so M consists entirely of linear rows
    a = (parse("s*t^2"), parse("s*t*v"), parse("u*t*v"), parse("u*v^2"))
    phi = Parametrization(1, 2, a)
    res = pipeline(phi, PipelineConfig(samples=30))
    assert res.k == 2 == phi.mn
    assert res.degree == 2 * phi.mn - res.k == 2
    assert res.verification.ok
    # pull the equation back through the recorded recombination, if any
    p = res.polynomial
    if res.coordinate_change is not None:
        p = normalize(compose_linear(p, res.coordinate_change))
    assert p == parse_xpoly("x0*x3 - x1*x2")
