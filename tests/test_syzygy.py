import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from movsurf import (BihomPoly, Parametrization, check_all,
                     generic_change, moving_planes, moving_quadrics,
                     mult_matrix, parse, rank, ring, syz_dim_abc)
from movsurf.cli import load_jobspec
from movsurf.linalg import kernel_basis
from movsurf.ring import bidegree_leq
from movsurf.syzygy import (multiple_rows, plane_map_matrix,
                            quadric_map_matrix, x_monomial)

from conftest import (QUARTIC_BP_STRINGS, counted_calls, job_phi,
                      perfbench_jobs, random_bihom, random_parametrization,
                      row_surface, substitute)
from oracle import (identity, multiple_rows_by_index, product_by_fractions,
                    rref)


def test_parametrization_validates_inputs():
    with pytest.raises(ValueError):
        Parametrization(0, 1, tuple(parse("s*t") for _ in range(4)))
    with pytest.raises(ValueError):
        Parametrization(1, 1, (parse("s*t"), parse("s*v"), parse("u*t")))
    with pytest.raises(ValueError):
        Parametrization(2, 2, tuple(parse("s*t") for _ in range(4)))


# --- multiplication matrices -------------------------------------------------

def test_plane_map_shape_quartic(quartic_bp):
    A = plane_map_matrix(quartic_bp)
    assert (A.rows, A.cols) == (16, 16)


def test_quadric_map_shape_quartic(quartic_bp):
    A = quadric_map_matrix(quartic_bp)
    assert (A.rows, A.cols) == (36, 40)


def test_mult_matrix_of_unit_is_identity():
    one = BihomPoly.monomial((0, 0, 0, 0))
    A = mult_matrix([one], (1, 1))
    assert A == identity(4)


def test_mult_matrix_bidegree_underflow():
    with pytest.raises(ValueError):
        mult_matrix([parse("s^2*t")], (1, 1))


@pytest.mark.parametrize("seed", (0, 1))
def test_multiple_rows_match_the_index_reference_on_the_benchmark(seed):
    # the generators at the B2 window start and the products at the B3 one
    jobs = perfbench_jobs()
    for workload in jobs.WORKLOADS:
        for job in jobs.make_jobs(workload, seed):
            phi = job_phi(job)
            m, n = phi.m, phi.n
            for gens, target in ((list(phi.a), (2 * m - 1, 2 * n - 1)),
                                 (phi.products(), (3 * m - 1, 3 * n - 1))):
                assert (multiple_rows(gens, target)
                        == multiple_rows_by_index(gens, target)), job["name"]


def test_multiple_rows_match_the_index_reference_on_unequal_bidegrees(
        quartic_bp):
    # the generators of several bidegrees of the hilbert-grid window test,
    # at every degree of a 5 x 5 grid, those that fit there
    rng = random.Random(11)
    a0, a1, _, _ = quartic_bp.a
    mixed = [random_bihom(rng, (1, 2)), a0, random_bihom(rng, (3, 0)),
             a1 * parse("s"), random_bihom(rng, (0, 3))]
    for target in [(i, j) for i in range(5) for j in range(5)]:
        fit = [g for g in mixed if bidegree_leq(g.bidegree, target)]
        assert (multiple_rows(fit, target)
                == multiple_rows_by_index(fit, target)), target
    for build in (multiple_rows, multiple_rows_by_index):
        with pytest.raises(ValueError, match="underflow"):
            build(mixed, (2, 3))


# --- moving planes -----------------------------------------------------------

def test_quartic_moving_plane_matches_known_element(quartic_bp):
    basis = moving_planes(quartic_bp)
    assert basis.dim == 1
    plane = row_surface(basis.elements[0], (1, 1))
    # the unique plane, up to scale: -st*x0 + sv*x1 - uv*x2 + (st+ut)*x3
    expected = {
        x_monomial(0): parse("-s*t"),
        x_monomial(1): parse("s*v"),
        x_monomial(2): parse("-u*v"),
        x_monomial(3): parse("s*t + u*t"),
    }
    scale = None
    for xm, f in expected.items():
        got = plane[xm]
        for mono, c in f.terms.items():
            r = got.terms.get(mono, Fraction(0)) / c
            if scale is None:
                scale = r
            assert r == scale
        assert got == f.scale(scale)
    assert scale != 0


def test_segre_has_no_moving_planes(segre):
    assert moving_planes(segre).dim == 0
    assert plane_map_matrix(segre) == identity(4)


@given(st.integers(0, 10**5))
def test_planes_follow_parametrization(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    phi = random_parametrization(rng, m, n, density=0.5)
    for plane in moving_planes(phi).elements:
        assert substitute(plane, phi).is_zero()


# --- moving quadrics ----------------------------------------------------------

def test_quartic_moving_quadric_dimension(quartic_bp):
    assert moving_quadrics(quartic_bp).dim == 7  # mn + 3k with k = 1


def test_base_point_free_quadric_dimension():
    rng = random.Random(5)
    phi = random_parametrization(rng, 2, 2)
    assert moving_planes(phi).dim == 0
    assert moving_quadrics(phi).dim == phi.mn


def test_quadrics_follow_parametrization(quartic_bp):
    for q in moving_quadrics(quartic_bp).elements:
        assert substitute(q, quartic_bp).is_zero()


# --- syzygies on a0, a1, a2 ---------------------------------------------------

def test_syz_abc_quartic_is_trivial(quartic_bp):
    assert syz_dim_abc(quartic_bp) == 0


def test_syz_abc_detects_duplicate_generator():
    a = parse("s*t + u*v")
    phi = Parametrization(1, 1, (a, a, parse("u*t"), parse("u*v")))
    assert syz_dim_abc(phi) >= 1


def test_syz_abc_generic_22_is_trivial():
    rng = random.Random(17)
    phi = random_parametrization(rng, 2, 2)
    assert syz_dim_abc(phi) == 0


def abc_syzygy_oracle(phi):
    """3mn minus the rank of the Fraction abc map, by Gauss-Jordan."""
    A = mult_matrix(phi.a[:3], (2 * phi.m - 1, 2 * phi.n - 1))
    return 3 * phi.mn - len(rref(A).pivots)


def common_factor_phi(seed):
    """a0 = f*g1, a1 = f*g2 with f, g1, g2 of bidegree (1,1): the pair
    (g2, -g1) is a syzygy on a0, a1 at bidegree (1,1)."""
    rng = random.Random(seed)
    f, g1, g2 = (random_bihom(rng, (1, 1)) for _ in range(3))
    return Parametrization(2, 2, (f * g1, f * g2, random_bihom(rng, (2, 2)),
                                  random_bihom(rng, (2, 2))))


def test_syz_dim_abc_matches_fraction_oracle(quartic_bp):
    rng = random.Random(5)
    generic = [quartic_bp] + [random_parametrization(rng, m, n)
                              for m, n in ((2, 2), (2, 2), (2, 3), (2, 3))]
    with_syzygy = [common_factor_phi(seed) for seed in (0, 1)]
    dims = []
    for phi in generic + with_syzygy:
        dims.append(syz_dim_abc(phi))
        assert dims[-1] == abc_syzygy_oracle(phi)
    assert [d >= 1 for d in dims] == [False] * 5 + [True] * 2


# --- structural invariants ------------------------------------------------------

@given(st.integers(0, 10**5))
def test_rank_nullity_at_both_maps(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(1, 1), (1, 2), (2, 2)])
    phi = random_parametrization(rng, m, n, density=0.6)
    mn = phi.mn
    MP = plane_map_matrix(phi)
    assert MP.cols == 4 * mn
    assert moving_planes(phi).dim + rank(MP) == 4 * mn
    MQ = quadric_map_matrix(phi)
    assert MQ.cols == 10 * mn
    assert moving_quadrics(phi).dim + rank(MQ) == 10 * mn


def test_scale_invariance_of_kernel_dims(quartic_bp):
    scaled = Parametrization(
        2, 2, tuple(f.scale(Fraction(c)) for f, c in
                    zip(quartic_bp.a, (3, -2, Fraction(1, 5), 7))))
    assert moving_planes(scaled).dim == moving_planes(quartic_bp).dim
    assert moving_quadrics(scaled).dim == moving_quadrics(quartic_bp).dim


def test_generic_recombination_preserves_plane_dim(quartic_bp):
    from movsurf import generic_change
    for seed in range(5):
        changed, T = generic_change(quartic_bp, seed)
        assert moving_planes(changed).dim == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bases_are_the_kernel_vectors(quartic_bp, seed):
    # moving planes and quadrics are the canonical kernel vectors of their
    # maps, unchanged, in the column order of the maps
    rng = random.Random(seed)
    for phi in (quartic_bp, random_parametrization(rng, 2, 3, density=0.6)):
        assert (moving_planes(phi).elements
                == kernel_basis(plane_map_matrix(phi)).vectors)
        assert (moving_quadrics(phi).elements
                == kernel_basis(quadric_map_matrix(phi)).vectors)


def test_kernel_vectors_canonical(quartic_bp):
    kb = kernel_basis(plane_map_matrix(quartic_bp))
    for v in kb.vectors:
        assert all(c.denominator == 1 for c in v)
        assert next(c for c in v if c) > 0


def test_products_are_computed_once_per_parametrization(monkeypatch):
    # k = 1: the battery samples the squared-ideal window, from the products
    phi = Parametrization(2, 2, tuple(parse(s, bidegree=(2, 2))
                                      for s in QUARTIC_BP_STRINGS))
    report = check_all(phi)
    assert report.all_passed and report.phi is phi
    calls = counted_calls(monkeypatch, ("__mul__",), module=ring._Poly)
    quadric_map_matrix(report.phi)
    assert calls["__mul__"] == []
    first, second = phi.products(), phi.products()
    assert first == second and first is not second
    first.pop()
    assert phi.products() == second
    # a coordinate-changed parametrization has its own products
    changed, _ = generic_change(phi, 1)
    assert changed.products() == [changed.a[i] * changed.a[j]
                                  for i in range(4) for j in range(i, 4)]
    assert changed.products() != second


INPUT_DIR = Path(__file__).resolve().parents[1] / "scripts" / "inputs"


def test_products_equal_the_fraction_products():
    # computed on the integer multiples of the forms; the same polynomials,
    # terms in the same order, as the Fraction products of the reference
    jobs = perfbench_jobs()
    phis = [load_jobspec(str(path)).phi
            for path in sorted(INPUT_DIR.glob("*.json"))]
    phis += [job_phi(job) for workload in jobs.WORKLOADS for seed in (0, 1)
             for job in jobs.make_jobs(workload, seed)]
    phis.append(Parametrization(1, 1, tuple(parse(s) for s in [
        "1/2*s*t", "2/3*s*v - u*t", "u*t", "3/5*u*v + s*t"])))
    for phi in phis:
        expected = [product_by_fractions(phi.a[i], phi.a[j])
                    for i in range(4) for j in range(i, 4)]
        products = phi.products()
        assert products == expected
        assert [list(f.terms) for f in products] == \
            [list(f.terms) for f in expected]
