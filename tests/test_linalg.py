import random
from fractions import Fraction
from itertools import combinations
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, strategies as st

from movsurf import (BihomPoly, Parametrization, RatMatrix, det_bareiss,
                     generic_change, kernel_basis, linalg, rank)
from movsurf.linalg import (det_integer, echelon, integer_kernel,
                            integer_rank, lll, reduced_echelon, saturation)
from movsurf.ring import clear, content_normalize, monomial_basis
from movsurf.syzygy import (mult_matrix, multiple_rows, plane_map_matrix,
                            quadric_map_matrix)

import oracle
from conftest import counted_calls, random_parametrization, two_base_points
from oracle import coeff_vector, identity, rref, solve_membership


# --- independent oracles (textbook, no shared code with the package) --------

def det_cofactor_oracle(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor_oracle(minor)
        total += term if j % 2 == 0 else -term
    return total


def rank_by_minors(rows):
    """Largest r such that some r x r minor is nonzero."""
    nr, nc = len(rows), len(rows[0])
    for r in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), r):
            for ci in combinations(range(nc), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor_oracle(sub) != 0:
                    return r
    return 0


def random_matrix(rng, rows, cols, bound=6):
    return RatMatrix([[Fraction(rng.randint(-bound, bound))
                       for _ in range(cols)] for _ in range(rows)])


# --- rref --------------------------------------------------------------------

def test_rref_identity():
    I = identity(3)
    R, pivots, T = rref(I)
    assert R == I and T == I and pivots == [0, 1, 2]


def test_rref_rank_one():
    A = RatMatrix([[1, 1], [2, 2]])
    R, pivots, T = rref(A)
    assert R.entries == [[1, 1], [0, 0]]
    assert pivots == [0]


def test_rref_rank3_matrix_against_minor_oracle():
    # 4x6 of rank exactly 3, built as a product and certified by the oracle
    rng = random.Random(11)
    while True:
        L = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
        Rm = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        prod = [[sum(L[i][k] * Rm[k][j] for k in range(3)) for j in range(6)]
                for i in range(4)]
        if rank_by_minors(prod) == 3:
            break
    A = RatMatrix(prod)
    R, pivots, T = rref(A)
    assert len(pivots) == 3
    nonzero_rows = [r for r in R.entries if any(r)]
    assert len(nonzero_rows) == 3


@given(st.integers(0, 10**6))
def test_rref_transform_reproduces_R_and_is_invertible(seed):
    rng = random.Random(seed)
    A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    R, pivots, T = rref(A)
    assert matmul(T.entries, A.entries) == R.entries
    assert det_bareiss(T) != 0


@given(st.integers(0, 10**6))
def test_rref_idempotent_and_permutation_invariant(seed):
    rng = random.Random(seed)
    A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    R, pivots, _ = rref(A)
    R2, pivots2, _ = rref(R)
    assert R2 == R and pivots2 == pivots
    perm = list(range(A.rows))
    rng.shuffle(perm)
    P = RatMatrix([A.entries[i] for i in perm])
    RP, pivotsP, _ = rref(P)
    assert RP == R and pivotsP == pivots


# --- kernels -----------------------------------------------------------------

def test_kernel_of_identity_is_trivial():
    assert kernel_basis(identity(4)).dim == 0


def test_kernel_of_row_vector():
    kb = kernel_basis(RatMatrix([[1, 1]]))
    assert kb.dim == 1
    assert kb.vectors == [[1, -1]]


def test_kernel_vectors_are_canonical_integers():
    kb = kernel_basis(RatMatrix([[Fraction(1, 2), Fraction(3, 4), 1]]))
    for v in kb.vectors:
        assert all(c.denominator == 1 for c in v)
        assert next(c for c in v if c) > 0


@given(st.integers(0, 10**6))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    A = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), bound=4)
    kb = kernel_basis(A)
    assert kb.dim + rank(A) == A.cols
    for v in kb.vectors:
        assert [dot(row, v) for row in A.entries] == [0] * A.rows


def test_rank_nullity_on_200_matrices():
    rng = random.Random(2024)
    for _ in range(200):
        A = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), bound=3)
        assert kernel_basis(A).dim + rank(A) == A.cols


# --- membership solves -------------------------------------------------------

def test_solve_membership_identity():
    A = identity(3)
    b = [Fraction(5), Fraction(-2), Fraction(7, 3)]
    assert solve_membership(A, b) == b


def test_solve_membership_not_in_span():
    A = RatMatrix([[1], [0]])
    assert solve_membership(A, [Fraction(0), Fraction(1)]) is None


def test_solve_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_membership(identity(2), [Fraction(1)])


@given(st.integers(0, 10**6))
def test_solve_membership_consistent_system(seed):
    rng = random.Random(seed)
    A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    x0 = [Fraction(rng.randint(-5, 5)) for _ in range(A.cols)]
    b = [dot(row, x0) for row in A.entries]
    x = solve_membership(A, b)
    assert x is not None
    assert [dot(row, x) for row in A.entries] == b


# --- determinants ------------------------------------------------------------

def test_det_identity_and_2x2():
    assert det_bareiss(identity(5)) == 1
    rng = random.Random(3)
    for _ in range(20):
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(4))
        assert det_bareiss(RatMatrix([[a, b], [c, d]])) == a * d - b * c


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        det_bareiss(RatMatrix([[1, 2, 3], [4, 5, 6]]))


@given(st.integers(0, 10**6))
def test_det_5x5_against_cofactor_oracle(seed):
    rng = random.Random(seed)
    A = random_matrix(rng, 5, 5, bound=5)
    assert det_bareiss(A) == det_cofactor_oracle(A.entries)


@given(st.integers(0, 10**6))
def test_det_zero_iff_rank_deficient(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    A = random_matrix(rng, n, n, bound=3)
    assert (det_bareiss(A) == 0) == (rank(A) < n)


def test_det_with_rational_entries():
    A = RatMatrix([[Fraction(1, 2), Fraction(1, 3)],
                   [Fraction(1, 5), Fraction(1, 7)]])
    assert det_bareiss(A) == Fraction(1, 14) - Fraction(1, 15)


def test_det_integer_matches_oracle_and_keeps_its_rows():
    rng = random.Random(11)
    for n in range(0, 7):
        for _ in range(10):
            rows = [[rng.choice([0, 0, rng.randint(-2 ** 70, 2 ** 70)])
                     for _ in range(n)] for _ in range(n)]
            copy = [list(row) for row in rows]
            got = det_integer(rows)
            assert type(got) is int
            assert got == det_cofactor_oracle(copy)
            assert rows == copy


# --- the integer echelon against the Fraction oracle ---------------------------

def kernel_oracle(A):
    """Canonical kernel vectors read off the Fraction RREF."""
    R, pivots, _ = rref(A)
    vectors = []
    for free in range(A.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * A.cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r, free]
        vectors.append(content_normalize(v))
    return vectors


def structured_matrix(rng, nrows, ncols):
    """Fraction entries with mixed denominators, with zero rows, zero
    columns and dependent rows planted at random."""
    density = rng.choice((0.2, 0.5, 1.0))
    rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 7))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.4:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = Fraction(0)
    if rng.random() < 0.4:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if nrows >= 3 and rng.random() < 0.6:
        a, b, c = rng.sample(range(nrows), 3)
        x, y = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-3, 3)
        rows[c] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return RatMatrix(rows)


def low_rank_matrix(rng, nrows, ncols, r):
    L = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)]
         for _ in range(nrows)]
    Rm = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(r)]
    return RatMatrix([[sum((L[i][k] * Rm[k][j] for k in range(r)), Fraction(0))
                       for j in range(ncols)] for i in range(nrows)])


def oracle_cases():
    rng = random.Random(7)
    cases = [structured_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
             for _ in range(250)]
    cases += [structured_matrix(rng, 2, 10), structured_matrix(rng, 10, 2),
              structured_matrix(rng, 1, 10), structured_matrix(rng, 10, 1),
              RatMatrix([[0] * 6] * 4)]
    cases += [low_rank_matrix(rng, rng.randint(2, 10), rng.randint(2, 10),
                              rng.randint(1, 4)) for _ in range(50)]
    return cases


def test_kernel_basis_and_rank_match_rref_oracle():
    for A in oracle_cases():
        assert kernel_basis(A).vectors == kernel_oracle(A)
        assert rank(A) == len(rref(A).pivots)


def test_reduced_echelon_over_its_pivots_is_rref():
    for A in oracle_cases():
        pivots, rows = reduced_echelon(A.entries, A.cols)
        R, rref_pivots, _ = rref(A)
        assert pivots == rref_pivots
        assert [[Fraction(x, row[p]) for x in row]
                for p, row in zip(pivots, rows)] == R.entries[:len(pivots)]


def test_kernel_basis_matches_oracle_on_changed_quartic_maps(quartic_bp):
    phi, _ = generic_change(quartic_bp, 1)
    for A in (plane_map_matrix(phi), quadric_map_matrix(phi)):
        kb = kernel_basis(A)
        assert kb.vectors == kernel_oracle(A)
        assert kb.dim + rank(A) == A.cols


def fraction_map(generators, target):
    """The map (A_g) -> sum A_g * g into bidegree target, with the
    generators' own coefficients, built column by column from products."""
    basis = monomial_basis(target)
    columns = [coeff_vector(g * g.monomial(mu), basis) for g in generators
               for mu in monomial_basis((target[0] - g.bidegree[0],
                                         target[1] - g.bidegree[1]))]
    return RatMatrix([list(row) for row in zip(*columns)])


def test_maps_of_unequal_contents_keep_their_kernels_and_ranks():
    """Generators of unequal contents, two of them with Fraction
    coefficients: scaling them all by one common integer leaves the kernel
    of each map, where a scaling per generator would not."""
    a = random_parametrization(random.Random(5), 2, 2).a
    phi = Parametrization(2, 2, (a[0] * 6, a[1] * Fraction(1, 4), a[2],
                                 a[3] * Fraction(-2, 3)))
    for gens, target in ((phi.a, (3, 3)), (phi.products(), (5, 5))):
        A = fraction_map(gens, target)
        assert kernel_basis(mult_matrix(gens, target)).vectors == \
            kernel_oracle(A)
        assert (integer_rank(multiple_rows(gens, target), A.rows)
                == len(rref(A).pivots))


# --- the kernel from the forward echelon -------------------------------------

# small matrices that each exercise one branch of the back-solve
BACK_SOLVE_CASES = {
    # pivots 0, 2, 4 with the free columns 1, 3, 5 between them
    "interleaved": [[1, 2, 0, 3, 0, 1], [0, 0, 2, 1, 0, 5],
                    [0, 0, 0, 0, 3, 1]],
    # each pivot fails to divide the partial sum of its row
    "nondividing_pivot": [[3, 1, 1], [0, 2, 1]],
    "nondividing_chain": [[5, 3, 2, 7], [0, 4, 3, 1], [0, 0, 6, 5]],
    "zero_rows_and_columns": [[0, 0, 0, 0, 0], [0, 2, 0, 3, 6],
                              [0, 0, 0, 0, 0], [0, 4, 0, 1, -2]],
    "fractions": [[Fraction(1, 2), Fraction(2, 3), 1],
                  [Fraction(3, 4), 0, Fraction(5, 7)]],
    "row_full_rank": [[2, -3, 5, 7]],
    "row_zero": [[0, 0, 0]],
    "column_full_rank": [[0], [3], [5]],
    "column_zero": [[0], [0]],
}


@pytest.mark.parametrize("name", sorted(BACK_SOLVE_CASES))
def test_kernel_basis_back_solve_matches_rref_oracle(name):
    A = RatMatrix(BACK_SOLVE_CASES[name])
    kb = kernel_basis(A)
    assert kb.vectors == kernel_oracle(A)
    assert kb.dim == A.cols - len(rref(A).pivots)


def through_corners(rng, m, n, corners):
    """Seeded (m, n) parametrization through the first `corners` of the
    points (0:1; 0:1) and (1:0; 1:0) of P1 x P1: its forms lose their
    u^m*v^n, then their s^m*t^n coefficient."""
    drop = [(0, m, 0, n), (m, 0, n, 0)][:corners]
    return Parametrization(m, n, tuple(
        BihomPoly((m, n), {mono: c for mono, c in f.terms.items()
                           if mono not in drop})
        for f in random_parametrization(rng, m, n).a))


@pytest.mark.parametrize("m, n, corners", [(2, 2, 0), (2, 2, 1), (2, 3, 0),
                                           (2, 3, 2), (3, 3, 0), (3, 3, 1)])
def test_kernel_basis_matches_rref_oracle_on_quadric_maps(m, n, corners):
    phi = through_corners(random.Random(0), m, n, corners)
    k = kernel_basis(plane_map_matrix(phi)).dim
    assert k == corners
    A = quadric_map_matrix(phi)
    kb = kernel_basis(A)
    assert kb.dim == m * n + 3 * k
    assert kb.vectors == kernel_oracle(A)


def test_kernel_basis_reads_only_the_forward_echelon(monkeypatch):
    calls = counted_calls(monkeypatch, ("echelon", "reduced_echelon"),
                          module=linalg)
    phi = random_parametrization(random.Random(3), 2, 3)
    kernel_basis(quadric_map_matrix(phi))
    kernel_basis(RatMatrix(BACK_SOLVE_CASES["fractions"]))
    assert len(calls["echelon"]) == 2 and calls["reduced_echelon"] == []


# --- the certified modular rank ------------------------------------------------

def exact_rank(rows, ncols):
    return len(echelon(rows, ncols).pivots)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def no_echelon(rows, ncols):
    raise AssertionError("the integer echelon was not expected here")


def test_rank_primes_are_distinct_primes_below_2_to_30():
    primes = linalg._PRIMES
    assert len(set(primes)) == len(primes) >= 2
    for p in primes:
        assert 2 < p < 2 ** 30
        assert all(p % d for d in range(2, isqrt(p) + 1))


def window_matrices(phi):
    """The integer multiples of the B2, B3 and B5 windows of phi."""
    m, n = phi.m, phi.n
    for gens, start in ((phi.a, (2 * m - 1, 2 * n - 1)),
                        (phi.products(), (3 * m - 1, 3 * n - 1)),
                        (phi.a[:3], (2 * m - 1, 2 * n - 1))):
        for i in range(4):
            d = (start[0] + i, start[1] + i)
            yield gens, d, multiple_rows(gens, d), (d[0] + 1) * (d[1] + 1)


def test_window_ranks_are_certified_without_the_echelon(quartic_bp,
                                                        monkeypatch):
    inputs = (quartic_bp, two_base_points(), generic_change(quartic_bp, 1)[0])
    expected = [[exact_rank(rows, ncols)
                 for _, _, rows, ncols in window_matrices(phi)]
                for phi in inputs]
    monkeypatch.setattr(linalg, "echelon", no_echelon)
    for phi, want in zip(inputs, expected):
        got = [integer_rank(rows, ncols)
               for _, _, rows, ncols in window_matrices(phi)]
        assert got == want
        # the same ranks through RatMatrix, which is wide: transposed
        assert [rank(mult_matrix(gens, d))
                for gens, d, _, _ in window_matrices(phi)] == want


def tall_rank_two(a, b):
    """Four rows of rank 2 whose kernel is spanned by (-7a, -3b, 21)."""
    r1, r2 = [3, 0, a], [0, 7, b]
    return [r1, r2, [x + y for x, y in zip(r1, r2)],
            [2 * x - y for x, y in zip(r1, r2)]]


def test_rank_lifts_a_large_kernel_through_further_primes(monkeypatch):
    primes = count_calls(monkeypatch, linalg, "_modular_basis")
    monkeypatch.setattr(linalg, "echelon", no_echelon)
    # the kernel needs about 43 bits: three primes, not two
    assert integer_rank(tall_rank_two(2 ** 40 + 1, -(2 ** 39) - 7), 3) == 2
    assert [args[2] for args in primes] == list(linalg._PRIMES[:3])


def test_rank_falls_back_when_the_kernel_outgrows_the_primes(monkeypatch):
    fallbacks = count_calls(monkeypatch, linalg, "echelon")
    assert integer_rank(tall_rank_two(2 ** 90 + 1, 5), 3) == 2
    assert len(fallbacks) == 1


def test_rank_falls_back_when_the_prime_drops_the_rank(monkeypatch):
    monkeypatch.setattr(linalg, "_PRIMES", (3,))
    fallbacks = count_calls(monkeypatch, linalg, "echelon")
    # determinant 3: rank 1 modulo 3, rank 2 over Q
    assert integer_rank([[1, 1], [1, 4]], 2) == 2
    assert len(fallbacks) == 1
    # every row is 0 modulo the prime
    assert integer_rank([[3, 6], [3, 3]], 2) == 2
    for A in oracle_cases():
        assert rank(A) == len(rref(A).pivots)


def test_rank_of_rows_that_vanish_modulo_the_first_prime():
    p = linalg._PRIMES[0]
    assert integer_rank([[p, 2 * p], [p, p], [0, 0]], 2) == 2
    assert integer_rank([[p, 2 * p], [2 * p, 4 * p], [0, 0]], 2) == 1


def test_rank_falls_back_when_reconstruction_fails(monkeypatch):
    fallbacks = count_calls(monkeypatch, linalg, "echelon")
    monkeypatch.setattr(linalg, "_reconstruct", lambda residues, modulus: None)
    for A in oracle_cases():
        assert rank(A) == len(rref(A).pivots)
    assert fallbacks


# --- the certified kernel -------------------------------------------------------

def assert_kernel_matches_kernel_basis(rows, ncols):
    got = integer_kernel(rows, ncols)
    assert all(type(x) is int for v in got for x in v)
    assert ([content_normalize(v) for v in got]
            == kernel_basis(RatMatrix(rows)).vectors)


def test_integer_kernel_matches_kernel_basis_on_wide_rows(monkeypatch):
    fallbacks = count_calls(monkeypatch, linalg, "kernel_basis")
    rng = random.Random(8)
    for nrows, ncols in ((1, 3), (2, 5), (3, 7), (5, 9), (6, 12)):
        rows = [[rng.randint(-9, 9) for _ in range(ncols)]
                for _ in range(nrows)]
        rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        assert_kernel_matches_kernel_basis(rows, ncols)
    # the multiples of a0, a1, a2 at the first abc-window degree
    phi = random_parametrization(random.Random(2), 2, 2)
    assert_kernel_matches_kernel_basis(multiple_rows(phi.a[:3], (3, 3)), 16)
    assert fallbacks == []
    assert integer_kernel([], 2) == [[1, 0], [0, 1]]


def test_integer_kernel_falls_back_beyond_the_primes(monkeypatch):
    fallbacks = count_calls(monkeypatch, linalg, "kernel_basis")
    big = 2 ** 90 + 1
    # a tall kernel of one vector (-7 big, -15, 21), and a wide one of two
    # vectors with entries of about 90 bits: more than four primes carry
    assert_kernel_matches_kernel_basis(tall_rank_two(big, 5), 3)
    assert_kernel_matches_kernel_basis([[3, 0, big, 1], [0, 7, 5, big]], 4)
    assert len(fallbacks) == 2


# --- packed rows against the list reference ----------------------------------

def residue_basis(result, p):
    """(pivots in order, free, used, basis rows reduced mod p)."""
    basis, free, used = result
    return (list(basis), free, used,
            [[x % p for x in row] for row in basis.values()])


def assert_packed_matches_reference(rows, ncols, p):
    assert (residue_basis(linalg._modular_basis(rows, ncols, p), p)
            == residue_basis(oracle.modular_basis(rows, ncols, p), p))


def cleared_rows(A):
    """The rows of a RatMatrix cleared to integers, zero rows kept."""
    return [clear(row)[0] for row in A.entries]


def test_packed_modular_basis_matches_reference_on_oracle_matrices():
    p = linalg._PRIMES[0]
    for A in oracle_cases():
        rows = cleared_rows(A)
        assert_packed_matches_reference(rows, A.cols, p)
        assert_packed_matches_reference([list(c) for c in zip(*rows)],
                                        A.rows, p)


def adversarial_matrix(rng, p, nrows, ncols):
    """Entries congruent to p - 1, negative and large entries, with zero
    rows and duplicate rows planted."""
    def entry():
        return rng.choice((0, 0, 1, p - 1, -1, 1 - p, 2 * p - 1,
                           rng.randint(-p, p), rng.randint(-2 ** 70, 2 ** 70)))
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(nrows // 5):
        rows[rng.randrange(nrows)] = [0] * ncols
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows


@pytest.mark.parametrize("p", (linalg._PRIMES[0], 3))
def test_packed_modular_basis_matches_reference_on_tall_and_wide(p):
    rng = random.Random(p)
    shapes = [(1, 1), (3, 1), (1, 5), (40, 12), (12, 40), (60, 60),
              (120, 200), (200, 120), (210, 200), (30, 200)]
    for nrows, ncols in shapes:
        rows = adversarial_matrix(rng, p, nrows, ncols)
        assert_packed_matches_reference(rows, ncols, p)
    # every entry p - 1: rank 1, and the largest slot values on the way
    assert_packed_matches_reference([[p - 1] * 50] * 60, 50, p)
    # a dense low-rank product, whose reduction keeps many pivots hit
    left = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(150)]
    right = [[rng.randint(-9, 9) for _ in range(200)] for _ in range(30)]
    rows = [[sum(map(mul, a, col)) for col in zip(*right)] for a in left]
    assert_packed_matches_reference(rows, 200, p)


def test_packed_modular_basis_matches_reference_modulo_3(monkeypatch):
    monkeypatch.setattr(linalg, "_PRIMES", (3,))
    packed = linalg._modular_basis
    seen = []

    def compared(rows, ncols, p):
        assert p == 3
        got = packed(rows, ncols, p)
        assert residue_basis(got, p) == residue_basis(
            oracle.modular_basis(rows, ncols, p), p)
        seen.append(ncols)
        return got
    monkeypatch.setattr(linalg, "_modular_basis", compared)
    for A in oracle_cases():
        assert rank(A) == len(rref(A).pivots)
    assert len(seen) > 250


def test_unpack_matches_the_bytes_reference():
    # one slot, up to 128 slots, and slots at their largest, at zero and at
    # random
    rng = random.Random(5)
    for nbytes in (1, 13, 14):
        top = (1 << 8 * nbytes) - 1
        for nslots in (1, 2, 63, 64, 65, 81, 128):
            for values in ([top] * nslots, [0] * nslots,
                           [top] + [0] * (nslots - 1),
                           [rng.randint(0, top) for _ in range(nslots)]):
                x = linalg._pack(values, nbytes)
                assert linalg._unpack(x, nslots, nbytes) == values
                assert oracle.unpack_bytes(x, nslots, nbytes) == values


def naive_annihilates(rows, vectors):
    return all(not sum(map(mul, row, v)) for v in vectors for row in rows)


def test_packed_kernel_check_at_the_slot_boundary():
    # entries, vector entries and the column count all have 3 bits, so the
    # slots are S = 10 bits apart and every dot product is below 2**9 in
    # absolute value; here row . v0 = 256 = 2**8 and row . v1 = -1, which
    # would cancel as 256 - 2**8 with slots 8 bits apart
    row = [7, 7, 7, 7, 7, 3, 5]
    v0 = [7, 7, 7, 7, 7, 2, 1]
    v1 = [0, 0, 0, 0, 0, -2, 1]
    assert sum(map(mul, row, v0)) == 2 ** 8
    assert sum(map(mul, row, v1)) == -1
    for vectors in ([v0, v1], [v1, v0], [v0, v1, v1], [v1, [0] * 7, v0]):
        assert not linalg._annihilates([row], vectors)
        assert naive_annihilates([row], vectors) is False
    # the same magnitudes with the signs flipped, and a true kernel
    neg = [-x for x in row]
    assert not linalg._annihilates([neg, row], [v0, v1])
    k = [5, 0, 0, 0, 0, 0, -7]
    assert linalg._annihilates([row, neg, [0] * 7], [k, [0] * 7, [-x for x in k]])


def test_packed_kernel_check_matches_naive_on_random_vectors():
    rng = random.Random(11)
    for _ in range(300):
        ncols = rng.randint(1, 9)
        bound = rng.choice((1, 7, 2 ** 20))
        rows = [[rng.randint(-bound, bound) for _ in range(ncols)]
                for _ in range(rng.randint(1, 5))]
        vectors = [[rng.randint(-bound, bound) for _ in range(ncols)]
                   for _ in range(rng.randint(1, 4))]
        # half of the cases: replace the vectors by kernel vectors, up to
        # one planted entry
        if rng.random() < 0.5:
            A = RatMatrix(rows)
            kernel = kernel_basis(A).vectors
            if kernel:
                vectors = [[int(x) for x in v] for v in kernel]
                if rng.random() < 0.5:
                    vectors[-1][rng.randrange(ncols)] += 1
        assert linalg._annihilates(rows, vectors) == naive_annihilates(
            rows, vectors)


# --- lattices -----------------------------------------------------------------

def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def gram_det(rows):
    return det_cofactor_oracle([[Fraction(dot(x, y)) for y in rows]
                                for x in rows])


def matmul(U, rows):
    return [[dot(u, col) for col in zip(*rows)] for u in U]


def integer_coordinates(basis, v):
    """The coordinates of v in the rational span of basis, or None."""
    A = RatMatrix([list(col) for col in zip(*basis)])
    return solve_membership(A, list(v))


def in_integer_span(basis, v):
    x = integer_coordinates(basis, v)
    return x is not None and all(c.denominator == 1 for c in x)


def unimodular(rng, r, steps=30, bound=9):
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        f = rng.randint(-bound, bound)
        U[i] = [a + f * b for a, b in zip(U[i], U[j])]
    return U


def saturated_basis(rng, r, ncols):
    """Random rows with the identity at r random columns: their maximal
    minors are coprime, so their lattice is saturated."""
    rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(r)]
    for i, c in enumerate(rng.sample(range(ncols), r)):
        for j in range(r):
            rows[j][c] = int(i == j)
    return rows


def test_saturation_undoes_a_sublattice_of_index_2_40_times_3():
    rng = random.Random(5)
    r, ncols = 4, 9
    S = saturated_basis(rng, r, ncols)
    T = [[0] * r for _ in range(r)]
    for i, diag in enumerate([2 ** 40, 3, 1, 1]):
        T[i][i] = diag
        for j in range(i):
            T[i][j] = rng.randint(-50, 50)
    U = matmul(unimodular(rng, r), T)
    assert det_cofactor_oracle(U) == 2 ** 40 * 3
    B = matmul(U, S)
    sat = saturation(B, ncols)
    assert len(sat.rows) == r
    assert all(type(x) is int for row in sat.rows for x in row)
    # the same rational span, and the lattice of S itself
    assert all(integer_coordinates(S, v) is not None for v in sat.rows)
    assert all(in_integer_span(sat.rows, v) for v in S)
    assert gram_det(sat.rows) == gram_det(S)
    assert gram_det(B) == (2 ** 40 * 3) ** 2 * gram_det(S)
    # an echelon form over its pivots, whose entries there are upper
    # triangular with the index on the diagonal
    for i, (p, row) in enumerate(zip(sat.pivots, sat.rows)):
        assert row[p] > 0 and not any(row[:p])
        assert not any(other[p] for other in sat.rows[i + 1:])
    diag = 1
    for p, row in zip(sat.pivots, sat.rows):
        diag *= row[p]
    B_P = [[row[p] for p in sat.pivots] for row in B]
    assert abs(det_cofactor_oracle(B_P)) == 2 ** 40 * 3 * diag


def test_saturation_of_saturated_and_dependent_rows():
    rng = random.Random(6)
    for r, ncols in [(1, 1), (1, 5), (3, 3), (3, 8), (5, 7)]:
        S = saturated_basis(rng, r, ncols)
        sat = saturation(S, ncols)
        assert gram_det(sat.rows) == gram_det(S)
        assert all(in_integer_span(S, v) for v in sat.rows)
    assert saturation([[2, 4, 6]], 3).rows == [[1, 2, 3]]
    assert saturation([[1, 2, 3], [2, 4, 6]], 3) is None
    assert saturation([[1, 2], [0, 0]], 2) is None


def gram_schmidt_oracle(rows):
    """mu and the squared lengths |b*_i|^2, by Fraction Gram-Schmidt."""
    star, mu = [], []
    for b in rows:
        v = [Fraction(x) for x in b]
        coeffs = []
        for s in star:
            c = dot(b, s) / dot(s, s)
            coeffs.append(c)
            v = [x - c * y for x, y in zip(v, s)]
        star.append(v)
        mu.append(coeffs)
    return mu, [dot(s, s) for s in star]


@pytest.mark.parametrize("seed", range(6))
def test_lll_output_is_reduced_and_spans_the_same_lattice(seed):
    rng = random.Random(seed)
    r = rng.randint(2, 6)
    ncols = rng.randint(r, 10)
    # a saturated lattice behind a skewed basis with 30-60 bit entries
    S = saturated_basis(rng, r, ncols)
    B = matmul(unimodular(rng, r, steps=60, bound=2 ** 6), S)
    out = lll(B)
    assert len(out) == r
    assert all(type(x) is int for row in out for x in row)
    mu, norms = gram_schmidt_oracle(out)
    delta = linalg._DELTA
    for k in range(1, r):
        assert all(abs(m) <= Fraction(1, 2) for m in mu[k])
        assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]
    assert gram_det(out) == gram_det(B)
    assert all(in_integer_span(B, v) for v in out)
    assert max(abs(x) for row in out for x in row) < max(
        abs(x) for row in B for x in row)


def test_lll_keeps_a_reduced_basis_and_rejects_dependent_rows():
    assert lll([]) == []
    assert lll([[3, 4]]) == [[3, 4]]
    assert lll([[1, 0, 0], [0, 1, 0]]) == [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError):
        lll([[1, 2], [2, 4]])
