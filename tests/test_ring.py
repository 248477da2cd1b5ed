import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from movsurf import (BihomPoly, MixedBidegreeError, ParseError, XPoly,
                     monomial_basis, parse, parse_xpoly)
from movsurf.ring import (SUV_VARS, X_VARS, clear, content_normalize,
                          primitive)

from conftest import random_bihom
from oracle import coeff_vector, product_by_fractions


# --- parsing ---------------------------------------------------------------

def test_parse_two_term_quartic():
    f = parse("u^2*t*v + s^2*t*v")
    assert f.bidegree == (2, 2)
    assert len(f.terms) == 2
    assert f.terms[(0, 2, 1, 1)] == 1
    assert f.terms[(2, 0, 1, 1)] == 1


def test_parse_zero_with_declared_bidegree():
    f = parse("0", bidegree=(2, 3))
    assert f.is_zero()
    assert f.bidegree == (2, 3)


def test_parse_mixed_bidegree_error():
    with pytest.raises(MixedBidegreeError) as err:
        parse("s*t + u*u")
    assert set(err.value.bidegrees) == {(1, 1), (2, 0)}
    # the higher bidegree is reported first, whatever the written order
    assert err.value.monomials == ((0, 2, 0, 0), (1, 0, 1, 0))


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("s*t + + u*v")
    assert err.value.position == 6


def test_parse_rational_coefficients_and_powers():
    f = parse("3/2*s^2*v - u^2*t + 2*s*u*v")
    assert f.bidegree == (2, 1)
    assert f.terms[(2, 0, 0, 1)] == Fraction(3, 2)
    assert f.terms[(0, 2, 1, 0)] == -1
    assert f.terms[(1, 1, 0, 1)] == 2


def test_parse_declared_bidegree_mismatch():
    with pytest.raises(ValueError):
        parse("s*t", bidegree=(2, 2))


def test_parse_rejects_garbage():
    for bad in ("", "s +", "s t", "2*", "s^", "1/0"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_collects_repeated_monomials():
    assert parse("s*t + s*t") == parse("2*s*t")
    assert parse("s*t - s*t", bidegree=(1, 1)).is_zero()


# --- monomial bases --------------------------------------------------------

def test_monomial_basis_1_1():
    assert monomial_basis((1, 1)) == [(1, 0, 1, 0), (1, 0, 0, 1),
                                      (0, 1, 1, 0), (0, 1, 0, 1)]


def test_monomial_basis_degenerate_and_counts():
    assert monomial_basis((0, 0)) == [(0, 0, 0, 0)]
    assert len(monomial_basis((1, 2))) == 6


@given(st.integers(0, 8), st.integers(0, 8))
def test_monomial_basis_size_and_distinct(d1, d2):
    basis = monomial_basis((d1, d2))
    assert len(basis) == (d1 + 1) * (d2 + 1)
    assert len(set(basis)) == len(basis)


# --- arithmetic ------------------------------------------------------------

def bihom_strategy(max_deg=2):
    return st.builds(
        lambda d1, d2, seed: random_bihom(random.Random(seed), (d1, d2),
                                          coeff_bound=6, density=0.7),
        st.integers(0, max_deg), st.integers(0, max_deg), st.integers(0, 10**6))


@given(bihom_strategy(), bihom_strategy())
def test_mul_bidegree_additive_and_commutative(f, g):
    fg = f * g
    assert fg.bidegree == (f.bidegree[0] + g.bidegree[0],
                           f.bidegree[1] + g.bidegree[1])
    assert fg == g * f


@given(bihom_strategy(1), bihom_strategy(1), bihom_strategy(1))
def test_mul_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


def test_mul_with_zero_keeps_summed_bidegree():
    f = parse("s^2*t^3 + u^2*v^3")
    z = BihomPoly.zero((1, 0))
    fz = f * z
    assert fz.is_zero()
    assert fz.bidegree == (3, 3)


def test_mul_simple_monomials():
    assert parse("s*t") * parse("u*v") == parse("s*u*t*v")


COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
RATIONAL_BIHOM = st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
    lambda d: st.dictionaries(st.sampled_from(monomial_basis(d)), COEFFS,
                              max_size=9).map(lambda t: BihomPoly(d, t)))
# any exponents: XPoly factors need not be homogeneous
RATIONAL_XPOLY = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), COEFFS,
                                 max_size=8).map(XPoly)


@given(st.one_of(st.tuples(RATIONAL_BIHOM, RATIONAL_BIHOM),
                 st.tuples(RATIONAL_XPOLY, RATIONAL_XPOLY)))
@example((BihomPoly.zero((1, 1)), parse("1/2*s*t - 2/3*u*v")))
@example((parse("-3/4"), parse("1/2*s*t - 2/3*u*v")))
@example((XPoly.monomial((0, 0, 0, 0), Fraction(-5, 6)),
          parse_xpoly("1/2*x0*x3 - x1 + 2/7")))
@example((parse_xpoly("x0 - 1/3"), XPoly.zero()))
def test_mul_matches_the_fraction_reference(factors):
    # the integer product: the same polynomial, terms in the same order, as
    # the term-by-term product on Fractions
    f, g = factors
    got, expected = f * g, product_by_fractions(f, g)
    assert got == expected
    assert list(got.terms) == list(expected.terms)


@given(bihom_strategy(), bihom_strategy(),
       st.tuples(*[st.fractions(min_value=-9, max_value=9, max_denominator=4)] * 4))
def test_evaluate_is_multiplicative(f, g, point):
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


def test_evaluate_examples():
    a0 = parse("u^2*t*v + s^2*t*v")
    assert a0.evaluate((1, 1, 1, 1)) == 2
    assert a0.evaluate((0, 0, 0, 0)) == 0
    a3 = parse("s^2*t*v")
    assert a3.evaluate((2, 1, 1, 3)) == 12


# --- coefficient vectors ---------------------------------------------------

def test_coeff_vector_zero_polynomial():
    basis = monomial_basis((2, 2))
    z = BihomPoly.zero((2, 2))
    assert coeff_vector(z, basis) == [0] * 9


def test_coeff_vector_bidegree_mismatch():
    with pytest.raises(ValueError):
        coeff_vector(parse("s*t"), monomial_basis((2, 2)))


@given(st.integers(0, 10**6))
def test_coeff_vector_round_trip(seed):
    rng = random.Random(seed)
    d = (rng.randint(0, 3), rng.randint(0, 3))
    f = random_bihom(rng, d, coeff_bound=9)
    basis = monomial_basis(d)
    back = BihomPoly(d, dict(zip(basis, coeff_vector(f, basis))))
    assert back == f


# --- rendering round trip --------------------------------------------------

def test_parse_render_round_trip_100():
    rng = random.Random(414)
    for _ in range(100):
        d = (rng.randint(0, 3), rng.randint(0, 3))
        f = random_bihom(rng, d)
        assert parse(f.render(), bidegree=d) == f


def test_render_canonical_order_and_signs():
    f = parse("-u^2*t*v + s^2*t*v")
    assert f.render() == "s^2*t*v - u^2*t*v"
    assert parse("0", bidegree=(1, 1)).render() == "0"


# --- x polynomials ---------------------------------------------------------

def test_xpoly_parse_render_round_trip():
    p = parse_xpoly("x0^4*x3^3 - 2*x0^3*x1*x2*x3^2 + 1/3*x2^2*x3^5")
    assert parse_xpoly(p.render()) == p
    assert p.total_degree() == 7
    assert p.is_homogeneous()


def test_xpoly_arithmetic_and_evaluation():
    p = parse_xpoly("x0*x3 - x1*x2")
    assert p.evaluate((1, 1, 1, 1)) == 0
    assert p.evaluate((2, 1, 1, 1)) == 1
    q = p * p
    assert q.total_degree() == 4
    assert q.coeff((2, 0, 0, 2)) == 1
    assert q.coeff((1, 1, 1, 1)) == -2


def test_xpoly_inhomogeneous_flag():
    assert not parse_xpoly("x0 + x1*x2").is_homogeneous()


# --- both rings ------------------------------------------------------------

# the same templates in either ring: {i} is the i-th variable, and exponent
# tuples, term order and rendering correspond position by position
RINGS = [
    pytest.param(lambda text: parse(text.format(*SUV_VARS)),
                 BihomPoly.zero((1, 1)), SUV_VARS, id="BihomPoly"),
    pytest.param(lambda text: parse_xpoly(text.format(*X_VARS)),
                 XPoly.zero(), X_VARS, id="XPoly"),
]
F = "{0}*{2} - 2*{1}*{3}"
G = "1/2*{0}*{2} + {1}*{2}"
FG = "1/2*{0}^2*{2}^2 + {0}*{1}*{2}^2 - {0}*{1}*{2}*{3} - 2*{1}^2*{2}*{3}"


@pytest.mark.parametrize("ring, zero, names", RINGS)
def test_arithmetic_in_both_rings(ring, zero, names):
    f, g = ring(F), ring(G)
    assert f + g == ring("3/2*{0}*{2} + {1}*{2} - 2*{1}*{3}")
    assert f - g == ring("1/2*{0}*{2} - {1}*{2} - 2*{1}*{3}")
    assert -f == ring("-{0}*{2} + 2*{1}*{3}")
    assert f - f == zero
    assert f.scale(Fraction(-3, 2)) == ring("-3/2*{0}*{2} + 3*{1}*{3}")
    assert f.scale(0) == zero and f.scale(0).render() == "0"
    assert f * 2 == 2 * f == f.scale(2) == f + f
    assert f * g == ring(FG)
    assert (f * g).render() == FG.format(*names)
    assert f.evaluate((1, 2, 3, 4)) == 3 - 16


@pytest.mark.parametrize("ring, zero, names", RINGS)
def test_equality_hash_immutability_and_round_trip(ring, zero, names):
    f, g = ring(F), ring(G)
    text = F.format(*names)
    assert f.render() == text and ring(f.render()) == f
    reordered = ring("-2*{1}*{3} + {0}*{2}")
    assert reordered == f and hash(reordered) == hash(f)
    assert f != g and f != text and zero != 0
    assert len({f, reordered, g}) == 2
    with pytest.raises(AttributeError):
        f.terms = {}
    with pytest.raises(AttributeError):
        f.extra = 1
    assert f.render() == text


def test_rings_never_mix():
    x, b = parse_xpoly("x0 + x1"), parse("s*t + u*v")
    for p, q in ((x, b), (b, x)):
        with pytest.raises(ValueError):
            p + q
        with pytest.raises(ValueError):
            p - q
        with pytest.raises(ValueError):
            p * q
    # equal exponent tuples in the two rings are still different polynomials
    assert parse("s*t") != parse_xpoly("x0*x2")
    assert BihomPoly.zero((0, 0)) != XPoly.zero()


# --- clearing denominators -------------------------------------------------

CLEAR_CASES = [
    pytest.param([3, -6, 9], id="ints"),
    pytest.param([Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)],
                 id="fractions"),
    pytest.param([2, Fraction(3, 4), 0, -1], id="mixed"),
    pytest.param([], id="empty"),
    pytest.param([0, Fraction(0), 0], id="zeros"),
    pytest.param([0, Fraction(-2, 3), 4, Fraction(1, 6)],
                 id="negative-first"),
]


@pytest.mark.parametrize("values", CLEAR_CASES)
def test_clear_matches_fraction_reference(values):
    ints, den = clear(values)
    # the reference: the least positive D with every D*x an integer
    ref = next(d for d in range(1, 1000)
               if all((Fraction(x) * d).denominator == 1 for x in values))
    assert den == ref
    assert ints == [Fraction(x) * ref for x in values]
    assert all(type(x) is int for x in ints)


@pytest.mark.parametrize("values", CLEAR_CASES)
def test_content_normalize_matches_fraction_reference(values):
    got = content_normalize(values)
    assert all(type(x) is Fraction for x in got)
    assert len(got) == len(values)
    nonzero = [Fraction(x) for x in values if x]
    if not nonzero:
        assert got == [0] * len(values)
        return
    # the reference: divide by the first nonzero entry, then scale by the
    # least D that makes every entry an integer
    ratios = [Fraction(x) / nonzero[0] for x in values]
    d = next(d for d in range(1, 1000)
             if all((r * d).denominator == 1 for r in ratios))
    assert got == [r * d for r in ratios]


@pytest.mark.parametrize("values, expected", [
    ([], []),
    ([0, 0, 0], [0, 0, 0]),
    ([0, 6, 0, -9], [0, 2, 0, -3]),
    ([Fraction(1, 2), Fraction(-1, 3), 0], [3, -2, 0]),
    ([-4, -6, Fraction(-2, 5)], [-10, -15, -1]),
    ([Fraction(-7, 3)], [-1])])
def test_primitive_scales_by_one_positive_factor(values, expected):
    got = primitive(values)
    assert got == expected
    assert all(type(x) is int for x in got)
