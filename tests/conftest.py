import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from movsurf import BihomPoly, Parametrization, monomial_basis, parse

settings.register_profile(
    "exact",
    settings(deadline=None, max_examples=30,
             suppress_health_check=[HealthCheck.too_slow]))
settings.load_profile("exact")

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name):
    return (GOLDEN_DIR / name).read_text().strip()


QUARTIC_BP_STRINGS = ["u^2*t*v + s^2*t*v", "u^2*t^2 + s*u*v^2",
                      "s^2*v^2 + s^2*t^2", "s^2*t*v"]


@pytest.fixture(scope="session")
def quartic_bp():
    """Bidegree-(2,2) parametrization with a single base point (k = 1)."""
    return Parametrization(
        2, 2, tuple(parse(s, bidegree=(2, 2)) for s in QUARTIC_BP_STRINGS))


@pytest.fixture(scope="session")
def segre():
    return Parametrization(
        1, 1, (parse("s*t"), parse("s*v"), parse("u*t"), parse("u*v")))


# bidegree (2,2) vanishing at (0:1;0:1) and (1:0;1:0): two simple base points
TWO_BASE_POINT_STRINGS = [
    "2*s^2*v^2 - 3*s*u*t^2 + 3*s*u*t*v + 3*s*u*v^2 + 3*u^2*t^2 - u^2*t*v",
    "3*s^2*t*v - s^2*v^2 - 2*s*u*t^2 - s*u*t*v + s*u*v^2 - 2*u^2*t*v",
    "-s^2*t*v - 3*s^2*v^2 + 3*s*u*t^2 - s*u*v^2 + u^2*t^2 + 2*u^2*t*v",
    "-2*s^2*t*v + s^2*v^2 + s*u*t^2 - 2*s*u*t*v - s*u*v^2 + 2*u^2*t^2 + 2*u^2*t*v",
]


def two_base_points():
    return Parametrization(2, 2, tuple(parse(s, bidegree=(2, 2))
                                       for s in TWO_BASE_POINT_STRINGS))


REGULARITY_IDEAL_STRINGS = ["u^2*t^2*v", "u^2*t^3 + s*u*v^3",
                            "s^2*t*v^2", "s^2*v^3 + s^2*t^3"]


@pytest.fixture(scope="session")
def regularity_phi():
    """Bidegree-(2,3) quadruple whose base scheme has degree 2."""
    return Parametrization(
        2, 3, tuple(parse(s, bidegree=(2, 3)) for s in REGULARITY_IDEAL_STRINGS))


def random_bihom(rng, bidegree, coeff_bound=5, density=0.85):
    """Random polynomial of the given bidegree (never the zero polynomial)."""
    terms = {}
    for mono in monomial_basis(bidegree):
        if rng.random() < density:
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[mono] = Fraction(c)
    if not terms:
        terms[monomial_basis(bidegree)[0]] = Fraction(1)
    return BihomPoly(bidegree, terms)


def random_parametrization(rng, m, n, **kw):
    return Parametrization(
        m, n, tuple(random_bihom(rng, (m, n), **kw) for _ in range(4)))


def base_point_free_parametrizations(count, m, n, start_seed=0):
    """Deterministic stream of k = 0 instances with a trivial plane space."""
    from movsurf import base_point_summary, moving_planes
    out = []
    seed = start_seed
    while len(out) < count:
        rng = random.Random(seed)
        phi = random_parametrization(rng, m, n)
        seed += 1
        summary = base_point_summary(phi, window=2)
        if not summary.finite or summary.k != 0:
            continue
        if moving_planes(phi).dim != 0:
            continue
        out.append((seed - 1, phi))
    return out
