import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from movsurf import (BihomPoly, Parametrization, assemble_M, basepoints,
                     echelon_plane_basis, monomial_basis, moving_planes, parse,
                     quadric_basis_via_projection)
from movsurf.implicitize import select_quadric_rows

settings.register_profile(
    "exact",
    settings(deadline=None, max_examples=30,
             suppress_health_check=[HealthCheck.too_slow]))
settings.load_profile("exact")

GOLDEN_DIR = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


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


def perfbench_jobs():
    """perfbench/jobs.py, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def job_phi(job):
    """The parametrization of a perfbench job."""
    m, n = job["m"], job["n"]
    return Parametrization(m, n, tuple(parse(s, bidegree=(m, n))
                                       for s in job["a"]))


def counted_calls(monkeypatch, names, module=basepoints):
    """{name: [args of each call]} of the named functions of a module (or
    attributes of a class), counted while the test runs."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name),
                    **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def x_mono(*indices):
    """Exponent tuple of the product of the x_i with the given indices."""
    e = [0, 0, 0, 0]
    for i in indices:
        e[i] += 1
    return tuple(e)


# the x-monomial of each block of a moving-plane row (x-degree 1) and of a
# moving-quadric row (x-degree 2), written out independently of the package
ROW_BLOCKS = {1: [x_mono(i) for i in range(4)],
              2: [x_mono(i, j) for i in range(4) for j in range(i, 4)]}


def row_surface(row, wdeg):
    """The moving surface a plane or quadric coefficient row stands for, as
    {x monomial: BihomPoly of bidegree wdeg}, zero blocks included.

    Block b of the row holds the coefficients of its b-th x-monomial over
    monomial_basis(wdeg), in that order.
    """
    basis = monomial_basis(wdeg)
    mn = len(basis)
    blocks = ROW_BLOCKS[1 if len(row) == 4 * mn else 2]
    assert len(row) == len(blocks) * mn
    return {xm: BihomPoly(wdeg, {mono: c for mono, c in
                                 zip(basis, row[b * mn:(b + 1) * mn]) if c})
            for b, xm in enumerate(blocks)}


def substitute(row, phi):
    """Plug phi into the x-variables of a plane or quadric row by polynomial
    arithmetic: each x_i becomes a_i.  The row follows phi exactly when the
    result is the zero polynomial."""
    total = None
    for xm, coeff in row_surface(row, phi.working_bidegree).items():
        prod = coeff
        for i, e in enumerate(xm):
            for _ in range(e):
                prod = prod * phi.a[i]
        total = prod if total is None else total + prod
    return total


def x_multiple(row, i, wdeg):
    """The nonzero blocks of x_i times the surface of a plane row."""
    out = {}
    for xm, f in row_surface(row, wdeg).items():
        if not f.is_zero():
            e = list(xm)
            e[i] += 1
            out[tuple(e)] = f
    return out


def nonzero_blocks(row, wdeg):
    """row_surface without its zero blocks."""
    return {xm: f for xm, f in row_surface(row, wdeg).items()
            if not f.is_zero()}


def surface_row(surface, wdeg):
    """The coefficient row of {x monomial: BihomPoly of bidegree wdeg}, with
    absent x-monomials zero; the x-degree is read from the keys."""
    basis = monomial_basis(wdeg)
    xdegree = sum(next(iter(surface)))
    row = []
    for xm in ROW_BLOCKS[xdegree]:
        f = surface.get(xm)
        row.extend(f.coeff(mono) if f is not None else Fraction(0)
                   for mono in basis)
    return row


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


def assembled_M(phi):
    """M of phi from the public steps of the pipeline, without the battery."""
    wdeg = phi.working_bidegree
    ech, pivots = echelon_plane_basis(moving_planes(phi), wdeg)
    elements, columns, fallback = quadric_basis_via_projection(phi, pivots)
    rows = select_quadric_rows(elements, columns, pivots, wdeg, fallback)
    return assemble_M(ech, rows, pivots, wdeg)
