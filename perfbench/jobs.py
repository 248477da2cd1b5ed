"""Seeded job generator for the benchmark workloads.

A job is a plain dict: the JSON job-file fields the program reads (m, n, a,
seed, assert_one_to_one) plus the benchmark's own bookkeeping (name, size
class, intended k and the expected outcome).  Generation uses only the
standard library, so the inputs do not depend on the code under test.

Expected outcomes (``expect["outcome"]``):

  implicit        the pipeline returns a verified equation of degree 2mn - k;
                  with ``coordinate_change`` set, a seeded change must be used
  refused         check_all refuses with ``failure`` as the first failed check
  not_one_to_one  check_all passes after a coordinate change, then pipeline()
                  refuses the map as not generically one-to-one
  power           the map is 2:1 onto its image; it must be refused, or its
                  output flagged as a power (verification failure)
"""

import json
import random
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUT_DIR = ROOT / "scripts" / "inputs"
GOLDEN_DIR = ROOT / "tests" / "golden"

WORKLOADS = ("generic", "basepoints")
JOB_FIELDS = ("m", "n", "a", "seed", "assert_one_to_one")


def size_class(m, n):
    mn = m * n
    if mn <= 4:
        return "small"
    if mn <= 8:
        return "medium"
    return "large"


def monomials(m, n):
    """Monomials (es, eu, et, ev) of bidegree (m, n)."""
    return [(i, m - i, j, n - j) for i in range(m, -1, -1)
            for j in range(n, -1, -1)]


def render(terms):
    """Render {monomial: int} in the job-file polynomial grammar."""
    parts = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        if not c:
            continue
        body = "*".join("%s^%d" % (var, e) if e > 1 else var
                        for var, e in zip("sutv", mono) if e)
        if abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def _value(mono, point):
    s, u, t, v = point
    return s ** mono[0] * u ** mono[1] * t ** mono[2] * v ** mono[3]


def form_value(terms, point):
    return sum(c * _value(mono, point) for mono, c in terms.items())


def _p1(a, b):
    """Normal form of the point (a : b) of P1."""
    g = gcd(a, b)
    a, b = a // g, b // g
    return (-a, -b) if b < 0 or (b == 0 and a < 0) else (a, b)


P1_GRID = sorted({_p1(a, b) for a in range(-5, 6) for b in range(6)
                  if (a, b) != (0, 0)})


def common_zeros(forms):
    """Points of P1_GRID x P1_GRID where every form vanishes.

    Small integer coefficients make accidental common rational zeros likely
    enough to matter: a shared zero of a0, a1, a2 sends the saturation
    search of a generic input to its bound, and makes a base-point input a
    coordinate-change retry.  So the generators redraw any input whose zeros
    on this grid are not the ones they imposed.
    """
    first, rest = forms[0], forms[1:]
    zeros = set()
    for s, u in P1_GRID:
        partial = {}
        for (es, eu, et, ev), c in first.items():
            key = (et, ev)
            partial[key] = partial.get(key, 0) + c * s ** es * u ** eu
        for t, v in P1_GRID:
            if sum(c * t ** et * v ** ev for (et, ev), c in partial.items()):
                continue
            point = (s, u, t, v)
            if all(form_value(f, point) == 0 for f in rest):
                zeros.add(point)
    return zeros


def _random_form(rng, m, n, bound=5, support=None):
    """Coefficients drawn from [-bound, bound] without zero."""
    terms = {}
    for mono in support if support is not None else monomials(m, n):
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        terms[mono] = c
    return terms


# Base points are drawn from these points of P1, so that the coefficient
# sizes, and with them the cost of exact elimination, vary little by seed.
BASE_RATIOS = ((1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1))


def _random_points(rng, count):
    """Points (s:u) x (t:v) with pairwise distinct coordinates on each P1."""
    return [su + tv for su, tv in zip(rng.sample(BASE_RATIOS, count),
                                      rng.sample(BASE_RATIOS, count))]


def _linear(point, side):
    """The form of bidegree (1,0) (side 0) or (0,1) (side 1) vanishing on
    the ruling line through point."""
    a, b = point[2 * side:2 * side + 2]
    if side == 0:
        return {(1, 0, 0, 0): b, (0, 1, 0, 0): -a}
    return {(0, 0, 1, 0): b, (0, 0, 0, 1): -a}


def _times(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def _through_points(rng, m, n, points):
    """A random combination of all products that vanish at `points`.

    Each product puts every point on one of its two ruling lines: it is the
    product of the lines through the points of a subset A on the first P1,
    of the other points on the second P1, and of a monomial filling the
    bidegree up to (m, n).
    """
    k = len(points)
    total = {}
    for mask in range(1 << k):
        chosen = [(p, (mask >> j) & 1) for j, p in enumerate(points)]
        a = sum(1 for _, side in chosen if side == 0)
        if a > m or k - a > n:
            continue
        lines = {(0, 0, 0, 0): 1}
        for p, side in chosen:
            lines = _times(lines, _linear(p, side))
        for mono in monomials(m - a, n - k + a):
            c = rng.randint(-1, 1)
            if c:
                for lm, lc in _times(lines, {mono: c}).items():
                    total[lm] = total.get(lm, 0) + lc
    return {mono: c for mono, c in total.items() if c}


def _job(name, m, n, forms, k, expect, seed, assert_one_to_one=True):
    return {"name": name, "m": m, "n": n,
            "a": [f if isinstance(f, str) else render(f) for f in forms],
            "seed": seed, "assert_one_to_one": assert_one_to_one,
            "size": size_class(m, n), "k": k, "expect": expect}


def bundled(stem, name, k, expect, golden=None):
    """A job read from scripts/inputs, with its golden output if it has one."""
    data = json.loads((INPUT_DIR / (stem + ".json")).read_text())
    job = _job(name, data["m"], data["n"], data["a"], k, expect,
               data.get("seed", 0), data.get("assert_one_to_one", True))
    if golden:
        job["golden"] = (GOLDEN_DIR / golden).read_text().strip()
    return job


IMPLICIT = {"outcome": "implicit"}


def _interleaved(jobs, order):
    """Jobs in the given name order.

    Each size class is spread over the pass, so that a slow spell of the
    host does not land on one class alone.
    """
    by_name = {job["name"]: job for job in jobs}
    return [by_name[name] for name in order]


def generic_jobs(rng):
    jobs = [bundled("segre", "segre", 0, IMPLICIT, "segre_implicit.txt")]
    for name, m, n in (("generic_22a", 2, 2), ("generic_22b", 2, 2),
                       ("generic_22c", 2, 2), ("generic_23a", 2, 3),
                       ("generic_23b", 2, 3), ("generic_33", 3, 3)):
        while True:
            forms = [_random_form(rng, m, n) for _ in range(4)]
            if not common_zeros(forms[:3]):
                break
        jobs.append(_job(name, m, n, forms, 0, IMPLICIT, rng.randrange(1000)))
    return _interleaved(jobs, (
        "generic_22a", "generic_23a", "segre", "generic_22b", "generic_33",
        "generic_22c", "generic_23b"))


def _partial(f, var, point):
    """d f / d var at point."""
    total = 0
    for mono, c in f.items():
        if mono[var]:
            lowered = list(mono)
            lowered[var] -= 1
            total += c * mono[var] * _value(lowered, point)
    return total


def _transversal(forms, point):
    """Do the curves of `forms` not all share a tangent at `point`?

    At a common zero the partials of each form span at most a plane (Euler),
    so the curves meet transversally, and the point counts once, exactly
    when the matrix of partials has rank 2.
    """
    rows = [[_partial(f, var, point) for var in range(4)] for f in forms]
    return any(r1[i] * r2[j] != r1[j] * r2[i]
               for r1 in rows for r2 in rows
               for i in range(4) for j in range(i + 1, 4))


def _base_point_forms(rng, m, n, points, extra=None):
    """Four forms through `points`; a0..a2 also through `extra`, a3 not.

    Redrawn until a0..a2 and all four have no other common zero on the grid
    and meet transversally at each imposed point, so the imposed points are
    simple base points and the only ones.
    """
    abc_points = points + ([extra] if extra else [])
    while True:
        forms = [_through_points(rng, m, n, abc_points) for _ in range(3)]
        forms.append(_through_points(rng, m, n, points))
        if (common_zeros(forms[:3]) == set(abc_points)
                and common_zeros(forms) == set(points)
                and all(_transversal(forms[:3], p) for p in abc_points)):
            return forms


def basepoint_jobs(rng):
    jobs = [bundled("quartic_base_point", "quartic", 1, IMPLICIT,
                    "quartic_base_point_implicit.txt")]
    shapes = [("basepoints_22" + tag, 2, 2, 2) for tag in "abc"]
    shapes += [("basepoints_23a", 2, 3, 3), ("basepoints_23b", 2, 3, 3),
               ("basepoints_33", 3, 3, 4)]
    for name, m, n, k in shapes:
        forms = _base_point_forms(rng, m, n, _random_points(rng, k))
        jobs.append(_job(name, m, n, forms, k, IMPLICIT, rng.randrange(1000)))
    return _interleaved(jobs + degenerate_jobs(rng), (
        "basepoints_22a", "dependent_23", "retry_22a", "basepoints_33",
        "basepoints_23a", "quartic", "common_factor_33", "fat_point_23",
        "basepoints_22b", "dependent_33", "two_to_one", "basepoints_23b",
        "common_factor_23", "retry_22b", "fat_point_33", "basepoints_22c",
        "degree_two_scheme"))


FAT_POINT = (1, 0, 1, 0)


def _quadratic_parts_independent(forms, m, n):
    """Do the order-2 parts of three forms at u = v = 0 span all quadrics?

    Only then do a0, a1, a2 cut out the same fat point as all four forms.
    Otherwise the B5 saturation search runs to its bound, which at (2,3)
    turns a 1.5 s battery into 30 s or more.
    """
    (a, b, c) = [[f.get((m - eu, eu, n - ev, ev), 0)
                  for eu, ev in ((2, 0), (1, 1), (0, 2))] for f in forms]
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])) != 0


def degenerate_jobs(rng):
    """Inputs the battery refuses, or passes only after a coordinate change."""
    jobs = []
    for m, n in ((2, 3), (3, 3)):
        tag = "%d%d" % (m, n)
        a = [_random_form(rng, m, n) for _ in range(3)]
        a3 = {mono: a[0][mono] + a[1][mono] for mono in monomials(m, n)}
        jobs.append(_job("dependent_" + tag, m, n, a + [a3], None,
                         {"outcome": "refused", "failure": "B1"},
                         rng.randrange(1000)))

        # a common factor c*s + d*u: every form vanishes on a whole line
        line = (rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        forms = []
        for _ in range(4):
            prod = {}
            for (es, eu, et, ev), c in _random_form(rng, m - 1, n).items():
                for mono, lc in (((es + 1, eu, et, ev), line[0]),
                                 ((es, eu + 1, et, ev), line[1])):
                    prod[mono] = prod.get(mono, 0) + lc * c
            forms.append(prod)
        jobs.append(_job("common_factor_" + tag, m, n, forms, None,
                         {"outcome": "refused", "failure": "B2"},
                         rng.randrange(1000)))

        # every monomial of order >= 2 in (u, v): a fat point at u = v = 0
        support = [mono for mono in monomials(m, n) if mono[1] + mono[3] >= 2]
        while True:
            forms = [_random_form(rng, m, n, support=support)
                     for _ in range(4)]
            if (_quadratic_parts_independent(forms[:3], m, n)
                    and common_zeros(forms[:3]) == {FAT_POINT}):
                break
        jobs.append(_job("fat_point_" + tag, m, n, forms, None,
                         {"outcome": "refused", "failure": "B3"},
                         rng.randrange(1000)))

    for name in ("retry_22a", "retry_22b"):
        points = _random_points(rng, 3)
        forms = _base_point_forms(rng, 2, 2, points[:2], extra=points[2])
        jobs.append(_job(name, 2, 2, forms, 2,
                         {"outcome": "implicit", "coordinate_change": True},
                         rng.randrange(1000)))

    jobs.append(bundled("degree_two_scheme_23", "degree_two_scheme", None,
                        {"outcome": "not_one_to_one"}))
    two_to_one = _job("two_to_one", 2, 1,
                      ["s^2*t", "s^2*v", "u^2*t", "u^2*v"], 0,
                      {"outcome": "power"}, 0)
    # Still counted in `failed`; see README.md, "Correctness".
    two_to_one["known_defect"] = ("ROADMAP open item 5: a map that is not "
                                  "one-to-one returns a power marked verified")
    jobs.append(two_to_one)
    return jobs


GENERATORS = {"generic": generic_jobs, "basepoints": basepoint_jobs}


def make_jobs(workload, seed):
    """The jobs of one workload; the same (workload, seed) gives equal jobs."""
    rng = random.Random("%s:%d" % (workload, seed))
    return GENERATORS[workload](rng)
