"""Outcome checker: did each job end the way its workload says it should?

The checker sees only plain data (an ``Outcome``), never the program's
objects, and evaluates polynomials with its own integer arithmetic, so a
defect in the program's polynomial code cannot hide a wrong answer.
"""

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from jobs import form_value

FRESH_POINTS = 5


@dataclass
class Outcome:
    """How one job ended.

    kind is one of: implicit (a polynomial was returned), refused (the
    battery failed at ``failure``), not_one_to_one, condition (any other
    ConditionError), verification (VerificationError), error (any other
    exception; ``detail`` holds it).
    """
    kind: str
    failure: str = None
    coordinate_change: bool = False
    terms: dict = None         # exponent tuple -> Fraction
    k: int = None
    verified: bool = None
    phi: list = None           # the four {monomial: coefficient} forms
    detail: str = ""


def poly_digest(terms):
    """Short digest of a polynomial given as {exponent tuple: coefficient}."""
    lines = ["%s %s" % (" ".join(map(str, mono)), Fraction(c))
             for mono, c in sorted(terms.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def parse_xpoly(text):
    """{exponent tuple: Fraction} of a rendered polynomial in x0..x3."""
    terms = {}
    for raw in text.replace(" - ", " + -").split(" + "):
        raw = raw.strip()
        sign = -1 if raw.startswith("-") else 1
        coeff = Fraction(sign)
        expo = [0, 0, 0, 0]
        for factor in raw.lstrip("-").split("*"):
            if factor.startswith("x"):
                var, _, power = factor.partition("^")
                expo[int(var[1:])] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coeff
    return {mono: c for mono, c in terms.items() if c}


def _xpoly_value(terms, x):
    total = Fraction(0)
    for (e0, e1, e2, e3), c in terms.items():
        total += c * x[0] ** e0 * x[1] ** e1 * x[2] ** e2 * x[3] ** e3
    return total


def fresh_vanishing(terms, phi, seed, count=FRESH_POINTS):
    """Parameter points, drawn off the base locus, where terms does not vanish.

    The points are integers drawn from a stream of their own, not the one the
    pipeline verifies with.
    """
    rng = random.Random("fresh:%d" % seed)
    bad = []
    drawn = 0
    while drawn < count:
        point = tuple(rng.randint(-7, 7) for _ in range(4))
        image = [form_value(f, point) for f in phi]
        if not any(image):
            continue
        drawn += 1
        if _xpoly_value(terms, image):
            bad.append(point)
    return bad


def check_outcome(job, outcome, seed, digest=None):
    """Problems with one job's outcome; an empty list means as expected."""
    expect = job["expect"]["outcome"]
    got = outcome.kind
    if got == "error":
        return ["unexpected exception: %s" % outcome.detail]
    if expect == "refused":
        if (got, outcome.failure) != ("refused", job["expect"]["failure"]):
            return ["expected refusal at %s, got %s %s"
                    % (job["expect"]["failure"], got, outcome.failure or "")]
        return []
    if expect == "not_one_to_one":
        if got != "not_one_to_one" or not outcome.coordinate_change:
            return ["expected a coordinate change and a one-to-one refusal, "
                    "got %s (change %s)" % (got, outcome.coordinate_change)]
        return []
    if expect == "power":
        if got == "implicit":
            return ["a map that is not one-to-one returned a polynomial "
                    "marked verified=%s" % outcome.verified]
        return []

    if got != "implicit":
        return ["expected an implicit equation, got %s %s %s"
                % (got, outcome.failure or "", outcome.detail)]
    problems = []
    m, n, k = job["m"], job["n"], job["k"]
    degree = 2 * m * n - k
    if outcome.k != k:
        problems.append("k = %s, expected %d" % (outcome.k, k))
    if not outcome.terms or {sum(mono) for mono in outcome.terms} != {degree}:
        problems.append("not homogeneous of degree %d" % degree)
    if not outcome.verified:
        problems.append("verification.ok is false")
    if job["expect"].get("coordinate_change") and not outcome.coordinate_change:
        problems.append("expected a coordinate change")
    if outcome.terms:
        bad = fresh_vanishing(outcome.terms, outcome.phi, seed)
        if bad:
            problems.append("does not vanish at %d fresh points" % len(bad))
    if "golden" in job and outcome.terms != parse_xpoly(job["golden"]):
        problems.append("differs from the golden polynomial")
    if digest is not None and poly_digest(outcome.terms or {}) != digest:
        problems.append("differs from the recorded digest")
    return problems
