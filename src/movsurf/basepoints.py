"""Base-point condition checks, decided by finite-dimensional linear algebra.

Before the determinantal construction is allowed to run, the parametrization
must pass six checks, reported as B1..B6:

  B1  the four input polynomials are linearly independent;
  B2  the common zero scheme of (a0..a3) is finite, of total degree k <= mn;
  B3  every base point is a local complete intersection, detected through the
      stabilized codimension of the squared ideal being exactly 3k;
  B4  the quotient dimension at bidegree (2m-1, 2n-1) already equals k, so the
      Hilbert function has stabilized at the start of the sampling window;
  B5  (a0,a1,a2) cut out the same finite scheme and a3 is a saturation member
      of the ideal they generate;
  B6  a0, a1, a2 admit no syzygy at bidegree (m-1, n-1).

B1-B4 are invariant under invertible linear recombination of the a_i, while
B5/B6 hold only in sufficiently general position; when just B5/B6 fail, a
seeded random recombination is applied and only B5/B6 are rerun, B1-B4
being computed once per check.  A recombination, the coordinate change of
the report, is four rows of ints T with a'_i = sum_j T[i][j] a_j.

The battery stops after B2 whenever B2 settles the outcome.  B3, B4 and
B5 read the multiplicity k that B2 certifies, and no coordinate change can
repair B1 or B2: when B1 fails no window is sampled, and when B2 fails the
squared-ideal window is not.  The later checks are then reported False
with the witness {"skipped": "B1 failed"} or {"skipped": "B2 failed"}.
An input with k = 0 passes on the short path, which needs none of B3-B6:
they are reported None (JSON null, not a failure) with the witness
{"skipped": "k = 0"}.  A refusal at B3 or B4 keeps its B5/B6 witnesses.

Degrees of zero-dimensional schemes are read off as stabilized values of the
Hilbert function dim (R/I)_{d,d'} sampled along a diagonal window, never via
primary decomposition.  Each value is the number of monomials minus the
certified rank (linalg.integer_rank) of the generator multiples, built as
integer rows.  A window stops computing ranks at its first zero: I_d = R_d
puts R_{d'} = R_{d'-d} R_d inside I_{d'} for every d' >= d, so the later
values are zero too.

The other counts of the battery are the same certified rank, each taken
once.  B1 is the rank of the coefficient rows of the a_i.  B5 tests mu*a3
in (a0,a1,a2) for all mu of one bidegree at once, by comparing two Hilbert
values, with and without a3 among the generators.  At (2m-1, 2n-1), where
the windows start, a multiplication map from bidegree (m-1, n-1) has 4mn
monomials as target and mn multipliers per generator.  So B6, the kernel
of the map from the 3mn multiples of a0, a1, a2, has dimension the first
abc window value minus mn; and the moving-plane space, the kernel of the
square map from the 4mn multiples of all four, has dimension the first
window value, which is k once B2 holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# rank, moving_planes and syz_dim_abc are not called here: perfbench/spans.py
# installs its probes on them in this module
from .linalg import det_integer, integer_rank, kernel_basis, rank
from .ring import bidegree_leq
from .syzygy import (Parametrization, moving_planes, mult_matrix,
                     multiple_rows, syz_dim_abc)

CONDITION_NAMES = {
    "B1": "linear independence",
    "B2": "finite base locus, k <= mn",
    "B3": "local complete intersection",
    "B4": "regularity at window start",
    "B5": "same scheme from a0,a1,a2 and a3 saturation member",
    "B6": "no syzygy on a0,a1,a2",
}


CHANGE_ATTEMPTS = 10         # coordinate-change retries when B5/B6 fail


@dataclass(frozen=True)
class CheckConfig:
    window: int = 3          # extra diagonal samples beyond the window start
    sat_bound: int = None    # None -> 2*max(m,n) + 2
    seed: int = 0
    coord_bound: int = 10    # entry bound for random recombinations


@dataclass(frozen=True)
class SaturationResult:
    member: bool
    power: int = None        # least N certifying membership
    bound_reached: bool = False


@dataclass
class BasePointSummary:
    finite: bool
    k: int                   # None when the locus is not finite
    lci_proxy: bool
    stabilization_window: list
    hilbert_values: list
    hilbert_sq_values: list  # None unless B2 holds with k > 0: not sampled
    reason: str = None       # "growing" | "not_stabilized" when finite is False


@dataclass
class ConditionReport:
    verdicts: dict
    witnesses: dict
    k: int
    short_path: bool
    all_passed: bool
    failure: str
    phi: Parametrization            # the parametrization the verdicts describe
    coordinate_change: list = None  # four rows of ints, see generic_change
    coordinate_seed: int = None
    summary: BasePointSummary = None  # None when B1 fails


def hilbert_dim(generators, d):
    """dim of (R / <generators>) at bidegree d.

    Generators of bidegree not <= d contribute no multiples there and are
    skipped.
    """
    d = (int(d[0]), int(d[1]))
    full = (d[0] + 1) * (d[1] + 1)
    use = [g for g in generators if bidegree_leq(g.bidegree, d)]
    if not use:
        return full
    return full - integer_rank(multiple_rows(use, d), full)


def hilbert_values(generators, degrees):
    """hilbert_dim of the generators at each of the degrees.

    A zero is propagated without computing a rank: if the quotient is 0 at
    d, then I_d = R_d, so at every d' >= d (componentwise)
    R_{d'} = R_{d'-d} R_d = R_{d'-d} I_d lies in I_{d'}, and the quotient
    is 0 there too.
    """
    zeros = []
    values = []
    for d in degrees:
        if any(bidegree_leq(z, d) for z in zeros):
            values.append(0)
            continue
        value = hilbert_dim(generators, d)
        if value == 0:
            zeros.append(d)
        values.append(value)
    return values


def check_independence(phi):
    """B1: the a_i span a 4-dimensional space of forms."""
    ncols = (phi.m + 1) * (phi.n + 1)
    return integer_rank(multiple_rows(phi.a, (phi.m, phi.n)), ncols) == 4


def independence_witness(phi):
    """A dependency among the a_i (None when independent)."""
    kb = kernel_basis(mult_matrix(phi.a, (phi.m, phi.n)))
    return kb.vectors[0] if kb.vectors else None


def _classify(values):
    """Stabilization along the window: (finite, reason)."""
    if all(v == values[0] for v in values):
        return True, None
    for prev, cur in zip(values, values[1:]):
        if cur > prev:
            return False, "growing"
    return False, "not_stabilized"


def _locus_ok(phi, finite, k):
    """B2: the base locus is finite, of total degree k <= mn."""
    return finite and k <= phi.mn


def base_point_summary(phi, window=3):
    """Sample the quotient dimensions along the diagonal.

    dim (R/I) is sampled at (2m-1+i, 2n-1+i) for i = 0..window.  The base
    locus counts as finite when the sequence is constant; its value is then
    the total multiplicity k.  Only when B2 holds with k > 0 is dim (R/I^2)
    sampled at (3m-1+i, 3n-1+i); it must be constantly 3k for the
    local-complete-intersection proxy, which k = 0 passes with no base
    point to test.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    m, n = phi.m, phi.n
    degrees = [(2 * m - 1 + i, 2 * n - 1 + i) for i in range(window + 1)]
    values = hilbert_values(phi.a, degrees)
    finite, reason = _classify(values)
    k = values[0] if finite else None

    sq_values = None
    lci = k == 0
    if k and _locus_ok(phi, finite, k):
        sq_degrees = [(3 * m - 1 + i, 3 * n - 1 + i)
                      for i in range(window + 1)]
        sq_values = hilbert_values(phi.products(), sq_degrees)
        lci = all(v == 3 * k for v in sq_values)

    return BasePointSummary(finite=finite, k=k, lci_proxy=lci,
                            stabilization_window=degrees,
                            hilbert_values=values,
                            hilbert_sq_values=sq_values,
                            reason=reason)


def check_regularity(phi, summary):
    """B4: the window already starts at the stabilized value."""
    return summary.finite and summary.hilbert_values[0] == summary.k


def saturation_member(f, generators, max_power):
    """Does some power of the irrelevant ideal multiply f into <generators>?

    Search N = 0, 1, ..., max_power; at each N test that mu*f lies in the
    ideal I at t = deg f + (N, N) for every monomial mu of bidegree (N, N).
    N = 0 is plain ideal membership.  (I + (f))_t = I_t + f*R_{N,N} contains
    I_t, so it equals I_t, and every mu*f lies in I_t, exactly when the two
    quotients have the same dimension at t.
    """
    with_f = [*generators, f]
    for N in range(max_power + 1):
        target = (f.bidegree[0] + N, f.bidegree[1] + N)
        if hilbert_dim(generators, target) == hilbert_dim(with_f, target):
            return SaturationResult(member=True, power=N)
    return SaturationResult(member=False, bound_reached=True)


def _abc_scheme_matches(phi, summary):
    """First half of B5: (a0,a1,a2) cut out the same finite scheme as the
    full ideal, certified by a matching stabilized Hilbert value over the
    same window (the triple stabilizes later than the full ideal, so only
    the window tail is required to be constant)."""
    values = hilbert_values(phi.a[:3], summary.stabilization_window)
    stabilized = len(values) >= 2 and values[-1] == values[-2]
    return stabilized and values[-1] == summary.k, values


def generic_change(phi, seed, bound=10, matrix=None):
    """Recombine (a0..a3) by a seeded random invertible integer matrix T,
    a'_i = sum_j T[i][j] a_j; returns the recombined parametrization and T.

    T is four rows of ints.  Deterministic for a fixed seed.  An explicit
    matrix, four rows of ints, overrides the draw.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if matrix is None:
        rng = random.Random(seed)
        while True:
            matrix = [[rng.randint(-bound, bound) for _ in range(4)]
                      for _ in range(4)]
            if det_integer(matrix):
                break
    elif not all(type(x) is int for row in matrix for x in row):
        raise ValueError("coordinate change matrix must hold ints")
    elif not det_integer(matrix):
        raise ValueError("coordinate change matrix is singular")
    new_a = []
    for row in matrix:
        f = phi.a[0].scale(row[0])
        for c, g in zip(row[1:], phi.a[1:]):
            if c:
                f = f + g.scale(c)
        new_a.append(f)
    return Parametrization(phi.m, phi.n, tuple(new_a)), matrix


def _sat_bound(phi, config):
    if config.sat_bound is not None:
        return config.sat_bound
    return 2 * max(phi.m, phi.n) + 2


def _invariant_conditions(phi, config):
    """B1-B4, which a coordinate change leaves unchanged: the ideal of the
    a_i and its square are the same after an invertible recombination.

    Stops at a B1 or B2 refusal, or after B2 when k = 0, before any window
    the outcome does not need; the summary is None when B1 fails.
    """
    verdicts = {"B1": check_independence(phi)}
    witnesses = {}
    if not verdicts["B1"]:
        witnesses["B1"] = {"dependency": independence_witness(phi)}
        return verdicts, witnesses, None

    summary = base_point_summary(phi, config.window)
    k = summary.k
    verdicts["B2"] = _locus_ok(phi, summary.finite, k)
    witnesses["B2"] = {
        "window": summary.stabilization_window,
        "values": summary.hilbert_values,
        "k": k,
        "reason": summary.reason,
    }
    if not verdicts["B2"] or k == 0:
        return verdicts, witnesses, summary
    verdicts["B3"] = summary.lci_proxy
    witnesses["B3"] = {"squared_values": summary.hilbert_sq_values,
                       "expected": 3 * k}
    verdicts["B4"] = check_regularity(phi, summary)
    witnesses["B4"] = {"value_at_start": summary.hilbert_values[0], "k": k}
    return verdicts, witnesses, summary


def _evaluate_conditions(phi, config, invariant):
    """B1..B6 on phi, B1-B4 taken from `invariant`: the result of
    _invariant_conditions, with B1 and B2 passed, on phi or on any
    recombination of it."""
    verdicts, witnesses, summary = invariant
    verdicts, witnesses = dict(verdicts), dict(witnesses)

    scheme_ok, abc_values = _abc_scheme_matches(phi, summary)
    sat = saturation_member(phi.a[3], phi.a[:3], _sat_bound(phi, config))
    verdicts["B5"] = scheme_ok and sat.member
    witnesses["B5"] = {"abc_values": abc_values, "scheme_match": scheme_ok,
                       "saturation_power": sat.power,
                       "bound_reached": sat.bound_reached}

    abc_dim = abc_values[0] - phi.mn
    verdicts["B6"] = abc_dim == 0
    witnesses["B6"] = {"dim": abc_dim}

    return verdicts, witnesses


def check_all(phi, config=None):
    """Run B1..B6, retrying with seeded coordinate changes when only the
    position-dependent checks B5/B6 fail.

    The battery ends after B2 when B2 settles the outcome, and no
    coordinate change is tried.  A refusal at B1 or B2 reports the later
    checks False with a "skipped" witness.  A parametrization with no base
    points at all (k = 0) does not need B3-B6: its moving-plane space, of
    dimension k, is trivial, and the construction goes through, so the
    report passes on the short path with B3-B6 None and skipped.
    """
    config = config or CheckConfig()
    if config.window < 2:
        raise ValueError("window must be at least 2")
    if config.sat_bound is not None and config.sat_bound < 0:
        raise ValueError("sat_bound must be at least 0")
    if config.coord_bound < 1:
        raise ValueError("coord_bound must be at least 1")
    invariant = _invariant_conditions(phi, config)
    verdicts, witnesses, summary = invariant
    k = summary.k if summary else None
    short_path = k == 0
    if short_path or not verdicts.get("B2"):
        failure = None if short_path else "B2" if verdicts["B1"] else "B1"
        for name in CONDITION_NAMES:
            if name not in verdicts:
                verdicts[name] = None if short_path else False
                witnesses[name] = {"skipped": "k = 0" if short_path
                                   else "%s failed" % failure}
        if short_path:
            witnesses["short_path"] = {"moving_plane_dim": k}
        return ConditionReport(
            verdicts=verdicts, witnesses=witnesses, k=k,
            short_path=short_path, all_passed=short_path, failure=failure,
            phi=phi, summary=summary)

    phi_cur, change, change_seed = phi, None, None
    for attempt in range(CHANGE_ATTEMPTS + 1):
        if attempt:
            change_seed = config.seed + attempt
            phi_cur, change = generic_change(phi, change_seed,
                                             bound=config.coord_bound)
        verdicts, witnesses = _evaluate_conditions(phi_cur, config, invariant)
        all_passed = all(verdicts.values())
        failure = None if all_passed else next(
            name for name in CONDITION_NAMES if not verdicts[name])
        report = ConditionReport(verdicts=verdicts, witnesses=witnesses, k=k,
                                 short_path=False, all_passed=all_passed,
                                 failure=failure, phi=phi_cur,
                                 coordinate_change=change,
                                 coordinate_seed=change_seed,
                                 summary=summary)
        # only B5/B6 depend on the coordinates
        if all_passed or not (verdicts["B3"] and verdicts["B4"]):
            return report
    return report
