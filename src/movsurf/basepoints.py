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

The battery stops at the first refusal among B1-B4, since no coordinate
change can repair one.  B3, B4 and B5 read the multiplicity k that B2
certifies: when B1 fails no window is sampled, and when B2 fails the
squared-ideal window is not.  B3 and B4 are decided together, so a refusal
at either runs no saturation search, abc window or coordinate change.
The checks not run are reported False with the witness
{"skipped": "B1 failed"}, "B2 failed", "B3 failed" or "B4 failed".  An
input with k = 0 passes on the short path, which needs none of B3-B6:
they are reported None (JSON null, not a failure) with the witness
{"skipped": "k = 0"}.

Degrees of zero-dimensional schemes are read off as stabilized values of the
Hilbert function dim (R/I)_{d,d'} sampled along a diagonal window, never via
primary decomposition.  Each value is the dimension of the dual of
(R/I)_d: the functionals on R_d that vanish on I_d, Macaulay's inverse
system (Mourrain, "Isolated points, duality and residues", JPAA 117-118,
1997).  A window takes it at its first degree only, as the certified
kernel (linalg.integer_kernel) of the generator multiples, built as integer
rows.  Once every generator fits, I_{d+(1,0)} = s I_d + u I_d, so the dual
at d + (1,0) is the set of lam with lam o s and lam o u in the dual at d:
a small kernel on twice the dual's size.  Most of its kernel vectors give
lam o s or lam o u as one old dual vector times an integer, and lam is
then read off that vector away from the few monomials s or u does not
divide.  The same holds in t, v, and the window reaches each later degree
by two such half steps.  A dual of size 0 stays 0 with no step, since
I_d = R_d puts R_{d'} = R_{d'-d} R_d inside I_{d'} for every d' >= d.

B1 is the one certified rank (linalg.integer_rank) of the battery: of
the coefficient rows of the a_i.  B5 tests mu*a3 in I = (a0,a1,a2) for
all mu of bidegree (N, N) at once: they lie in I_t, t = deg a3 + (N, N),
exactly when every functional of the dual at t vanishes on the multiples
of a3, a check over Z (linalg._annihilates).  These targets form a
diagonal, so the search walks the dual from one direct kernel at deg a3
by the same half steps, and the abc window of B5 steps from the duals of
that walk: B5 and B6 take one direct dual per attempt.  At (2m-1, 2n-1),
where the windows start, a multiplication map from bidegree (m-1, n-1)
has 4mn monomials as target and mn multipliers per generator.  So B6,
the kernel of the map from the 3mn multiples of a0, a1, a2, has
dimension the first abc window value minus mn; and the moving-plane
space, the kernel of the square map from the 4mn multiples of all four,
has dimension the first window value, which is k once B2 holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from operator import mul

# rank, moving_planes and syz_dim_abc are not called here: perfbench/spans.py
# installs its probes on them in this module
from .linalg import (_annihilates, det_integer, integer_kernel,
                     integer_rank, kernel_basis, rank)
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


def dual_basis(generators, d):
    """Basis of the dual of (R / <generators>) at bidegree d: the integer
    vectors over monomial_basis(d) that annihilate every generator multiple
    there, as integer_kernel gives them.  Its size is hilbert_dim.
    """
    d = (int(d[0]), int(d[1]))
    full = (d[0] + 1) * (d[1] + 1)
    use = [g for g in generators if bidegree_leq(g.bidegree, d)]
    return integer_kernel(multiple_rows(use, d), full)


def _half_step(dual, d, axis):
    """The dual at d + (1, 0) (axis 0) or d + (0, 1) (axis 1) from a basis
    of the dual at d, when the ideal there is generated from degree d.

    With x, y the variables of the axis (s, u or t, v) and
    I_{d+e} = x I_d + y I_d, a functional lam is in the new dual exactly
    when lam o x and lam o y are in the old one: lam o x = sum alpha_i K_i
    and lam o y = sum beta_i K_i.  A monomial M divisible by x alone or by
    y alone takes its value from one of them; one divisible by both gives
    the consistency row K(M/x) . alpha - K(M/y) . beta = 0, and a zero or
    repeated one is dropped.  The kernel of these rows on the 2h unknowns
    maps one to one onto the new dual, so the lifted kernel vectors are
    independent: they are returned as a basis of it, each divided by its
    content.

    The rows make lam(M) the same through x and through y wherever both
    divide M, so each kernel vector is lifted along a unit side when it
    has one.  integer_kernel gives a vector that is 0 at every free column
    but its own, so beta, or else alpha, is often c e_i: then lam(M) is
    c K_i(M/y) wherever y divides M (c K_i(M/x) wherever x does), and only
    the other b + 1 or a + 1 monomials take a dot product.
    """
    a, b = d
    block = b + 1
    size = (a + 2) * block if axis == 0 else (a + 1) * (b + 2)
    # up[q], down[q]: the position of M/x, M/y at d for the monomial at
    # position q of d + e, None when x, y does not divide it
    if axis == 0:
        up = [q if q < size - block else None for q in range(size)]
        down = [q - block if q >= block else None for q in range(size)]
    else:
        up, down = [], []
        for q in range(size):
            blk, r = divmod(q, b + 2)
            up.append(blk * block + r if r <= b else None)
            down.append(blk * block + r - 1 if r else None)
    h = len(dual)
    columns = [list(column) for column in zip(*dual)]
    rows = [[*columns[x], *(-c for c in columns[y])]
            for x, y in zip(up, down) if x is not None and y is not None]
    # a zero or repeated row adds nothing but work to the kernel; rows are
    # told apart by their text, since tuple keys would leave hundreds of
    # small tuples in the interpreter's free lists and raise peak memory
    rows = list({str(row): row for row in rows if any(row)}.values())
    lifted = []
    for coeffs in integer_kernel(rows, 2 * h):
        alpha, beta = coeffs[:h], coeffs[h:]
        # beta = c e_i: lam(M) = c K_i(M/y) wherever y divides M, and
        # alpha . K(M/x) elsewhere; alpha = c e_i: the same with x and y,
        # alpha and beta swapped
        if (unit := _unit(beta)) is not None:
            read, through, other = down, up, alpha
        elif (unit := _unit(alpha)) is not None:
            read, through, other = up, down, beta
        if unit is None:
            vector = [sum(map(mul, alpha, columns[x])) if x is not None
                      else sum(map(mul, beta, columns[y]))
                      for x, y in zip(up, down)]
        else:
            i, c = unit
            old = dual[i]
            vector = [c * old[r] if r is not None
                      else sum(map(mul, other, columns[t]))
                      for r, t in zip(read, through)]
        g = gcd(*vector)
        lifted.append([v // g for v in vector] if g > 1 else vector)
    return lifted


def _unit(coeffs):
    """(i, c) when coeffs is c times the i-th unit vector, c != 0; else
    None."""
    nonzero = [i for i, c in enumerate(coeffs) if c]
    if len(nonzero) != 1:
        return None
    i, = nonzero
    return i, coeffs[i]


def hilbert_values(generators, degrees, known=None):
    """hilbert_dim of the generators at each of the degrees.

    Each value is the size of a basis of the dual at its degree, stepped
    from the dual at the nearest earlier degree below it by half steps
    (_half_step), s and u before t and v.  A half step needs the ideal at
    the new degree to be generated from the old one, which holds when every
    generator that fits at the new degree already fits at the old; where it
    does not, and where no earlier degree lies below, the dual is taken
    directly (dual_basis).  A dual of size 0 stays 0: I_d = R_d puts
    R_{d'} = R_{d'-d} R_d inside I_{d'} for every d' >= d.

    known, a list of (degree, dual) pairs of the same generators, offers
    earlier degrees to step from; the call extends it with the duals it
    takes.
    """
    known = [] if known is None else known
    return [len(_dual_at(generators, known, (int(d[0]), int(d[1]))))
            for d in degrees]


def _dual_at(generators, known, d):
    """The dual at d, stepped from the known pairs when a step path is
    valid and taken directly otherwise; appended to known."""
    dual = _stepped(generators, known, d)
    if dual is None:
        dual = dual_basis(generators, d)
    known.append((d, dual))
    return dual


def _stepped(generators, known, d):
    """The dual at d stepped from the nearest of the known (degree, dual)
    pairs below d, a zero first; None when no step path is valid."""
    below = [(e, dual) for e, dual in known if bidegree_leq(e, d)]
    if not below:
        return None
    if any(not dual for _, dual in below):
        return []
    cur, dual = min(reversed(below),
                    key=lambda pair: d[0] - pair[0][0] + d[1] - pair[0][1])
    while cur != d and dual:
        for axis in (0, 1):
            if cur[axis] == d[axis]:
                continue
            nxt = (cur[0] + 1, cur[1]) if axis == 0 else (cur[0], cur[1] + 1)
            if any(bidegree_leq(g.bidegree, nxt)
                   and not bidegree_leq(g.bidegree, cur) for g in generators):
                return None
            dual = _half_step(dual, cur, axis)
            cur = nxt
            if not dual:
                break
    return dual


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


def saturation_member(f, generators, max_power, known=None):
    """Does some power of the irrelevant ideal multiply f into <generators>?

    Search N = 0, 1, ..., max_power; at each N test that mu*f lies in the
    ideal I at t = deg f + (N, N) for every monomial mu of bidegree (N, N).
    N = 0 is plain ideal membership.

    They all lie in I_t exactly when every functional of the dual of
    (R/I)_t vanishes on the multiples of f there, which _annihilates
    decides over Z; an empty dual means I_t = R_t, which holds them all.
    The targets form a diagonal, so the search walks the dual as a window
    does (hilbert_values): it takes the dual directly only where no earlier
    degree lies below t or a generator starts to fit, and otherwise by two
    half steps from the previous N.  known is as in hilbert_values: the
    walk steps from its pairs and extends it with its own duals.
    """
    if max_power < 0:
        raise ValueError("max_power must be at least 0")
    known = [] if known is None else known
    for N in range(max_power + 1):
        t = (f.bidegree[0] + N, f.bidegree[1] + N)
        dual = _dual_at(generators, known, t)
        if not dual or _annihilates(multiple_rows([f], t), dual):
            return SaturationResult(member=True, power=N)
    return SaturationResult(member=False, bound_reached=True)


def _abc_scheme_matches(phi, summary, known=None):
    """First half of B5: (a0,a1,a2) cut out the same finite scheme as the
    full ideal, certified by a matching stabilized Hilbert value over the
    same window (the triple stabilizes later than the full ideal, so only
    the window tail is required to be constant).  known is as in
    hilbert_values."""
    values = hilbert_values(phi.a[:3], summary.stabilization_window, known)
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

    # the abc window steps from the duals of a0, a1, a2 that the
    # saturation search walks through, so it takes no direct dual
    walk = []
    sat = saturation_member(phi.a[3], phi.a[:3], _sat_bound(phi, config),
                            walk)
    scheme_ok, abc_values = _abc_scheme_matches(phi, summary, walk)
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

    The battery ends at a refusal among the invariant checks B1-B4, and no
    coordinate change is tried.  The checks it does not run are reported
    False with a "skipped" witness: those after a B1 or B2 refusal, and
    B5/B6 after one at B3 or B4, which are decided together.  A
    parametrization with no base points at all (k = 0) does not need
    B3-B6: its moving-plane space, of dimension k, is trivial, and the
    construction goes through, so the report passes on the short path with
    B3-B6 None and skipped.
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
    # verdicts holds B1 up to the check that ended the invariant part
    failure = next((name for name, ok in verdicts.items() if not ok), None)
    if short_path or failure:
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
        if all_passed:
            return report
    return report
