import random
from pathlib import Path

import pytest

from movsurf import (BihomPoly, CheckConfig, Parametrization, RatMatrix,
                     base_point_summary, check_all, check_independence,
                     check_regularity, generic_change, hilbert_dim,
                     kernel_basis, parse, saturation_member)
from movsurf import basepoints
from movsurf.basepoints import (SaturationResult, _evaluate_conditions,
                                _invariant_conditions, independence_witness)
from movsurf.cli import load_jobspec
from movsurf.linalg import det_integer
from movsurf.ring import bidegree_leq, monomial_basis
from movsurf.syzygy import moving_planes, mult_matrix, syz_dim_abc

from conftest import (QUARTIC_BP_STRINGS, base_point_free_parametrizations,
                      counted_calls, job_phi, perfbench_jobs, random_bihom,
                      random_parametrization)
from oracle import (coeff_vector, half_step_by_dots, saturation_by_ranks,
                    solve_membership)


# --- quotient dimensions -----------------------------------------------------

def test_hilbert_dim_quartic(quartic_bp):
    assert hilbert_dim(quartic_bp.a, (3, 3)) == 1


def test_hilbert_dim_regularity_example(regularity_phi):
    assert hilbert_dim(regularity_phi.a, (3, 5)) == 2


def test_hilbert_dim_zero_ideal():
    assert hilbert_dim([], (3, 4)) == 20


def test_hilbert_dim_skips_oversized_generators():
    f = parse("s^3*t^2")  # bidegree (3,2) exceeds (2,2)
    assert hilbert_dim([f], (2, 2)) == 9


def test_hilbert_nonincreasing_along_diagonal(quartic_bp):
    vals = [hilbert_dim(quartic_bp.a, (3 + i, 3 + i)) for i in range(4)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals == [1, 1, 1, 1]


def recorded_windows(monkeypatch):
    """The work of hilbert_values, in call order: ("rank", d) for each dual
    taken directly at d, ("step", d, axis) for each half step from d."""
    events = []
    dual_basis, half_step = basepoints.dual_basis, basepoints._half_step

    def ranked(generators, d):
        events.append(("rank", tuple(d)))
        return dual_basis(generators, d)

    def stepped(dual, d, axis):
        events.append(("step", tuple(d), axis))
        return half_step(dual, d, axis)
    monkeypatch.setattr(basepoints, "dual_basis", ranked)
    monkeypatch.setattr(basepoints, "_half_step", stepped)
    return events


def stepped_window(window):
    """The events of a diagonal window with no zero: its first degree
    ranked, then from each degree a half step in s, u and one in t, v."""
    return [("rank", window[0])] + [
        event for a, b in window[:-1]
        for event in (("step", (a, b), 0), ("step", (a + 1, b), 1))]


def test_hilbert_values_stop_ranking_at_the_first_zero(monkeypatch):
    _, phi = base_point_free_parametrizations(1, 2, 2)[0]
    window = [(3 + i, 3 + i) for i in range(4)]
    expected = [hilbert_dim(phi.a[:3], d) for d in window]
    assert expected == [4, 1, 0, 0]
    # the value at (5, 4), half way to (5, 5), is already 0
    assert hilbert_dim(phi.a[:3], (5, 4)) == 0
    events = recorded_windows(monkeypatch)
    assert basepoints.hilbert_values(phi.a[:3], window) == expected
    assert events == [("rank", (3, 3)), ("step", (3, 3), 0),
                      ("step", (4, 3), 1), ("step", (4, 4), 0)]


def test_hilbert_values_propagate_a_zero_only_upwards(monkeypatch):
    _, phi = base_point_free_parametrizations(1, 2, 2)[0]
    degrees = [(3, 3), (2, 5), (4, 4), (5, 2), (3, 4)]
    expected = [hilbert_dim(phi.a, d) for d in degrees]
    assert expected == [0, 2, 0, 2, 0]
    events = recorded_windows(monkeypatch)
    assert basepoints.hilbert_values(phi.a, degrees) == expected
    # (2, 5) and (5, 2) lie above no earlier degree: nothing to step from
    assert events == [("rank", (3, 3)), ("rank", (2, 5)), ("rank", (5, 2))]


def test_summary_and_abc_window_rank_no_degree_past_a_zero(monkeypatch):
    _, phi = base_point_free_parametrizations(1, 2, 2)[0]
    events = recorded_windows(monkeypatch)
    summary = base_point_summary(phi)
    assert summary.hilbert_values == [0, 0, 0, 0]
    assert summary.hilbert_sq_values is None
    assert events == [("rank", (3, 3))]
    assert basepoints._abc_scheme_matches(phi, summary) == (True,
                                                            [4, 1, 0, 0])
    assert events[1:] == [("rank", (3, 3)), ("step", (3, 3), 0),
                          ("step", (4, 3), 1), ("step", (4, 4), 0)]


def hilbert_cases(phi):
    """(generators, degrees) of the B2 and B3 windows of phi and of a few
    degrees below them, the generators' own bidegree among them."""
    m, n = phi.m, phi.n
    plain = [(m, n), (m + 1, n), (m, n + 2)] + [
        (2 * m - 1 + i, 2 * n - 1 + i) for i in range(4)]
    squared = [(2 * m, 2 * n), (2 * m + 1, 2 * n)] + [
        (3 * m - 1 + i, 3 * n - 1 + i) for i in range(4)]
    return [(list(phi.a), plain), (phi.products(), squared)]


def test_hilbert_values_ignore_a_dependent_generator(quartic_bp):
    inputs = [quartic_bp, random_parametrization(random.Random(3), 3, 3)]
    for phi in inputs:
        for gens, degrees in hilbert_cases(phi):
            extra = gens[0] + gens[1].scale(3)
            values = basepoints.hilbert_values(gens, degrees)
            assert basepoints.hilbert_values([*gens, extra], degrees) == values
            assert basepoints.hilbert_values([extra, *gens], degrees) == values
            # hilbert_dim keeps every generator: the same values
            assert [hilbert_dim([*gens, extra], d) for d in degrees] == values


def test_dependent_products_keep_six_of_ten():
    phi = random_parametrization(random.Random(5), 2, 2)
    a0, a1, a2, _ = phi.a
    dependent = Parametrization(2, 2, (a0, a1, a2, a0 + a1))
    # the ten products span six of the 25 dimensions of bidegree (4, 4)
    assert hilbert_dim(dependent.products(), (4, 4)) == 25 - 6
    degrees = hilbert_cases(dependent)[1][1]
    assert basepoints.hilbert_values(dependent.products(), degrees) == [
        hilbert_dim(dependent.products(), d) for d in degrees]


# --- stepped window values against direct ranks ------------------------------

def through_points(seed, m, n, k):
    """Seeded (m, n) input through k points of P1 x P1 with small ratios.

    Each form sums, over the ways to put every point on one of its two
    ruling lines, the product of those lines and a random form with
    entries -1, 0, 1 filling the bidegree.
    """
    rng = random.Random(seed)
    points = [(1, a, 1, b) for a, b in zip(rng.sample(range(-3, 4), k),
                                           rng.sample(range(-3, 4), k))]

    def form():
        total = None
        for mask in range(1 << k):
            sides = [(mask >> j) & 1 for j in range(k)]
            first = sides.count(0)
            if first > m or k - first > n:
                continue
            f = random_bihom(rng, (m - first, n - k + first), coeff_bound=1)
            for (s, u, t, v), side in zip(points, sides):
                f = f * (BihomPoly((1, 0), {(1, 0, 0, 0): u,
                                            (0, 1, 0, 0): -s})
                         if side == 0 else
                         BihomPoly((0, 1), {(0, 0, 1, 0): v,
                                            (0, 0, 0, 1): -t}))
            total = f if total is None else total + f
        return total
    return Parametrization(m, n, tuple(form() for _ in range(4)))


def assert_stepped_equals_direct(generators, degrees):
    assert basepoints.hilbert_values(generators, degrees) == [
        hilbert_dim(generators, d) for d in degrees]


def battery_windows(phi):
    """(generators, degrees) of the B2, B3 and abc windows of phi."""
    m, n = phi.m, phi.n
    return [(gens, [(start[0] + i, start[1] + i) for i in range(4)])
            for gens, start in ((list(phi.a), (2 * m - 1, 2 * n - 1)),
                                (phi.products(), (3 * m - 1, 3 * n - 1)),
                                (list(phi.a[:3]), (2 * m - 1, 2 * n - 1)))]


@pytest.mark.parametrize("m, n, k", [
    pytest.param(m, n, k, id="%d%d_k%d" % (m, n, k))
    for m, n in ((2, 2), (2, 3), (3, 3)) for k in range(5)])
def test_stepped_window_values_equal_direct_ranks(m, n, k):
    phi = through_points(10 * m + n + k, m, n, k)
    assert base_point_summary(phi).k == k
    for gens, degrees in battery_windows(phi):
        assert_stepped_equals_direct(gens, degrees)


def test_stepped_values_equal_direct_ranks_on_a_growing_window():
    base = random_parametrization(random.Random(99), 2, 2)
    phi = Parametrization(3, 2, tuple(f * parse("s") for f in base.a))
    values = basepoints.hilbert_values(phi.a, [(5, 3), (6, 4), (7, 5), (8, 6)])
    assert values[0] < values[-1]
    for gens, degrees in battery_windows(phi):
        assert_stepped_equals_direct(gens, degrees)


def cli_grid(m, n):
    """The degrees of the default hilbert table, in its order."""
    return [(i, j) for i in range(2 * m + 1) for j in range(2 * n + 1)]


def test_stepped_values_equal_direct_ranks_on_the_cli_grid(quartic_bp):
    inputs = [quartic_bp, through_points(7, 2, 3, 2),
              random_parametrization(random.Random(4), 3, 2)]
    for phi in inputs:
        # the grid starts below the generators' bidegree, where no
        # generator fits, and the squared ideal fits only at its far corner
        assert_stepped_equals_direct(list(phi.a), cli_grid(phi.m, phi.n))
        assert_stepped_equals_direct(phi.products(), cli_grid(phi.m, phi.n))
    # generators of several bidegrees, which start to fit at different
    # degrees of the grid, so that some steps are not allowed
    rng = random.Random(11)
    a0, a1, _, _ = quartic_bp.a
    mixed = [random_bihom(rng, (1, 2)), a0, random_bihom(rng, (3, 0)),
             a1 * parse("s"), random_bihom(rng, (0, 3))]
    assert_stepped_equals_direct(mixed, cli_grid(2, 2))
    assert_stepped_equals_direct(mixed[1:], cli_grid(2, 2))


# --- the lift of each half step along its unit side ---------------------------

def recorded_half_steps(monkeypatch):
    """(dual, d, axis, lifted) of each _half_step call while the test runs,
    and the (alpha, beta) kernel vectors of its consistency rows."""
    steps, kernels = [], []
    half_step, kernel = basepoints._half_step, basepoints.integer_kernel

    def stepped(dual, d, axis):
        lifted = half_step(dual, d, axis)
        steps.append((dual, d, axis, lifted))
        return lifted

    def recorded(rows, ncols):
        vectors = kernel(rows, ncols)
        kernels.extend((v[:ncols // 2], v[ncols // 2:]) for v in vectors)
        return vectors
    monkeypatch.setattr(basepoints, "_half_step", stepped)
    monkeypatch.setattr(basepoints, "integer_kernel", recorded)
    return steps, kernels


def unit_side(alpha, beta):
    """(side, c): the half of a kernel vector that is c e_i, beta before
    alpha as _half_step reads them, or ("neither", None)."""
    for side, coeffs in (("beta", beta), ("alpha", alpha)):
        nonzero = [c for c in coeffs if c]
        if len(nonzero) == 1:
            return side, nonzero[0]
    return "neither", None


@pytest.mark.parametrize("seed", (0, 1))
def test_half_steps_match_the_dot_product_lift_on_the_benchmark(monkeypatch,
                                                                 seed):
    steps, kernels = recorded_half_steps(monkeypatch)
    for job in perfbench_jobs().make_jobs("basepoints", seed):
        check_all(job_phi(job), CheckConfig(seed=job["seed"]))
    assert len(steps) > 200
    for dual, d, axis, lifted in steps:
        assert lifted == half_step_by_dots(dual, d, axis), (d, axis)
    sides = {unit_side(alpha, beta)[0] for alpha, beta in kernels}
    assert sides == {"beta", "alpha", "neither"}


# (dual, d, axis) of small synthetic duals, not duals of an ideal: the
# kernel vectors of the first have beta = c e_i with c in {2, 4}, those of
# the second alpha = c e_i with c = -3 and the last neither
SYNTHETIC_STEPS = {
    "beta": ([[0, 2, -1], [2, 0, -2], [1, 0, 0]], (2, 0), 0),
    "alpha": ([[2, 0, 1, 0], [-2, 0, 2, -2]], (1, 1), 1),
    "neither": ([[-1, 0, 0, 2, -1, 0], [2, 0, 3, -1, 0, 1],
                 [1, 3, -1, -2, 2, 0]], (2, 1), 0),
}


@pytest.mark.parametrize("side", SYNTHETIC_STEPS)
def test_half_step_matches_the_dot_product_lift_on_synthetic_duals(
        monkeypatch, side):
    dual, d, axis = SYNTHETIC_STEPS[side]
    _, kernels = recorded_half_steps(monkeypatch)
    lifted = basepoints._half_step(dual, d, axis)
    assert lifted == half_step_by_dots(dual, d, axis)
    found = [unit_side(alpha, beta) for alpha, beta in kernels]
    assert side in {s for s, _ in found}
    if side != "neither":
        assert any(s == side and abs(c) > 1 for s, c in found)


# --- B1 ------------------------------------------------------------------------

def test_independence_quartic(quartic_bp):
    assert check_independence(quartic_bp)


def test_independence_fails_on_linear_combination(quartic_bp):
    a0, a1, a2, _ = quartic_bp.a
    phi = Parametrization(2, 2, (a0, a1, a2, a0 + a1))
    assert not check_independence(phi)
    witness = independence_witness(phi)
    assert witness is not None
    support = [i for i, c in enumerate(witness) if c]
    assert support == [0, 1, 3]


def test_independence_fails_on_zero_polynomial(quartic_bp):
    a0, a1, a2, _ = quartic_bp.a
    phi = Parametrization(2, 2, (a0, a1, a2, BihomPoly.zero((2, 2))))
    assert not check_independence(phi)


# --- B2/B3 summary --------------------------------------------------------------

def test_summary_quartic(quartic_bp):
    s = base_point_summary(quartic_bp, window=3)
    assert s.finite and s.k == 1
    assert s.lci_proxy
    assert s.hilbert_values == [1, 1, 1, 1]
    assert s.hilbert_sq_values == [3, 3, 3, 3]
    assert s.stabilization_window == [(3, 3), (4, 4), (5, 5), (6, 6)]


def test_summary_segre(segre):
    s = base_point_summary(segre, window=3)
    assert s.finite and s.k == 0
    assert s.lci_proxy
    assert set(s.hilbert_values) == {0}


def test_summary_random_base_point_free():
    rng = random.Random(8)
    phi = random_parametrization(rng, 2, 2)
    s = base_point_summary(phi, window=3)
    assert s.finite and s.k == 0
    assert s.lci_proxy
    assert s.hilbert_sq_values is None


def test_summary_detects_common_factor(quartic_bp):
    s_poly = parse("s")
    scaled = tuple(f * s_poly for f in quartic_bp.a)
    phi = Parametrization(3, 2, scaled)
    summary = base_point_summary(phi, window=3)
    assert not summary.finite
    assert summary.reason == "growing"
    assert summary.k is None


def test_summary_window_validation(quartic_bp):
    with pytest.raises(ValueError):
        base_point_summary(quartic_bp, window=1)


# --- B4 -------------------------------------------------------------------------

def test_regularity_quartic(quartic_bp):
    s = base_point_summary(quartic_bp, window=2)
    assert check_regularity(quartic_bp, s)


def test_regularity_example_235(regularity_phi):
    s = base_point_summary(regularity_phi, window=3)
    assert s.finite and s.k == 2
    assert s.hilbert_values[0] == 2  # value at (3,5) equals the degree
    assert check_regularity(regularity_phi, s)


def test_regularity_segre(segre):
    s = base_point_summary(segre, window=2)
    assert check_regularity(segre, s)


# --- B5 saturation ---------------------------------------------------------------

def test_saturation_member_quartic(quartic_bp):
    res = saturation_member(quartic_bp.a[3], quartic_bp.a[:3], 6)
    assert res.member and res.power == 2 and not res.bound_reached


def test_saturation_member_trivial_membership(quartic_bp):
    a0 = quartic_bp.a[0]
    res = saturation_member(a0, quartic_bp.a[:3], 4)
    assert res.member and res.power == 0


def test_saturation_member_negative():
    res = saturation_member(parse("t"), [parse("s")], 4)
    assert not res.member and res.bound_reached


def test_saturation_monotone_in_bound(quartic_bp):
    for bound in (2, 3, 5, 8):
        res = saturation_member(quartic_bp.a[3], quartic_bp.a[:3], bound)
        assert res.member == (bound >= 2)


def test_saturation_member_rejects_a_negative_bound(quartic_bp):
    with pytest.raises(ValueError, match="max_power"):
        saturation_member(quartic_bp.a[3], quartic_bp.a[:3], -1)


# --- coordinate changes ------------------------------------------------------------

def test_generic_change_deterministic(quartic_bp):
    p1, T1 = generic_change(quartic_bp, seed=42)
    p2, T2 = generic_change(quartic_bp, seed=42)
    assert T1 == T2 and p1.a == p2.a


def test_generic_change_restores_b5_b6_on_most_seeds(quartic_bp):
    from movsurf.basepoints import _evaluate_conditions, _invariant_conditions
    config = CheckConfig(window=2)
    invariant = _invariant_conditions(quartic_bp, config)
    good = 0
    for seed in range(10):
        changed, _ = generic_change(quartic_bp, seed)
        verdicts, _ = _evaluate_conditions(changed, config, invariant)
        if verdicts["B5"] and verdicts["B6"]:
            good += 1
    assert good >= 9


def test_generic_change_preserves_b1_to_b4(quartic_bp):
    config = CheckConfig(window=2)
    for seed in range(20):
        changed, _ = generic_change(quartic_bp, seed)
        assert check_independence(changed)
        summary = base_point_summary(changed, window=2)
        assert summary.finite and summary.k == 1
        assert summary.lci_proxy
        assert check_regularity(changed, summary)


# --- the full battery ----------------------------------------------------------------

def test_check_all_quartic(quartic_bp):
    report = check_all(quartic_bp)
    assert report.all_passed
    assert all(report.verdicts[name] for name in
               ("B1", "B2", "B3", "B4", "B5", "B6"))
    assert report.k == 1
    assert not report.short_path
    assert report.coordinate_change is None
    assert report.witnesses["B5"]["saturation_power"] == 2


def test_check_all_segre_routes_to_short_path(segre):
    report = check_all(segre)
    assert report.all_passed
    assert report.short_path
    assert report.k == 0
    assert report.verdicts["B5"] is None
    assert report.witnesses["B5"] == {"skipped": "k = 0"}
    assert report.coordinate_change is None


def test_check_all_reports_first_failure(quartic_bp):
    a0, a1, a2, _ = quartic_bp.a
    phi = Parametrization(2, 2, (a0, a1, a2, a0))
    report = check_all(phi)
    assert not report.all_passed
    assert report.failure == "B1"
    assert not report.verdicts["B1"]
    assert "dependency" in report.witnesses["B1"]


def test_check_all_applies_coordinate_change_when_needed(segre):
    # force the quartic battery on a parametrization whose plain triple
    # fails B5 but has no base points: reorder so the short path is blocked
    # by putting a base point in: use a crafted k=1 instance instead
    a = (parse("s^2*t*v"), parse("u^2*t^2 + s*u*v^2"),
         parse("s^2*v^2 + s^2*t^2"), parse("u^2*t*v + s^2*t*v"))
    phi = Parametrization(2, 2, a)
    report = check_all(phi)
    assert report.all_passed
    if not report.short_path:
        assert report.k == 1


def test_check_all_not_recoverable_failure_returns_immediately():
    rng = random.Random(99)
    base = random_parametrization(rng, 2, 2)
    s_poly = parse("s")
    phi = Parametrization(3, 2, tuple(f * s_poly for f in base.a))
    report = check_all(phi)
    assert not report.all_passed
    assert report.failure == "B2"
    assert report.coordinate_change is None


# --- the stop at a B1-B4 refusal -----------------------------------------------

LATER = ("hilbert_dim", "base_point_summary", "saturation_member",
         "syz_dim_abc", "moving_planes", "generic_change")


def assert_skipped_after(report, failure):
    assert not report.all_passed and report.failure == failure
    # B3 and B4 are decided together, so a refusal at either skips B5, B6
    start = 4 if failure in ("B3", "B4") else int(failure[1])
    later = ("B1", "B2", "B3", "B4", "B5", "B6")[start:]
    for name in later:
        assert report.verdicts[name] is False
        assert report.witnesses[name] == {"skipped": failure + " failed"}
    assert not report.short_path and "short_path" not in report.witnesses
    assert report.coordinate_change is None


def five_point_input():
    """Four independent (2,2) forms through five points of P1 x P1: a finite
    base locus of degree k = 5 > mn = 4."""
    points = [(0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1), (1, 2, 3, 1),
              (2, 1, 1, 3)]
    basis = monomial_basis((2, 2))
    rows = [[s ** a * u ** b * t ** c * v ** d for a, b, c, d in basis]
            for s, u, t, v in points]
    vectors = kernel_basis(RatMatrix(rows)).vectors
    return Parametrization(2, 2, tuple(BihomPoly((2, 2), dict(zip(basis, v)))
                                       for v in vectors))


def test_check_all_rejects_a_bad_config_before_any_rank(monkeypatch,
                                                       quartic_bp):
    a0, a1, a2, _ = quartic_bp.a
    dependent = Parametrization(2, 2, (a0, a1, a2, a0 + a1))
    calls = counted_calls(monkeypatch, ("rank", "hilbert_dim", "dual_basis"))
    for config, match in ((CheckConfig(window=1), "window"),
                          (CheckConfig(sat_bound=-1), "sat_bound")):
        for phi in (quartic_bp, dependent):
            with pytest.raises(ValueError, match=match):
                check_all(phi, config)
    assert calls == {"rank": [], "hilbert_dim": [], "dual_basis": []}


def test_check_all_stops_at_a_b1_refusal(monkeypatch, quartic_bp):
    a0, a1, a2, _ = quartic_bp.a
    phi = Parametrization(2, 2, (a0, a1, a2, a0 + a1))
    calls = counted_calls(monkeypatch, LATER)
    events = recorded_windows(monkeypatch)
    report = check_all(phi)
    assert calls == {name: [] for name in LATER}
    assert events == []
    assert_skipped_after(report, "B1")
    assert "dependency" in report.witnesses["B1"]
    assert report.k is None and report.summary is None


def test_check_all_ranks_only_the_b2_window_on_a_common_factor(monkeypatch):
    base = random_parametrization(random.Random(99), 2, 2)
    phi = Parametrization(3, 2, tuple(f * parse("s") for f in base.a))
    events = recorded_windows(monkeypatch)
    calls = counted_calls(monkeypatch, LATER[2:])
    report = check_all(phi)
    window = [(5, 3), (6, 4), (7, 5), (8, 6)]
    assert events == stepped_window(window)
    assert calls == {name: [] for name in LATER[2:]}
    assert_skipped_after(report, "B2")
    assert report.witnesses["B2"]["window"] == window
    assert report.witnesses["B2"]["reason"] == "growing"
    assert report.k is None and report.summary.hilbert_sq_values is None


def test_check_all_skips_the_squared_window_when_k_exceeds_mn(monkeypatch):
    phi = five_point_input()
    assert check_independence(phi)
    events = recorded_windows(monkeypatch)
    calls = counted_calls(monkeypatch, LATER[2:])
    report = check_all(phi)
    window = [(3, 3), (4, 4), (5, 5), (6, 6)]
    assert events == stepped_window(window)
    assert calls == {name: [] for name in LATER[2:]}
    assert_skipped_after(report, "B2")
    assert report.witnesses["B2"]["values"] == [5, 5, 5, 5]
    assert report.k == 5 and report.summary.finite
    assert report.summary.hilbert_sq_values is None
    assert not report.summary.lci_proxy
    # the window it skips
    assert basepoints.hilbert_values(
        phi.products(), [(5, 5), (6, 6), (7, 7), (8, 8)]) == [15] * 4


# B5/B6 and the coordinate changes that only they could ask for
POSITIONAL = ("saturation_member", "_abc_scheme_matches", "generic_change")


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("name", ("fat_point_23", "fat_point_33"))
def test_check_all_stops_at_a_b3_refusal(monkeypatch, name, seed):
    job, = [job for job in perfbench_jobs().make_jobs("basepoints", seed)
            if job["name"] == name]
    calls = counted_calls(monkeypatch, POSITIONAL)
    report = check_all(job_phi(job), CheckConfig(seed=job["seed"]))
    assert calls == {name: [] for name in POSITIONAL}
    assert_skipped_after(report, "B3")
    assert report.verdicts["B4"] and report.k == 3
    assert report.witnesses["B3"]["squared_values"] != [9] * 4


def test_check_all_stops_at_a_b4_refusal(monkeypatch, quartic_bp):
    monkeypatch.setattr(basepoints, "check_regularity",
                        lambda phi, summary: False)
    calls = counted_calls(monkeypatch, POSITIONAL)
    report = check_all(quartic_bp)
    assert calls == {name: [] for name in POSITIONAL}
    assert_skipped_after(report, "B4")
    assert report.verdicts["B3"] and report.k == 1
    assert report.witnesses["B4"] == {"value_at_start": 1, "k": 1}


# --- the stop after B2 at k = 0 ------------------------------------------------

def short_path_inputs():
    """(id, parametrization) of three k = 0 inputs: the Segre embedding, a
    seeded generic (2,2) input and the 2:1 map (s^2 t, s^2 v, u^2 t, u^2 v)."""
    return [("segre", Parametrization(1, 1, tuple(
                parse(s) for s in ("s*t", "s*v", "u*t", "u*v")))),
            ("generic_22", random_parametrization(random.Random(5), 2, 2)),
            ("two_to_one", Parametrization(2, 1, tuple(
                parse(s) for s in ("s^2*t", "s^2*v", "u^2*t", "u^2*v"))))]


@pytest.mark.parametrize("phi", [pytest.param(phi, id=name)
                                 for name, phi in short_path_inputs()])
def test_check_all_stops_after_b2_at_k_0(monkeypatch, phi):
    names = ("saturation_member", "generic_change", "syz_dim_abc",
             "moving_planes", "rank")
    events = recorded_windows(monkeypatch)
    calls = counted_calls(monkeypatch, names)
    report = check_all(phi)
    # the first B2-window value is 0, so no later degree is ranked or
    # stepped
    assert events == [("rank", (2 * phi.m - 1, 2 * phi.n - 1))]
    assert calls == {name: [] for name in names}
    assert report.all_passed and report.short_path and report.failure is None
    assert report.k == 0 and report.coordinate_change is None
    for name in ("B3", "B4", "B5", "B6"):
        assert report.verdicts[name] is None
        assert report.witnesses[name] == {"skipped": "k = 0"}
    assert report.verdicts["B1"] and report.verdicts["B2"]
    assert report.witnesses["short_path"] == {"moving_plane_dim": 0}
    assert report.summary.hilbert_sq_values is None
    assert report.summary.lci_proxy


# --- saturation and the single B1-B4 pass -------------------------------------

def saturation_oracle(f, generators, max_power):
    """Least N with every mu*f in the ideal at its bidegree, by one Fraction
    membership solve per mu; None when the bound is reached."""
    for N in range(max_power + 1):
        target = (f.bidegree[0] + N, f.bidegree[1] + N)
        usable = [g for g in generators if bidegree_leq(g.bidegree, target)]
        if not usable:
            continue
        A = mult_matrix(usable, target)
        basis = monomial_basis(target)
        if all(solve_membership(A, coeff_vector(f * f.monomial(mu), basis))
               is not None for mu in monomial_basis((N, N))):
            return N
    return None


def test_saturation_member_matches_membership_oracle(quartic_bp, segre):
    cases = [(quartic_bp.a[3], quartic_bp.a[:3], 4),
             (quartic_bp.a[0], quartic_bp.a[:3], 2),
             (segre.a[3], segre.a[:3], 3),
             (parse("t"), [parse("s")], 3)]
    for seed in (1, 2, 3, 4):
        changed, _ = generic_change(quartic_bp, seed)
        cases.append((changed.a[3], changed.a[:3], 4))
    # u^2*v^2 does not vanish at the quartic's base point s = t = 0, where
    # the changed a0, a1, a2 all vanish: no power certifies it
    cases.append((parse("u^2*v^2"), changed.a[:3], 1))
    powers = []
    for f, gens, bound in cases:
        res = saturation_member(f, gens, bound)
        expected = saturation_oracle(f, gens, bound)
        assert res.member == (expected is not None)
        assert res.power == expected
        assert res.bound_reached == (expected is None)
        powers.append(res.power)
    assert powers[0] == 2 and powers[2] is None and powers[-1] is None


def test_saturation_member_ends_at_the_first_zero_quotient():
    """On a k = 0 input the search ends where the quotient of a0, a1, a2 is
    0: the quotient with a3 added is 0 there too."""
    inputs = [phi for m, n in ((2, 2), (1, 2), (2, 1))
              for _, phi in base_point_free_parametrizations(1, m, n)]
    for phi in inputs:
        values = [hilbert_dim(phi.a[:3], (phi.m + N, phi.n + N))
                  for N in range(4)]
        res = saturation_member(phi.a[3], phi.a[:3], 6)
        assert res == SaturationResult(member=True, power=values.index(0))
    # the membership oracle agrees on the smaller two
    for phi in inputs[1:]:
        assert (saturation_member(phi.a[3], phi.a[:3], 6).power
                == saturation_oracle(phi.a[3], phi.a[:3], 6))


def assert_matches_the_rank_reference(f, generators, bound):
    assert (saturation_member(f, generators, bound)
            == saturation_by_ranks(f, generators, bound))


@pytest.mark.parametrize("seed", (0, 1))
def test_saturation_member_matches_the_rank_reference_on_the_benchmark(seed):
    # (a3; a0, a1, a2) of every basepoints job at the default bound, as
    # given and, where the battery needs one, after its coordinate change:
    # the first attempts of the retry jobs and of degree_two_scheme fail B5
    config = CheckConfig()
    outcomes = set()
    for job in perfbench_jobs().make_jobs("basepoints", seed):
        phi = job_phi(job)
        report = check_all(phi, CheckConfig(seed=job["seed"]))
        for psi in (phi, report.phi) if report.coordinate_change else (phi,):
            bound = basepoints._sat_bound(psi, config)
            res = saturation_member(psi.a[3], psi.a[:3], bound)
            assert res == saturation_by_ranks(psi.a[3], psi.a[:3], bound), (
                job["name"], psi is phi)
            outcomes.add(res.member)
    assert outcomes == {True, False}


def test_saturation_member_matches_the_rank_reference(quartic_bp):
    for seed in (1, 2, 3, 4):
        changed, _ = generic_change(quartic_bp, seed)
        for bound in (0, 6):
            assert_matches_the_rank_reference(changed.a[3], changed.a[:3],
                                              bound)
    # a0 is a member at N = 0, the least bound
    assert_matches_the_rank_reference(quartic_bp.a[0], quartic_bp.a[:3], 0)
    # s fits only from (1, 1) on, above deg t = (0, 1): the walk takes a
    # second direct dual there
    assert_matches_the_rank_reference(parse("t"), [parse("s")], 4)
    assert_matches_the_rank_reference(parse("s*t"), [parse("s^2")], 3)
    # k = 0: the dual of a0, a1, a2 becomes empty on the way
    for m, n in ((2, 2), (1, 2), (2, 1), (2, 3)):
        for _, phi in base_point_free_parametrizations(2, m, n):
            assert_matches_the_rank_reference(phi.a[3], phi.a[:3], 6)


@pytest.mark.parametrize("name", ("quartic", "basepoints_23a",
                                  "basepoints_33"))
def test_one_evaluation_takes_one_direct_dual(monkeypatch, name):
    # the abc window steps from the duals of the saturation walk, and B6
    # reads the abc window: one kernel of generator multiples in all
    job, = [job for job in perfbench_jobs().make_jobs("basepoints", 0)
            if job["name"] == name]
    phi, config = job_phi(job), CheckConfig()
    invariant = _invariant_conditions(phi, config)
    calls = counted_calls(monkeypatch, ("dual_basis", "integer_rank",
                                        "hilbert_dim", "integer_kernel",
                                        "_half_step"))
    _evaluate_conditions(phi, config, invariant)
    assert len(calls["dual_basis"]) == 1
    assert calls["integer_rank"] == [] and calls["hilbert_dim"] == []
    # the kernel of the direct dual, then one per half step
    kernels = calls["integer_kernel"]
    assert len(kernels) == 1 + len(calls["_half_step"]) > 1
    for rows, _ in kernels:
        assert all(any(row) for row in rows)
        assert len(set(map(tuple, rows))) == len(rows)


def test_check_all_rejects_coord_bound_below_1(quartic_bp):
    with pytest.raises(ValueError, match="coord_bound"):
        check_all(quartic_bp, CheckConfig(coord_bound=0))


def test_generic_change_rejects_bound_below_1(quartic_bp):
    # before the draw, which would never leave the zero matrix
    with pytest.raises(ValueError, match="bound"):
        generic_change(quartic_bp, 0, bound=0)


def test_check_all_runs_b1_to_b4_once_across_coordinate_changes(monkeypatch):
    a = (parse("s^2*t*v"), parse("u^2*t^2 + s*u*v^2"),
         parse("s^2*v^2 + s^2*t^2"), parse("u^2*t*v + s^2*t*v"))
    phi = Parametrization(2, 2, a)
    calls = []
    original = basepoints.base_point_summary

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(basepoints, "base_point_summary", counted)
    report = check_all(phi)
    assert report.coordinate_seed == 1 and report.coordinate_change is not None
    assert report.all_passed
    assert len(calls) == 1

    fresh = original(report.phi, CheckConfig().window)
    assert report.witnesses["B2"] == {
        "window": fresh.stabilization_window, "values": fresh.hilbert_values,
        "k": fresh.k, "reason": fresh.reason}
    assert report.witnesses["B3"] == {"squared_values": fresh.hilbert_sq_values,
                                      "expected": 3 * fresh.k}
    assert report.witnesses["B4"] == {"value_at_start": fresh.hilbert_values[0],
                                      "k": fresh.k}


# --- counts read off the windows ------------------------------------------------

INPUT_DIR = Path(__file__).resolve().parents[1] / "scripts" / "inputs"


def test_check_all_ranks_no_plane_kernel_and_no_second_abc_map(monkeypatch,
                                                                quartic_bp,
                                                                segre):
    # B6 and the short path are read off the windows, B1 is one integer rank
    names = ("moving_planes", "syz_dim_abc", "rank")
    assert not hasattr(basepoints, "det_bareiss")
    calls = counted_calls(monkeypatch, names)
    generic = random_parametrization(random.Random(5), 2, 2)
    for phi, k in ((quartic_bp, 1), (segre, 0), (generic, 0)):
        report = check_all(phi)
        assert report.all_passed and report.k == k
        assert report.short_path == (k == 0)
    assert calls == {name: [] for name in names}


def window_oracle_inputs():
    """(id, parametrization): the bundled inputs, seeded random ones and a
    recombined quartic."""
    cases = [(path.stem, load_jobspec(str(path)).phi)
             for path in sorted(INPUT_DIR.glob("*.json"))]
    cases += [("seeded_%d%d" % (m, n),
               random_parametrization(random.Random(seed), m, n))
              for seed, (m, n) in enumerate(((2, 2), (2, 3), (3, 3)))]
    quartic = Parametrization(2, 2, tuple(parse(s, bidegree=(2, 2))
                                          for s in QUARTIC_BP_STRINGS))
    cases.append(("changed_quartic", generic_change(quartic, 1)[0]))
    return cases


@pytest.mark.parametrize("phi", [pytest.param(phi, id=name)
                                 for name, phi in window_oracle_inputs()])
def test_window_counts_match_the_kernel_oracles(phi):
    # B6 on the input itself (1 on degree_two_scheme_23), and on the
    # recombination the battery settles on
    config = CheckConfig()
    _, witnesses = _evaluate_conditions(phi, config,
                                        _invariant_conditions(phi, config))
    assert witnesses["B6"]["dim"] == syz_dim_abc(phi)
    report = check_all(phi, config)
    assert report.verdicts["B2"]
    if report.k == 0:
        assert report.short_path
        assert report.witnesses["short_path"] == {"moving_plane_dim": 0}
        assert report.witnesses["B6"] == {"skipped": "k = 0"}
        assert moving_planes(report.phi).dim == 0
    else:
        assert report.witnesses["B6"]["dim"] == syz_dim_abc(report.phi)
        assert "short_path" not in report.witnesses


def test_coordinate_change_is_four_int_rows(quartic_bp):
    report = check_all(Parametrization(2, 2, (
        parse("s^2*t*v"), parse("u^2*t^2 + s*u*v^2"),
        parse("s^2*v^2 + s^2*t^2"), parse("u^2*t*v + s^2*t*v"))))
    T = report.coordinate_change
    assert report.coordinate_seed == 1
    assert type(T) is list and len(T) == 4
    assert all(type(row) is list and len(row) == 4 for row in T)
    assert all(type(x) is int for row in T for x in row)
    assert det_integer(T) != 0
    changed, drawn = generic_change(quartic_bp, 7)
    assert all(type(x) is int for row in drawn for x in row)
    # a'_i = sum_j T[i][j] a_j, coefficient by coefficient
    for row, new in zip(drawn, changed.a):
        want = {}
        for c, a in zip(row, quartic_bp.a):
            for mono, coeff in a.terms.items():
                want[mono] = want.get(mono, 0) + c * coeff
        assert dict(new.terms) == {k: v for k, v in want.items() if v}
