"""Acceptance battery: one test and one printed pass/fail line per criterion.

Everything here is exact: integer dimensions match exactly, polynomial
comparisons are term-by-term after normalization, and vanishing checks admit
zero tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from movsurf import (Parametrization, PipelineConfig, base_point_summary,
                     check_all, check_regularity, hilbert_dim, kernel_basis,
                     moving_planes, moving_quadrics, normalize, parse,
                     parse_xpoly, pipeline, rank, saturation_member,
                     syz_dim_abc)
from movsurf.cli import main
from movsurf.syzygy import plane_map_matrix, quadric_map_matrix

from conftest import (QUARTIC_BP_STRINGS, base_point_free_parametrizations,
                      load_golden, random_parametrization, substitute)


def _report(criterion, detail):
    print("ACCEPTANCE %s PASS: %s" % (criterion, detail))


class _Failure:
    def __init__(self, criterion):
        self.criterion = criterion

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print("ACCEPTANCE %s FAIL" % self.criterion)
        return False


def test_criterion_1_flagship_reproduction(quartic_bp):
    with _Failure(1):
        start = time.perf_counter()
        result = pipeline(quartic_bp)
        elapsed = time.perf_counter() - start
        golden = parse_xpoly(load_golden("quartic_base_point_implicit.txt"))
        # term-by-term equality of the normalized polynomials; the golden
        # polynomial is itself normalized, so scalar freedom is spent
        assert normalize(golden) == golden
        assert result.polynomial == golden
        assert result.degree == 7
        assert sorted(result.polynomial.terms.items()) == sorted(golden.terms.items())
        assert elapsed < 10.0
    _report(1, "degree-7 implicit equation reproduced term-for-term "
               "(%d terms, %.2fs)" % (len(result.polynomial.terms), elapsed))


def test_criterion_2_condition_battery(quartic_bp):
    with _Failure(2):
        report = check_all(quartic_bp)
        assert all(report.verdicts[n] for n in ("B1", "B2", "B3", "B4", "B5", "B6"))
        assert report.k == 1
        assert hilbert_dim(quartic_bp.a, (3, 3)) == 1
        assert syz_dim_abc(quartic_bp) == 0
        sat = saturation_member(quartic_bp.a[3], quartic_bp.a[:3], 6)
        assert sat.member
        summary = report.summary
        assert summary.lci_proxy
        assert summary.hilbert_sq_values == [3, 3, 3, 3]
    _report(2, "B1-B6 all hold with k=1, dim(R/I)_(3,3)=1, "
               "no (a0,a1,a2) syzygies, saturation at power %d, "
               "squared-ideal dimensions stabilize at 3" % sat.power)


def test_criterion_3_syzygy_dimensions(quartic_bp):
    with _Failure(3):
        planes = moving_planes(quartic_bp)
        quadrics = moving_quadrics(quartic_bp)
        assert planes.dim == 1
        assert quadrics.dim == 7  # mn + 3k = 4 + 3
    _report(3, "moving-plane space has dimension 1, moving-quadric space "
               "has dimension 7 = mn + 3k")


def test_criterion_4_regularity_example(regularity_phi):
    with _Failure(4):
        assert hilbert_dim(regularity_phi.a, (3, 5)) == 2
        summary = base_point_summary(regularity_phi, window=3)
        assert summary.finite and summary.k == 2
        assert check_regularity(regularity_phi, summary)
    _report(4, "bidegree-(2,3) quadruple: dim 2 at (3,5), regularity flag "
               "holds at the window start")


def test_criterion_5_no_base_point_path(segre):
    with _Failure(5):
        res = pipeline(segre)
        assert res.polynomial == parse_xpoly(load_golden("segre_implicit.txt"))
        # independent certificate: sampled points of the image pin down a
        # one-dimensional space of quadratic forms containing x0*x3 - x1*x2
        rng = random.Random(123)
        monos = [(e0, e1, e2, 2 - e0 - e1 - e2)
                 for e0 in range(2, -1, -1)
                 for e1 in range(2 - e0, -1, -1)
                 for e2 in range(2 - e0 - e1, -1, -1)]
        rows = []
        for _ in range(25):
            pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                       for _ in range(4))
            img = segre.evaluate(pt)
            if not any(img):
                continue
            rows.append([img[0]**a * img[1]**b * img[2]**c * img[3]**d
                         for (a, b, c, d) in monos])
        from movsurf import RatMatrix
        kb = kernel_basis(RatMatrix(rows))
        assert kb.dim == 1
        found = {m: c for m, c in zip(monos, kb.vectors[0]) if c}
        assert normalize(parse_xpoly("x0*x3 - x1*x2")).terms == found

        instances = base_point_free_parametrizations(10, 2, 2, start_seed=100)
        for seed, phi in instances:
            r = pipeline(phi, PipelineConfig(samples=100))
            assert r.k == 0
            assert r.degree == 8 == 2 * phi.mn
            assert r.verification.vanishing_ok
            assert not r.verification.failures
    _report(5, "Segre gives x0*x3 - x1*x2 (certified by 1-dimensional "
               "interpolation kernel); 10 seeded base-point-free (2,2) "
               "instances all give verified degree-8 equations")


def test_criterion_6_property_suites(quartic_bp, segre):
    with _Failure(6):
        # (a) + (b): syzygy identities and rank-nullity on 50 instances
        rng = random.Random(2718)
        checked = 0
        for _ in range(50):
            m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            phi = random_parametrization(rng, m, n, density=0.6)
            planes = moving_planes(phi)
            quadrics = moving_quadrics(phi)
            for surf in planes.elements + quadrics.elements:
                assert substitute(surf, phi).is_zero()
            assert planes.dim + rank(plane_map_matrix(phi)) == 4 * phi.mn
            assert quadrics.dim + rank(quadric_map_matrix(phi)) == 10 * phi.mn
            checked += 1
        assert checked == 50

        # (c) determinant backend agreement on every instance exercised here
        backend_instances = [quartic_bp, segre]
        backend_instances += [phi for _, phi in
                              base_point_free_parametrizations(2, 2, 2, 500)]
        backend_instances.append(Parametrization(
            1, 2, (parse("s*t^2"), parse("s*t*v"), parse("u*t*v"),
                   parse("u*v^2"))))
        agreements = 0
        for phi in backend_instances:
            try:
                res_c = pipeline(phi, PipelineConfig(det_backend="cofactor",
                                                     samples=5))
                res_i = pipeline(phi, PipelineConfig(det_backend="interp",
                                                     samples=5))
            except Exception:
                continue
            assert res_c.polynomial == res_i.polynomial
            agreements += 1
        assert agreements >= 4

        # (d) RREF idempotence and row-permutation invariance
        from movsurf import RatMatrix
        from oracle import rref
        for trial in range(30):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            A = RatMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(cols)]
                           for _ in range(rows)])
            R, piv, _ = rref(A)
            R2, piv2, _ = rref(R)
            assert R2 == R and piv2 == piv
            perm = list(range(rows))
            rng.shuffle(perm)
            RP, pivP, _ = rref(RatMatrix([A.row(i) for i in perm]))
            assert RP == R and pivP == piv

        # (e) exact vanishing of the implicit equation, zero tolerance
        vanish_instances = [quartic_bp, segre] + \
            [phi for _, phi in base_point_free_parametrizations(3, 2, 2, 900)]
        for phi in vanish_instances:
            res = pipeline(phi, PipelineConfig(samples=100))
            assert res.verification.vanishing_ok
            assert res.verification.failures == []
    _report(6, "syzygy identities + rank-nullity on 50 instances, backend "
               "agreement on %d instances, RREF properties on 30 matrices, "
               "exact vanishing with 100 samples per instance" % agreements)


def test_criterion_7_deterministic_reports(tmp_path, quartic_bp):
    with _Failure(7):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"m": 2, "n": 2, "a": QUARTIC_BP_STRINGS,
                                   "seed": 3}))
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = main(["implicitize", "--input", str(job), "--json",
                         "--output", str(out)])
            assert code == 0
            payload = json.loads(out.read_text())
            assert "timings" in payload
            payload.pop("timings")
            blobs.append(json.dumps(payload, sort_keys=True).encode())
        assert blobs[0] == blobs[1]
    _report(7, "two identically seeded runs emit byte-identical JSON "
               "reports once timings are stripped")
