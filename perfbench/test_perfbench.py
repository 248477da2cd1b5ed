"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import importlib
import sys
from types import SimpleNamespace

import pytest

import run
import spans
from checker import Outcome, check_outcome, parse_xpoly, poly_digest
from jobs import INPUT_DIR, WORKLOADS, make_jobs

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def mods():
    return SimpleNamespace(**{name: importlib.import_module("movsurf." + name)
                              for name in run.LAYERS})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    first = make_jobs(workload, 7)
    assert first == make_jobs(workload, 7)
    assert first != make_jobs(workload, 8)
    for job in first:
        assert job["size"] in run.SIZES
        assert job["expect"]["outcome"] in (
            "implicit", "refused", "not_one_to_one", "power")


def _named(workload, name, seed=0):
    return next(job for job in make_jobs(workload, seed) if job["name"] == name)


def _implicit_outcome(mods, job):
    spec = mods.cli.load_jobspec(str(INPUT_DIR / (job["name"] + ".json")))
    result = mods.implicitize.pipeline(spec.phi, run.cli_config(mods, spec))
    return Outcome("implicit", terms=dict(result.polynomial.terms),
                   k=result.k, verified=result.verification.ok,
                   phi=[dict(f.terms) for f in result.phi.a])


def test_checker_flags_a_perturbed_polynomial(mods):
    segre = _named("generic", "segre")
    outcome = _implicit_outcome(mods, segre)
    digest = poly_digest(outcome.terms)
    assert check_outcome(segre, outcome, 0, digest) == []

    perturbed = dict(outcome.terms)
    mono = next(iter(perturbed))
    perturbed[mono] += 1
    outcome.terms = perturbed
    problems = check_outcome(segre, outcome, 0, digest)
    assert any("fresh points" in p for p in problems)
    assert any("golden" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_checker_flags_a_wrong_verdict():
    jobs = {job["name"]: job for job in make_jobs("basepoints", 0)}
    dependent = jobs["dependent_23"]
    assert check_outcome(dependent, Outcome("refused", failure="B1"), 0) == []
    assert check_outcome(dependent, Outcome("refused", failure="B2"), 0)
    assert check_outcome(dependent, Outcome("implicit", terms={}), 0)
    assert check_outcome(jobs["two_to_one"], Outcome("implicit", terms={}), 0)
    assert check_outcome(jobs["two_to_one"], Outcome("verification"), 0) == []
    retry = jobs["retry_22a"]
    assert any("coordinate change" in p for p in check_outcome(
        retry, Outcome("implicit", coordinate_change=False), 0))
    assert check_outcome(retry, Outcome("error", detail="boom"), 0)


def test_parse_xpoly_agrees_with_the_program_on_the_golden_files(mods):
    for job in (_named("generic", "segre"), _named("basepoints", "quartic")):
        assert (parse_xpoly(job["golden"])
                == mods.ring.parse_xpoly(job["golden"]).terms)


@pytest.mark.parametrize("stem", ["segre", "quartic_base_point"])
def test_traced_recomposition_equals_pipeline(mods, stem):
    spec = mods.cli.load_jobspec(str(INPUT_DIR / (stem + ".json")))
    config = run.cli_config(mods, spec)
    expected = mods.implicitize.pipeline(spec.phi, config)

    originals = {(name, attr): getattr(getattr(mods, name), attr)
                 for name, attr, _, _ in spans.PROBES}
    tr = spans.Tracer()
    with spans.probes(tr, mods):
        report, result = spans.recompose(tr, mods, spec.phi, config)
    for (name, attr), fn in originals.items():
        assert getattr(getattr(mods, name), attr) is fn

    assert result.polynomial == expected.polynomial
    assert report.verdicts == expected.report.verdicts
    primary = [rec["name"] for rec in tr.spans if rec["kind"] == "primary"]
    assert primary[0] == "basepoints.check_all"
    assert primary[-1] == "implicitize.verify_polynomial"
    metrics = spans.layer_metrics(tr.spans)
    assert metrics["implicitize.poly_terms"] == len(expected.polynomial.terms)
    assert metrics["basepoints.attempts"] == 1
