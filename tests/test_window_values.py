"""Regression fixtures for the Hilbert-window values of the benchmark jobs.

``window_values_seed<N>.json`` holds, for every job of both ``perfbench``
workloads at seed N (0 and 1), the B2 window values, the B3 squared-ideal values and
the B5 abc values, as ``check_all`` reported them with the command-line
defaults, plus the seed of the coordinate change B5 ran under (None without
one).  The test recomputes the three windows directly, without the
saturation search or the retries, and compares.

Regenerate the file only when a change of these values is intended:

    PYTHONPATH=src python tests/test_window_values.py --write [--seed N]

The seed defaults to 0.
"""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from movsurf import (CheckConfig, Parametrization, base_point_summary,
                     check_all, generic_change, parse)
from movsurf.basepoints import _abc_scheme_matches

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)


def fixture_path(seed):
    return Path(__file__).with_name("window_values_seed%d.json" % seed)


def _jobs_module():
    """perfbench/jobs.py, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _phi(job):
    m, n = job["m"], job["n"]
    return Parametrization(m, n, tuple(parse(s, bidegree=(m, n))
                                       for s in job["a"]))


def _record(job):
    report = check_all(_phi(job), CheckConfig(seed=job["seed"]))
    witnesses = report.witnesses
    return {"a": job["a"],
            "b2": witnesses["B2"]["values"],
            "b3": witnesses["B3"]["squared_values"],
            "b5": witnesses["B5"].get("abc_values"),
            "coordinate_seed": report.coordinate_seed}


def write_fixture(seed):
    jobs = _jobs_module()
    blocks = []
    for workload in jobs.WORKLOADS:
        lines = ["  %s: %s" % (json.dumps(job["name"]),
                               json.dumps(_record(job), sort_keys=True))
                 for job in jobs.make_jobs(workload, seed)]
        blocks.append(" %s: {\n%s\n }" % (json.dumps(workload),
                                          ",\n".join(lines)))
    fixture_path(seed).write_text("{\n%s\n}\n" % ",\n".join(blocks))


# seed 0 keeps the bare workload name as its test id
CASES = [pytest.param(workload, seed,
                      id=workload if seed == 0 else "%s-seed%d" % (workload, seed))
         for seed in SEEDS for workload in ("generic", "basepoints")]


@pytest.mark.parametrize("workload, seed", CASES)
def test_window_values_match_fixture(workload, seed):
    expected = json.loads(fixture_path(seed).read_text())[workload]
    jobs = _jobs_module().make_jobs(workload, seed)
    assert sorted(job["name"] for job in jobs) == sorted(expected)
    for job in jobs:
        want = expected[job["name"]]
        assert job["a"] == want["a"], "perfbench jobs changed: regenerate"
        phi = _phi(job)
        summary = base_point_summary(phi)
        assert summary.hilbert_values == want["b2"], job["name"]
        assert summary.hilbert_sq_values == want["b3"], job["name"]
        abc = None
        if summary.finite:
            if want["coordinate_seed"] is not None:
                phi, _ = generic_change(phi, want["coordinate_seed"])
            abc = _abc_scheme_matches(phi, summary)[1]
        assert abc == want["b5"], job["name"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate a window-values fixture.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.add_argument("--seed", type=int, default=0)
    write_fixture(parser.parse_args().seed)
