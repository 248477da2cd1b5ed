"""Regression fixtures for the Hilbert-window values of the benchmark jobs.

``window_values_seed<N>.json`` holds, for every job of both ``perfbench``
workloads at seed N (0 and 1), the B2 window values, the B3 squared-ideal values and
the B5 abc values (None when the base locus is not finite), each computed
with ``hilbert_values``, which steps the later degrees of a window from the
first, and the command-line window, plus the seed of the coordinate change
that ``check_all`` runs B5 under with the command-line defaults (None
without one).  The squared-ideal window is sampled even where ``check_all``
stops before it.

Regenerate the file only when a change of these values is intended:

    PYTHONPATH=src python tests/test_window_values.py --write [--seed N]

The seed defaults to 0.  Before it writes, the script checks every value
against a direct rank at its degree (``hilbert_dim``), and it writes
nothing when one differs, so a fault of the stepping cannot enter the
fixture.
"""

import argparse
import json
from pathlib import Path

import pytest

from movsurf import CheckConfig, base_point_summary, check_all, generic_change
from movsurf.basepoints import hilbert_dim, hilbert_values

from conftest import job_phi, perfbench_jobs

SEEDS = (0, 1)


def fixture_path(seed):
    return Path(__file__).with_name("window_values_seed%d.json" % seed)


def _direct(generators, degrees):
    """The values at the degrees, each a direct rank."""
    return [hilbert_dim(generators, d) for d in degrees]


def _windows(phi, coordinate_seed, values=hilbert_values):
    """The B2, B3 and B5 window values of phi, the last one on phi changed
    by the seeded coordinate change when there is one, each window computed
    by values(generators, degrees)."""
    m, n = phi.m, phi.n
    window = CheckConfig().window
    plain = [(2 * m - 1 + i, 2 * n - 1 + i) for i in range(window + 1)]
    squared = [(3 * m - 1 + i, 3 * n - 1 + i) for i in range(window + 1)]
    windows = {"b2": values(phi.a, plain),
               "b3": values(phi.products(), squared),
               "b5": None}
    if base_point_summary(phi).finite:
        if coordinate_seed is not None:
            phi, _ = generic_change(phi, coordinate_seed)
        windows["b5"] = values(phi.a[:3], plain)
    return windows


def _record(job):
    phi = job_phi(job)
    seed = check_all(phi, CheckConfig(seed=job["seed"])).coordinate_seed
    windows = _windows(phi, seed)
    direct = _windows(phi, seed, _direct)
    if windows != direct:
        raise SystemExit("%s: stepped values %s, direct ranks %s; nothing "
                         "written" % (job["name"], windows, direct))
    return {"a": job["a"], **windows, "coordinate_seed": seed}


def write_fixture(seed):
    jobs = perfbench_jobs()
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
    jobs = perfbench_jobs().make_jobs(workload, seed)
    assert sorted(job["name"] for job in jobs) == sorted(expected)
    for job in jobs:
        want = expected[job["name"]]
        assert job["a"] == want["a"], "perfbench jobs changed: regenerate"
        got = _windows(job_phi(job), want["coordinate_seed"])
        for window in ("b2", "b3", "b5"):
            assert got[window] == want[window], (job["name"], window)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate a window-values fixture.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.add_argument("--seed", type=int, default=0)
    write_fixture(parser.parse_args().seed)
