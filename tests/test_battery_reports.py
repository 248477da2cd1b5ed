"""Regression fixtures for the condition-battery reports of the benchmark jobs.

``battery_reports_seed<N>.json`` holds, for every job of both ``perfbench``
workloads at seed N (0 and 1), the ``conditions`` and ``coordinate_change``
blocks that ``movsurf check --json`` prints for the job with the
command-line defaults, built by the same ``cli.conditions_block`` and
``cli.change_block``.  These blocks carry no timings.  The constant
``names`` entry of the conditions block is left out.  The jobs' inputs are
pinned by ``window_values_seed<N>.json``.

Regenerate the file only when a change of these reports is intended:

    PYTHONPATH=src python tests/test_battery_reports.py --write [--seed N]

The seed defaults to 0.
"""

import argparse
import json
from pathlib import Path

import pytest

from movsurf import CheckConfig, check_all
from movsurf.cli import change_block, conditions_block

from conftest import job_phi, perfbench_jobs

SEEDS = (0, 1)


def fixture_path(seed):
    return Path(__file__).with_name("battery_reports_seed%d.json" % seed)


def _record(job):
    report = check_all(job_phi(job), CheckConfig(seed=job["seed"]))
    conditions = conditions_block(report)
    del conditions["names"]
    # through JSON, as --json prints it: tuples become lists
    return json.loads(json.dumps({"conditions": conditions,
                                  "coordinate_change": change_block(report)}))


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
def test_battery_reports_match_fixture(workload, seed):
    expected = json.loads(fixture_path(seed).read_text())[workload]
    jobs = perfbench_jobs().make_jobs(workload, seed)
    assert sorted(job["name"] for job in jobs) == sorted(expected)
    for job in jobs:
        assert _record(job) == expected[job["name"]], job["name"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate a battery-reports fixture.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.add_argument("--seed", type=int, default=0)
    write_fixture(parser.parse_args().seed)
