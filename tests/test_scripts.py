"""Smoke runs of the bundled scripts, which use only the public API."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPTS / args[0]), *args[1:]],
                          capture_output=True, text=True, timeout=300)


def test_implicitize_demo_verifies_every_job():
    proc = run_script("implicitize_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("verified: True") == 3


def test_random_surfaces_completes_requested_count():
    proc = run_script("random_surfaces.py", "--bidegree", "2", "2",
                      "--count", "2")
    assert proc.returncode == 0, proc.stderr
    assert "completed 2 instances" in proc.stdout


def test_random_surfaces_verifies_a_3_3_instance():
    proc = run_script("random_surfaces.py", "--bidegree", "3", "3",
                      "--count", "1", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert "completed 1 instances" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines()[1:-1]]
    assert [row[4] for row in rows if len(row) == 6] == ["ok"]
