"""Regression fixture for the command-line reports of the bundled inputs.

``cli_json_bundled.json`` holds, for each subcommand of ``movsurf.cli``
(check, implicitize and hilbert) on each job file in ``scripts/inputs``,
the exit code and the ``--json`` report with its ``timings`` removed (None
when the command writes no report), and nothing else.  The test reruns
every command with default options and compares.

Regenerate the file only when a change of these reports is intended:

    PYTHONPATH=src python tests/test_cli_json.py --write
"""

import json
import os
import sys
from pathlib import Path

import pytest

from movsurf.cli import COMMANDS, ENV_PREFIX, main

ROOT = Path(__file__).resolve().parents[1]
INPUTS = sorted((ROOT / "scripts" / "inputs").glob("*.json"))
FIXTURE = Path(__file__).with_name("cli_json_bundled.json")


def _run(command, path, out):
    """Exit code and timing-free --json report of one command."""
    if out.exists():
        out.unlink()
    code = main([command, "--input", str(path), "--json", "--output",
                 str(out)])
    if not out.exists():
        return {"exit": code, "json": None}
    payload = json.loads(out.read_text())
    payload.pop("timings")
    return {"exit": code, "json": payload}


def _key(command, path):
    return "%s %s" % (command, path.stem)


def write_fixture(out):
    for name in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        del os.environ[name]
    records = {_key(command, path): _run(command, path, out)
               for command in COMMANDS for path in INPUTS}
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_json_matches_fixture(tmp_path, monkeypatch, command):
    for name in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        monkeypatch.delenv(name)
    expected = json.loads(FIXTURE.read_text())
    assert len(INPUTS) == 3
    # a record of a removed command or input would otherwise stay unread
    assert set(expected) == {_key(c, p) for c in COMMANDS for p in INPUTS}
    for path in INPUTS:
        got = _run(command, path, tmp_path / "out.json")
        assert got == expected[_key(command, path)], _key(command, path)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_json.py "
                 "--write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write_fixture(Path(tmp) / "out.json")
