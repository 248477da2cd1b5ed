#!/usr/bin/env python3
"""Print a transcript of a fixed list of command-line invocations.

Runs `python -m movsurf` from the given source tree on each invocation
that invocations() lists, in a fresh work directory that holds the job
files, and prints the environment, the arguments, the exit code, stdout,
stderr and every other file then in the directory, with the `total_s`
timings and the tree's path masked.  Two transcripts compare the
command-line behaviour of two trees byte for byte:

    python scripts/cli_transcript.py OLD/src > old.txt
    python scripts/cli_transcript.py src > new.txt
    diff old.txt new.txt

The list covers the invocations of tests/test_cli.py and
tests/test_cli_json.py, the help of every subcommand, a bad and an
out-of-range value of every option from its flag and from its preset, and
every preset on a subcommand that lacks its flag.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("check", "implicitize", "verify", "hilbert")
QUARTIC = {"m": 2, "n": 2, "seed": 0, "assert_one_to_one": True,
           "a": ["u^2*t*v + s^2*t*v", "u^2*t^2 + s*u*v^2",
                 "s^2*v^2 + s^2*t^2", "s^2*t*v"]}
SEGRE = {"m": 1, "n": 1, "a": ["s*t", "s*v", "u*t", "u*v"]}
JOBS = {
    "quartic.json": QUARTIC,
    "segre.json": SEGRE,
    "segre_seed3.json": dict(SEGRE, seed=3),
    "deg2.json": {"m": 2, "n": 3,
                  "a": ["u^2*t^2*v", "u^2*t^3 + s*u*v^3", "s^2*t*v^2",
                        "s^2*v^3 + s^2*t^3"]},
    "dependent.json": dict(QUARTIC, a=[QUARTIC["a"][0]] * 2
                           + QUARTIC["a"][2:]),
    "bad_poly.json": dict(QUARTIC, a=["s*t + + u*v", "s*t", "s*v", "u*v"]),
    "three.json": {"m": 1, "n": 1, "a": ["s*t", "s*v", "u*t"]},
    "unknown.json": dict(SEGRE, assert_one_to_on=False),
}
# a job field of the wrong JSON type
BAD_FIELDS = (("m", 1.7), ("m", True), ("n", "2"), ("seed", "abc"),
              ("seed", False), ("assert_one_to_one", "no"),
              ("assert_one_to_one", 0), ("a", "s*t"),
              ("a", ["s*t", "s*v", "u*t", 5]))
JOBS.update(("field%d.json" % i, dict(SEGRE, **{field: value}))
            for i, (field, value) in enumerate(BAD_FIELDS))
BUNDLED = sorted(p.name for p in (ROOT / "scripts" / "inputs").glob("*.json"))

# the value and the lowest of every option that takes a number
NUMBERS = {"--seed": None, "--sat-bound": 0, "--window": 2}
PRESETS = ("JSON", "OUTPUT", "SEED", "SAT_BOUND", "WINDOW", "FORCE")


def invocations():
    """(environment, arguments) pairs, in a fixed order."""
    runs = [({}, ["--help"]), ({}, ["--version"]), ({}, [])]
    for command in COMMANDS:
        runs += [({}, [command, "--help"]),
                 ({"MOVSURF_SEED": "x"}, [command, "--help"]),
                 ({"MOVSURF_JSON": "ture"}, [command, "--help"])]
    # the reports, human and JSON, to stdout and to a file
    for command in COMMANDS:
        for job in ["quartic.json", "segre.json", "deg2.json",
                    "dependent.json"] + ["inputs/" + b for b in BUNDLED]:
            runs.append(({}, [command, "--input", job]))
            runs.append(({}, [command, "--input", job, "--json",
                              "--output", "out.json"]))
    for d1, d2 in (("3:3", "3:3"), ("0:1", "0:1"), ("0:6", "0:5"),
                   ("0:20", "0:20")):
        for job in ("quartic.json", "segre.json"):
            for squared in ([], ["--squared"]):
                runs.append(({}, ["hilbert", "--input", job, "--json",
                                  "--d1", d1, "--d2", d2] + squared))
    runs.append(({}, ["hilbert", "--input", "deg2.json", "--d1", "3:3",
                      "--d2", "5:5"]))
    for bad in ("x", "3", "2:1", "-1:2"):
        runs.append(({}, ["hilbert", "--input", "segre.json", "--d1", bad]))
    # input errors
    for job in ["bad_poly.json", "three.json", "unknown.json", "nope.json"] \
            + ["field%d.json" % i for i in range(len(BAD_FIELDS))]:
        for command in COMMANDS:
            runs.append(({}, [command, "--input", job]))
    runs.append(({}, ["check"]))
    runs.append(({}, ["implicitize", "--input", "segre.json",
                      "--det-backend", "both"]))
    runs.append(({"MOVSURF_DET_BACKEND": "lu"},
                 ["implicitize", "--input", "segre.json", "--json"]))
    runs.append(({"MOVSURF_SQUARED": "1", "MOVSURF_D1": "3:3"},
                 ["hilbert", "--input", "quartic.json", "--json"]))
    # every option from its flag: good, bad, out of range, on every command
    for command in COMMANDS:
        base = [command, "--input", "segre.json"]
        for flag, lowest in NUMBERS.items():
            values = ["3", "x", ""] + ([] if lowest is None
                                       else [str(lowest - 1)])
            runs += [({}, base + [flag, v]) for v in values]
            runs.append(({}, base + [flag]))
        for switch in ("--json", "--force"):
            runs += [({}, base + [switch]), ({}, base + [switch + "=1"])]
        for out in ("missing/out.json", ".", "out.json", ""):
            runs.append(({}, base + ["--output", out]))
    # every preset: good, bad, out of range, under a flag, on every command
    for command in COMMANDS:
        base = [command, "--input", "segre.json"]
        for name in PRESETS:
            variable = "MOVSURF_" + name
            flag = "--" + name.lower().replace("_", "-")
            if name in ("JSON", "FORCE"):
                values = ["1", "on", "TRUE", "Yes", "0", "Off", "", "ture"]
                override = [flag]
            elif name == "OUTPUT":
                values = ["out.json", "missing/out.json", ".", ""]
                override = [flag, "other.json"]
            else:
                lowest = NUMBERS[flag]
                values = ["3", "x", "", " 4 "] + (
                    [] if lowest is None else [str(lowest - 1)])
                override = [flag, "3"]
            for value in values:
                runs.append(({variable: value}, base))
                runs.append(({variable: value}, base + override))
    # the battery options change the verdicts of the bundled quartic
    quartic = ["check", "--input", "quartic.json"]
    runs += [({"MOVSURF_WINDOW": "4"}, quartic + ["--json"]),
             ({"MOVSURF_WINDOW": "4"}, quartic + ["--json", "--window", "3"]),
             ({"MOVSURF_SAT_BOUND": "1"}, quartic),
             ({"MOVSURF_SAT_BOUND": "1"}, quartic + ["--sat-bound", "2"]),
             ({"MOVSURF_SEED": "5"}, ["hilbert", "--input",
                                      "segre_seed3.json", "--json"]),
             ({"MOVSURF_SEED": "5"}, ["check", "--input",
                                      "segre_seed3.json", "--json"]),
             ({"MOVSURF_OUTPUT": "kept.json"},
              ["check", "--input", "nope.json"])]
    # two errors at once
    runs += [({}, ["check", "--input", "segre.json", "--window", "1",
                   "--sat-bound", "-1"]),
             ({"MOVSURF_SEED": "x"}, ["check"]),
             ({"MOVSURF_SAMPLES": "x"}, ["verify", "--input", "segre.json",
                                         "--window", "1"]),
             ({"MOVSURF_OUTPUT": "missing/out.json"},
              ["check", "--input", "segre.json", "--window", "1"])]
    return runs


def clean_env(src, extra):
    """This environment without its MOVSURF_ presets, with extra, running
    the package in src."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MOVSURF_")}
    env["PYTHONPATH"] = src
    env.update(extra)
    return env


def mask(text, src):
    """text with the timings and the source directory masked."""
    return re.sub(r'"total_s": [-+0-9.e]+', '"total_s": T',
                  text.replace(src, "SRC"))


def setup(work):
    """The job files, the bundled inputs, and a file a report must not
    touch."""
    for name, payload in JOBS.items():
        (work / name).write_text(json.dumps(payload))
    (work / "inputs").mkdir()
    for name in BUNDLED:
        shutil.copy(ROOT / "scripts" / "inputs" / name, work / "inputs")
    (work / "kept.json").write_text("kept\n")


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/cli_transcript.py SRC_DIR")
    src = str(Path(sys.argv[1]).resolve())
    # the same work directory path for both trees, so that the messages
    # that name a path agree
    work = Path(tempfile.gettempdir()) / "movsurf_cli_transcript"
    for env, args in invocations():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        setup(work)
        proc = subprocess.run([sys.executable, "-m", "movsurf", *args],
                              cwd=work, env=clean_env(src, env),
                              capture_output=True, text=True)
        print("=== %s movsurf %s" % (
            " ".join("%s=%r" % kv for kv in sorted(env.items())),
            " ".join(repr(a) for a in args)))
        print("exit %d" % proc.returncode)
        print("--- stdout\n" + mask(proc.stdout, src))
        print("--- stderr\n" + mask(proc.stderr, src))
        for path in sorted(work.glob("*.json")):
            if path.name not in JOBS:
                print("--- file %s\n%s" % (path.name,
                                           mask(path.read_text(), src)))
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
