"""Batch command line interface.

Four subcommands operate on a JSON job file:

    movsurf check        --input job.json     condition battery only
    movsurf implicitize  --input job.json     full pipeline, prints |M|
    movsurf verify       --input job.json     pipeline + verification record
    movsurf hilbert      --input job.json     quotient-dimension table

Job file schema: {"m": int, "n": int, "a": [4 polynomial strings],
optional "seed": int, optional "assert_one_to_one": bool}.  The integer
fields must be JSON integers (not true or false, not 1.7 or "2"),
assert_one_to_one must be JSON true or false, and a must be a JSON list of
strings.

Each subcommand takes only the flags it reads: --input, --json and --output
everywhere, --seed, --sat-bound and --window on check, implicitize and
verify, --samples and --force on implicitize and verify.  Seven flags can be
preset through an environment variable: MOVSURF_JSON, MOVSURF_OUTPUT,
MOVSURF_SEED, MOVSURF_SAT_BOUND, MOVSURF_WINDOW, MOVSURF_SAMPLES and
MOVSURF_FORCE; --input and hilbert's --d1, --d2 and --squared have none.
Explicit flags win over the environment, and a preset is read only by a
subcommand that has its flag, when the flag is absent.  Exit codes: 0
success, 1 condition or verification failure, 2 input error (an unreadable
or malformed job file, an option value that is not a number or out of
range, from a flag or from the environment, with a bad preset named by its
variable, or an --output file that cannot be written).  The presets of
--json and --force accept 1/true/yes/on and 0/false/no/off or empty, in
any case.  Any other exception is an internal error and propagates with
its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .basepoints import (CONDITION_NAMES, CheckConfig, check_all,
                         hilbert_values)
from .implicitize import (ConditionError, PipelineConfig, VerificationError,
                          pipeline)
from .ring import MixedBidegreeError, ParseError, parse
from .syzygy import Parametrization

ENV_PREFIX = "MOVSURF_"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# the subcommands that run the condition battery, and those that also run
# the pipeline
BATTERY_COMMANDS = ("check", "implicitize", "verify")
PIPELINE_COMMANDS = ("implicitize", "verify")


class InputError(Exception):
    pass


@dataclass
class JobSpec:
    m: int
    n: int
    a: list
    phi: Parametrization
    seed: int
    assert_one_to_one: bool


class _Preset(str):
    """A flag's raw preset string, which remembers its variable's name."""

    def __new__(cls, value, variable):
        preset = super().__new__(cls, value)
        preset.variable = variable
        return preset


def _env(name, fallback):
    """The raw environment preset of a flag, or fallback.

    A preset string goes to argparse as the default, which converts it with
    the flag's type only when the flag is absent; a bad value then exits 2
    with a usage error that names the variable, and an explicit flag still
    wins over it.
    """
    variable = ENV_PREFIX + name
    if variable in os.environ:
        return _Preset(os.environ[variable], variable)
    return fallback


def _invalid(kind, text):
    """The usage error of a bad flag value, naming the variable of a bad
    preset."""
    source = " (from %s)" % text.variable if isinstance(text, _Preset) else ""
    return argparse.ArgumentTypeError(
        "invalid %s value: %r%s" % (kind, str(text), source))


def _int(text):
    """argparse type of the integer flags."""
    try:
        return int(text)
    except ValueError:
        raise _invalid("int", text)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False, "": False}


def _bool(text):
    """argparse type of the preset of a boolean flag, case-insensitive."""
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise _invalid("boolean", text)


class _Switch(argparse.Action):
    """A flag that takes no value and sets True.  Its default, False or a
    preset string, is converted with _bool only when the flag is absent."""

    def __init__(self, option_strings, dest, default=False, help=None):
        super().__init__(option_strings, dest, nargs=0, default=default,
                         type=_bool, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


def build_parser():
    top = argparse.ArgumentParser(
        prog="movsurf",
        description="exact implicit equations of bidegree-(m,n) surface "
                    "parametrizations of P1 x P1, via moving planes and "
                    "moving quadrics")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("check", "run the base-point condition battery"),
            ("implicitize", "compute the implicit equation"),
            ("verify", "compute and verify the implicit equation"),
            ("hilbert", "tabulate quotient dimensions over a bidegree rectangle")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="JSON job file")
        p.add_argument("--json", action=_Switch, default=_env("JSON", False),
                       help="emit a machine-readable JSON report")
        if name in BATTERY_COMMANDS:
            p.add_argument("--seed", type=_int,
                           default=_env("SEED", None),
                           help="seed for coordinate changes and sampling")
            p.add_argument("--sat-bound", type=_int,
                           default=_env("SAT_BOUND", None),
                           help="saturation search bound "
                                "(default 2*max(m,n)+2)")
            p.add_argument("--window", type=_int,
                           default=_env("WINDOW", CheckConfig.window),
                           help="diagonal sampling window for stabilization")
        if name in PIPELINE_COMMANDS:
            p.add_argument("--samples", type=_int,
                           default=_env("SAMPLES", PipelineConfig.samples),
                           help="number of exact vanishing samples")
            p.add_argument("--force", action=_Switch,
                           default=_env("FORCE", False),
                           help="emit results even when checks fail")
        p.add_argument("--output", default=_env("OUTPUT", None),
                       help="write the report to a file instead of stdout")
        if name == "hilbert":
            p.add_argument("--d1", default=None,
                           help="first-degree range LO:HI (default 0:2m)")
            p.add_argument("--d2", default=None,
                           help="second-degree range LO:HI (default 0:2n)")
            p.add_argument("--squared", action="store_true",
                           help="tabulate the squared ideal instead")
    return top


def _check_args(args):
    """Reject out-of-range values of the options the command has.

    argparse does not check ranges, so every value is checked here, as it
    is read.
    """
    if args.command in BATTERY_COMMANDS:
        if args.window < 2:
            raise InputError("--window/%sWINDOW must be at least 2, got %d"
                             % (ENV_PREFIX, args.window))
        if args.sat_bound is not None and args.sat_bound < 0:
            raise InputError("--sat-bound/%sSAT_BOUND must be at least 0, "
                             "got %d" % (ENV_PREFIX, args.sat_bound))
    if args.command in PIPELINE_COMMANDS and args.samples < 1:
        raise InputError("--samples/%sSAMPLES must be at least 1, got %d"
                         % (ENV_PREFIX, args.samples))
    _check_output(args.output)


def _check_output(path):
    """Reject an --output that cannot be written, before any work, without
    creating or truncating it: a directory, a file that is not writable, or
    a new file whose directory is missing or not writable.  emit still
    reports an OSError on the write itself."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif os.path.exists(path):
        reason = None if os.access(path, os.W_OK) else "it is not writable"
    elif not os.path.isdir(parent):
        reason = "no directory %s" % parent
    else:
        reason = (None if os.access(parent, os.W_OK | os.X_OK)
                  else "directory %s is not writable" % parent)
    if reason:
        raise InputError("cannot write %s: %s" % (path, reason))


_JSON_KINDS = {int: "integer", bool: "boolean", list: "list"}


def _field(data, name, kind, fallback=None):
    """The job-file field `name`, which must hold a JSON value of `kind`
    (a key of _JSON_KINDS), or fallback when the field is absent and
    fallback is not None.  JSON true and false are not integers here."""
    if name not in data and fallback is not None:
        return fallback
    try:
        value = data[name]
    except KeyError as exc:
        raise InputError("job file misses key %s" % exc)
    if type(value) is not kind:
        raise InputError("%s must be a JSON %s, got %s"
                         % (name, _JSON_KINDS[kind], json.dumps(value)))
    return value


def load_jobspec(path, seed_override=None):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON in %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise InputError("job file must hold a JSON object")
    m = _field(data, "m", int)
    n = _field(data, "n", int)
    seed = _field(data, "seed", int, 0)
    one_to_one = _field(data, "assert_one_to_one", bool, True)
    strings = _field(data, "a", list)
    if len(strings) != 4:
        raise InputError("expected exactly 4 polynomials, got %d" % len(strings))
    if not all(type(s) is str for s in strings):
        raise InputError("a must be a JSON list of polynomial strings, got %s"
                         % json.dumps(strings))
    if m < 1 or n < 1:
        raise InputError("m and n must be positive")
    polys = []
    for i, s in enumerate(strings):
        try:
            polys.append(parse(s, bidegree=(m, n)))
        except (ParseError, MixedBidegreeError, ValueError) as exc:
            raise InputError("a%d: %s" % (i, exc))
    try:
        phi = Parametrization(m, n, tuple(polys))
    except ValueError as exc:
        raise InputError(str(exc))
    if seed_override is not None:
        seed = seed_override
    return JobSpec(m=m, n=n, a=strings, phi=phi, seed=seed,
                   assert_one_to_one=one_to_one)


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def conditions_block(report):
    block = {name: report.verdicts.get(name) for name in CONDITION_NAMES}
    block["names"] = dict(CONDITION_NAMES)
    block["witnesses"] = _jsonable(report.witnesses)
    block["k"] = report.k
    block["short_path"] = report.short_path
    block["all_passed"] = report.all_passed
    block["failure"] = report.failure
    return block


def change_block(report):
    if report.coordinate_change is None:
        return None
    return {"seed": report.coordinate_seed,
            "matrix": [[str(x) for x in row]
                       for row in report.coordinate_change]}


def emit(args, text):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.output, exc))
    else:
        print(text)


def render_report(args, payload, human_lines):
    if args.json:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(human_lines)


def _check_config(spec, args):
    return CheckConfig(window=args.window, sat_bound=args.sat_bound,
                       seed=spec.seed)


def _pipeline_config(spec, args):
    return PipelineConfig(check=_check_config(spec, args),
                          samples=args.samples,
                          verify_seed=spec.seed,
                          force=args.force,
                          assert_one_to_one=spec.assert_one_to_one)


def _human_conditions(report):
    lines = []
    for name in sorted(CONDITION_NAMES):
        mark = {True: "PASS", False: "FAIL", None: "SKIP"}[
            report.verdicts.get(name)]
        lines.append("%s %-45s %s" % (name, CONDITION_NAMES[name], mark))
    lines.append("k = %s%s" % (report.k,
                               " (no base points: short path)" if report.short_path else ""))
    if report.coordinate_change is not None:
        lines.append("coordinate change applied (seed %d)" % report.coordinate_seed)
    lines.append("conditions: %s" % ("PASS" if report.all_passed else
                                     "FAIL at %s" % report.failure))
    return lines


def cmd_check(spec, args):
    t0 = time.perf_counter()
    report = check_all(spec.phi, _check_config(spec, args))
    elapsed = time.perf_counter() - t0
    payload = {
        "schema": 1,
        "command": "check",
        "m": spec.m, "n": spec.n, "a": spec.a, "seed": spec.seed,
        "conditions": conditions_block(report),
        "coordinate_change": change_block(report),
        "timings": {"total_s": elapsed},
    }
    emit(args, render_report(args, payload, _human_conditions(report)))
    return EXIT_OK if report.all_passed else EXIT_FAIL


def _run_pipeline(spec, args):
    config = _pipeline_config(spec, args)
    t0 = time.perf_counter()
    result = pipeline(spec.phi, config)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def _result_payload(spec, args, result, elapsed, command):
    record = result.verification
    payload = {
        "schema": 1,
        "command": command,
        "m": spec.m, "n": spec.n, "a": spec.a, "seed": spec.seed,
        "conditions": conditions_block(result.report),
        "coordinate_change": change_block(result.report),
        "implicit": {
            "polynomial": result.polynomial.render(),
            "degree": result.degree,
            "k": result.k,
            "term_count": len(result.polynomial.terms),
            "backend": result.backend,
            "projection_fallback": result.projection_fallback,
            "pivots": _jsonable(result.pivots),
        },
        "verification": {
            "samples": record.samples,
            "failures": _jsonable(record.failures),
            "vanishing_ok": record.vanishing_ok,
            "degree": record.degree,
            "expected_degree": record.expected_degree,
            "degree_ok": record.degree_ok,
            "x3_power": record.x3_power,
            "ok": record.ok,
        },
        "timings": {"total_s": elapsed},
    }
    return payload


def cmd_implicitize(spec, args):
    result, elapsed = _run_pipeline(spec, args)
    payload = _result_payload(spec, args, result, elapsed, "implicitize")
    lines = _human_conditions(result.report)
    lines.append("")
    lines.append("|M| = %s" % result.polynomial.render())
    lines.append("degree %d = 2mn - k with k = %d; %d terms; backend %s"
                 % (result.degree, result.k, len(result.polynomial.terms),
                    result.backend))
    record = result.verification
    lines.append("verification: %s (%d samples, x3 power %s)"
                 % ("PASS" if record.ok else "FAIL", record.samples,
                    record.x3_power))
    emit(args, render_report(args, payload, lines))
    return EXIT_OK if record.ok else EXIT_FAIL


def cmd_verify(spec, args):
    result, elapsed = _run_pipeline(spec, args)
    payload = _result_payload(spec, args, result, elapsed, "verify")
    record = result.verification
    lines = []
    lines.append("polynomial: %s" % result.polynomial.render())
    lines.append("vanishing: %s (%d exact samples, %d failures)"
                 % ("PASS" if record.vanishing_ok else "FAIL",
                    record.samples, len(record.failures)))
    lines.append("degree: %d expected %d -> %s"
                 % (record.degree, record.expected_degree,
                    "PASS" if record.degree_ok else "FAIL"))
    lines.append("x3 power: %s" % record.x3_power)
    lines.append("verification: %s" % ("PASS" if record.ok else "FAIL"))
    emit(args, render_report(args, payload, lines))
    return EXIT_OK if record.ok else EXIT_FAIL


def _parse_range(text, fallback):
    if text is None:
        return fallback
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError("range must look like LO:HI, got %r" % text)
    if lo < 0 or hi < lo:
        raise InputError("bad range %r" % text)
    return lo, hi


def cmd_hilbert(spec, args):
    d1 = _parse_range(args.d1, (0, 2 * spec.m))
    d2 = _parse_range(args.d2, (0, 2 * spec.n))
    gens = list(spec.phi.products()) if args.squared else list(spec.phi.a)
    t0 = time.perf_counter()
    degrees = [(i, j) for i in range(d1[0], d1[1] + 1)
               for j in range(d2[0], d2[1] + 1)]
    table = dict(zip(degrees, hilbert_values(gens, degrees)))
    elapsed = time.perf_counter() - t0
    payload = {
        "schema": 1,
        "command": "hilbert",
        "m": spec.m, "n": spec.n, "a": spec.a, "seed": spec.seed,
        "squared": bool(args.squared),
        "d1": list(d1), "d2": list(d2),
        "table": {"%d,%d" % key: val for key, val in table.items()},
        "timings": {"total_s": elapsed},
    }
    lines = ["quotient dimensions%s:" % (" (squared ideal)" if args.squared else "")]
    header = "d1\\d2 " + " ".join("%5d" % j for j in range(d2[0], d2[1] + 1))
    lines.append(header)
    for i in range(d1[0], d1[1] + 1):
        lines.append("%5d " % i + " ".join(
            "%5d" % table[(i, j)] for j in range(d2[0], d2[1] + 1)))
    emit(args, render_report(args, payload, lines))
    return EXIT_OK


COMMANDS = {
    "check": cmd_check,
    "implicitize": cmd_implicitize,
    "verify": cmd_verify,
    "hilbert": cmd_hilbert,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        spec = load_jobspec(args.input,
                            seed_override=getattr(args, "seed", None))
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    try:
        return COMMANDS[args.command](spec, args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ConditionError as exc:
        print("condition failure: %s" % exc, file=sys.stderr)
        if exc.report is not None and not args.json:
            for line in _human_conditions(exc.report):
                print(line, file=sys.stderr)
        return EXIT_FAIL
    except VerificationError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
