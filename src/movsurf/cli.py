"""Batch command line interface.

Three subcommands operate on a JSON job file:

    movsurf check        --input job.json     condition battery only
    movsurf implicitize  --input job.json     full pipeline, |M| verified
    movsurf hilbert      --input job.json     quotient-dimension table

Job file schema: {"m": int, "n": int, "a": [4 polynomial strings],
optional "seed": int, optional "assert_one_to_one": bool}, and no other
field.  The integer fields must be JSON integers (not true or false, not
1.7 or "2"), assert_one_to_one must be JSON true or false, and a must be a
JSON list of strings.

--input names the job file.  The other options are the rows of OPTIONS:
each row gives a flag, the subcommands that have it, its type, its
default, its lowest value and its help.  --json and --output are on every
subcommand, --seed, --sat-bound and --window on check and implicitize,
and --force on implicitize; a flag the subcommand does not have is a usage
error.  Each option can be preset by MOVSURF_ and its name in capitals
(MOVSURF_SAT_BOUND for --sat-bound), which a subcommand reads only when it
has the flag and the flag is absent.
The presets of the switches --json and --force take 1/true/yes/on or
0/false/no/off or empty, in any case.  --input and hilbert's --d1, --d2
and --squared have no preset.

Exit codes: 0 success, 1 condition or verification failure, 2 input error
(an unreadable, undecodable or malformed job file, an option value that
is not a number, or for a switch's preset not one of those booleans, or
that is below its lowest, from a flag or from a preset, with a bad preset
named by its variable, or an --output file that cannot be written), 141
(128 + SIGPIPE) when standard output closes before the report is written,
with no traceback.  Any other exception is an internal error and
propagates with its traceback.
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
EXIT_PIPE = 141

# the subcommands, and those that run the condition battery
BATTERY_COMMANDS = ("check", "implicitize")
ALL_COMMANDS = BATTERY_COMMANDS + ("hilbert",)


class InputError(Exception):
    pass


@dataclass
class JobSpec:
    a: list
    phi: Parametrization
    seed: int
    assert_one_to_one: bool


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False, "": False}


def boolean(text):
    """The value of a switch's preset, case-insensitive.  A bad preset's
    usage error names the type by its __name__, as "boolean"."""
    return _BOOLEANS[text.lower()]


# The options that take a preset, one row each, in the order of --help:
# the flag, the subcommands that have it, its type (boolean for a switch,
# which takes no value), its default, its lowest value (None for no bound)
# and its help.  The preset of --sat-bound is MOVSURF_SAT_BOUND, and so on.
OPTIONS = (
    ("--json", ALL_COMMANDS, boolean, False, None,
     "emit a machine-readable JSON report"),
    ("--seed", BATTERY_COMMANDS, int, None, None,
     "seed for coordinate changes"),
    ("--sat-bound", BATTERY_COMMANDS, int, None, 0,
     "saturation search bound (default 2*max(m,n)+2)"),
    ("--window", BATTERY_COMMANDS, int, CheckConfig.window, 2,
     "diagonal sampling window for stabilization"),
    ("--force", ("implicitize",), boolean, False, None,
     "emit results even when checks fail"),
    ("--output", ALL_COMMANDS, str, None, None,
     "write the report to a file instead of stdout"),
)


def build_parser():
    top = argparse.ArgumentParser(
        prog="movsurf",
        description="exact implicit equations of bidegree-(m,n) surface "
                    "parametrizations of P1 x P1, via moving planes and "
                    "moving quadrics")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text in zip(ALL_COMMANDS, (
            "run the base-point condition battery",
            "compute the implicit equation",
            "tabulate quotient dimensions over a bidegree rectangle")):
        p = sub.add_parser(name, help=help_text)
        # a bad preset is a usage error of the subcommand
        p.set_defaults(parser=p)
        p.add_argument("--input", required=True, help="JSON job file")
        # every option is None when absent, and _fill_options sets it
        for flag, commands, kind, _, _, text in OPTIONS:
            if name not in commands:
                continue
            if kind is boolean:
                p.add_argument(flag, action="store_true", default=None,
                               help=text)
            else:
                p.add_argument(flag, type=kind, help=text)
        if name == "hilbert":
            p.add_argument("--d1", default=None,
                           help="first-degree range LO:HI (default 0:2m)")
            p.add_argument("--d2", default=None,
                           help="second-degree range LO:HI (default 0:2n)")
            p.add_argument("--squared", action="store_true",
                           help="tabulate the squared ideal instead")
    return top


def _fill_options(args):
    """Set each option of the subcommand that was not given to its preset,
    or else to its default, and reject a value below the option's lowest,
    from the flag or from the preset."""
    for flag, commands, kind, default, lowest, _ in OPTIONS:
        if args.command not in commands:
            continue
        dest = flag[2:].replace("-", "_")
        variable = ENV_PREFIX + dest.upper()
        value = getattr(args, dest)
        if value is None and variable in os.environ:
            text = os.environ[variable]
            try:
                value = kind(text)
            except (KeyError, ValueError):
                args.parser.error("argument %s: invalid %s value: %r (from %s)"
                                  % (flag, kind.__name__, text, variable))
        if value is None:
            value = default
        if lowest is not None and value is not None and value < lowest:
            raise InputError("%s/%s must be at least %d, got %d"
                             % (flag, variable, lowest, value))
        setattr(args, dest, value)


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
JOB_FIELDS = ("m", "n", "a", "seed", "assert_one_to_one")


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
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # not UTF-8, not JSON, or nested past the parser's recursion limit
        raise InputError("invalid JSON in %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise InputError("job file must hold a JSON object")
    # a misspelt optional field would otherwise leave its default in force
    unknown = sorted(set(data).difference(JOB_FIELDS))
    if unknown:
        raise InputError("unknown field '%s'" % unknown[0])
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
    return JobSpec(a=strings, phi=phi, seed=seed,
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
        # flushed here, so that a closed pipe raises BrokenPipeError inside
        # main, not in the flush at interpreter exit
        print(text, flush=True)


def _timed(f, *args):
    """f(*args) and the seconds it took."""
    t0 = time.perf_counter()
    value = f(*args)
    return value, time.perf_counter() - t0


def _check_config(spec, args):
    return CheckConfig(window=args.window, sat_bound=args.sat_bound,
                       seed=spec.seed)


def _pipeline_config(spec, args):
    return PipelineConfig(check=_check_config(spec, args),
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


# Each command returns (passed, seconds, body, lines): whether it passed,
# the time of its computation, the --json report under the common header,
# and the human report.


def _battery_body(report):
    return {"conditions": conditions_block(report),
            "coordinate_change": change_block(report)}


def cmd_check(spec, args):
    report, elapsed = _timed(check_all, spec.phi, _check_config(spec, args))
    return (report.all_passed, elapsed, _battery_body(report),
            _human_conditions(report))


def cmd_implicitize(spec, args):
    result, elapsed = _timed(pipeline, spec.phi, _pipeline_config(spec, args))
    record = result.verification
    body = dict(_battery_body(result.report), implicit={
        "polynomial": result.polynomial.render(),
        "degree": result.degree,
        "k": result.k,
        "term_count": len(result.polynomial.terms),
        "projection_fallback": result.projection_fallback,
        "pivots": _jsonable(result.pivots),
    }, verification={
        "vanishing_ok": record.vanishing_ok,
        "degree": record.degree,
        "expected_degree": record.expected_degree,
        "degree_ok": record.degree_ok,
        "x3_power": record.x3_power,
        "ok": record.ok,
    })
    lines = _human_conditions(result.report)
    lines.append("")
    lines.append("|M| = %s" % result.polynomial.render())
    lines.append("degree %d = 2mn - k with k = %d; %d terms"
                 % (result.degree, result.k, len(result.polynomial.terms)))
    lines.append("verification: %s (the rows of M %s phi, x3 power %s)"
                 % ("PASS" if record.ok else "FAIL",
                    "follow" if record.vanishing_ok else "do not follow",
                    record.x3_power))
    return record.ok, elapsed, body, lines


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
    d1 = _parse_range(args.d1, (0, 2 * spec.phi.m))
    d2 = _parse_range(args.d2, (0, 2 * spec.phi.n))
    gens = list(spec.phi.products()) if args.squared else list(spec.phi.a)
    degrees = [(i, j) for i in range(d1[0], d1[1] + 1)
               for j in range(d2[0], d2[1] + 1)]
    values, elapsed = _timed(hilbert_values, gens, degrees)
    table = dict(zip(degrees, values))
    body = {
        "squared": bool(args.squared),
        "d1": list(d1), "d2": list(d2),
        "table": {"%d,%d" % key: val for key, val in table.items()},
    }
    lines = ["quotient dimensions%s:" % (" (squared ideal)" if args.squared else "")]
    header = "d1\\d2 " + " ".join("%5d" % j for j in range(d2[0], d2[1] + 1))
    lines.append(header)
    for i in range(d1[0], d1[1] + 1):
        lines.append("%5d " % i + " ".join(
            "%5d" % table[(i, j)] for j in range(d2[0], d2[1] + 1)))
    return True, elapsed, body, lines


COMMANDS = {
    "check": cmd_check,
    "implicitize": cmd_implicitize,
    "hilbert": cmd_hilbert,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _fill_options(args)
        _check_output(args.output)
        spec = load_jobspec(args.input,
                            seed_override=getattr(args, "seed", None))
        passed, elapsed, body, lines = COMMANDS[args.command](spec, args)
        payload = dict(body, schema=1, command=args.command,
                       m=spec.phi.m, n=spec.phi.n, a=spec.a, seed=spec.seed,
                       timings={"total_s": elapsed})
        emit(args, json.dumps(payload, indent=2, sort_keys=True)
             if args.json else "\n".join(lines))
        return EXIT_OK if passed else EXIT_FAIL
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
    except BrokenPipeError:
        # the rest of the buffered report goes to the null device, so that
        # the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
