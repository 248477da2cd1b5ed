import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import fcntl
except ImportError:   # not on Windows
    fcntl = None

import pytest

import movsurf
from movsurf import Parametrization, hilbert_dim, parse, parse_xpoly
from movsurf.cli import main

from conftest import QUARTIC_BP_STRINGS, load_golden

QUARTIC_JOB = {"m": 2, "n": 2, "a": QUARTIC_BP_STRINGS, "seed": 0,
               "assert_one_to_one": True}
SEGRE_JOB = {"m": 1, "n": 1, "a": ["s*t", "s*v", "u*t", "u*v"]}
DEG2_JOB = {"m": 2, "n": 3,
            "a": ["u^2*t^2*v", "u^2*t^3 + s*u*v^3", "s^2*t*v^2",
                  "s^2*v^3 + s^2*t^3"]}


def write_job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(tmp_path, command, payload, *extra):
    inp = write_job(tmp_path, payload)
    out = tmp_path / "out.json"
    code = main([command, "--input", inp, "--json", "--output", str(out),
                 *extra])
    return code, json.loads(out.read_text())


def module_env():
    """The environment of a child that runs `python -m movsurf`: it finds
    the package where this process imported it from, also when pytest put
    src on sys.path rather than PYTHONPATH."""
    path = [str(Path(movsurf.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_module(*args):
    """`python -m movsurf *args` in a child process."""
    return subprocess.run([sys.executable, "-m", "movsurf", *args],
                          capture_output=True, text=True, env=module_env())


def test_check_quartic(tmp_path):
    code, report = run_json(tmp_path, "check", QUARTIC_JOB)
    assert code == 0
    assert report["schema"] == 1
    conditions = report["conditions"]
    assert all(conditions[name] for name in ("B1", "B2", "B3", "B4", "B5", "B6"))
    assert conditions["k"] == 1
    assert report["coordinate_change"] is None


def test_check_segre_short_path(tmp_path):
    code, report = run_json(tmp_path, "check", SEGRE_JOB)
    assert code == 0
    assert report["conditions"]["k"] == 0
    assert report["conditions"]["short_path"] is True


def test_check_segre_prints_the_skipped_checks_as_skip(capsys):
    segre = Path(__file__).resolve().parents[1] / "scripts/inputs/segre.json"
    assert main(["check", "--input", str(segre)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:6]] == [
        "B1", "B2", "B3", "B4", "B5", "B6"]
    assert [line.split()[-1] for line in lines[:6]] == ["PASS"] * 2 + [
        "SKIP"] * 4
    assert lines[-1] == "conditions: PASS"


def test_check_failure_exit_code(tmp_path):
    bad = dict(QUARTIC_JOB)
    bad["a"] = [bad["a"][0]] * 2 + bad["a"][2:]
    code, report = run_json(tmp_path, "check", bad)
    assert code == 1
    assert report["conditions"]["B1"] is False
    assert report["conditions"]["failure"] == "B1"


def test_implicitize_quartic_matches_golden(tmp_path):
    code, report = run_json(tmp_path, "implicitize", QUARTIC_JOB)
    assert code == 0
    imp = report["implicit"]
    assert imp["polynomial"] == load_golden("quartic_base_point_implicit.txt")
    assert imp["degree"] == 7 and imp["k"] == 1 and imp["term_count"] == 27
    assert report["verification"]["ok"] is True
    assert report["verification"]["vanishing_ok"] is True
    # the certificate draws no samples, so none are reported
    assert "samples" not in report["verification"]
    assert "failures" not in report["verification"]
    # round trip: the reported string re-parses to the same polynomial
    assert parse_xpoly(imp["polynomial"]).render() == imp["polynomial"]


def test_implicitize_segre(tmp_path):
    code, report = run_json(tmp_path, "implicitize", SEGRE_JOB)
    assert code == 0
    assert report["implicit"]["polynomial"] == "x0*x3 - x1*x2"
    assert report["implicit"]["projection_fallback"] is True


def test_implicitize_human_output(tmp_path, capsys):
    inp = write_job(tmp_path, QUARTIC_JOB)
    code = main(["implicitize", "--input", inp])
    out = capsys.readouterr().out
    assert code == 0
    assert "|M| = x0^4*x3^3" in out
    assert "verification: PASS" in out


def test_det_backend_flag_is_a_usage_error(tmp_path, capsys, monkeypatch):
    inp = write_job(tmp_path, SEGRE_JOB)
    for value in ("both", "auto"):
        with pytest.raises(SystemExit) as exc:
            main(["implicitize", "--input", inp, "--det-backend", value])
        assert exc.value.code == 2
        assert "--det-backend" in capsys.readouterr().err
    # the preset is not read either, and no backend is reported
    monkeypatch.setenv("MOVSURF_DET_BACKEND", "lu")
    code, report = run_json(tmp_path, "implicitize", SEGRE_JOB)
    assert code == 0
    assert "backend" not in report["implicit"]
    assert "backend_agreement" not in report["implicit"]


@pytest.mark.parametrize("command, flags", [
    ("check", ["--samples", "3"]), ("check", ["--force"]),
    ("hilbert", ["--window", "3"]), ("hilbert", ["--sat-bound", "2"]),
    ("hilbert", ["--samples", "3"]), ("hilbert", ["--force"]),
    ("hilbert", ["--seed", "5"])])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                           command, flags):
    inp = write_job(tmp_path, SEGRE_JOB)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", inp] + flags)
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, var, value", [
    ("check", "MOVSURF_SAMPLES", "0"), ("check", "MOVSURF_SAMPLES", "x"),
    ("hilbert", "MOVSURF_WINDOW", "1"), ("hilbert", "MOVSURF_SAT_BOUND", "-1"),
    ("hilbert", "MOVSURF_SAMPLES", "x"), ("hilbert", "MOVSURF_SEED", "x"),
    ("check", "MOVSURF_FORCE", "ture")])
def test_a_preset_the_command_does_not_read_is_ignored(tmp_path, monkeypatch,
                                                       command, var, value):
    monkeypatch.setenv(var, value)
    code, report = run_json(tmp_path, command, SEGRE_JOB)
    assert code == 0
    assert report["command"] == command


def test_hilbert_reports_the_seed_of_the_job_file(tmp_path, monkeypatch):
    # hilbert draws nothing, so no seed option reaches it
    monkeypatch.setenv("MOVSURF_SEED", "5")
    code, report = run_json(tmp_path, "hilbert", dict(SEGRE_JOB, seed=3))
    assert code == 0 and report["seed"] == 3
    code, report = run_json(tmp_path, "check", dict(SEGRE_JOB, seed=3))
    assert code == 0 and report["seed"] == 5


def test_hilbert_range_and_squared_flags_have_no_preset(tmp_path,
                                                        monkeypatch):
    code, plain = run_json(tmp_path, "hilbert", QUARTIC_JOB)
    monkeypatch.setenv("MOVSURF_SQUARED", "1")
    monkeypatch.setenv("MOVSURF_D1", "3:3")
    preset_code, preset = run_json(tmp_path, "hilbert", QUARTIC_JOB)
    assert code == preset_code == 0
    plain.pop("timings")
    preset.pop("timings")
    assert preset == plain
    assert plain["squared"] is False and plain["d1"] == [0, 4]


def test_verify_is_not_a_subcommand(tmp_path, capsys):
    # implicitize prints the verification record; no subcommand checks a
    # polynomial of the user's
    inp = write_job(tmp_path, QUARTIC_JOB)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", inp])
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_hilbert_quartic(tmp_path):
    inp = write_job(tmp_path, QUARTIC_JOB)
    out = tmp_path / "h.json"
    code = main(["hilbert", "--input", inp, "--json", "--d1", "3:3",
                 "--d2", "3:3", "--output", str(out)])
    assert code == 0
    table = json.loads(out.read_text())["table"]
    assert table["3,3"] == 1


def test_hilbert_degree_two_scheme(tmp_path):
    inp = write_job(tmp_path, DEG2_JOB)
    out = tmp_path / "h.json"
    code = main(["hilbert", "--input", inp, "--json", "--d1", "3:3",
                 "--d2", "5:5", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["table"]["3,5"] == 2


def test_hilbert_zero_ideal_row(tmp_path):
    # degrees below the generators: nothing lands there, full quotient
    inp = write_job(tmp_path, QUARTIC_JOB)
    out = tmp_path / "h.json"
    code = main(["hilbert", "--input", inp, "--json", "--d1", "0:1",
                 "--d2", "0:1", "--output", str(out)])
    table = json.loads(out.read_text())["table"]
    assert table["0,0"] == 1 and table["1,1"] == 4 and table["0,1"] == 2


@pytest.mark.parametrize("job", [QUARTIC_JOB, SEGRE_JOB],
                         ids=["quartic", "segre"])
@pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
def test_hilbert_table_matches_per_cell_hilbert_dim(tmp_path, job, squared):
    inp = write_job(tmp_path, job)
    out = tmp_path / "h.json"
    code = main(["hilbert", "--input", inp, "--json", "--d1", "0:6",
                 "--d2", "0:5", "--output", str(out)]
                + (["--squared"] if squared else []))
    assert code == 0
    table = json.loads(out.read_text())["table"]
    phi = Parametrization(job["m"], job["n"],
                          tuple(parse(a) for a in job["a"]))
    gens = phi.products() if squared else phi.a
    assert table == {"%d,%d" % (i, j): hilbert_dim(gens, (i, j))
                     for i in range(7) for j in range(6)}
    # the Segre quotients vanish from (1,1) or (2,2) on, so the table runs
    # past its first zero; the quartic's base point keeps them positive
    assert (0 in table.values()) == (job is SEGRE_JOB)


def test_malformed_polynomial_exits_2(tmp_path, capsys):
    bad = dict(QUARTIC_JOB)
    bad["a"] = ["s*t + + u*v", "s*t", "s*v", "u*v"]
    inp = write_job(tmp_path, bad)
    code = main(["check", "--input", inp])
    err = capsys.readouterr().err
    assert code == 2
    assert "position" in err


def test_wrong_count_exits_2(tmp_path, capsys):
    bad = {"m": 1, "n": 1, "a": ["s*t", "s*v", "u*t"]}
    inp = write_job(tmp_path, bad)
    assert main(["check", "--input", inp]) == 2


@pytest.mark.parametrize("field, value", [
    ("m", 1.7), ("m", True), ("n", "2"), ("seed", "abc"), ("seed", False),
    ("assert_one_to_one", "no"), ("assert_one_to_one", 0), ("a", "s*t"),
    ("a", ["s*t", "s*v", "u*t", 5])])
def test_malformed_job_field_exits_2(tmp_path, capsys, field, value):
    bad = dict(SEGRE_JOB, **{field: value})
    inp = write_job(tmp_path, bad)
    assert main(["implicitize", "--input", inp]) == 2
    assert "input error: %s must be" % field in capsys.readouterr().err


@pytest.mark.parametrize("command", ("check", "implicitize", "hilbert"))
def test_an_unknown_job_field_exits_2(tmp_path, capsys, monkeypatch,
                                      command):
    refuse_to_run(monkeypatch)
    # misspelt, the field would leave assert_one_to_one at its default
    inp = write_job(tmp_path, dict(SEGRE_JOB, assert_one_to_on=False))
    assert main([command, "--input", inp]) == 2
    assert capsys.readouterr().err == (
        "input error: unknown field 'assert_one_to_on'\n")


def test_missing_file_exits_2(tmp_path):
    assert main(["check", "--input", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("content", [
    b'{"m": 1, "n": 1, "a": [', b"\xff\xfe{",
    b"[" * 200000 + b"]" * 200000], ids=["truncated", "not_utf8", "deep"])
def test_undecodable_job_file_exits_2(tmp_path, content):
    inp = tmp_path / "job.json"
    inp.write_bytes(content)
    proc = run_module("check", "--input", str(inp))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: invalid JSON in %s" % inp)
    assert "Traceback" not in proc.stderr


def test_unwritable_output_exits_2(tmp_path):
    inp = write_job(tmp_path, SEGRE_JOB)
    out = tmp_path / "missing" / "out.json"
    proc = run_module("check", "--input", inp, "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: cannot write %s" % out)
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                    reason="needs a pipe of settable size")
def test_a_stdout_closed_after_the_first_bytes_exits_141(tmp_path):
    inp = write_job(tmp_path, SEGRE_JOB)
    read_end, write_end = os.pipe()
    # a one-page pipe, which the report of about 7 kB overfills, so the
    # child still writes after the reader has gone
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "movsurf", "hilbert", "--input", inp, "--json",
         "--d1", "0:20", "--d2", "0:20"],
        stdout=write_end, stderr=subprocess.PIPE, env=module_env())
    os.close(write_end)
    head = os.read(read_end, 100)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b"{")
    assert proc.returncode == 141
    assert err == b""


def refuse_to_run(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran before its output was checked")
    monkeypatch.setattr("movsurf.cli.pipeline", refuse)
    monkeypatch.setattr("movsurf.cli.check_all", refuse)


@pytest.mark.parametrize("command", ("check", "implicitize"))
def test_unwritable_output_fails_before_the_command_runs(tmp_path, capsys,
                                                         monkeypatch, command):
    refuse_to_run(monkeypatch)
    inp = write_job(tmp_path, QUARTIC_JOB)
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        assert main([command, "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "input error: cannot write %s" % out)
    assert not (tmp_path / "missing").exists()


def test_output_file_is_not_touched_before_the_command_writes(tmp_path,
                                                              monkeypatch):
    refuse_to_run(monkeypatch)
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    assert main(["check", "--input", str(tmp_path / "nope.json"),
                 "--output", str(out)]) == 2
    assert out.read_text() == "kept\n"


def test_writable_output_still_gets_the_report(tmp_path):
    inp = write_job(tmp_path, SEGRE_JOB)
    out = tmp_path / "fresh.json"
    assert main(["check", "--input", inp, "--json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["conditions"]["all_passed"] is True
    # an existing file is overwritten
    assert main(["check", "--input", inp, "--output", str(out)]) == 0
    assert "conditions: PASS" in out.read_text()


def test_bad_window_exits_2(tmp_path, capsys):
    inp = write_job(tmp_path, SEGRE_JOB)
    assert main(["check", "--input", inp, "--window", "1"]) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, name", [
    ("--samples", "0", "samples"), ("--samples", "-4", "samples"),
    ("--sat-bound", "-1", "sat-bound")])
def test_out_of_range_option_exits_2(tmp_path, capsys, flag, value, name):
    inp = write_job(tmp_path, QUARTIC_JOB)
    argv = ["implicitize", "--input", inp, flag, value]
    if flag == "--samples":
        # verification draws no samples, so the option is gone and argparse
        # rejects every value of it, in range or not, as a usage error
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: %s %s" % (flag, value) in err
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and name in err


@pytest.mark.parametrize("command", ["check", "implicitize", "hilbert"])
def test_samples_is_a_usage_error_on_every_subcommand(tmp_path, capsys,
                                                      monkeypatch, command):
    # verification is a certificate and draws no samples: the flag is gone,
    # and its old preset is ignored whatever its value
    inp = write_job(tmp_path, QUARTIC_JOB)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", inp, "--samples", "3"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    for value in ("0", "x"):
        monkeypatch.setenv("MOVSURF_SAMPLES", value)
        assert main([command, "--input", inp]) == 0


@pytest.mark.parametrize("var", ["MOVSURF_SEED", "MOVSURF_WINDOW",
                                 "MOVSURF_SAT_BOUND"])
def test_non_integer_environment_value_exits_2(tmp_path, capsys, monkeypatch,
                                               var):
    monkeypatch.setenv(var, "x")
    inp = write_job(tmp_path, SEGRE_JOB)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", inp])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid int value: 'x'" in err
    # the message names the variable the value came from
    assert "(from %s)" % var in err


@pytest.mark.parametrize("command, var", [
    ("check", "MOVSURF_JSON"), ("hilbert", "MOVSURF_JSON"),
    ("implicitize", "MOVSURF_FORCE")])
def test_non_boolean_environment_value_exits_2(tmp_path, capsys, monkeypatch,
                                               command, var):
    monkeypatch.setenv(var, "ture")
    inp = write_job(tmp_path, SEGRE_JOB)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", inp])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid boolean value: 'ture' (from %s)" % var in err


@pytest.mark.parametrize("value, is_json", [
    ("on", True), ("TRUE", True), ("Yes", True), ("Off", False), ("", False)])
def test_boolean_environment_values_are_case_insensitive(tmp_path, capsys,
                                                         monkeypatch, value,
                                                         is_json):
    monkeypatch.setenv("MOVSURF_JSON", value)
    assert main(["check", "--input", write_job(tmp_path, SEGRE_JOB)]) == 0
    out = capsys.readouterr().out
    if is_json:
        assert json.loads(out)["command"] == "check"
    else:
        assert "conditions: PASS" in out


def test_explicit_switch_overrides_a_bad_environment_value(tmp_path,
                                                           monkeypatch):
    monkeypatch.setenv("MOVSURF_JSON", "ture")
    monkeypatch.setenv("MOVSURF_FORCE", "ture")
    code, report = run_json(tmp_path, "implicitize", SEGRE_JOB, "--force")
    assert code == 0 and report["command"] == "implicitize"


def test_help_ignores_a_bad_environment_value(monkeypatch, capsys):
    monkeypatch.setenv("MOVSURF_SEED", "x")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_help_ignores_a_bad_boolean_environment_value(monkeypatch, capsys):
    monkeypatch.setenv("MOVSURF_JSON", "ture")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--json" in capsys.readouterr().out


def test_explicit_flag_overrides_a_bad_environment_value(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("MOVSURF_SEED", "x")
    code, report = run_json(tmp_path, "check", SEGRE_JOB, "--seed", "3")
    assert code == 0
    assert report["seed"] == 3


def test_internal_value_error_is_not_an_input_error(tmp_path, monkeypatch):
    def broken(phi, config, report=None):
        raise ValueError("internal failure")

    monkeypatch.setattr("movsurf.cli.pipeline", broken)
    inp = write_job(tmp_path, SEGRE_JOB)
    with pytest.raises(ValueError, match="internal failure"):
        main(["implicitize", "--input", inp])


def test_condition_failure_implicitize_exits_1(tmp_path, capsys):
    bad = dict(QUARTIC_JOB)
    bad["a"] = [bad["a"][0]] * 2 + bad["a"][2:]
    inp = write_job(tmp_path, bad)
    code = main(["implicitize", "--input", inp])
    assert code == 1
    assert "condition failure" in capsys.readouterr().err


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MOVSURF_SEED", "7")
    inp = write_job(tmp_path, QUARTIC_JOB)
    out = tmp_path / "env.json"
    code = main(["implicitize", "--input", inp, "--json",
                 "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 7


def test_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MOVSURF_SEED", "7")
    inp = write_job(tmp_path, QUARTIC_JOB)
    out = tmp_path / "env.json"
    main(["implicitize", "--input", inp, "--json", "--seed", "11",
          "--output", str(out)])
    assert json.loads(out.read_text())["seed"] == 11


def test_output_preset_writes_the_report_to_its_file(tmp_path, monkeypatch,
                                                     capsys):
    out = tmp_path / "preset.json"
    monkeypatch.setenv("MOVSURF_OUTPUT", str(out))
    inp = write_job(tmp_path, SEGRE_JOB)
    assert main(["check", "--input", inp, "--json"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["command"] == "check"


def test_unwritable_output_preset_fails_before_the_command_runs(
        tmp_path, capsys, monkeypatch):
    refuse_to_run(monkeypatch)
    out = tmp_path / "missing" / "out.json"
    monkeypatch.setenv("MOVSURF_OUTPUT", str(out))
    inp = write_job(tmp_path, QUARTIC_JOB)
    assert main(["check", "--input", inp]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: cannot write %s" % out)


def b2_window(tmp_path, *extra):
    code, report = run_json(tmp_path, "check", QUARTIC_JOB, *extra)
    assert code == 0
    return report["conditions"]["witnesses"]["B2"]["window"]


def test_window_preset_sets_the_b2_window_and_the_flag_beats_it(
        tmp_path, monkeypatch):
    monkeypatch.setenv("MOVSURF_WINDOW", "4")
    assert b2_window(tmp_path) == [[d, d] for d in range(3, 8)]
    assert b2_window(tmp_path, "--window", "3") == [[d, d]
                                                    for d in range(3, 7)]


def test_sat_bound_preset_sets_the_b5_search_and_the_flag_beats_it(
        tmp_path, monkeypatch):
    # the verdict depends on the bound: the quartic's a3 is a member of
    # the saturation only at power 2
    monkeypatch.setenv("MOVSURF_SAT_BOUND", "1")
    code, report = run_json(tmp_path, "check", QUARTIC_JOB)
    assert code == 1 and report["conditions"]["failure"] == "B5"
    code, report = run_json(tmp_path, "check", QUARTIC_JOB,
                            "--sat-bound", "2")
    assert code == 0 and report["conditions"]["all_passed"] is True


@pytest.mark.parametrize("var, value", [("MOVSURF_WINDOW", "1"),
                                        ("MOVSURF_SAT_BOUND", "-1")])
def test_out_of_range_battery_preset_exits_2(tmp_path, capsys, monkeypatch,
                                             var, value):
    refuse_to_run(monkeypatch)
    monkeypatch.setenv(var, value)
    inp = write_job(tmp_path, SEGRE_JOB)
    assert main(["check", "--input", inp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and var in err


def test_json_determinism_excluding_timings(tmp_path):
    inp = write_job(tmp_path, QUARTIC_JOB)
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["implicitize", "--input", inp, "--json",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload.pop("timings")
        blobs.append(json.dumps(payload, sort_keys=True).encode())
    assert blobs[0] == blobs[1]


def test_console_entry_point(tmp_path):
    inp = write_job(tmp_path, SEGRE_JOB)
    proc = run_module("implicitize", "--input", inp)
    assert proc.returncode == 0
    assert "x0*x3 - x1*x2" in proc.stdout
