"""Command-line driver: flags, exit codes, diagnostics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopmoments
from loopmoments.cli import main

from corpus import WALK


@pytest.fixture()
def walk_file(tmp_path):
    path = tmp_path / "walk"
    path.write_text(WALK, encoding="utf-8")
    return str(path)


def test_successful_run_prints_report(walk_file, capsys):
    code = main([walk_file, "--goal", "1", "--goal", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "E[x^2] = b^2*n/3" in out
    assert "E[y^2] = b^2*n^3/9" in out


def test_tex_format(walk_file, capsys):
    assert main([walk_file, "--goal", "2", "--format", "tex"]) == 0
    out = capsys.readouterr().out
    assert r"\begin{align*}" in out


def test_json_format_is_machine_readable(walk_file, capsys):
    assert main([walk_file, "--goal", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"] == ["b"]
    assert any(entry["moment"] == "x^1" for entry in doc["invariants"])


def test_output_file_is_written(walk_file, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = main([walk_file, "--goal", "1", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == capsys.readouterr().out


def test_unwritable_output_file_still_prints_the_report(walk_file, tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.txt"
    assert main([walk_file, "--goal", "1", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert "\nE[x^1] = " in "\n" + captured.out
    assert captured.err.startswith(f"error: cannot write {out_path}: ")
    assert captured.err.count("\n") == 1


def test_missing_file_exits_2(capsys):
    assert main(["/no/such/file", "--goal", "1"]) == 2
    assert "file access failed" in capsys.readouterr().err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.loop"
    path.write_bytes(b"x = 0\nwhile true:\n  x = x + 1 # caf\xe9\n")
    assert main([str(path), "--goal", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "source",
    [b"x = 0\nwhile true:\n  x = x + 1\n", b"# a comment\nx = 0\nwhile true:\n  x = x + 1\n"],
    ids=["assignment-first", "comment-first"],
)
def test_utf8_file_with_byte_order_mark_reads_as_without(tmp_path, capsys, source):
    # Editors that save "UTF-8 with BOM" start the file with EF BB BF.
    def report(path):
        assert main([str(path), "--goal", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line for line in lines if not line.startswith(("program:", "elapsed:"))]

    plain, marked = tmp_path / "plain.loop", tmp_path / "marked.loop"
    plain.write_bytes(source)
    marked.write_bytes(b"\xef\xbb\xbf" + source)
    assert report(marked) == report(plain)


def test_non_utf8_file_with_byte_order_mark_names_the_byte_in_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.loop"
    path.write_bytes(b"\xef\xbb\xbfx = 0\nwhile true:\n  x = x + 1 # caf\xe9\n")
    assert main([str(path), "--goal", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} is not UTF-8 text: invalid continuation byte at byte 38\n"
    )


@pytest.mark.parametrize(
    "source,needle",
    [
        ("x=0\nx = x + 1\n", "loop header"),
        # a letter outside the name rule is a bad character, not a crash
        ("x=0\nwhile true:\nx = x + é\n", "unexpected character 'é' (line 3, col 9)"),
        # a numeral longer than the interpreter reads as an int
        ("x=0\nwhile true:\nx = x + " + "1" * 5000 + "\n", "(line 3, col 9)"),
    ],
    ids=["no-header", "non-ascii-letter", "long-numeral"],
)
def test_syntax_error_exits_2(tmp_path, capsys, source, needle):
    path = tmp_path / "bad"
    path.write_text(source, encoding="utf-8")
    assert main([str(path), "--goal", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err


def test_missing_goal_exits_2(walk_file, capsys):
    assert main([walk_file]) == 2
    assert "goal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "goal",
    ["--goal=0", "--goal=q^2", "--goal=²", "--goal=--1", "--goal=" + "1" * 5000],
    ids=["zero", "unknown-variable", "superscript-two", "double-minus", "long-integer"],
)
def test_bad_goal_exits_2(walk_file, capsys, goal):
    assert main([walk_file, goal]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_zero_exponent_goal_names_the_constructor_rule(walk_file, capsys):
    assert main([walk_file, "--goal", "x^0"]) == 2
    assert capsys.readouterr().err == "error: moment exponents must be positive\n"


@pytest.mark.parametrize(
    "source,needle",
    [
        # each of the four structural restrictions, with its own diagnostic
        ("x=0\nwhile true:\nu = RV(uniform, 0, x)\nx = x + u\n", "distinctness"),
        ("x=0\nwhile true:\nx = x+1 @ 1/3; x @ 1/3\n", "probability-sum"),
        ("x=0\nwhile true:\nx = x*x\n", "dependency-structure"),
        ("x=0\nwhile true:\ng = RV(gauss, 0, -1)\nx = x + g\n", "distribution-argument"),
        ("x=0\nwhile true:\ng = RV(gauss, m, -1)\nx = x + g\n", "distribution-argument"),
    ],
)
def test_restriction_violations_exit_3(tmp_path, capsys, source, needle):
    path = tmp_path / "prog"
    path.write_text(source, encoding="utf-8")
    assert main([str(path), "--goal", "1"]) == 3
    err = capsys.readouterr().err
    assert "unsupported program structure" in err
    assert needle in err


def test_unresolvable_solver_case_exits_4(tmp_path, capsys):
    path = tmp_path / "prog"
    path.write_text("v = 0\nwhile true:\nv = 2*v + 1 @ p; v + 1 @ 1-p\n", encoding="utf-8")
    assert main([str(path), "--goal", "1"]) == 4
    err = capsys.readouterr().err
    # one error line naming the moment, and no traceback
    assert err.count("\n") == 1 and err.startswith("error: E[v^1]: ")
    assert "cannot divide" in err


def test_closure_cap_exits_4(walk_file, capsys):
    assert main([walk_file, "--goal", "2", "--max-closure", "2"]) == 4
    assert "moments" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["1"])
def test_closure_cap_counts_the_goals_and_exits_4(tmp_path, capsys, cap):
    path = tmp_path / "ident.loop"
    path.write_text("while true:\na = a\nb = b\nc = c\n", encoding="utf-8")
    assert main([str(path), "--goal", "1", "--max-closure", cap]) == 4
    assert "the closure cap" in capsys.readouterr().err
    assert main([str(path), "--goal", "1", "--max-closure", "3"]) == 0


@pytest.mark.parametrize("cap", ["0", "-3", "abc"])
def test_closure_cap_below_one_is_a_usage_error(walk_file, capsys, cap):
    # a cap that no goal can meet, like one that is no integer, is a bad flag
    # (exit 2), not a solver failure
    with pytest.raises(SystemExit) as exc:
        main([walk_file, "--goal", "1", "--max-closure", cap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-closure" in err and "closure cap" not in err


def test_verify_happy_path(walk_file, capsys):
    code = main(
        [
            walk_file,
            "--goal", "1",
            "--verify",
            "--param", "b=2",
            "--param", "y(0)=0",
            "--iters", "10",
            "--trials", "5000",
            "--seed", "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verification result: PASS" in out


def test_verify_without_bindings_exits_1(walk_file, capsys):
    assert main([walk_file, "--goal", "1", "--verify"]) == 1
    assert "unbound" in capsys.readouterr().err


def test_bad_param_syntax_exits_1(walk_file, capsys):
    assert main([walk_file, "--goal", "1", "--verify", "--param", "b"]) == 1
    assert main([walk_file, "--goal", "1", "--verify", "--param", "b=zzz"]) == 1


def test_repeated_param_name_exits_1(walk_file, capsys):
    args = [walk_file, "--goal", "1", "--verify", "--param", "b=2", "--param", "y(0)=0"]
    assert main([*args, "--param", "b=5", "--trials", "200"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --param 'b' is given more than once\n")


@pytest.mark.parametrize("pair", ["=3", " =3"])
def test_empty_param_name_exits_1(walk_file, capsys, pair):
    args = [walk_file, "--goal", "1", "--verify", "--param", "b=2", "--param", "y(0)=0"]
    assert main([*args, "--param", pair]) == 1
    assert capsys.readouterr().err == f"error: --param expects NAME=VALUE, got {pair!r}\n"


def test_negative_seed_exits_1(walk_file, capsys):
    args = [walk_file, "--goal", "1", "--verify", "--param", "b=2", "--param", "y(0)=0"]
    assert main([*args, "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0\n")


def test_verify_beyond_float_range_fails_without_a_traceback(tmp_path, capsys):
    # E[x^40] at n = 20 is 2^40 * 10^2400, far beyond float range
    path = tmp_path / "prog"
    path.write_text("x = 2\nwhile true:\nx = 1000*x\n", encoding="utf-8")
    assert main([str(path), "--goal", "40", "--verify", "--trials", "100"]) == 1
    captured = capsys.readouterr()
    assert "E[x^40]: expected inf" in captured.out
    assert "verification result: FAIL" in captured.out
    assert "Traceback" not in captured.err


def test_verify_deterministic_large_value_passes(tmp_path, capsys):
    # E[x^2] at n = 60 is about 1.7e6; float rounding alone puts the
    # zero-spread estimate about 1e-8 away from it
    path = tmp_path / "prog"
    path.write_text("x = 1\nwhile true:\n  x = 11/10*x + 1/3\n", encoding="utf-8")
    args = [str(path), "--goal", "2", "--verify", "--iters", "60", "--trials", "100"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "E[x^2]: expected 1732085.267, estimate 1732085.267 (se 0) -> pass" in out


def test_verify_parameter_beyond_float_range_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "prog"
    path.write_text("x = 0\nwhile true:\nx = x + c\n", encoding="utf-8")
    args = [str(path), "--goal", "1", "--verify", "--param", "c=1e400", "--trials", "100"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: a coefficient of the update of 'x' is beyond float range (parameter c)\n"
    )


def _python(args, cwd):
    """Run a fresh interpreter that imports this checkout's loopmoments."""
    env = {**os.environ, "PYTHONPATH": str(Path(loopmoments.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_overflowed_estimate_is_reported_without_warnings(tmp_path):
    # x(20)^40 = (2*1000^20)^40 overflows in the simulation as well
    (tmp_path / "prog").write_text("x = 2\nwhile true:\nx = 1000*x\n", encoding="utf-8")
    args = ["-m", "loopmoments.cli", "prog", "--goal", "40", "--verify", "--trials", "100"]
    proc = _python(args, tmp_path)
    assert proc.returncode == 1
    assert "E[x^40]: expected inf, estimate overflowed -> FAIL" in proc.stdout
    assert "verification result: FAIL" in proc.stdout
    assert proc.stderr == "verification failed; see report\n"


def test_overflow_stays_silent_on_helper_threads(tmp_path):
    # 12000 trials are three blocks; with four CPUs, blocks 1 and 2 go to
    # the calling thread and a helper thread.
    (tmp_path / "prog").write_text("x = 2\nwhile true:\nx = 1000*x\n", encoding="utf-8")
    code = (
        "import sys; from loopmoments import cli, verifier; "
        "verifier._cpus = lambda: 4; sys.exit(cli.main(sys.argv[1:]))"
    )
    args = ["-c", code, "prog", "--goal", "40", "--verify", "--trials", "12000"]
    proc = _python(args, tmp_path)
    assert proc.returncode == 1
    assert "E[x^40]: expected inf, estimate overflowed -> FAIL" in proc.stdout
    assert proc.stderr == "verification failed; see report\n"


def test_cli_import_does_not_load_numpy(tmp_path):
    proc = _python(["-c", "import sys, loopmoments.cli; print('numpy' in sys.modules)"], tmp_path)
    assert proc.stdout == "False\n", proc.stderr
