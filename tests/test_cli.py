"""Command-line driver: exit codes, reports, determinism, file round trips."""

import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import isoframe.forms
import isoframe.frames
from isoframe import cli
from isoframe.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_MALFORMED, EXIT_PASS, entry
from isoframe.frames import (
    FrameError,
    WeightedFrame,
    catalog,
    load_frame,
    save_frame,
    serialize_frame,
    verify,
)
from isoframe.kscalar import Field, KVector
from isoframe.phi import dim_phi

from conftest import build_rescaled_synthetic_frame, design_h2_p4, e8_root_frame, mub_c2_p4


@pytest.fixture
def synthetic_path(tmp_path, synthetic_frame):
    path = tmp_path / "synthetic.json"
    save_frame(synthetic_frame, path)
    return str(path)


@pytest.fixture
def catalog_path(tmp_path):
    path = tmp_path / "catalog.json"
    save_frame(catalog(Field.R, 2, 4, "real2-rational-p4"), path)
    return str(path)


def run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_unwritable_out(capsys, tmp_path, *argv):
    # an --out path that cannot be written is a usage error: one error line
    # naming the path, nothing on stdout
    for path in (tmp_path / "no-such-dir" / "f.json", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == EXIT_MALFORMED
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_verify_pass(capsys, catalog_path):
    code, out, err = run(capsys, "verify", catalog_path)
    assert code == EXIT_PASS
    assert "verdict: pass" in out
    assert "n: 4" in out and "dim: 5" in out and "bound: 4" in out
    assert err == ""


def test_verify_fail_reports_residual(capsys, tmp_path):
    base = catalog(Field.R, 2, 4, "real2-rational-p4")
    bad = WeightedFrame(Field.R, 2, 4, base.vectors, (Fraction(1),) * 4)
    path = tmp_path / "bad.json"
    save_frame(bad, path)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_FAIL
    assert "verdict: fail" in out
    assert "residual_max: 0.0" not in out


def test_verify_malformed_input(capsys, tmp_path):
    good = json.loads(serialize_frame(catalog(Field.R, 2, 4, "real2-rational-p4")))
    nan_component = dict(good, vectors=[[["nan"], ["0"]]] + good["vectors"][1:])
    inf_weight = dict(good, weights=["inf"] + good["weights"][1:])
    for text in ("{\"field\": \"R\",", json.dumps(nan_component),
                 json.dumps(inf_weight), json.dumps(dict(good, m=True))):
        path = tmp_path / "broken.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_MALFORMED
        assert out == ""
        assert "error" in err


def test_verify_overflowing_float_entry(capsys, tmp_path):
    # (1e300)^4 overflows binary64, so the residual has an infinite
    # coefficient; that must be an error, not an `Infinity` token.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": "R", "m": 2, "p": 4,
                                "vectors": [[["1e300"], ["0"]], [["0"], ["1"]]],
                                "weights": ["1", "1"]}))
    for mode in ((), ("--mode", "float")):
        code, out, err = run(capsys, "verify", str(path), "--output", "json", *mode)
        assert code == EXIT_FAIL
        assert out == ""
        assert err.startswith("error:")


def test_verify_overflowing_exact_entry(capsys, tmp_path):
    # 10^100 is exact, but at p = 4 the residual holds 10^400, which has no
    # binary64 value to report as residual_max.  Beside the float vector
    # (0.5, 1), the exact (1, 10^120) makes the float residual add its exact
    # 4 * 10^360 on x y^3 to a float term, which has no binary64 value
    # either: the library raises FrameError with or without a tolerance.
    for vectors in ([[[str(10**100)], ["0"]], [["0"], ["1"]]],
                    [[["0.5"], ["1"]], [["1"], [str(10**120)]]]):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"field": "R", "m": 2, "p": 4,
                                    "vectors": vectors, "weights": ["1", "1"]}))
        for mode in ((), ("--mode", "float")):
            code, out, err = run(capsys, "verify", str(path), "--output", "json", *mode)
            assert code == EXIT_FAIL
            assert out == ""
            assert err.startswith("error:")
    frame = load_frame(path)
    for tolerance in (None, 1e-9):
        with pytest.raises(FrameError, match="overflows binary64"):
            verify(frame, tolerance=tolerance)


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nowhere.json"))
    assert code == EXIT_MALFORMED
    assert "error" in err


def test_verify_float_mode(capsys, tmp_path):
    path = tmp_path / "equi.json"
    save_frame(catalog(Field.R, 2, 4, "real2-equiangular"), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "float",
                       "--tolerance", "1e-10")
    assert code == EXIT_PASS
    assert "mode: float" in out


def test_verify_json_output(capsys, catalog_path):
    code, out, _ = run(capsys, "verify", catalog_path, "--output", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["n"] == 4 and payload["dim"] == 5 and payload["bound"] == 4


def test_dim_command(capsys, tmp_path):
    code, out, _ = run(capsys, "dim", "R", "2", "4")
    assert code == EXIT_PASS
    assert "dim: 5" in out and "bound: 4" in out
    code, out, _ = run(capsys, "dim", "C", "2", "4")
    assert "dim: 9" in out and "bound: 8" in out
    code, out, _ = run(capsys, "dim", "H", "1", "6")
    assert code == EXIT_PASS
    assert "dim: 1" in out and "refused" in out
    # m = 1 has no frame-size bound: the exact text line, the JSON field of
    # dim, and the same field in verify's report on an exact m = 1 frame
    assert "bound: refused (m=1)" in out.splitlines()
    code, out, _ = run(capsys, "dim", "H", "1", "6", "--output", "json")
    assert code == EXIT_PASS
    assert json.loads(out) == {"field": "H", "m": 1, "p": 6, "dim": 1, "bound": "refused (m=1)"}
    path = tmp_path / "line.json"
    save_frame(WeightedFrame(Field.C, 1, 4, (KVector.canonical(Field.C, 1, 0),), (Fraction(1),)),
               path)
    code, out, _ = run(capsys, "verify", str(path), "--output", "json")
    assert code == EXIT_PASS and json.loads(out)["bound"] == "refused (m=1)"


@pytest.mark.parametrize("argv, message", [
    (("R", "0", "4"), "m must be >= 1, got 0"),
    (("R", "2", "3"), "p must be a positive even integer, got 3"),
    (("C", "2", "-2"), "p must be a positive even integer, got -2"),
])
def test_dim_bad_arguments(capsys, argv, message):
    code, out, err = run(capsys, "dim", *argv)
    assert code == EXIT_MALFORMED
    assert out == "" and err == f"error: {message}\n"


def test_reduce_writes_steps_and_file(capsys, tmp_path, synthetic_frame):
    doubled = WeightedFrame(
        Field.R, 2, 4,
        synthetic_frame.vectors + (synthetic_frame.vectors[0],),
        (synthetic_frame.weights[0] / 2,) + synthetic_frame.weights[1:]
        + (synthetic_frame.weights[0] / 2,))
    src = tmp_path / "doubled.json"
    out_path = tmp_path / "reduced.json"
    save_frame(doubled, src)
    code, out, _ = run(capsys, "reduce", str(src), "--out", str(out_path))
    assert code == EXIT_PASS
    assert "n_initial: 6" in out and "n_final: 5" in out
    assert "step 1: pivot=" in out and "omega=" in out
    reduced = load_frame(out_path)
    assert reduced.n == 5
    assert verify(reduced).passed
    assert_unwritable_out(capsys, tmp_path, "reduce", str(src))


def test_reduce_independent_notes_no_dependence(capsys, catalog_path, tmp_path):
    out_path = tmp_path / "same.json"
    code, out, _ = run(capsys, "reduce", catalog_path, "--out", str(out_path))
    assert code == EXIT_PASS
    assert "no dependence" in out
    assert load_frame(out_path) == catalog(Field.R, 2, 4, "real2-rational-p4")


def test_reduce_refuses_unverified(capsys, tmp_path):
    base = catalog(Field.R, 2, 4, "real2-rational-p4")
    bad = WeightedFrame(Field.R, 2, 4, base.vectors, (Fraction(1),) * 4)
    path = tmp_path / "bad.json"
    save_frame(bad, path)
    code, out, err = run(capsys, "reduce", str(path))
    assert code == EXIT_FAIL
    assert "refus" in err


def test_scale_reduce_checks_grid_before_the_frame(capsys, tmp_path):
    # a bad grid is a usage error whatever the frame: it is refused before
    # the frame is verified
    base = catalog(Field.R, 2, 4, "real2-rational-p4")
    path = tmp_path / "bad.json"
    save_frame(WeightedFrame(Field.R, 2, 4, base.vectors, (Fraction(1),) * 4), path)
    code, out, err = run(capsys, "scale-reduce", str(path), "--grid", "0")
    assert code == EXIT_MALFORMED
    assert out == "" and err.startswith("error: grid must be")
    code, out, err = run(capsys, "scale-reduce", str(path))
    assert code == EXIT_FAIL
    assert out == "" and "verified frames only" in err


def test_scale_reduce_full_run(capsys, synthetic_path, tmp_path):
    out_path = tmp_path / "scaled.json"
    code, out, _ = run(capsys, "scale-reduce", synthetic_path,
                       "--out", str(out_path))
    assert code == EXIT_PASS
    assert "result: reduced" in out
    assert "n_initial: 5" in out and "n_final: 4" in out
    reduced = load_frame(out_path)
    assert reduced.n == 4
    assert verify(reduced, tolerance=1e-8).passed
    assert_unwritable_out(capsys, tmp_path, "scale-reduce", synthetic_path)


def test_scale_reduce_none(capsys, tmp_path):
    for m in (2, 7):
        path = tmp_path / f"ortho{m}.json"
        save_frame(catalog(Field.R, m, 2, "orthonormal-p2"), path)
        code, out, _ = run(capsys, "scale-reduce", str(path))
        assert code == EXIT_PASS
        assert "result: none" in out
    # m = 7 needs at least m - 1 = 6 grid points per axis
    code, out, err = run(capsys, "scale-reduce", str(path), "--grid", "5")
    assert code == EXIT_MALFORMED
    assert out == "" and err.startswith("error:")


def test_scale_reduce_nonfinite_bound_exit(capsys, tmp_path):
    for exponent in (100, 400):
        path = tmp_path / f"rescaled-{exponent}.json"
        save_frame(build_rescaled_synthetic_frame(exponent), path)
        code, out, err = run(capsys, "scale-reduce", str(path))
        assert code == EXIT_FAIL
        assert out == ""
        assert err.startswith("error:")


def test_scale_reduce_budget_exit(capsys, synthetic_path):
    code, out, err = run(capsys, "scale-reduce", synthetic_path,
                         "--grid", "3", "--tolerance", "1e-300")
    assert code == EXIT_BUDGET
    assert out == ""
    assert "budget" in err
    # at the other end, a tolerance at or above every weight keeps no vector
    code, out, err = run(capsys, "scale-reduce", synthetic_path, "--tolerance", "1")
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "error: all scaling coefficients vanished; frame is degenerate\n"


def test_nonfinite_tolerance_exits_malformed(capsys, synthetic_path, catalog_path):
    # a tolerance that overflows binary64 parses as inf, which no exact
    # bisection can compare and no float check can fail
    for text in ("inf", "1e400", "nan", "-inf"):
        for argv in (("scale-reduce", synthetic_path), ("verify", catalog_path, "--mode", "float")):
            code, out, err = run(capsys, *argv, f"--tolerance={text}")
            assert code == EXIT_MALFORMED
            assert out == ""
            assert err == f"error: tolerance must be finite and positive, got {float(text)}\n"


def test_catalog_stdout_round_trip(capsys):
    code, out, _ = run(capsys, "catalog", "H", "3", "2", "orthonormal-p2")
    assert code == EXIT_PASS
    from isoframe.frames import parse_frame
    frame = parse_frame(out)
    assert frame == catalog(Field.H, 3, 2, "orthonormal-p2")


def test_catalog_out_file(capsys, tmp_path):
    path = tmp_path / "cat.json"
    code, out, _ = run(capsys, "catalog", "R", "2", "6", "real2-equiangular",
                       "--out", str(path))
    assert code == EXIT_PASS
    assert load_frame(path).n == 4
    assert_unwritable_out(capsys, tmp_path, "catalog", "R", "2", "2", "orthonormal-p2")


def test_catalog_bad_kind(capsys):
    code, _, err = run(capsys, "catalog", "R", "2", "4", "no-such-kind")
    assert code == EXIT_MALFORMED
    assert "error" in err
    code, out, err = run(capsys, "catalog", "R", "0", "2", "orthonormal-p2")
    assert code == EXIT_MALFORMED
    assert out == "" and err == "error: m must be >= 1, got 0\n"
    # an odd p breaks the (m, p) rule before any kind reads it
    for kind in ("real2-equiangular", "orthonormal-p2"):
        code, out, err = run(capsys, "catalog", "R", "2", "3", kind)
        assert code == EXIT_MALFORMED
        assert out == "" and err == "error: p must be a positive even integer, got 3\n"


def test_byte_determinism(capsys, synthetic_path):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "verify", synthetic_path, "--output", "json")
        outputs.add(out)
    assert len(outputs) == 1


def test_flag_validation(capsys, catalog_path):
    assert run(capsys, "verify", catalog_path, "--mode", "fuzzy")[0] == EXIT_MALFORMED
    assert run(capsys, "verify", catalog_path, "--tolerance", "-2")[0] == EXIT_MALFORMED
    assert run(capsys, "scale-reduce", catalog_path, "--grid", "0")[0] == EXIT_MALFORMED
    assert run(capsys, "verify", catalog_path, "--output", "xml")[0] == EXIT_MALFORMED
    assert run(capsys, "verify", catalog_path, "--seed", "3")[0] == EXIT_MALFORMED
    assert run(capsys, "frobnicate")[0] == EXIT_MALFORMED
    assert run(capsys, "dim", "R", "2")[0] == EXIT_MALFORMED
    assert run(capsys)[0] == EXIT_MALFORMED
    # each command takes only the flags it reads
    assert run(capsys, "dim", "R", "2", "4", "--grid", "3")[0] == EXIT_MALFORMED
    assert run(capsys, "verify", catalog_path, "--out", "x")[0] == EXIT_MALFORMED
    assert run(capsys, "reduce", catalog_path, "--mode", "float")[0] == EXIT_MALFORMED
    assert run(capsys, "scale-reduce", catalog_path, "--mode", "exact")[0] == EXIT_MALFORMED
    assert run(capsys, "catalog", "R", "2", "4", "real2-rational-p4",
               "--tolerance", "1e-3")[0] == EXIT_MALFORMED
    # flags match by full name only: an abbreviation is a usage error
    assert run(capsys, "dim", "R", "2", "4", "--out", "json")[0] == EXIT_MALFORMED
    assert run(capsys, "verify", catalog_path, "--out", "text")[0] == EXIT_MALFORMED
    assert run(capsys, "verify", catalog_path, "--tol", "1e-3")[0] == EXIT_MALFORMED
    assert run(capsys, "scale-reduce", catalog_path, "--gr", "3")[0] == EXIT_MALFORMED
    assert run(capsys, "verify", catalog_path, "--tolerance=1e-3")[0] == EXIT_PASS


@pytest.mark.parametrize("argv, expected, run_name", [
    (["verify", "f.json"],
     dict(command="verify", mode="exact", tolerance=1e-9, output="text", path="f.json"),
     "cmd_verify"),
    (["dim", "C", "3", "4"],
     dict(command="dim", output="text", field="C", m=3, p=4), "cmd_dim"),
    (["reduce", "f.json"],
     dict(command="reduce", output="text", out=None, path="f.json"), "cmd_reduce"),
    (["scale-reduce", "f.json"],
     dict(command="scale-reduce", tolerance=1e-9, grid=None, output="text", out=None,
          path="f.json"), "cmd_scale_reduce"),
    (["catalog", "H", "2", "6", "kind-x"],
     dict(command="catalog", output="text", out=None, field="H", m=2, p=6, kind="kind-x"),
     "cmd_catalog"),
])
def test_parser_namespace_per_command(argv, expected, run_name):
    # the whole namespace of each command's minimal argv: every dest and
    # default, the positionals last and in argv's order, and what runs
    args = vars(cli._build_parser().parse_args(argv))
    assert args.pop("run").__name__ == run_name
    assert args == expected
    positionals = list(args)[-(len(argv) - 1):]
    assert [str(args[dest]) for dest in positionals] == argv[1:]


def test_reduce_refuses_float_frame(capsys, tmp_path):
    path = tmp_path / "equi.json"
    save_frame(catalog(Field.R, 2, 4, "real2-equiangular"), path)
    code, out, err = run(capsys, "reduce", str(path))
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "reduce requires exact rational entries\n"


def run_module(*argv, timeout):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "isoframe.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_module_main_runs_in_subprocess():
    proc = run_module("dim", "C", "2", "4", "--output", "json", timeout=120)
    assert proc.returncode == EXIT_PASS
    assert json.loads(proc.stdout)["dim"] == 9


def test_dim_never_hangs():
    # 80 real variables at degree 40: far beyond any basis, but counted at once
    proc = run_module("dim", "H", "40", "40", "--output", "json", timeout=20)
    assert proc.returncode == EXIT_PASS
    payload = json.loads(proc.stdout)
    assert payload["dim"] > 0 and payload["bound"] == payload["dim"] - 1


@pytest.mark.parametrize("argv", [
    ("R", "300000", "300000", "--output", "json"),
    ("R", "2000000", "2000000"),
    # this one used to print its field, m and p lines before failing
    ("R", "100000", "100000"),
    # dim Phi_C(m, 2) = m^2 = 10^4300 has 4301 digits
    ("C", str(10**2150), "2"),
])
def test_dim_too_long_to_print_exits_at_once(argv):
    proc = run_module("dim", *argv, timeout=20)
    assert proc.returncode == EXIT_MALFORMED
    assert proc.stdout == ""
    assert proc.stderr == (f"error: dim Phi_{argv[0]}(m={argv[1]}, p={argv[2]}) "
                           "has more digits than Python prints\n")


def test_dim_just_short_of_the_digit_limit(capsys):
    cases = [
        # dim Phi_R(2, p) = p + 1: 4299 digits, then 10^4300 - 1 with 4300
        (Field.R, 2, 10**4299 - 2),
        (Field.R, 2, 10**4300 - 2),
        # dim Phi_C(m, 2) = m^2 = (10^2150 - 1)^2
        (Field.C, 10**2150 - 1, 2),
        # dim Phi_H(m, 2) = m (2m - 1), just below 10^4300
        (Field.H, math.isqrt(10**4300 // 2), 2),
    ]
    for field, m, p in cases:
        code, out, err = run(capsys, "dim", field.name, str(m), str(p))
        assert (code, err) == (EXIT_PASS, "")
        assert f"dim: {dim_phi(field, m, p)}\n" in out


def test_text_report_is_written_whole(capsys):
    # a value that cannot be printed fails the report before any line of it
    with pytest.raises(ValueError):
        cli._emit({"field": "R", "dim": 10**5000}, argparse.Namespace(output="text"))
    assert capsys.readouterr().out == ""


# The last digits of these float reports depend on the order in which the
# residual's float terms are added; the expected bytes pin that order.
FROZEN_FLOAT_VERIFY = {
    4: (3, 5, 4, "6.661338147750939e-16", 4),
    6: (4, 7, 6, "5.551115123125783e-16", 2),
    8: (5, 9, 8, "1.7763568394002505e-15", 5),
}


@pytest.mark.parametrize("p", sorted(FROZEN_FLOAT_VERIFY))
def test_float_verify_output_frozen(capsys, tmp_path, p):
    n, dim, bound, residual, terms = FROZEN_FLOAT_VERIFY[p]
    path = tmp_path / "equi.json"
    save_frame(catalog(Field.R, 2, p, "real2-equiangular"), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "float", "--output", "json")
    assert code == EXIT_PASS
    assert out == (
        "{\n"
        '  "verdict": "pass",\n'
        '  "mode": "float",\n'
        f'  "n": {n},\n'
        f'  "dim": {dim},\n'
        f'  "bound": {bound},\n'
        f'  "residual_max": {residual},\n'
        f'  "residual_terms": {terms}\n'
        "}\n")


def test_float_scale_reduce_output_frozen(capsys, synthetic_path):
    code, out, _ = run(capsys, "scale-reduce", synthetic_path, "--output", "json")
    assert code == EXIT_PASS
    assert out == (
        "{\n"
        '  "result": "reduced",\n'
        '  "n_initial": 5,\n'
        '  "n_final": 4,\n'
        '  "exact": false,\n'
        '  "residual_max": 2.054388437144894e-09\n'
        "}\n")


def refuse_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing exact verdict expands no form")
    monkeypatch.setattr(isoframe.frames, "_packed_frame_form", refuse)
    monkeypatch.setattr(isoframe.forms, "_packed_frame_form", refuse)


# n, dim Phi and the bound of passing exact frames; the zero residual's
# 0.0 and 0 are the bytes its full expansion gave
FROZEN_EXACT_VERIFY = {
    "real2-rational-p4": (lambda: catalog(Field.R, 2, 4, "real2-rational-p4"), 4, 5, 4),
    "C2 MUB p4": (mub_c2_p4, 6, 9, 8),
    "H2 design p4": (design_h2_p4, 10, 20, 19),
    "E8 roots p6": (lambda: e8_root_frame(6), 120, 1716, 1715),
}


@pytest.mark.parametrize("name", sorted(FROZEN_EXACT_VERIFY))
def test_exact_verify_pass_reads_the_verdict(capsys, tmp_path, monkeypatch, name):
    build, n, dim, bound = FROZEN_EXACT_VERIFY[name]
    path = tmp_path / "frame.json"
    save_frame(build(), path)
    refuse_expansion(monkeypatch)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (EXIT_PASS, "")
    assert out == (f"verdict: pass\nmode: exact\nn: {n}\ndim: {dim}\nbound: {bound}\n"
                   "residual_max: 0.0\nresidual_terms: 0\n")
    code, out, err = run(capsys, "verify", str(path), "--output", "json")
    assert (code, err) == (EXIT_PASS, "")
    assert out == (
        "{\n"
        '  "verdict": "pass",\n'
        '  "mode": "exact",\n'
        f'  "n": {n},\n'
        f'  "dim": {dim},\n'
        f'  "bound": {bound},\n'
        '  "residual_max": 0.0,\n'
        '  "residual_terms": 0\n'
        "}\n")


def test_exact_scale_reduce_reads_the_verdict(capsys, tmp_path, monkeypatch):
    # the exact-branch frame of the scaling search smoke at grid 2049
    vectors = tuple(KVector.from_reals(Field.R, [Fraction(1), Fraction(b)]) for b in (0, 7, -7))
    path = tmp_path / "exact.json"
    save_frame(WeightedFrame(Field.R, 2, 2, vectors,
                             (Fraction(48, 49), Fraction(1, 98), Fraction(1, 98))), path)
    refuse_expansion(monkeypatch)
    code, out, err = run(capsys, "scale-reduce", str(path), "--grid", "2049")
    assert (code, err) == (EXIT_PASS, "")
    assert out == "result: reduced\nn_initial: 3\nn_final: 2\nexact: True\nresidual_max: 0.0\n"
    code, out, err = run(capsys, "scale-reduce", str(path), "--grid", "2049", "--output", "json")
    assert (code, err) == (EXIT_PASS, "")
    assert out == (
        "{\n"
        '  "result": "reduced",\n'
        '  "n_initial": 3,\n'
        '  "n_final": 2,\n'
        '  "exact": true,\n'
        '  "residual_max": 0.0\n'
        "}\n")
