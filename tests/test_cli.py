"""Command-line driver: exit codes, reports, determinism, file round trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from isoframe.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_MALFORMED, EXIT_PASS, entry
from isoframe.frames import (
    WeightedFrame,
    catalog,
    load_frame,
    save_frame,
    serialize_frame,
    verify,
)
from isoframe.kscalar import Field

from conftest import build_rescaled_synthetic_frame


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
    # binary64 value to report as residual_max.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": "R", "m": 2, "p": 4,
                                "vectors": [[[str(10**100)], ["0"]], [["0"], ["1"]]],
                                "weights": ["1", "1"]}))
    for mode in ((), ("--mode", "float")):
        code, out, err = run(capsys, "verify", str(path), "--output", "json", *mode)
        assert code == EXIT_FAIL
        assert out == ""
        assert err.startswith("error:")


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


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "R", "2", "4")
    assert code == EXIT_PASS
    assert "dim: 5" in out and "bound: 4" in out
    code, out, _ = run(capsys, "dim", "C", "2", "4")
    assert "dim: 9" in out and "bound: 8" in out
    code, out, _ = run(capsys, "dim", "H", "1", "6")
    assert code == EXIT_PASS
    assert "dim: 1" in out and "refused" in out


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


def test_catalog_bad_kind(capsys):
    code, _, err = run(capsys, "catalog", "R", "2", "4", "no-such-kind")
    assert code == EXIT_MALFORMED
    assert "error" in err
    code, out, err = run(capsys, "catalog", "R", "0", "2", "orthonormal-p2")
    assert code == EXIT_MALFORMED
    assert out == "" and err == "error: m must be >= 1, got 0\n"


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


def test_reduce_refuses_float_frame(capsys, tmp_path):
    path = tmp_path / "equi.json"
    save_frame(catalog(Field.R, 2, 4, "real2-equiangular"), path)
    code, out, err = run(capsys, "reduce", str(path))
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "reduce requires exact rational entries\n"


def test_module_main_runs_in_subprocess():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "isoframe.cli", "dim", "C", "2", "4", "--output", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_PASS
    assert json.loads(proc.stdout)["dim"] == 9


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
