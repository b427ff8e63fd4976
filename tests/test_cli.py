import argparse
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bctransforms import (
    Bicomplex,
    ThetaParam,
    as_bicomplex,
    ck_frft_kernel,
    frft_kernel,
    generating_G,
    kernel_K_BC,
    kernel_K_C,
    mehler_closed,
    mehler_series,
    norm,
    sbt_kernel_BC,
    sbt_kernel_C,
)
from bctransforms.cli import _KERNELS, _absorb_dash_values, _build_parser, main

from conftest import strict_json


def write_vector(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


BASIS1 = {"sigma": 1.0, "coeffs": [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]}


class TestVerify:
    def test_suite_passes(self, capsys):
        code = main(["verify", "--suite", "quadrature"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert "cases passed" in out

    def test_report_files(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(["verify", "--suite", "algebra", "--out", str(report)])
        capsys.readouterr()
        assert code == 0
        data = json.loads(report.read_text())
        assert data["suite"] == "algebra"
        assert data["params"]["sigma"] == 1.0
        for case in data["cases"]:
            assert set(case) == {"id", "desc", "error", "tol", "pass", "status", "ms"}
            assert case["pass"] is True and case["status"] == "pass"
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "id,desc,error,tol,pass,ms"
        assert len(csv_text.splitlines()) == len(data["cases"]) + 1

    def test_deterministic_modulo_timing(self, capsys, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            assert main(["verify", "--suite", "hermite", "--out", str(p)]) == 0
            paths.append(p)
        capsys.readouterr()
        reports = [json.loads(p.read_text()) for p in paths]
        for rep in reports:
            for case in rep["cases"]:
                case.pop("ms")
        assert reports[0] == reports[1]

    def test_excluded_theta_is_config_error(self, capsys):
        code = main(["verify", "--suite", "frft", "--theta", "1,0,0,0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err

    def test_readme_frft_example_passes(self, capsys):
        # the beta phase 2.2 sits 0.94 rad from pi; a fixed companion
        # rotation once pushed the semigroup product to within 0.34 rad of it
        code = main(["verify", "--suite", "frft", "--order", "96", "--theta-phases", "0.9,2.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS  frft/semigroup" in out

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_nan_error_fails_case(self, capsys, monkeypatch, tmp_path):
        # the builtin max(0.0, nan) is 0.0; the suite must not drop a NaN error
        import bctransforms.verification as verification

        monkeypatch.setattr(verification, "mehler_series", lambda *a, **k: Bicomplex(complex(math.nan, 0.0), 0j))
        report = tmp_path / "report.json"
        code = main(["verify", "--suite", "mehler", "--out", str(report)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL  mehler/closed-vs-series" in out and "error=nan" in out
        # the report file is strict JSON: the NaN error is written as null
        cases = {c["id"]: c for c in strict_json(report.read_text())["cases"]}
        case = cases["mehler/closed-vs-series"]
        assert case["error"] is None and case["status"] == "fail" and case["pass"] is False

    def test_underresolved_order_fails_cases(self, capsys):
        # 4 nodes cannot integrate the degree-24 orthonormality products
        code = main(["verify", "--suite", "hermite", "--order", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestTransform:
    def test_forward_basis(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", BASIS1)
        data = run_json(capsys, ["transform", "--input", path, "--nu", "2.0"])
        vec = data["vector"]
        assert vec["nu"] == 2.0
        assert_allclose(vec["coeffs"][1], [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_forward_and_back(self, capsys, tmp_path):
        src = {"sigma": 1.0, "coeffs": [[0.5, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.25, 0.0, -1.0, 0.0]]}
        path = write_vector(tmp_path, "v.json", src)
        fwd_file = tmp_path / "fwd.json"
        code = main(["transform", "--input", path, "--nu", "2.0", "--out", str(fwd_file)])
        capsys.readouterr()
        assert code == 0
        fwd = json.loads(fwd_file.read_text())["vector"]
        back_path = write_vector(tmp_path, "f.json", fwd)
        data = run_json(capsys, ["transform", "--input", back_path, "--sigma", "1.0"])
        got = np.array(data["vector"]["coeffs"])
        assert_allclose(got, np.array(src["coeffs"]), atol=1e-14)

    def test_out_file_feeds_back_directly(self, capsys, tmp_path):
        # --out wraps results in an envelope; --input must accept those files
        src = {"sigma": 1.0, "coeffs": [[0.5, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]}
        path = write_vector(tmp_path, "v.json", src)
        fwd_file = tmp_path / "fwd.json"
        code = main(["transform", "--input", path, "--nu", "2.0", "--out", str(fwd_file)])
        capsys.readouterr()
        assert code == 0
        data = run_json(capsys, ["transform", "--input", str(fwd_file), "--sigma", "1.0"])
        assert_allclose(np.array(data["vector"]["coeffs"]), np.array(src["coeffs"]), atol=1e-14)

    def test_eval_ring_point(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", BASIS1)
        data = run_json(
            capsys,
            ["transform", "--input", path, "--nu", "2.0", "--eval", "0.3,0.0,0.1,0.0"],
        )
        # forward of psi_1 is 1.0 * Z at nu = 2
        assert_allclose(data["eval"]["value"], [0.3, 0.0, 0.1, 0.0], atol=1e-14)

    def test_eval_real_point_on_inverse(self, capsys, tmp_path):
        path = write_vector(tmp_path, "m.json", {"nu": 2.0, "coeffs": [[1.0, 0.0, 0.0, 0.0]]})
        data = run_json(
            capsys, ["transform", "--input", path, "--sigma", "1.0", "--eval", "0.7"]
        )
        assert data["eval"]["point"] == 0.7
        assert_allclose(data["eval"]["value"], [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(BASIS1)))
        data = run_json(capsys, ["transform", "--input", "-", "--nu", "2.0"])
        assert data["vector"]["nu"] == 2.0

    @pytest.mark.parametrize(
        "argv_tail,expect",
        [
            ([], 2),  # forward without --nu
            (["--nu", "2.0", "--eval", "0.5"], 2),  # ring eval needs 4 floats
        ],
    )
    def test_config_errors(self, capsys, tmp_path, argv_tail, expect):
        path = write_vector(tmp_path, "v.json", BASIS1)
        code = main(["transform", "--input", path] + argv_tail)
        capsys.readouterr()
        assert code == expect

    def test_missing_file(self, capsys, tmp_path):
        code = main(["transform", "--input", str(tmp_path / "absent.json"), "--nu", "2.0"])
        assert code == 2
        capsys.readouterr()

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["transform", "--input", str(path), "--nu", "2.0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_is_input_error(self, capsys, tmp_path, bad):
        path = write_vector(tmp_path, "v.json", {"sigma": 1.0, "coeffs": [[0.5, bad, 0.0, 0.0]]})
        assert main(["transform", "--input", path, "--nu", "2.0"]) == 2
        assert "NonFiniteError" in capsys.readouterr().err

    def test_overflowing_value_is_not_encoded(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", {"sigma": 1.0, "coeffs": [[0.0, 0.0, 0.0, 0.0]] * 2 + [[1.0, 0.0, 0.0, 0.0]]})
        assert main(["transform", "--input", path, "--nu", "2.0", "--eval", "1e300,0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "NonFiniteError" in captured.err

    def test_wrong_schema(self, capsys, tmp_path):
        path = write_vector(tmp_path, "w.json", {"coeffs": [[1, 0, 0, 0]]})
        assert main(["transform", "--input", str(path), "--nu", "2.0"]) == 2
        capsys.readouterr()


class TestFrft:
    def test_rotation_of_basis(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", BASIS1)
        data = run_json(
            capsys, ["frft", "--input", path, "--theta-phases", "0.35,0.6"]
        )
        want = ThetaParam.from_phases(0.35, 0.6).theta.to_json()
        assert_allclose(data["vector"]["coeffs"][1], want, rtol=1e-15)

    def test_inverse_roundtrip(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", BASIS1)
        fwd_file = tmp_path / "fwd.json"
        assert (
            main(["frft", "--input", path, "--theta-phases", "0.35,0.6", "--out", str(fwd_file)])
            == 0
        )
        capsys.readouterr()
        fwd = json.loads(fwd_file.read_text())["vector"]
        back_path = write_vector(tmp_path, "fwd_vec.json", fwd)
        data = run_json(
            capsys,
            ["frft", "--input", back_path, "--theta-phases", "0.35,0.6", "--inverse"],
        )
        assert_allclose(data["vector"]["coeffs"][1], [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_eval_with_dash_value(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", BASIS1)
        data = run_json(
            capsys,
            ["frft", "--input", path, "--theta-phases", "0.35,0.6", "--eval", "-0.5"],
        )
        assert data["eval"]["point"] == -0.5

    def test_requires_theta(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", BASIS1)
        assert main(["frft", "--input", path]) == 2
        capsys.readouterr()

    def test_rejects_monomial_vector(self, capsys, tmp_path):
        path = write_vector(tmp_path, "m.json", {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]})
        assert main(["frft", "--input", path, "--theta-phases", "0.35,0.6"]) == 2
        capsys.readouterr()

    def test_both_theta_forms_rejected(self, capsys, tmp_path):
        path = write_vector(tmp_path, "v.json", BASIS1)
        code = main(
            ["frft", "--input", path, "--theta-phases", "0.35,0.6", "--theta", "0,0,0,1"]
        )
        assert code == 2
        capsys.readouterr()


# the library call of each kernel type on the library values ``a`` of the
# flags, and per argument flag its command-line tokens, library value and JSON echo
KERNEL_CALLS = {
    "KC": lambda a: kernel_K_C(a["gamma"], a["z"], a["w"]),
    "KBC": lambda a: kernel_K_BC(a["nu"], a["Z"], a["W"]),
    "SBT": lambda a: sbt_kernel_BC(a["sigma"], a["nu"], a["x"], a["Z"]),
    "SBTC": lambda a: sbt_kernel_C(a["sigma"], a["gamma"], a["x"], a["z"]),
    "G": lambda a: generating_G(a["sigma"], a["nu"], a["x"], a["Z"]),
    "FRFT": lambda a: frft_kernel(a["sigma"], a["theta"], a["x"], a["y"]),
    "CK": lambda a: ck_frft_kernel(a["sigma"], a["theta"], a["x"], a["Z"]),
}
_Z = Bicomplex.from_reals(0.3, 0.1, 0.2, 0.5)
_W = Bicomplex.from_reals(0.1, -0.2, 0.3, 0.4)
_THETA = ThetaParam.from_phases(0.9, 1.7)
KERNEL_FLAGS = {
    "sigma": (["--sigma", "1.3"], 1.3, 1.3),
    "nu": (["--nu", "1.7"], 1.7, 1.7),
    "gamma": (["--gamma", "0.7"], 0.7, 0.7),
    "x": (["--x", "0.4"], 0.4, 0.4),
    "y": (["--y", "-0.3"], -0.3, -0.3),
    "z": (["--z", "0.3,-0.1"], 0.3 - 0.1j, [0.3, -0.1]),
    "w": (["--w", "0.2,0.5"], 0.2 + 0.5j, [0.2, 0.5]),
    "Z": (["--Z", "0.3,0.1,0.2,0.5"], _Z, _Z.to_json()),
    "W": (["--W", "0.1,-0.2,0.3,0.4"], _W, _W.to_json()),
    "theta": (["--theta-phases", "0.9,1.7"], _THETA, _THETA.theta.to_json()),
}


class TestKernel:
    def test_classical_kernel(self, capsys):
        data = run_json(
            capsys,
            ["kernel", "--type", "KC", "--gamma", "2.0", "--z", "0.3,0.1", "--w", "0.2,-0.4"],
        )
        want = kernel_K_C(2.0, 0.3 + 0.1j, 0.2 - 0.4j)
        assert_allclose(data["value"][0] + 1j * data["value"][1], want, rtol=1e-15)
        assert data["value"][2:] == [0.0, 0.0]

    def test_bicomplex_kernel_at_zero(self, capsys):
        data = run_json(
            capsys,
            ["kernel", "--type", "KBC", "--nu", "2.0", "--Z", "0.5,0.2,-0.1,0.3", "--W", "0,0,0,0"],
        )
        assert_allclose(data["value"], [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_frft_kernel_needs_theta(self, capsys):
        assert main(["kernel", "--type", "FRFT"]) == 2
        capsys.readouterr()

    def test_frft_kernel_point(self, capsys):
        data = run_json(
            capsys,
            [
                "kernel", "--type", "FRFT",
                "--sigma", "1.0",
                "--theta-phases", f"{math.pi / 2},{math.pi / 2}",
                "--x", "0.3", "--y", "-0.8",
            ],
        )
        want = np.exp(0.5 * 0.8**2 - 0.5 * 0.3**2 - 1j * 0.3 * 0.8) / math.sqrt(2 * math.pi)
        assert_allclose(data["value"][0] + 1j * data["value"][1], want, rtol=1e-12)

    def test_continued_kernel_restriction(self, capsys):
        common = ["--sigma", "1.0", "--theta-phases", "0.9,1.7", "--x", "0.45"]
        a = run_json(
            capsys, ["kernel", "--type", "CK", "--Z", "-1.2,0.0,0.0,0.0"] + common
        )
        b = run_json(
            capsys, ["kernel", "--type", "FRFT", "--y", "-1.2"] + common
        )
        assert_allclose(a["value"], b["value"], rtol=1e-12, atol=1e-15)

    def test_generating_kernel(self, capsys):
        data = run_json(
            capsys, ["kernel", "--type", "G", "--x", "0.7", "--Z", "0,0,0,0"]
        )
        assert_allclose(data["value"], [1.0, 0.0, 0.0, 0.0], atol=0.0)

    @pytest.mark.parametrize("kind", list(_KERNELS))
    def test_every_kernel_type_matches_its_library_call(self, capsys, kind):
        flags = _KERNELS[kind][1]
        argv = ["kernel", "--type", kind]
        for flag in flags:
            argv += KERNEL_FLAGS[flag][0]
        data = run_json(capsys, argv)
        want = KERNEL_CALLS[kind]({flag: value for flag, (_, value, _) in KERNEL_FLAGS.items()})
        assert data.pop("type") == kind
        assert data.pop("value") == as_bicomplex(want).to_json()
        assert data == {flag: KERNEL_FLAGS[flag][2] for flag in flags}

    @pytest.mark.parametrize("kind", ["KBC", "SBT", "SBTC", "G", "CK", "KC"])
    def test_missing_point_flag_is_config_error(self, capsys, kind):
        argv = ["kernel", "--type", kind]
        if kind == "CK":
            argv += ["--theta-phases", "0.9,1.7"]
        assert main(argv) == 2
        assert "is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "Z", ["0.3,abc,0.1,0.2,0.5", "0.3,0.1,0.2", "0.3=0.1,0.2,0.5,0.7", "Z=0.3,x=0.1,0.2,0.5"]
    )
    def test_bad_tokens_are_config_errors(self, capsys, Z):
        assert main(["kernel", "--type", "SBT", "--Z", Z]) == 2
        assert "expects 4 comma-separated floats" in capsys.readouterr().err

    def test_leading_name_tag_tolerated(self, capsys):
        tagged = run_json(capsys, ["kernel", "--type", "SBT", "--Z", "Z=0.3,0.1,0.2,0.5"])
        plain = run_json(capsys, ["kernel", "--type", "SBT", "--Z", "0.3,0.1,0.2,0.5"])
        assert tagged == plain


class TestMehler:
    def test_grid_output(self, capsys):
        code = main(["mehler", "--theta", "0.5", "--grid", "-1:1:0.5"])
        captured = capsys.readouterr()
        assert code == 0
        rows = captured.out.strip().splitlines()
        assert rows[0] == "x,y,error"
        assert len(rows) == 1 + 25
        errs = [float(r.split(",")[2]) for r in rows[1:]]
        assert max(errs) < 1e-10
        assert "max closed-vs-series error" in captured.err

    @pytest.mark.parametrize(
        "flag, text, theta",
        [
            ("--theta", "0.3,0.2,0.1,-0.1", Bicomplex.from_reals(0.3, 0.2, 0.1, -0.1)),
            ("--theta-phases", "0.9,1.7", ThetaParam.from_phases(0.9, 1.7).theta),
        ],
    )
    def test_rows_match_per_point_errors(self, capsys, flag, text, theta):
        code = main(["mehler", flag, text, "--grid", "-1:1:0.5"])
        rows = [[float(v) for v in r.split(",")] for r in capsys.readouterr().out.splitlines()[1:]]
        assert code == 0
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert [r[:2] for r in rows] == [[x, y] for x in grid for y in grid]
        want = [norm(mehler_closed(1.0, theta, x, y) - mehler_series(1.0, theta, x, y)) for x, y, _ in rows]
        assert_allclose([r[2] for r in rows], want, rtol=0.0, atol=1e-14)

    def test_default_grid_with_dash(self, capsys):
        # the default "-2:2:0.5" spelled out on the command line must survive
        # argparse's option detection
        code = main(["mehler", "--theta", "0.5", "--grid", "-2:2:0.5", "--terms", "60"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.strip().splitlines()) == 1 + 81

    def test_bicomplex_theta(self, capsys):
        code = main(["mehler", "--theta", "0.3,0.2,0.1,-0.1", "--grid", "0:1:0.5"])
        assert code == 0
        capsys.readouterr()

    def test_bad_grid(self, capsys):
        assert main(["mehler", "--theta", "0.5", "--grid", "1:2"]) == 2
        assert main(["mehler", "--theta", "0.5", "--grid", "1:0:0.5"]) == 2
        assert main(["mehler", "--theta", "0.5", "--grid", "0:1:-0.5"]) == 2
        capsys.readouterr()

    def test_theta_required(self, capsys):
        assert main(["mehler"]) == 2
        capsys.readouterr()

    def test_out_of_ball_theta(self, capsys):
        assert main(["mehler", "--theta", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ExcludedParameterError: ") and "moduli <= 1" in err, err


# (kind, call): a library call must raise ValueError (ExcludedParameterError
# is one), a CLI command must exit 2
NON_FINITE_THETA = [
    pytest.param("lib", lambda v, path: ThetaParam.from_phases(0.5, float(v)), id="from_phases"),
    pytest.param("lib", lambda v, path: ThetaParam.interior(Bicomplex(complex(float(v), 0.0), 0j)), id="interior"),
    pytest.param("lib", lambda v, path: mehler_closed(1.0, float(v), 0.3, -0.2), id="mehler_closed"),
    pytest.param(
        "cli",
        lambda v, path: main(["frft", "--input", write_vector(path, "v.json", BASIS1), "--theta-phases", f"0.5,{v}"]),
        id="frft",
    ),
    pytest.param("cli", lambda v, path: main(["kernel", "--type", "FRFT", "--theta-phases", f"0.5,{v}"]), id="kernel"),
    pytest.param("cli", lambda v, path: main(["mehler", "--theta", v]), id="mehler"),
    pytest.param("cli", lambda v, path: main(["verify", "--suite", "mehler", "--theta-phases", f"0.5,{v}"]), id="verify"),
]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, call", NON_FINITE_THETA)
def test_non_finite_theta_fails_closed(kind, call, bad, capsys, tmp_path):
    # the parameter is refused before any arithmetic on it, so numpy never warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if kind == "cli":
            assert call(bad, tmp_path) == 2
            assert "error" in capsys.readouterr().err
        else:
            with pytest.raises(ValueError):
                call(bad, tmp_path)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_overflowing_kernel_exits_2_without_warning(capsys):
    # exp(900) overflows; the error comes before any numpy warning could
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["kernel", "--type", "KBC", "--Z", "30,0,0,0", "--W", "30,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: NonFiniteError: "), err


def test_overflowing_component_exits_2_without_warning(capsys, tmp_path):
    # finite components whose channel z1 - i z2 overflows are refused on input
    path = write_vector(tmp_path, "big.json", {"sigma": 1.0, "coeffs": [[1e308, 0.0, 0.0, 1e308]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["transform", "--input", path, "--nu", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: NonFiniteError: "), err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bctransforms", "verify", "--suite", "algebra"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cases passed" in proc.stdout


def _subcommands() -> dict:
    return next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _value_options():
    """(subcommand, action) for every option of every subcommand that takes one value."""
    for command, sub in _subcommands().items():
        for action in sub._actions:
            # a choices option has no dash-leading valid value
            if action.nargs is None and action.option_strings and not action.choices:
                yield pytest.param(command, action, id=f"{command}{action.option_strings[0]}")


@pytest.mark.parametrize("command, action", _value_options())
def test_dash_leading_value_reaches_its_option(command, action):
    # "-1e-3" and "-0.3,..." are not argparse's negative numbers, so argparse
    # would take either for an option string
    token = {int: "-3", float: "-1e-3"}.get(action.type, "-0.3,0.1,0.2,0.5")
    argv = [command]
    for other in _subcommands()[command]._actions:
        if other.required and other is not action:
            argv += [other.option_strings[0], other.choices[0] if other.choices else "x"]
    args = _build_parser().parse_args(_absorb_dash_values(argv + [action.option_strings[0], token]))
    assert getattr(args, action.dest) == (action.type or str)(token)


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--input", "-", "--nu", "2"],  # "-" is stdin
        ["mehler", "--theta", "-h"],
        ["mehler", "--grid", "--", "-1:1:0.5"],
        ["frft", "--eval=-0.5", "-0.3"],  # the option already holds its value
        ["frft", "--theta-phases=-0.3,0.6"],
    ],
    ids=["stdin", "help", "after-double-dash", "holds-value", "equals-form"],
)
def test_tokens_that_are_never_glued(argv):
    assert _absorb_dash_values(argv) == argv


def test_dash_leading_values_through_main(capsys, tmp_path):
    path = write_vector(tmp_path, "v.json", BASIS1)
    data = run_json(capsys, ["frft", "--input", path, "--theta", "-0.6,0.8,0,0"])
    assert_allclose(data["vector"]["coeffs"][1], [-0.6, 0.8, 0.0, 0.0], rtol=1e-15)
    data = run_json(capsys, ["kernel", "--type", "SBT", "--x", "-0.3", "--Z", "-0.3,0.1,0.2,0.5"])
    assert data["x"] == -0.3 and data["Z"] == Bicomplex.from_reals(-0.3, 0.1, 0.2, 0.5).to_json()


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["transform", "--nu", "-1"], "DomainError"),
        (["frft", "--theta-phases", "0,1"], "ExcludedParameterError"),
        (["transform", "--nu", "2", "--eval", "1e300,0,0,0"], "NonFiniteError"),
    ],
    ids=["domain", "excluded", "non-finite"],
)
def test_library_error_prints_its_type(capsys, tmp_path, argv, kind):
    path = write_vector(tmp_path, "v.json", {"sigma": 1.0, "coeffs": [[0.0, 0.0, 0.0, 0.0]] * 2 + [[1.0, 0.0, 0.0, 0.0]]})
    code = main(argv[:1] + ["--input", path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {kind}: "), captured.err


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["frft", "--input", "VEC", "--theta", "0.5"], 2),
        (["kernel", "--type", "FRFT", "--theta", "0.5"], 2),
        (["verify", "--suite", "frft", "--theta", "0.5"], 2),
        (["mehler", "--theta", "0.5", "--grid", "0:1:0.5"], 0),
    ],
    ids=["frft", "kernel", "verify", "mehler"],
)
def test_one_real_theta_only_for_mehler(capsys, tmp_path, argv, expect):
    path = write_vector(tmp_path, "v.json", BASIS1)
    assert main([path if a == "VEC" else a for a in argv]) == expect
    err = capsys.readouterr().err
    if expect:
        assert "not on the unit circle" in err
