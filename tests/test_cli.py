import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bctransforms import Bicomplex, ThetaParam, kernel_K_C, mehler_closed
from bctransforms.cli import main

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
        capsys.readouterr()


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bctransforms", "verify", "--suite", "algebra"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cases passed" in proc.stdout
