import json
import math
import time

import numpy as np
import pytest

from rkdirac.cli import main
from rkdirac.io import (
    function_to_json,
    load_function,
    load_operator,
    operator_to_json,
)
from rkdirac.dyadic import haar_function, is_close, l2_dist, random_function
from rkdirac.spectra import block_pair_norm
from rkdirac.suites import SuiteReport, Check, run_suite
from rkdirac.transfer import CondExp, Compose, Koopman, Mult, Proj, Sum, dirac_blocks
from rkdirac.words import Word


def w(text):
    return Word.from_string(text)


class TestFunctionIO:
    def test_values_roundtrip(self, tmp_path):
        f = random_function(0, 3)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_to_json(f)))
        assert l2_dist(load_function(path), f) < 1e-15

    def test_haar_form(self):
        f = load_function({"haar": {"eps0": 0.0, "eps1": 0.0, "words": {"01": 1.0}}})
        assert is_close(f, haar_function(w("01")), atol=1e-15)

    def test_bad_object_rejected(self):
        with pytest.raises(ValueError):
            load_function({"something": 1})


class TestOperatorIO:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "ruelle"},
            {"kind": "koopman"},
            {"kind": "identity"},
            {"kind": "condexp", "n": 2},
            {"kind": "kernel_proj"},
            {"kind": "haar_proj", "w": "011"},
            {"kind": "mult", "f": {"depth": 1, "values": [1.0, 0.0]}},
            {"kind": "adjoint", "op": {"kind": "koopman"}},
            {"kind": "compose", "ops": [{"kind": "koopman"}, {"kind": "ruelle"}]},
            {
                "kind": "sum",
                "ops": [{"kind": "condexp", "n": 1}, {"kind": "kernel_proj"}],
                "weights": [1.0, -1.0],
            },
        ],
    )
    def test_kinds_load(self, spec):
        op = load_operator(spec)
        assert op is not None

    def test_roundtrip_through_json(self):
        ops = [
            Koopman(),
            CondExp(3),
            Mult(random_function(1, 2)),
            Proj(random_function(2, 3, "unit-norm")),
            Compose(()),
            Sum((Koopman(),), (2.0,)),
        ]
        f = random_function(3, 3)
        for op in ops:
            reloaded = load_operator(operator_to_json(op))
            assert is_close(op.apply(f), reloaded.apply(f), atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_operator({"kind": "fourier"})

    def test_haar_proj_eps(self):
        op = load_operator({"kind": "haar_proj", "w": "eps0"})
        assert op.psi.depth == 1


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code = main(["verify", "--suite", "wold", "--depth", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True
        assert all("ref" in c for c in out["checks"])

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_tol_is_not_an_option(self, capsys):
        # the acceptance tolerances are fixed; boson verify --tol stays
        assert main(["verify", "--suite", "wold", "--tol", "1e-3"]) == 2

    def test_report_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["verify", "--suite", "boson", "--depth", "6", "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["suite"] == "boson"
        ids = [c["id"] for c in data["checks"]]
        assert ids == sorted(ids)  # canonical order

    def test_failing_check_sets_exit_code(self):
        report = SuiteReport(
            suite="synthetic",
            checks=[Check("synthetic.x", "forced failure", "plumbing", "fail", 1.0, 0.0, 0.0)],
            seed=0,
            depth=1,
            wall_time=0.0,
        )
        assert not report.passed
        assert len(report.failures) == 1

    def test_reports_the_depth_each_suite_ran_at(self, capsys):
        code = main(["verify", "--suite", "all", "--depth", "12"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["depth"] == 12  # as requested
        ran = out["suites"]
        assert list(ran) == sorted(ran) and len(ran) == 9
        assert ran["basis"]["depth"] == 8
        assert ran["dirac-mult"]["depth"] is None
        assert {k for k, v in ran.items() if v["depth"] == 8} == {"basis", "transfer", "boson", "fermion", "wold"}
        assert sum(v["wall_time"] for v in ran.values()) <= out["wall_time"]

    def test_shallow_request_is_reported_as_run(self, capsys):
        assert main(["verify", "--suite", "wold", "--depth", "5"]) == 0
        ran = json.loads(capsys.readouterr().out)["suites"]
        assert list(ran) == ["wold"] and ran["wold"]["depth"] == 5

    def test_report_only_never_fails(self):
        report = run_suite("adjudication", depth=6, seed=0)
        assert all(c.status != "fail" for c in report.checks)
        assert any(c.status == "report-only" for c in report.checks)

    def test_full_suite_passes_within_budget(self):
        report = run_suite("all", depth=8, seed=0)
        assert report.passed
        assert report.wall_time < 60.0
        suites_seen = {c.id.split(".")[0] for c in report.checks}
        assert suites_seen == {
            "basis",
            "transfer",
            "boson",
            "fermion",
            "dirac-projections",
            "dirac-mult",
            "dirac-condexp",
            "adjudication",
            "wold",
        }


def _overflowing_multiplier(tmp_path):
    """A multiplier near 1e160: its blocks are finite, their Gram operator is not."""
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps(operator_to_json(Mult(random_function(0, 6) * 1e160))))
    return str(spec)


@pytest.mark.parametrize(
    "argv",
    [["norm", "--depth", "9"], ["sweep", "--depths", "7:8"]],
    ids=["norm", "sweep"],
)
def test_overflowing_gram_exits_2_naming_finiteness(tmp_path, capsys, argv):
    spec = _overflowing_multiplier(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([argv[0], "--operator", spec] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert "finite" in err and "converge" not in err


class TestNormCommand:
    def test_haar_projection(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "haar_proj", "w": "011"}))
        code = main(["norm", "--operator", str(spec), "--depth", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(1.0, abs=1e-9)
        assert out["block_upper"] == pytest.approx(out["block_lower"], abs=1e-8)
        assert out["depth"] == 5

    def test_diagnostics_per_block(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "condexp", "n": 11}))  # core depth 12
        for depth, path in (("4", "dense"), ("12", "matrix-free")):
            assert main(["norm", "--operator", str(spec), "--depth", depth]) == 0
            diag = json.loads(capsys.readouterr().out)["diagnostics"]
            for block in ("upper", "lower"):
                assert diag[block]["path"] == path
                assert diag[block]["method"] == ("dense" if path == "dense" else "lanczos")
                assert diag[block]["converged"] is True and diag[block]["fallback"] is False
                assert (diag[block]["iterations"] == 0) == (path == "dense")

    def test_diagnostics_report_residual(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "condexp", "n": 11}))  # core depth 12
        for depth in ("4", "12"):
            assert main(["norm", "--operator", str(spec), "--depth", depth]) == 0
            diag = json.loads(capsys.readouterr().out)["diagnostics"]
            for block in ("upper", "lower"):
                residual = diag[block]["residual"]
                if depth == "4":
                    assert residual == 0.0
                else:
                    assert 0.0 <= residual <= 1e-12

    def test_power_method_is_usage_error(self, tmp_path):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "condexp", "n": 1}))
        assert main(["norm", "--operator", str(spec), "--depth", "4", "--method", "power"]) == 2

    def test_condexp(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "condexp", "n": 2}))
        code = main(["norm", "--operator", str(spec), "--depth", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(1.0, abs=1e-9)

    def test_constant_multiplier_is_zero(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "mult", "f": {"depth": 0, "values": [4.0]}}))
        code = main(["norm", "--operator", str(spec), "--depth", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(0.0, abs=1e-12)

    def test_envelope_format(self, tmp_path, capsys):
        # norm reads a plain operator file, and an envelope is not an operator kind
        spec = tmp_path / "op.json"
        spec.write_text(
            json.dumps({"dirac_norm": {"operator": {"kind": "condexp", "n": 1}, "depth": 4}})
        )
        code = main(["norm", "--operator", str(spec), "--depth", "6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: unknown operator kind")

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text("{not json")
        assert main(["norm", "--operator", str(spec), "--depth", "3"]) == 2

    def test_reports_core_depth_and_computed_at(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps(operator_to_json(Mult(random_function(0, 6)))))
        outs = {}
        for argv in ([], ["--depth", "7"], ["--depth", "20"], ["--depth", "5"]):
            assert main(["norm", "--operator", str(spec)] + argv) == 0
            out = json.loads(capsys.readouterr().out)
            outs[out["depth"]] = out
            assert out["core_depth"] == 7 and out["computed_at"] == min(out["depth"], 7)
        assert sorted(outs) == [5, 7, 20]
        assert outs[20]["value"] == outs[7]["value"]
        assert outs[5]["value"] < outs[7]["value"]

    def test_mixed_shifts_need_a_depth(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps(operator_to_json(Sum((Koopman(), Mult(random_function(0, 2)))))))
        assert main(["norm", "--operator", str(spec)]) == 2
        assert "pass an explicit depth" in capsys.readouterr().err
        assert main(["norm", "--operator", str(spec), "--depth", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["core_depth"] is None and out["computed_at"] == 4

    @pytest.mark.parametrize("kind", ["mult", "proj"])
    def test_values_match_full_depth_solves(self, tmp_path, capsys, kind):
        op = Mult(random_function(0, 6)) if kind == "mult" else Proj(_haar_pairs_psi())
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps(operator_to_json(op)))
        upper, lower = dirac_blocks(op)
        for depth in range(7, 15):
            assert main(["norm", "--operator", str(spec), "--depth", str(depth)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["computed_at"] == 7
            full, _, _ = block_pair_norm(upper, lower, depth)
            assert abs(out["value"] - full) <= 1e-12 * full


def _haar_pairs_psi():
    """A unit depth-6 vector of Haar pairs x e_u + y e_bu, as in the norm-d12 benchmark."""
    x, y = math.cos(0.7), math.sin(0.7)
    psi = 0.6 * (x * haar_function(w("0101")) + y * haar_function(w("10101")))
    return psi + 0.8 * (x * haar_function(w("1110")) + y * haar_function(w("01110")))


class TestSweepCommand:
    def test_csv_shape_and_plateau(self, tmp_path):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "haar_proj", "w": "01"}))
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--operator", str(spec), "--depths", "3:6", "--csv", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "depth,value,iterations,method,converged,plateau,residual"
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-9)
        assert last[5] == "True"

    def test_residual_column_says_how_each_value_was_obtained(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps(operator_to_json(Mult(random_function(2, 6)))))
        assert main(["sweep", "--operator", str(spec), "--depths", "8:9"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        (d8, _, it8, m8, *_, r8), (d9, v9, it9, m9, *_, r9) = rows
        assert (m8, it8, float(r8)) == ("dense", "0", 0.0)
        assert m9 == "lanczos" and 0.0 < float(r9) <= 1e-12 * float(v9) * max(1.0, float(v9))

    def test_comma_list(self, tmp_path, capsys):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "identity"}))
        code = main(["sweep", "--operator", str(spec), "--depths", "2,4"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and len(lines) == 3


class TestConnesCommand:
    def _states(self, tmp_path):
        eta = tmp_path / "eta.json"
        xi = tmp_path / "xi.json"
        eta.write_text(json.dumps({"haar": {"words": {"01": 1.0}}}))
        xi.write_text(json.dumps({"haar": {"words": {"10": 1.0}}}))
        return eta, xi

    def test_identical_states_give_zero(self, tmp_path, capsys):
        eta, _ = self._states(tmp_path)
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"operators": [{"kind": "haar_proj", "w": "01"}]}))
        code = main(["connes", "--eta", str(eta), "--xi", str(eta), "--family", str(family)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["lower_bound"] == 0.0

    def test_projection_family_witness(self, tmp_path, capsys):
        eta, xi = self._states(tmp_path)
        family = tmp_path / "family.json"
        family.write_text(
            json.dumps(
                {
                    "operators": [
                        {"kind": "haar_proj", "w": "01"},
                        {"kind": "haar_proj", "w": "10"},
                        {"kind": "condexp", "n": 1},
                    ]
                }
            )
        )
        code = main(["connes", "--eta", str(eta), "--xi", str(xi), "--family", str(family)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["lower_bound"] == pytest.approx(1.0, abs=1e-12)
        assert out["witness_operator"]["kind"] == "proj"

    def test_a_family_depth_below_the_core_is_ignored(self, tmp_path, capsys):
        eta, xi = self._states(tmp_path)
        family = tmp_path / "family.json"
        # haar_proj "01" has core depth 4
        family.write_text(json.dumps({"operators": [{"kind": "haar_proj", "w": "01"}], "depth": 3}))
        code = main(["connes", "--eta", str(eta), "--xi", str(xi), "--family", str(family)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["lower_bound"] == pytest.approx(1.0, abs=1e-12)

    def test_uncertified_family_member_is_rejected(self, tmp_path, capsys):
        eta, xi = self._states(tmp_path)
        family = tmp_path / "family.json"
        family.write_text(
            json.dumps(
                {"operators": [{"kind": "mult", "f": {"depth": 1, "values": [3.0, 0.0]}}]}
            )
        )
        code = main(["connes", "--eta", str(eta), "--xi", str(xi), "--family", str(family)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not certified" in err


    def test_a_family_depth_key_changes_nothing(self, tmp_path, capsys):
        eta, xi = self._states(tmp_path)
        operators = [{"kind": "haar_proj", "w": "01"}, {"kind": "haar_proj", "w": "011"}, {"kind": "condexp", "n": 2}]
        outputs = []
        for extra in ({}, {"depth": 1}, {"depth": 9}):
            family = tmp_path / "family.json"
            family.write_text(json.dumps({"operators": operators, **extra}))
            out = tmp_path / "connes.json"
            assert main(["connes", "--eta", str(eta), "--xi", str(xi), "--family", str(family), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["lower_bound"] == pytest.approx(1.0, abs=1e-12)

    def test_depth_is_not_an_option(self, tmp_path, capsys):
        eta, xi = self._states(tmp_path)
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"operators": [{"kind": "haar_proj", "w": "01"}]}))
        assert main(["connes", "--eta", str(eta), "--xi", str(xi), "--family", str(family), "--depth", "4"]) == 2

    def test_member_without_a_core_depth_is_rejected(self, tmp_path, capsys):
        eta, xi = self._states(tmp_path)
        family = tmp_path / "family.json"
        mixed = {"kind": "sum", "ops": [{"kind": "ruelle"}, {"kind": "mult", "f": {"depth": 1, "values": [1.0, 0.0]}}],
                 "weights": [0.1, 0.1]}
        family.write_text(json.dumps({"operators": [mixed], "depth": 4}))
        code = main(["connes", "--eta", str(eta), "--xi", str(xi), "--family", str(family)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "core depth" in err


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--depth", "2"],
            ["verify", "--suite", "transfer", "--depth", "1"],
            ["verify", "--suite", "basis", "--depth", "0"],
            ["boson", "verify", "--depth", "-1"],
            ["boson", "verify", "--n-max", "30"],
            ["verify", "--suite", "nope"],
        ],
        ids=["verify-2", "transfer-1", "basis-0", "boson-depth", "boson-n-max", "unknown-suite"],
    )
    def test_bad_requests_are_typed_usage_errors(self, capsys, argv):
        code = main(argv)  # an uncaught exception would propagate out of main
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""


class TestParserReuse:
    def test_calls_in_one_process_are_independent(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "haar_proj", "w": "01"}))
        assert main(["verify", "--suite", "wold", "--depth", "5", "--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        # neither --out nor --depth of the first call is carried over
        assert main(["norm", "--operator", str(spec)]) == 0
        norm = json.loads(capsys.readouterr().out)
        assert (norm["depth"], norm["computed_at"]) == (4, 4)
        assert main(["verify", "--suite", "wold"]) == 0
        verify = json.loads(capsys.readouterr().out)
        assert verify["depth"] == 8 and verify["suites"]["wold"]["depth"] == 8
        assert json.loads(report.read_text())["depth"] == 5
        # a usage error after successful calls is still one
        assert main(["norm"]) == 2
        assert main(["connes", "--eta", str(spec)]) == 2

    def test_the_parser_is_built_once(self):
        from rkdirac import cli

        assert cli._parser() is cli._parser()


class TestBosonVerifyCommand:
    @pytest.mark.parametrize(
        "argv", [["--n-max", "19", "--w-max-len", "3"], ["--n-max", "20"], ["--n-max", "-1"]], ids=["sum", "level", "negative"]
    )
    def test_a_grid_past_a_cap_exits_2_at_once(self, capsys, argv):
        t0 = time.perf_counter()
        code = main(["boson", "verify"] + argv)
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error:")
        assert elapsed < 1.0

    def test_passes(self, capsys):
        code = main(["boson", "verify", "--n-max", "3", "--w-max-len", "2", "--depth", "8"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True
        ids = {c["id"] for c in out["checks"]}
        assert any(i.startswith("boson.") for i in ids)
        assert any(i.startswith("fermion.") for i in ids)

    def test_reports_the_depth_each_suite_ran_at(self, capsys):
        # the default --depth is 10; both suites run at most at depth 8
        code = main(["boson", "verify"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["depth"] == 10
        assert {k: v["depth"] for k, v in out["suites"].items()} == {"boson": 8, "fermion": 8}
        assert all(v["wall_time"] >= 0.0 for v in out["suites"].values())


class TestFormulasReportCommand:
    def test_witness_report(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        psi.write_text(
            json.dumps(
                {"haar": {"words": {"01": 2 ** -0.5, "001": -0.5, "101": -0.5}}}
            )
        )
        code = main(["formulas", "report", "--psi", str(psi)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["c"] == pytest.approx(-0.5, abs=1e-12)
        assert out["numeric_norm"] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
        assert out["surface_scan_max"] == pytest.approx(9 / 8, abs=1e-6)
        assert out["verdict"] == "sqrt_one_minus_c_sq"

    def test_reports_the_depth_it_computed_at(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps(function_to_json(_haar_pairs_psi())))
        assert main(["formulas", "report", "--psi", str(psi), "--depth", "12"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["depth"], out["computed_at"]) == (12, 7)

    def test_non_unit_state_rejected(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"depth": 1, "values": [2.0, 2.0]}))
        assert main(["formulas", "report", "--psi", str(psi)]) == 2

    def test_norm_1_1_rejected(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"depth": 0, "values": [1.1]}))
        assert main(["formulas", "report", "--psi", str(psi)]) == 2
        assert "unit norm" in capsys.readouterr().err
