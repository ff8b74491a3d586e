import builtins
import json
import math
import time
import tracemalloc
import warnings

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
from rkdirac.dirac import block_norms
from rkdirac.suites import SuiteReport, Check, run_suite
from rkdirac.transfer import (
    Adjoint,
    CondExp,
    Compose,
    KernelProj,
    Koopman,
    Mult,
    OperatorSpec,
    Proj,
    Ruelle,
    Sum,
    dirac_blocks,
    koopman_apply,
    ruelle_apply,
)
from rkdirac.words import Word


def w(text):
    return Word.from_string(text)


class TestFunctionIO:
    def test_values_roundtrip(self, tmp_path):
        f = random_function(0, 3)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_to_json(f)))
        assert l2_dist(load_function(json.loads(path.read_text())), f) < 1e-15

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
            Adjoint(Proj(random_function(4, 2, "unit-norm"))),  # as connes prints an adjoint witness
        ]
        f = random_function(3, 3)
        for op in ops:
            reloaded = load_operator(operator_to_json(op))
            assert is_close(op.apply(f), reloaded.apply(f), atol=1e-15)

    def test_an_unsupported_spec_is_not_serialized(self):
        with pytest.raises(ValueError, match="cannot serialize operator"):
            operator_to_json(OperatorSpec())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_operator({"kind": "fourier"})

    def test_haar_proj_eps(self):
        op = load_operator({"kind": "haar_proj", "w": "eps0"})
        assert op.psi.depth == 1

    @pytest.mark.parametrize("text", ["", "eps"])
    def test_haar_proj_refuses_the_empty_word(self, text):
        with pytest.raises(ValueError, match="nonempty words"):
            load_operator({"kind": "haar_proj", "w": text})


class TestNumbersAreNotTruncated:
    @pytest.mark.parametrize("value", [3, 3.0, "3"])
    def test_integral_depth_and_order_load(self, value):
        assert load_function({"depth": value, "values": [0.0] * 8}).depth == 3
        f = random_function(0, 5)
        want = f
        for step in (ruelle_apply,) * 3 + (koopman_apply,) * 3:
            want = step(want)
        np.testing.assert_array_equal(load_operator({"kind": "condexp", "n": value}).apply(f).values, want.values)

    @pytest.mark.parametrize("value", [1.7, True, float("inf")], ids=["1.7", "true", "inf"])
    def test_a_non_integral_depth_is_refused_quoting_it(self, value):
        with pytest.raises(ValueError, match=f"depth must be an integer, got {value!r}"):
            load_function({"depth": value, "values": [1.0, 1.0]})

    @pytest.mark.parametrize("value", [2.9, True], ids=["2.9", "true"])
    def test_a_non_integral_condexp_order_is_refused_quoting_it(self, value):
        with pytest.raises(ValueError, match=f"order n must be an integer, got {value!r}"):
            load_operator({"kind": "condexp", "n": value})


class TestStringsAreNotFileNames:
    """Nested functions and operators are written inline; a string is refused, never opened."""

    @pytest.mark.parametrize(
        "load, value",
        [
            (load_function, "f.json"),
            (load_operator, "op.json"),
            (load_operator, {"kind": "mult", "f": "f.json"}),
            (load_operator, {"kind": "proj", "psi": "f.json"}),
            (load_operator, {"kind": "adjoint", "op": "op.json"}),
            (load_operator, {"kind": "compose", "ops": ["op.json"]}),
            (load_operator, {"kind": "sum", "ops": [{"kind": "ruelle"}, "op.json"]}),
            (load_operator, {"kind": "compose", "ops": {"kind": 1}}),
        ],
        ids=["function", "operator", "mult", "proj", "adjoint", "compose", "sum", "compose-dict"],
    )
    def test_a_string_raises_without_opening_a_file(self, tmp_path, monkeypatch, load, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.json").write_text(json.dumps({"depth": 1, "values": [1.0, 1.0]}))
        (tmp_path / "op.json").write_text(json.dumps({"kind": "ruelle"}))
        (tmp_path / "kind").write_text(json.dumps({"kind": "ruelle"}))

        def refuse(*args, **kwargs):
            raise AssertionError(f"open{args!r} was called")

        monkeypatch.setattr(builtins, "open", refuse)
        with pytest.raises(ValueError, match="inline object"):
            load(value)


MALFORMED = [
    ("psi", {"haar": []}),
    ("psi", {"haar": {"words": []}}),
    ("psi", {"haar": {"eps0": None}}),
    ("psi", {"depth": None, "values": [1, 1]}),
    ("psi", 5),
    ("psi", "psi.json"),
    ("psi", {"depth": 1.7, "values": [1, 1]}),
    ("operator", {"kind": "sum", "ops": 5}),
    ("operator", {"kind": "condexp", "n": None}),
    ("operator", {"kind": "compose", "ops": [1]}),
    ("operator", {"kind": "haar_proj", "w": 5}),
    ("operator", [1]),
    ("operator", {"kind": "sum", "ops": [{"kind": "ruelle"}], "weights": 3}),
    ("operator", {"kind": "compose", "ops": {"kind": 1}}),
    ("operator", {"kind": "mult", "f": "psi.json"}),
    ("operator", {"kind": "condexp", "n": 2.9}),
    ("operator", {"kind": "mult"}),
    ("operator", {"kind": "adjoint", "op": {"kind": "proj"}}),
    ("operator", {"kind": "sum", "ops": [{"kind": "ruelle"}], "weights": [1e400]}),
    ("operator", {"kind": "sum", "ops": [{"kind": "ruelle"}], "weights": [math.nan]}),
    ("family", {"operators": 3}),
    ("family", {}),
]


@pytest.mark.parametrize("role, doc", MALFORMED, ids=[f"{r}-{json.dumps(d)}" for r, d in MALFORMED])
def test_a_malformed_document_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, role, doc):
    # "psi.json" is a valid unit state: the connes eta and xi, and the file the strings name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "psi.json").write_text(json.dumps({"haar": {"words": {"01": 1.0}}}))
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = {
        "psi": ["formulas", "report", "--psi", "doc.json"],
        "operator": ["norm", "--operator", "doc.json"],
        "family": ["connes", "--eta", "psi.json", "--xi", "psi.json", "--family", "doc.json"],
    }[role]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning escapes main as an exception
        code = main(argv)  # an exception escaping main fails the test
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    if role == "family":
        assert "'operators' list" in lines[0]


@pytest.mark.parametrize(
    "doc, kind, field",
    [
        ({"kind": "mult"}, "mult", "f"),
        ({"kind": "proj"}, "proj", "psi"),
        ({"kind": "haar_proj"}, "haar_proj", "w"),
        ({"kind": "condexp"}, "condexp", "n"),
        ({"kind": "adjoint"}, "adjoint", "op"),
        ({"kind": "compose"}, "compose", "ops"),
        ({"kind": "sum", "weights": [1.0]}, "sum", "ops"),
        ({"kind": "compose", "ops": [{"kind": "ruelle"}, {"kind": "mult"}]}, "mult", "f"),
    ],
)
def test_a_missing_field_names_the_kind_and_the_field(doc, kind, field):
    with pytest.raises(ValueError, match=f"^operator kind '{kind}' is missing the field '{field}'$"):
        load_operator(doc)


@pytest.mark.parametrize("weight", [1e400, -1e400, math.nan])
def test_a_non_finite_weight_is_refused_before_any_arithmetic(weight):
    doc = json.loads(json.dumps({"kind": "sum", "ops": [{"kind": "ruelle"}, {"kind": "koopman"}], "weights": [1.0, weight]}))
    with np.errstate(all="raise"), pytest.raises(ValueError, match="sum weight values must be finite"):
        load_operator(doc)


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

    @staticmethod
    def _run_broken_chain(tmp_path, capsys, check_id):
        out_file = tmp_path / "report.json"
        code = main(["verify", "--suite", "dirac-mult", "--out", str(out_file)])
        statuses = {c["id"]: c["status"] for c in json.loads(out_file.read_text())["checks"]}
        assert code == 1
        assert statuses[check_id] == "fail"
        assert [k for k, v in statuses.items() if v == "fail"] == [check_id]
        assert f"FAIL {check_id} " in capsys.readouterr().err

    def test_a_broken_power_mean_chain_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        # the order-10 sups fall below the order-3 ones: a report and a FAIL, not a raise
        from rkdirac import formulas

        real = formulas._power_mean
        monkeypatch.setattr(
            formulas, "_power_mean", lambda d0, d1, order: real(d0, d1, order) * (0.1 if order == 10.0 else 1.0)
        )
        self._run_broken_chain(tmp_path, capsys, "dirac-mult.kolmogorov-chain")

    def test_a_broken_sup_chain_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        # sqrt(L (4 f^2)) = sqrt(2) > |f|_sup = 1 for the depth-one indicator
        from rkdirac import formulas

        real = formulas.pointwise_mul
        monkeypatch.setattr(formulas, "pointwise_mul", lambda f, g: 4.0 * real(f, g))
        self._run_broken_chain(tmp_path, capsys, "dirac-mult.sup-chain-example")

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

    @staticmethod
    def _mixed_spec(tmp_path):
        """A Haar projection plus a small depth-9 multiplier: core depth 11,
        and no exact solve (rank-one pairs next to its terms)."""
        spec = tmp_path / "mixed.json"
        f = {"depth": 9, "values": random_function(1, 9).values.tolist()}
        spec.write_text(json.dumps({"kind": "sum", "ops": [{"kind": "haar_proj", "w": "01"}, {"kind": "mult", "f": f}], "weights": [1.0, 0.05]}))
        return spec

    def test_diagnostics_per_block(self, tmp_path, capsys):
        # K^11 L^11 (core depth 12) has single-shift blocks, solved exactly at
        # every depth.  A Haar projection plus a small multiplier (core depth
        # 11) has rank-one pairs next to its terms and no exact solve: dense
        # at depth 4, Lanczos at its core depth, past the dense cutoff.
        condexp = tmp_path / "condexp.json"
        condexp.write_text(json.dumps({"kind": "condexp", "n": 11}))
        mixed = self._mixed_spec(tmp_path)
        for spec, depth, path, method in (
            (condexp, "4", "exact", "exact-block"),
            (condexp, "12", "exact", "exact-block"),
            (mixed, "4", "dense", "dense"),
            (mixed, "12", "matrix-free", "lanczos"),
        ):
            assert main(["norm", "--operator", str(spec), "--depth", depth]) == 0
            diag = json.loads(capsys.readouterr().out)["diagnostics"]
            for block in ("upper", "lower"):
                assert diag[block]["path"] == path
                assert diag[block]["method"] == method
                assert diag[block]["converged"] is True and diag[block]["fallback"] is False
                assert (diag[block]["iterations"] == 0) == (path != "matrix-free")

    def test_diagnostics_report_residual(self, tmp_path, capsys):
        spec = self._mixed_spec(tmp_path)  # dense at depth 4, Lanczos at 12
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
            full = max(block_norms((upper, lower), depth))
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
        # A multiplier's blocks are solved exactly; a sum of mixed shifts has
        # no exact solve, so it takes the dense path at n = 256, Lanczos above.
        mult, mixed = tmp_path / "mult.json", tmp_path / "mixed.json"
        mult.write_text(json.dumps(operator_to_json(Mult(random_function(2, 6)))))
        mixed.write_text(json.dumps(operator_to_json(Sum((Ruelle(), Mult(random_function(1, 2)))))))
        assert main(["sweep", "--operator", str(mult), "--depths", "8:9"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [(m, it, float(r)) for _, _, it, m, *_, r in rows] == [("exact-diagonal", "0", 0.0)] * 2
        assert main(["sweep", "--operator", str(mixed), "--depths", "8:9"]) == 0
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

    @pytest.mark.parametrize("depths", ["9:7", ","], ids=["reversed", "no-depths"])
    def test_empty_depth_range_is_usage_error(self, tmp_path, capsys, depths):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "identity"}))
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--operator", str(spec), "--depths", depths, "--csv", str(out_csv)]) == 2
        assert "empty depth range" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_a_range_past_the_cap_is_refused_before_it_is_built(self, tmp_path, capsys):
        # range(1, 100000001) would be a list of 10**8 ints, about 3.6 GB
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "identity"}))
        tracemalloc.start()
        try:
            code = main(["sweep", "--operator", str(spec), "--depths", "1:100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "depth 100000000 outside [0, 24]" in capsys.readouterr().err
        assert peak < 1 << 20, peak

    def test_a_listed_depth_past_the_cap_runs_no_solve(self, tmp_path, capsys, monkeypatch):
        import rkdirac.dirac as dirac

        solved = []
        pair_norm = dirac._pair_norm

        def counting(pair, core, depth, at, method):
            solved.append(at)
            return pair_norm(pair, core, depth, at, method)

        monkeypatch.setattr(dirac, "_pair_norm", counting)
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "identity"}))
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--operator", str(spec), "--depths", "5,6", "--csv", str(out_csv)]) == 0
        assert solved == [5, 6]  # the counter sees the sweep's solves
        out_csv.unlink()
        solved.clear()
        assert main(["sweep", "--operator", str(spec), "--depths", "5,99", "--csv", str(out_csv)]) == 2
        assert "depth 99 outside [0, 24]" in capsys.readouterr().err
        assert solved == [] and not out_csv.exists()


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

    @pytest.mark.parametrize(
        "spec, op, kind",
        [({"kind": "condexp", "n": 1}, CondExp(1), "compose"), ({"kind": "kernel_proj"}, KernelProj(), "sum")],
        ids=["condexp", "kernel_proj"],
    )
    def test_a_composed_witness_loads_back_and_applies_identically(self, tmp_path, capsys, spec, op, kind):
        # <K L psi, psi> is 1/2 on the Haar element e_01 and 1 on the constant
        eta, _ = self._states(tmp_path)
        xi = tmp_path / "one.json"
        xi.write_text(json.dumps({"depth": 0, "values": [1.0]}))
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"operators": [spec]}))
        assert main(["connes", "--eta", str(eta), "--xi", str(xi), "--family", str(family)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower_bound"] == pytest.approx(0.5, abs=1e-12)
        assert out["witness_operator"]["kind"] == kind
        reloaded = load_operator(out["witness_operator"])
        assert reloaded.describe() == op.describe()
        x = np.random.default_rng(0).standard_normal((32, 4))
        assert np.array_equal(reloaded.apply_batch(x), op.apply_batch(x))

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

    def test_an_unknown_suite_is_named_without_quotes_around_the_line(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown suite 'nope'; available: ") and err.count("\n") == 1
        assert '"' not in err

    def test_a_depth_past_the_cap_is_refused_before_any_suite_runs(self, capsys, monkeypatch):
        from rkdirac import suites

        ran = []
        monkeypatch.setitem(suites.SUITES, "adjudication", lambda depth, seed: ran.append(seed) or [])
        assert main(["verify", "--depth", "30"]) == 2
        err = capsys.readouterr().err
        assert err == "error: depth 30 outside [0, 24]\n"
        assert ran == []

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suite", "wold"], ["verify", "--suite", "transfer"], ["verify"], ["boson", "verify"]],
        ids=["wold", "transfer", "all", "boson"],
    )
    def test_a_negative_seed_is_refused_before_any_suite_runs(self, capsys, monkeypatch, argv):
        from rkdirac import suites

        monkeypatch.setattr(suites, "random_batch", lambda *a: pytest.fail("work started"))
        monkeypatch.setattr(suites, "chain_batch", lambda *a: pytest.fail("work started"))
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: seed -1 must be >= 0\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_a_boson_tolerance_not_finite_and_non_negative_is_refused_before_any_work(self, capsys, monkeypatch, tol):
        from rkdirac import suites

        monkeypatch.setattr(suites, "random_batch", lambda *a: pytest.fail("work started"))
        assert main(["boson", "verify", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: boson tolerance ") and "must be finite and >= 0" in captured.err

    def test_a_huge_condexp_order_is_refused_before_it_is_built(self, tmp_path, capsys):
        spec = tmp_path / "condexp.json"
        spec.write_text(json.dumps({"kind": "condexp", "n": 10**9}))
        tracemalloc.start()
        try:
            code = main(["norm", "--operator", str(spec)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1 << 20
        assert capsys.readouterr().err == "error: conditional expectation order 1000000000 outside [1, 24]\n"


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
        # the default --depth is the depth both suites run at
        code = main(["boson", "verify"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["depth"] == 8
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
        assert "must have unit norm" in capsys.readouterr().err

    def test_an_over_deep_haar_word_is_refused_before_allocating(self, tmp_path, capsys):
        # a 24-symbol word needs depth 25; the 2**25 coefficient slots are never allocated
        import tracemalloc

        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"haar": {"words": {"01" * 12: 1.0}}}))
        tracemalloc.start()
        try:
            code = main(["formulas", "report", "--psi", str(psi)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "depth 25 outside [0, 24]" in capsys.readouterr().err
        assert peak < 1 << 20, peak

    def test_a_haar_file_and_a_values_file_of_one_psi_report_alike(self, tmp_path, capsys):
        # psi = 0.6 e_eps1 + 0.48 e_1 + 0.64 e_01, written out by hand at depth 3
        s = 2 ** 0.5
        files = {
            "haar": {"haar": {"eps1": 0.6, "words": {"1": 0.48, "01": 0.64}}},
            "values": {"depth": 3, "values": [0.0, 0.0, -1.28, 1.28, 0.12 * s, 0.12 * s, 1.08 * s, 1.08 * s]},
        }
        reports = {}
        for name, obj in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            assert main(["formulas", "report", "--psi", str(path)]) == 0
            reports[name] = json.loads(capsys.readouterr().out)
        haar, values = reports["haar"], reports["values"]
        assert abs(haar["c"] - values["c"]) <= 1e-12
        assert abs(haar["numeric_norm"] - values["numeric_norm"]) <= 1e-12
        for key in ("lower_K", "lower_L"):
            assert abs(haar["coefficient_lower_bounds"][key] - values["coefficient_lower_bounds"][key]) <= 1e-12
