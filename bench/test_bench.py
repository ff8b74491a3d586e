"""Tests of the benchmark itself: span arithmetic, oracles and tracer hygiene.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rkdirac  # noqa: E402
from rkdirac import cli, spectra, transfer  # noqa: E402
from rkdirac.dirac import block_norm, dirac_commutator  # noqa: E402
from rkdirac.dyadic import DyadicFunction  # noqa: E402

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SHIFT = 1e-6


# ---------------------------------------------------------------------------
# Self-time arithmetic.


def test_self_times_on_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0.0],
        ["a", 1.0, 4.0, 0, 0.5],  # 0.5 s of hot calls directly inside a
        ["b", 1.5, 2.5, 1, 0.0],
        ["a", 5.0, 9.0, 0, 0.0],  # a second call of a, nested in root
        ["b", 6.0, 7.0, 3, 0.0],
        ["b", 7.0, 8.5, 3, 0.0],
    ]
    got = tr.self_times(spans)
    assert got["root"] == (1, pytest.approx(10.0 - 3.0 - 4.0))
    assert got["a"] == (2, pytest.approx((3.0 - 1.0 - 0.5) + (4.0 - 2.5)))
    assert got["b"] == (3, pytest.approx(1.0 + 1.0 + 1.5))
    assert sum(s for _, s in got.values()) + 0.5 == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Oracles: each accepts the closed form and rejects a value moved by 1e-6.


def test_verify_oracle_rejects_a_failed_or_missing_check():
    expected = json.loads(wl.VERIFY_CHECKS.read_text())
    assert len(expected) == 65
    report = {"passed": True, "checks": [{"id": k, "status": v} for k, v in expected.items()]}
    assert wl.check_verify(report, expected) is None
    failing = {"passed": False, "checks": [dict(c, status="fail") if i == 0 else c for i, c in enumerate(report["checks"])]}
    assert wl.check_verify(failing, expected) is not None
    assert wl.check_verify({"passed": True, "checks": report["checks"][1:]}, expected) is not None


def test_norm_oracle_rejects_a_moved_value():
    value = wl.projection_commutator_norm(wl.norm_psi(5))
    good = {"value": value, "block_upper": value, "block_lower": value, "depth": wl.NORM_DEPTH}
    assert wl.check_norm(good, value) is None
    assert wl.check_norm(dict(good, value=value + SHIFT), value) is not None
    assert wl.check_norm(dict(good, block_lower=value - SHIFT), value) is not None


def test_sweep_oracle_rejects_a_moved_value_and_a_wrong_plateau_flag():
    value = wl.mult_commutator_norm(wl.sweep_batch(3)[0])
    lo, hi = wl.SWEEP_DEPTHS
    rows = [{"depth": str(d), "value": repr(value), "plateau": str(d > lo)} for d in range(lo, hi + 1)]
    assert wl.check_sweep(rows, value) is None
    moved = [dict(r) for r in rows]
    moved[-1]["value"] = repr(value + SHIFT)
    assert wl.check_sweep(moved, value) is not None
    flag = [dict(r) for r in rows]
    flag[2]["plateau"] = "False"
    assert wl.check_sweep(flag, value) is not None


# ---------------------------------------------------------------------------
# The closed forms agree with the engine on small inputs.


def _unit(rng, depth):
    v = rng.standard_normal(1 << depth)
    return v / np.sqrt(np.mean(v * v))


def test_closed_forms_match_the_engine():
    rng = np.random.default_rng(11)
    f = rng.standard_normal(16)
    assert block_norm(dirac_commutator(transfer.Mult(DyadicFunction(4, f))), 6) == pytest.approx(wl.mult_commutator_norm(f), abs=1e-9)
    for psi in (_unit(rng, 4), wl.norm_psi(3)):
        depth = int(psi.size).bit_length() - 1
        engine = block_norm(dirac_commutator(transfer.Proj(DyadicFunction(depth, psi))), depth + 2)
        assert engine == pytest.approx(wl.projection_commutator_norm(psi), abs=1e-9)


def test_norm_psi_fixes_the_commutator_spectrum_shape():
    for seed in range(6):
        psi = wl.norm_psi(seed)
        assert np.mean(psi * psi) == pytest.approx(1.0, abs=1e-12)
        l_psi = psi.reshape(2, -1).mean(axis=0)
        assert np.mean(l_psi * l_psi) == pytest.approx(0.5, abs=1e-12)
        assert 0.2 <= wl.koopman_overlap(psi) <= 0.36


def test_sweep_batch_is_seeded():
    a, b = wl.sweep_batch(4), wl.sweep_batch(4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, wl.sweep_batch(5)))


# ---------------------------------------------------------------------------
# Tracer hygiene.


def _small_norm_op(tmp_path: Path):
    psi = _unit(np.random.default_rng(2), 3)
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"kind": "proj", "psi": {"depth": 3, "values": psi.tolist()}}))
    return ["norm", "--operator", str(op), "--depth", "5", "--out", str(tmp_path / "out.json")]


def test_traced_run_restores_every_wrapped_name(tmp_path):
    originals = (transfer.assemble, spectra.assemble, DyadicFunction.__init__, rkdirac.suites.SUITES["basis"])
    tracer = tr.Tracer()
    with tracer:
        assert transfer.assemble is not originals[0]
        assert spectra.assemble is not originals[1]
        assert cli.main(_small_norm_op(tmp_path)) == 0
    assert tracer.missing == []
    assert (transfer.assemble, spectra.assemble, DyadicFunction.__init__, rkdirac.suites.SUITES["basis"]) == originals
    assert transfer.assemble is originals[0] and spectra.assemble is originals[1]
    assert DyadicFunction.__init__ is originals[2]
    totals = tr.TraceTotals()
    totals.add_op(tracer, sum(e - s for _, s, e, p, _ in tracer.spans if p < 0))
    metrics = totals.metrics(tracer.absent(), 0.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["transfer.assemble.calls"] == 2
    assert metrics["spectra.dense.calls"] == 2
    assert metrics["dyadic.construct.calls"] > 0
    assert metrics["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-9)


def test_missing_boundary_is_reported_and_its_metrics_left_out(tmp_path):
    renamed = tr.Boundary("spectra.norm", "rkdirac.spectra", "operator_norm_renamed", tr._NORM_METRICS)
    boundaries = [b for b in tr.BOUNDARIES if b.qualname != "operator_norm"] + [renamed]
    tracer = tr.Tracer(boundaries)
    with tracer:
        assert cli.main(_small_norm_op(tmp_path)) == 0
    assert tracer.missing == ["rkdirac.spectra.operator_norm_renamed"]
    totals = tr.TraceTotals()
    totals.add_op(tracer, 1.0)
    metrics = totals.metrics(tracer.absent(), 0.0)
    assert not any(name in metrics for name in tr._NORM_METRICS)
    assert metrics["transfer.assemble.calls"] == 2


def test_reference_loop_is_timed_around_each_call_and_outside_the_op(tmp_path):
    argv = _small_norm_op(tmp_path)
    case = wl.Case("two-calls", [argv, argv], [tmp_path / "out.json"], lambda codes: None)
    refs = []
    wall, _, reason = worker.run_op(case, refs)
    assert reason is None
    assert len(refs) == 3 and all(r > 0 for r in refs)
    assert worker.run_op(case)[2] is None
