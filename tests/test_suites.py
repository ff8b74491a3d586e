import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rkdirac import boson as bo
from rkdirac import dirac as di
from rkdirac import formulas as fo
from rkdirac import suites, transfer as tr
from rkdirac.dyadic import (
    _col_dist,
    DyadicFunction,
    constant,
    from_haar,
    haar_batch,
    haar_function,
    inner,
    l2_dist,
    l2_norm,
    normalized,
    pointwise_mul,
    random_batch,
    random_function,
    refine,
    state_n,
    state_nw,
    sup_norm,
    to_haar,
)
from rkdirac.words import EPS0, EPS1, EPSILON, Word, all_words, index_word, shift, words_up_to


def case_table_error_loop(min_len: int, max_len: int) -> float:
    """Reference: the case table checked one Haar element at a time."""
    worst = 0.0
    for lw in range(min_len, max_len + 1):
        for w in all_words(lw):
            upper, lower = tr.dirac_blocks(tr.Proj(haar_function(w)))
            sw = shift(w)
            for lt in range(1, max_len + 1):
                for wt in all_words(lt):
                    e = haar_function(wt)
                    img_u = upper.apply(e)
                    val_u = inner(img_u, img_u)
                    if wt == w:
                        exp_u = 1.0
                    elif wt == sw:
                        exp_u = 0.5
                    else:
                        exp_u = 0.0
                    img_l = lower.apply(e)
                    val_l = inner(img_l, img_l)
                    if wt == w or (wt.length >= 2 and shift(wt) == w):
                        exp_l = 0.5
                    else:
                        exp_l = 0.0
                    worst = max(worst, abs(val_u - exp_u), abs(val_l - exp_l))
    return worst


class TestCaseTable:
    @pytest.mark.parametrize("lengths", [(2, 4), (1, 3)])
    def test_batched_matches_loop(self, lengths):
        batched = suites._projection_case_table_error(*lengths)
        assert abs(batched - case_table_error_loop(*lengths)) <= 1e-15
        assert batched <= suites.TOL_EXACT

    @pytest.mark.parametrize("keep, swap", [(tr.Koopman, tr.Ruelle), (tr.Ruelle, tr.Koopman)], ids=["upper-twice", "lower-twice"])
    def test_each_block_is_checked(self, monkeypatch, keep, swap):
        # one block compared against the other block's table is off by 1/2 somewhere
        monkeypatch.setattr(swap, "apply_batch", keep.apply_batch)
        assert suites._projection_case_table_error(2, 3) >= 0.5


def random_sup_expression(psi, trials, seed):
    """Reference: the squared expression's sup over seeded random unit phi."""
    d = psi.depth
    lpsi = refine(tr.ruelle_apply(psi), d)
    rng = np.random.default_rng(seed)
    phis = rng.standard_normal((trials, 1 << d))
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    x = phis @ tr.coords(psi, d)
    y = phis @ tr.coords(lpsi, d)
    return float(np.max(fo._image_sq(x, y, inner(tr.koopman_apply(psi), psi))))


class TestExpressionSup:
    @pytest.mark.parametrize("seed", [0, 1, 7, 900])
    def test_exact_sup_matches_the_span_scan_and_bounds_the_random_sampler(self, seed):
        psis = [suites._witness_vector(), constant(1.0)]
        psis += [normalized(random_function(seed + 40, d)) for d in (1, 3, 5)]
        psis += suites._unit_columns(random_batch(seed, 4, 3, "kernel-of-L"))
        for j, psi in enumerate(psis):
            exact = suites._sup_expression(psi)
            assert abs(exact - fo.projection_span_scan(psi) ** 2) <= 1e-9
            assert exact >= random_sup_expression(psi, 10000, seed + j) - 1e-12

    def test_kernel_vectors_reach_one(self):
        psi = normalized(random_function(2, 4, "kernel-of-L"))
        assert suites._sup_expression(psi) == pytest.approx(1.0, abs=1e-12)


class TestSuiteDepth:
    @pytest.mark.parametrize("requested, ran", [(3, 3), (8, 8), (12, 8)])
    def test_each_suite_receives_the_depth_it_runs_at(self, monkeypatch, requested, ran):
        received = {}

        def recording(name, run):
            def wrapped(depth, seed):
                received[name] = depth
                return run(depth, seed)

            return wrapped

        for name, run in list(suites.SUITES.items()):
            monkeypatch.setitem(suites.SUITES, name, recording(name, run))
        report = suites.run_suite("all", depth=requested, seed=0)
        assert report.passed
        reads = {"basis", "transfer", "boson", "fermion", "wold"}
        assert received == {name: ran if name in reads else None for name in suites.SUITES}
        assert {name: r["depth"] for name, r in report.runs.items()} == received

    @pytest.mark.parametrize("requested", [2, 0, -1])
    def test_a_depth_below_the_floor_is_refused_before_any_suite_runs(self, monkeypatch, requested):
        ran = []
        monkeypatch.setitem(suites.SUITES, "adjudication", lambda depth, seed: ran.append(seed) or [])
        with pytest.raises(ValueError, match="at least 3"):
            suites.run_suite("all", depth=requested, seed=0)
        assert ran == []
        # a suite that ignores the depth still runs at any request
        assert suites.run_suite("dirac-condexp", depth=requested, seed=0).passed

    def test_clamp(self):
        assert suites.suite_depth("basis", 12) == suites.DEPTH_CAP == 8
        assert suites.suite_depth("basis", 5) == 5
        assert suites.suite_depth("dirac-mult", 5) is None

    def test_a_depth_past_the_cap_is_refused_by_the_suites_that_read_it(self):
        assert suites.suite_depth("basis", 24) == suites.DEPTH_CAP
        with pytest.raises(ValueError, match=r"depth 25 outside \[0, 24\]"):
            suites.suite_depth("basis", 25)
        assert suites.suite_depth("dirac-mult", 30) is None


def boson_loop(d, seed, n_max, w_max_len):
    """Reference: the boson suite's values checked one chain state at a time."""

    def shift_errors(n, w):
        state = state_nw(n, w)
        errors = {"raise": l2_dist(bo.creation(state), bo.SCALE * state_nw(n + 1, w))}
        if n >= 1:
            errors["lower"] = l2_dist(bo.annihilation(state), bo.SCALE * state_nw(n - 1, w))
        elif w is not None:
            errors["lower"] = l2_dist(bo.annihilation(state), 0.0 * state)
        powered = state_nw(0, w)
        for _ in range(n):
            powered = bo.creation(powered)
        errors["power"] = l2_dist(powered, 2.0 ** (-n / 2.0) * state)
        return errors

    words = [None, EPSILON] + list(words_up_to(w_max_len))
    worst = dict.fromkeys(("ladder-raise", "ladder-lower", "ladder-power", "number-eigenvalue", "number-kernel"), 0.0)
    for w in words:
        for n in range(0, n_max + 1):
            errors = shift_errors(n, w)
            worst["ladder-raise"] = max(worst["ladder-raise"], errors["raise"])
            worst["ladder-lower"] = max(worst["ladder-lower"], errors.get("lower", 0.0))
            worst["ladder-power"] = max(worst["ladder-power"], errors["power"])
    for w in words:
        for n in range(1, n_max + 1):
            st = state_nw(n, w)
            worst["number-eigenvalue"] = max(worst["number-eigenvalue"], l2_dist(bo.number_apply(st), 0.5 * st))
        worst["number-kernel"] = max(worst["number-kernel"], l2_norm(bo.number_apply(state_nw(0, w))))
    f = random_batch(seed, d, 100)
    ccr = _col_dist(bo.CCR_DEFECT.apply_batch(f), 0.5 * tr.KernelProj().apply_batch(f)).max()
    for w in words:
        st0 = state_nw(0, w)
        ccr = max(ccr, l2_dist(bo.ccr_defect(st0), 0.5 * st0))
    worst["ccr-kernel-projection"] = ccr
    worst["ccr-vacuum-scale"] = inner(bo.ccr_defect(state_n(0)), state_n(0))
    return worst


class TestBosonGrid:
    @staticmethod
    def _stub_states(monkeypatch):
        """Record the (n, w) pairs that chain_ladder reaches; stub the ladder
        so a deep grid costs nothing."""
        calls = []

        def ladder(first, last, length, cols=slice(None)):
            indices = [None] if length is None else range(1 << length)[cols]
            for n in range(first, last + 1):
                calls.extend((n, None if i is None else index_word(length, i)) for i in indices)
                yield n, {"raise": np.zeros(len(indices)), "lower": np.zeros(len(indices)), "power": np.zeros(len(indices))}

        monkeypatch.setattr(suites.bo, "chain_ladder", ladder)
        return calls

    def test_every_pair_of_the_grid_is_checked(self, monkeypatch):
        calls = self._stub_states(monkeypatch)
        assert all(c.status != "fail" for c in suites.run_boson(3, 0, n_max=16, w_max_len=2))
        words = [None, EPSILON] + list(words_up_to(2))
        assert sorted(calls, key=repr) == sorted([(n, w) for w in words for n in range(17)], key=repr)
        assert len(calls) == 8 * 17

    @pytest.mark.parametrize("n_max, w_max_len", [(19, 2), (17, 4), (1, 0)])
    def test_a_grid_inside_the_caps_runs_in_full(self, monkeypatch, n_max, w_max_len):
        calls = self._stub_states(monkeypatch)
        suites.run_boson(3, 0, n_max=n_max, w_max_len=w_max_len)
        assert max(n + (0 if w is None else w.length) for n, w in calls) == n_max + w_max_len

    @pytest.mark.parametrize("n_max, w_max_len", [(19, 3), (18, 4), (20, 0), (0, 2), (-1, 3), (4, -1)])
    def test_a_grid_past_a_cap_is_refused_before_any_work(self, monkeypatch, n_max, w_max_len):
        calls = self._stub_states(monkeypatch)
        with pytest.raises(ValueError, match="boson grid"):
            suites.run_boson(3, 0, n_max=n_max, w_max_len=w_max_len)
        assert calls == []

    @pytest.mark.parametrize("n_max, w_max_len", [(4, 3), (6, 2), (1, 0)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_values_equal_the_per_state_loop(self, n_max, w_max_len, seed):
        got = {c.id.split(".", 1)[1]: c.value for c in suites.run_boson(8, seed, n_max=n_max, w_max_len=w_max_len)}
        assert got == boson_loop(8, seed, n_max, w_max_len)

    def test_deep_states_go_through_in_chunks(self, monkeypatch):
        # at n = 12 the raised states of length-4 words have 2**19 rows: one
        # column per chunk; the shallow groups keep every word in one chunk
        widths = []
        chunks = tr.column_chunks

        def recording(cols, width):
            out = list(chunks(cols, width))
            widths.append((cols, width, [c.stop - c.start for c in out]))
            return out

        monkeypatch.setattr(tr, "column_chunks", recording)
        assert all(c.status != "fail" for c in suites.run_boson(3, 0, n_max=12, w_max_len=4))
        for cols, width, sizes in widths:
            assert sum(sizes) == cols
            assert max(sizes) == max(1, min(cols, tr.CHUNK_BYTES // (8 * width)))
        assert (16, 1 << 19, [1] * 16) in widths
        assert (16, 1 << 7, [16]) in widths

    @pytest.mark.parametrize("n_max, w_max_len", [(15, 2), (8, 6)])
    def test_peak_memory_stays_near_the_per_state_loop(self, n_max, w_max_len):
        peaks = []
        for run in (boson_loop, lambda d, seed, n, w: suites.run_boson(d, seed, n_max=n, w_max_len=w)):
            tracemalloc.start()
            try:
                run(3, 0, n_max, w_max_len)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        loop, batched = peaks
        assert batched <= 1.25 * loop, (loop, batched)


# The checks that judge a whole batch of random functions at once.
BATCHED_CHECKS = {
    "transfer": (
        "left-inverse", "adjoint", "koopman-isometry", "condexp-idempotent",
        "kernel-projection-range", "kernel-projection-idempotent", "commutator-identity",
    ),
    "boson": ("ladder-raise", "ladder-lower", "ladder-power", "number-eigenvalue", "ccr-kernel-projection"),
    "fermion": ("car-invariant-subspace", "car-integral"),
    "dirac-condexp": ("fixed-subspace",),
    # families of Dirac norms, solved as stacked normal forms (dirac.commutator_norms)
    "dirac-projections": ("haar-norm", "kernel-norm"),
    "dirac-mult": ("rms-match",),
}


class TestBatchedChecks:
    @staticmethod
    def _last_column_scaled(kernel, factor):
        def wrapped(x):
            y = kernel(x)
            if y.ndim == 2:
                y = y.copy()  # a kernel may return its input
                y[:, -1] *= factor
            return y

        return wrapped

    @pytest.mark.parametrize("suite", sorted(BATCHED_CHECKS))
    def test_a_wrong_last_column_fails_every_batched_check(self, monkeypatch, suite):
        # L and K, each wrong on the last column of a batch only, by different
        # factors (equal factors would keep <K f, g> = <f, L g>).  Condexp, the
        # kernel projection and the ladder specs all run on these two kernels.
        monkeypatch.setattr(tr, "_ruelle", self._last_column_scaled(tr._ruelle, 2.0))
        monkeypatch.setattr(tr, "_koopman", self._last_column_scaled(tr._koopman, 3.0))
        # dirac-projections solves every check's norms in one stacked call,
        # whose last member belongs to one check only: solved check by check
        # here, each check's own last member is the wrong one
        monkeypatch.setattr(suites, "_grouped_norms", lambda groups: {k: di.commutator_norms(ops) for k, ops in groups.items()})
        statuses = {c.id: c.status for c in suites.SUITES[suite](suites.suite_depth(suite, 8), 1)}
        assert [statuses[f"{suite}.{cid}"] for cid in BATCHED_CHECKS[suite]] == ["fail"] * len(BATCHED_CHECKS[suite])


# ---------------------------------------------------------------------------
# The formula checks as they were written before they went batched: one
# DyadicFunction at a time through the one-function formulas.


def _columns(batch):
    return [DyadicFunction(batch.shape[0].bit_length() - 1, col) for col in batch.T]


def basis_loops(d, seed):
    """Reference: basis's parseval, roundtrip, orthonormal, product-nested and
    product-sign values."""
    pairs = [(f, to_haar(f)) for f in _columns(random_batch(seed, d, 20))]
    max_len = min(5, d - 1)
    family = [haar_function(EPS0), haar_function(EPS1)] + [haar_function(w) for w in words_up_to(max_len)]
    mat = np.stack([tr.coords(f, max_len + 1) for f in family])
    worst_signed, plus_fails = 0.0, False
    for u in words_up_to(2):
        for v in words_up_to(min(4, d - 1)):
            if u.length < v.length and (v.bits >> (v.length - u.length)) == u.bits:
                prod = pointwise_mul(haar_function(u), haar_function(v))
                scale = 2.0 ** (u.length / 2)
                sign = -((-1.0) ** v.symbol(u.length))
                worst_signed = max(worst_signed, l2_dist(prod, (sign * scale) * haar_function(v)))
                if l2_dist(prod, scale * haar_function(v)) > 1e-9:
                    plus_fails = True
    return {
        "parseval": max(abs(inner(f, f) - float(h @ h)) for f, h in pairs),
        "roundtrip": max(l2_dist(from_haar(to_haar(f)), f) for f in _columns(random_batch(seed + 100, min(d, 6), 20))),
        "orthonormal": float(np.max(np.abs(mat @ mat.T - np.eye(len(family))))),
        "product-nested": worst_signed,
        "product-sign": "symbol-dependent form matches; constant-positive form fails when the next symbol is 0"
        if plus_fails
        else "both candidate forms match on the tested pairs",
    }


def dirac_mult_loops(seed):
    """Reference: dirac-mult's formula values."""
    worst_match, worst_sandwich, worst_eq = 0.0, -math.inf, 0.0
    batch = random_batch(seed, 5, 60)
    gs = {d_: random_batch(seed + 400 + d_, d_, 15, "independent-of-first-coordinate") for d_ in range(2, 6)}
    for k in range(60):
        d_ = 2 + k % 4
        f = DyadicFunction(d_, batch[: 1 << d_, k])
        numeric = di.commutator_norm(tr.Mult(f)).value
        worst_match = max(worst_match, abs(numeric - fo.backward_rms_norm(f)))
        worst_sandwich = max(worst_sandwich, numeric - fo.forward_sup(f), fo.ruelle_diff_sup(f) - numeric)
        g = DyadicFunction(d_, gs[d_][:, k // 4])
        vals = (fo.forward_sup(g), fo.backward_rms_norm(g), fo.ruelle_diff_sup(g))
        worst_eq = max(worst_eq, max(vals) - min(vals))

    worst_chain, worst_ties = -math.inf, 0.0
    fs = random_batch(seed + 900, 4, 40)
    for k in range(40):
        d_ = 2 + k % 3
        f = DyadicFunction(d_, fs[: 1 << d_, k])
        sups = fo.kolmogorov_mean_chain(f, orders=(-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0, 10.0, math.inf))
        ordered = sorted(sups)
        worst_chain = max(worst_chain, max(sups[a] - sups[b] for a, b in zip(ordered, ordered[1:])))
        worst_ties = max(worst_ties, abs(sups[2.0] - fo.backward_rms_norm(f)), abs(sups[math.inf] - fo.forward_sup(f)))

    ok = True
    for f in _columns(random_batch(seed + 2000, 3, 40)):
        ok = ok and fo.l2_sandwich_check(f * (0.9 / max(sup_norm(f), 1e-12)))["holds"]
    return {
        "rms-match": worst_match,
        "sandwich": worst_sandwich,
        "first-coordinate-equality": worst_eq,
        "kolmogorov-chain": worst_chain,
        "kolmogorov-ties": worst_ties,
        "l2-sandwich": 0.0 if ok else 1.0,
    }


def expression_oracle_loop(seed):
    """Reference: adjudication's expression-oracle value."""
    worst = 0.0
    for phi, psi in zip(_columns(random_batch(seed + 100, 5, 50)), _columns(random_batch(seed + 200, 5, 50))):
        phi, psi = normalized(phi), normalized(psi)
        worst = max(worst, abs(fo.projection_sq_expression(phi, psi) - fo.commutator_image_sq(phi, psi)))
    return worst


@pytest.mark.parametrize("seed", [0, 1, 7, 900])
def test_batched_formula_checks_match_the_per_function_loops(seed):
    want = {f"basis.{k}": v for k, v in basis_loops(8, seed).items()}
    want.update({f"dirac-mult.{k}": v for k, v in dirac_mult_loops(seed).items()})
    want["adjudication.expression-oracle"] = expression_oracle_loop(seed)
    want["dirac-projections.case-table"] = case_table_error_loop(2, 4)
    suites_run = {key.split(".")[0] for key in want}
    got = {c.id: c.value for name in suites_run for c in suites.SUITES[name](suites.suite_depth(name, 8), seed)}
    assert {k: _within_1e_12(got[k], v) for k, v in want.items()} == dict.fromkeys(want, True), (got, want)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 12])
def test_basis_checks_match_the_per_element_loops_at_every_depth(d):
    # depth 3 is the suite's floor; from depth 6 on both word caps are reached
    want = basis_loops(d, 1)
    checks = {c.id.split(".", 1)[1]: c for c in suites.run_basis(d, 1)}
    assert {k: _within_1e_12(checks[k].value, v) for k, v in want.items()} == dict.fromkeys(want, True), (checks, want)
    assert checks["product-nested"].value == want["product-nested"] == 0.0
    assert checks["orthonormal"].description == f"Gram matrix of the Haar family (word length <= {min(5, d - 1)}) is the identity"
    assert {c.status for k, c in checks.items() if k != "product-sign"} == {"pass"}


class TestCorruptedHaarArray:
    @staticmethod
    def _statuses(monkeypatch, slot, factor):
        # every basis check on one Haar array whose column of the given slot is scaled
        def corrupted(slots, depth):
            haar = haar_batch(slots, depth)
            haar[:, list(slots).index(slot)] *= factor
            return haar

        monkeypatch.setattr(suites, "haar_batch", corrupted)
        return {c.id: c.status for c in suites.run_basis(8, 1)}

    def test_a_column_off_by_one_percent_fails_orthonormal(self, monkeypatch):
        assert self._statuses(monkeypatch, 63, 1.01)["basis.orthonormal"] == "fail"

    @pytest.mark.parametrize("slot", [2, 5])
    def test_a_flipped_short_element_fails_the_product_rule(self, monkeypatch, slot):
        # e_0 and e_01: each is the u of some nested pair; a sign flip keeps the Gram
        statuses = self._statuses(monkeypatch, slot, -1.0)
        assert statuses["basis.product-nested"] == "fail" and statuses["basis.orthonormal"] == "pass"

    def test_a_flipped_long_element_passes_the_product_rule(self, monkeypatch):
        # e_0101 is only ever the v of a pair: both sides of the rule flip with it
        assert self._statuses(monkeypatch, 21, -1.0)["basis.product-nested"] == "pass"


# Every check's value of verify --suite all --depth 8 at seeds 0 and 1, as
# the code computed them before the Dirac norms were solved as aligned
# families and the boson ladder was carried from level to level, and at
# seeds 7 and 900, as it computed them before the basis checks went onto one
# Haar array: the four seeds CI runs verify at.
VERIFY_D8_VALUES = json.loads((Path(__file__).parent / "data" / "verify_d8_values.json").read_text())


def _within_1e_12(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(_within_1e_12(got[k], v) for k, v in want.items())
    if isinstance(want, float):
        return isinstance(got, (int, float)) and abs(got - want) <= 1e-12
    return got == want


@pytest.mark.parametrize("seed", sorted(VERIFY_D8_VALUES))
def test_verify_values_stay_within_1e_12_of_the_pinned_ones(seed):
    report = json.loads(json.dumps(suites.run_suite("all", 8, int(seed)).to_json()))
    got = {c["id"]: c["value"] for c in report["checks"]}
    want = VERIFY_D8_VALUES[seed]
    assert got.keys() == want.keys()
    assert {k: (got[k], v) for k, v in want.items() if not _within_1e_12(got[k], v)} == {}


_CONDEXPS = ["(koopman . ruelle)", "(koopman . koopman . ruelle . ruelle)", "(koopman . koopman . koopman . ruelle . ruelle . ruelle)"]


@pytest.mark.parametrize(
    "suite, calls, alone",
    [("dirac-projections", [53], ["mult(depth=3)", "(koopman . ruelle)"]), ("dirac-mult", [61], []), ("dirac-condexp", [3], _CONDEXPS)],
)
def test_each_dirac_suite_solves_its_norms_in_one_call(monkeypatch, suite, calls, alone):
    # the 51 projections of dirac-projections are one family; block-equality's
    # multiplier and K L are each the only operator of their structure, so
    # commutator_norms solves them one by one, as it does the conditional
    # expectations, whose forms hold only the constant 1
    made, single = [], []
    stacked, per_member = di.commutator_norms, di._member_norm
    monkeypatch.setattr(di, "commutator_norms", lambda ops: made.append(len(ops)) or stacked(ops))
    monkeypatch.setattr(di, "_member_norm", lambda a, depth, method: single.append(a) or per_member(a, depth, method))
    suites.SUITES[suite](None, 1)
    assert made == calls
    assert [a.describe() for a in single] == alone


def test_report_json_is_the_asdict_form():
    report = suites.run_suite("all", 8, 1)
    legacy = dict(report.to_json(), checks=[dataclasses.asdict(c) for c in sorted(report.checks, key=lambda c: c.id)])
    assert json.dumps(report.to_json(), indent=2) == json.dumps(legacy, indent=2)


def test_length_one_norms_match_the_per_projection_solves():
    # dirac-projections' length-one values come from one stacked call
    words = {"e0": Word.from_string("0"), "e1": Word.from_string("1"), "eps0": EPS0, "eps1": EPS1}
    want = {name: di.commutator_norm(tr.Proj(haar_function(idx))).value for name, idx in words.items()}
    (check,) = [c for c in suites.SUITES["dirac-projections"](None, 1) if c.id == "dirac-projections.length-one"]
    assert check.value.keys() == want.keys()
    assert all(abs(check.value[k] - round(v, 12)) <= 1e-12 for k, v in want.items()), (check.value, want)


def test_wold_members_restrict_to_every_wold_family():
    full, own = suites.wold_members(8)
    for d in range(1, 9):
        family = full[:: 1 << (8 - d), own <= d] * 2.0 ** (-d / 2.0)
        assert family.shape == (1 << d, 1 << d)
        np.testing.assert_array_equal(family, suites.wold_family(d))
