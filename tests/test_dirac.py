import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkdirac.dirac import (
    CERTIFY_TOL,
    VectorState,
    block_norm,
    block_norms,
    commutator_norm,
    commutator_norms,
    connes_lower_bound,
    core_depth,
    dirac_commutator,
    lipschitz_certify,
)
from rkdirac.dyadic import (
    INV_SQRT2,
    constant,
    haar_function,
    indicator,
    inner,
    is_close,
    normalized,
    random_function,
    state_nw,
)
from rkdirac.formulas import koopman_overlap
from rkdirac.spectra import depth_sweep
from rkdirac.suites import run_suite
from rkdirac.transfer import (
    Adjoint,
    Compose,
    CondExp,
    KernelProj,
    Koopman,
    Mult,
    Proj,
    Ruelle,
    Sum,
    identity,
    koopman_apply,
    scaled,
)
from rkdirac.words import EPSILON, Word, all_words, prepend, shift, words_up_to
from test_transfer import _specs


def w(text):
    return Word.from_string(text)


def _near_the_cap():
    """Compositions of two to four factors, each K^a or L^b (6 <= a, b <= 12),
    a multiplier or projection of depth up to 12, or a sum of two of these:
    two factors can reach the depth cap of 24."""
    seeds, depths, powers = st.integers(0, 10**6), st.integers(0, 12), st.integers(6, 12)
    leaves = st.one_of(
        powers.map(lambda a: Compose((Koopman(),) * a)),
        powers.map(lambda b: Compose((Ruelle(),) * b)),
        st.tuples(seeds, depths).map(lambda a: Mult(random_function(a[0], a[1]))),
        st.tuples(seeds, depths).map(lambda a: Proj(random_function(a[0], a[1], "unit-norm"))),
    )
    factors = st.one_of(leaves, st.lists(leaves, min_size=2, max_size=2).map(Sum))
    return st.lists(factors, min_size=2, max_size=4).map(Compose)


def haar_projection_closed_forms(word, phi):
    """Closed forms of the two commutator blocks of a Haar projection on basis input.

    For a word w of length at least two,
      (K e^_w - e^_w K)(phi) = 2**-0.5 [ <e_w, phi> (e_0w + e_1w) - <e_sw, phi> e_w ]
      (L e^_w - e^_w L)(phi) = 2**-0.5 [ <e_w, phi> e_sw - <e_0w + e_1w, phi> e_w ]
    with sw the shifted word: an independent oracle for the blocks.
    """
    e_w = haar_function(word)
    e_sw = haar_function(shift(word))
    e_0w = haar_function(prepend(0, word))
    e_1w = haar_function(prepend(1, word))
    upper = INV_SQRT2 * (inner(e_w, phi) * (e_0w + e_1w) - inner(e_sw, phi) * e_w)
    lower = INV_SQRT2 * (inner(e_w, phi) * e_sw - inner(e_0w + e_1w, phi) * e_w)
    return upper, lower


def _shifted_sums():
    """A multiplier or projection plus a projection moved by Koopman or Ruelle steps."""
    seeds = st.integers(0, 10**6)
    base = st.one_of(
        st.tuples(seeds, st.integers(0, 2)).map(lambda a: Mult(random_function(a[0], a[1]))),
        st.tuples(seeds, st.integers(1, 2)).map(lambda a: Proj(random_function(a[0], a[1], "unit-norm"))),
    )
    moved = st.builds(
        _moved_projection, seeds, st.integers(1, 2), st.sampled_from([Koopman(), Ruelle()]), st.integers(1, 2), st.booleans()
    )
    weights = st.floats(-2.0, 2.0, allow_nan=False)
    return st.builds(lambda x, y, c: Sum((x, y), (1.0, c)), base, moved, weights)


def _moved_projection(seed, k, step, times, after):
    """step^times after (or before) the projection onto a unit depth-k vector."""
    p = Proj(random_function(seed, k, "unit-norm"))
    steps = (step,) * times
    return Compose(steps + (p,) if after else (p,) + steps)


class TestDiracCommutator:
    def test_identity_gives_zero_blocks(self):
        b = dirac_commutator(identity())
        assert block_norm(b, 4) < 1e-12

    def test_constant_multiplier_gives_zero_blocks(self):
        b = dirac_commutator(Mult(constant(3.0)))
        assert block_norm(b, 4) < 1e-12

    def test_haar_projection_blocks_match_closed_forms(self):
        word = w("011")
        upper, lower = dirac_commutator(Proj(haar_function(word)))
        probes = [haar_function(u) for u in words_up_to(4)]
        probes.append(random_function(0, 5))
        for phi in probes:
            upper_expected, lower_expected = haar_projection_closed_forms(word, phi)
            assert is_close(upper.apply(phi), upper_expected, atol=1e-12)
            assert is_close(lower.apply(phi), lower_expected, atol=1e-12)


class TestBlockNorm:
    def test_haar_projection_norm_one(self):
        for word in (w("01"), w("10"), w("110")):
            b = dirac_commutator(Proj(haar_function(word)))
            assert block_norm(b, word.length + 2) == pytest.approx(1.0, abs=1e-9)

    def test_cond_expectation_norm_one(self):
        for n in (1, 2, 3):
            b = dirac_commutator(CondExp(n))
            assert block_norm(b, n + 3) == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator(self):
        b = dirac_commutator(Sum((), ()))
        assert block_norm(b, 3) == 0.0

    def test_monotone_in_depth(self):
        psi = random_function(5, 4, "unit-norm")
        b = dirac_commutator(Proj(psi))
        values = [block_norm(b, d) for d in range(2, 7)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-10


class TestSelfAdjointEquality:
    # the two blocks of [D, pi(A)] share their norm when A is self-adjoint
    def test_haar_projection(self):
        nu, nl = block_norms(dirac_commutator(Proj(haar_function(w("01")))), 5)
        assert nu == pytest.approx(1.0, abs=1e-9)
        assert nl == pytest.approx(1.0, abs=1e-9)

    def test_random_multiplier(self):
        nu, nl = block_norms(dirac_commutator(Mult(random_function(8, 4))), 8)
        assert nu == pytest.approx(nl, rel=1e-8)

    def test_cond_expectation(self):
        nu, nl = block_norms(dirac_commutator(CondExp(1)), 4)
        assert (nu, nl) == (pytest.approx(1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))

    def test_koopman_blocks_differ(self):
        # K is not self-adjoint: [K, K] = 0, while L K - K L is the kernel projection
        nu, nl = block_norms(dirac_commutator(Koopman()), 4)
        assert nu == 0.0
        assert nl == pytest.approx(1.0, abs=1e-9)


class TestSeminormBehavior:
    def test_absolute_homogeneity(self):
        a = Proj(haar_function(w("01")))
        base = block_norm(dirac_commutator(a), 5)
        scaled_norm = block_norm(dirac_commutator(scaled(a, -2.5)), 5)
        assert scaled_norm == pytest.approx(2.5 * base, abs=1e-9)

    def test_triangle_inequality(self):
        a = Proj(haar_function(w("01")))
        b = CondExp(1)
        na = block_norm(dirac_commutator(a), 5)
        nb = block_norm(dirac_commutator(b), 5)
        nab = block_norm(dirac_commutator(Sum((a, b), (1.0, 1.0))), 5)
        assert nab <= na + nb + 1e-9


class TestLipschitzCertify:
    def test_haar_projection_certified(self):
        cert = lipschitz_certify(Proj(haar_function(w("011"))))
        assert cert["certified"]
        assert cert["value"] == pytest.approx(1.0, abs=1e-9)

    def test_half_scaled_operator_certified(self):
        # any operator of norm at most 1/2 has commutator norm at most 1
        a = scaled(Proj(random_function(2, 4, "unit-norm")), 0.5)
        cert = lipschitz_certify(a)
        assert cert["certified"]

    def test_small_forward_difference_certified(self):
        f = random_function(9, 3)
        f = f * (0.5 / max(np.max(np.abs(f.values)), 1e-12))
        # |K f - f|_sup <= 1 already forces certification
        assert np.max(np.abs(koopman_apply(f).values - np.repeat(f.values, 2)[: 2 ** 4])) <= 1.0
        assert lipschitz_certify(Mult(f))["certified"]

    def test_core_depth_rules(self):
        assert core_depth(Proj(haar_function(w("01")))) == 4
        assert core_depth(Mult(random_function(0, 3))) == 4
        assert core_depth(CondExp(2)) == 3
        assert core_depth(identity()) == 1

    def test_reports_how_each_block_was_obtained(self):
        # A projection's blocks have rank two and are solved exactly; those of
        # K^2 L^2 share one shift and are solved exactly too.  Half a Haar
        # projection plus a small multiplier has rank-one pairs next to its
        # terms: solved densely at its core depth 5.
        mixed = Sum((Proj(haar_function(w("01"))), Mult(random_function(1, 2))), (0.5, 0.05))
        for op, core, method, path in (
            (Proj(haar_function(w("011"))), 5, "exact-rank-r", "exact"),
            (CondExp(2), 3, "exact-block", "exact"),
            (mixed, 5, "dense", "dense"),
        ):
            cert = lipschitz_certify(op)
            assert (cert["core_depth"], cert["computed_at"], cert["threshold"]) == (core, core, 1.0)
            assert cert["certified"]
            for block in ("upper", "lower"):
                assert cert[block] == {
                    "method": method,
                    "iterations": 0,
                    "converged": True,
                    "residual": 0.0,
                    "fallback": False,
                    "path": path,
                }

    def test_counterexample_to_the_member_max_rule_is_not_certified(self):
        # The norm is 1.000714, 1.243051 and 1.590498 at depths 3-5, then
        # flat; the largest member depth, 4, certified the scaled operator at 0.95.
        op = Compose((Ruelle(), Mult(random_function(48, 3)), Ruelle(), Ruelle()))
        v4 = block_norm(dirac_commutator(op), 4)
        cert = lipschitz_certify(scaled(op, 0.95 / v4))
        assert not cert["certified"] and cert["computed_at"] == 6
        assert cert["value"] == pytest.approx(1.2155361857664764, rel=1e-12)
        assert "exceeds" in cert["reason"]

    def test_solved_at_the_core_depth_and_takes_no_depth(self):
        cert = lipschitz_certify(Proj(haar_function(w("011"))))
        assert cert["certified"] and cert["value"] == pytest.approx(1.0, abs=1e-9)
        assert (cert["core_depth"], cert["computed_at"]) == (5, 5) and "depth" not in cert
        with pytest.raises(TypeError):
            lipschitz_certify(Proj(haar_function(w("011"))), depth=3)

    def test_lanczos_ritz_value_is_not_certified(self):
        # core 11: the smaller side of a block is 2048, past the dense cutoff,
        # and a projection plus a multiplier has no exact solve
        op = Sum((Proj(haar_function(w("01"))), Mult(random_function(1, 9))), (1.0, 0.05))
        cert = lipschitz_certify(op)
        dense = commutator_norm(op, method="dense")
        assert cert["computed_at"] == 11 and abs(cert["value"] - dense.value) <= 1e-9
        assert cert["value"] <= 1.0
        assert cert["upper"]["method"] == "lanczos" and cert["upper"]["converged"]
        assert not cert["certified"] and "lower bound" in cert["reason"]

    @pytest.mark.parametrize("n", [8, 9, 10, 22])
    def test_condexp_is_certified_at_every_order(self, n):
        # K^n L^n's blocks share one shift, with constant coefficients: read
        # off in closed form at the core depth n + 1, however large
        cert = lipschitz_certify(CondExp(n))
        assert cert["certified"] and cert["computed_at"] == n + 1
        assert abs(cert["value"] - 1.0) <= 1e-12
        assert cert["upper"]["method"] == cert["lower"]["method"] == "exact-block"

    def test_condexp_past_the_depth_cap_is_refused(self):
        # core 24, where the K block's output depth 25 passes the cap
        with pytest.raises(ValueError, match="depth cap 24 exceeded"):
            lipschitz_certify(CondExp(23))

    def test_exact_value_is_certified_past_the_dense_cutoff(self):
        # core 9, as above, but both blocks of a multiplier are solved exactly
        f = random_function(3, 8)
        f = f * (0.25 / np.max(np.abs(f.values)))
        cert = lipschitz_certify(Mult(f))
        assert cert["computed_at"] == 9 and cert["value"] <= 1.0
        for block in ("upper", "lower"):
            assert cert[block]["method"] == "exact-diagonal" and cert[block]["path"] == "exact"
        assert cert["certified"] and cert["reason"] is None
        forced = commutator_norm(Mult(f), method="dense")
        assert abs(cert["value"] - forced.value) <= 1e-12 * forced.value

    def test_unconverged_estimate_is_not_certified(self, monkeypatch):
        from rkdirac import spectra

        def stalled(upper, lower, depth, tol=1e-12, method="auto"):
            est = spectra.NormEstimate(0.5, 160, False, "lanczos", 1e-3)
            return est.value, est, est

        monkeypatch.setattr(spectra, "block_pair_norm", stalled)
        cert = lipschitz_certify(CondExp(1))
        assert cert["value"] == 0.5
        assert not cert["certified"]
        assert cert["upper"] == {
            "method": "lanczos",
            "iterations": 160,
            "converged": False,
            "residual": 1e-3,
            "fallback": False,
            "path": "matrix-free",
        }
        eta = VectorState(haar_function(w("01")))
        with pytest.raises(ValueError, match="unconverged"):
            connes_lower_bound(eta, eta, [CondExp(1)])

    def test_builds_the_block_pair_and_derives_its_forms_once(self, monkeypatch):
        from rkdirac import dirac, transfer

        calls = {"blocks": 0, "forms": 0, "compositions": 0}
        blocks, derive, compose = transfer.dirac_blocks, transfer.Commutator._normal_form, transfer.Compose._normal_form

        def counting_blocks(a):
            calls["blocks"] += 1
            return blocks(a)

        def counting_derive(self):
            calls["forms"] += 1
            return derive(self)

        def counting_compose(self):
            calls["compositions"] += 1
            return compose(self)

        monkeypatch.setattr(dirac, "dirac_blocks", counting_blocks)
        monkeypatch.setattr(transfer.Commutator, "_normal_form", counting_derive)
        monkeypatch.setattr(transfer.Compose, "_normal_form", counting_compose)
        cert = lipschitz_certify(Mult(random_function(4, 3)))
        # each block of the pair is a Commutator: its form gives the core depth
        # and is reused by the exact solve, one Commutator._normal_form per
        # block, derived from the multiplier's own form and not from the forms
        # of the block's two compositions
        assert calls == {"blocks": 1, "forms": 2, "compositions": 0}
        assert (cert["core_depth"], cert["computed_at"]) == (4, 4)
        assert cert["upper"]["method"] == cert["lower"]["method"] == "exact-diagonal"

    def test_unknown_rule_needs_depth(self):
        with pytest.raises(ValueError, match="core depth"):
            lipschitz_certify(Sum((Ruelle(), Mult(random_function(0, 2)))))

    def test_no_core_depth_is_not_certified(self):
        # its value at depth 4 is at most one, but the norm may grow with depth
        op = scaled(Sum((Ruelle(), Mult(random_function(0, 2)))), 0.1)
        assert commutator_norm(op, 4).value <= 1.0
        with pytest.raises(ValueError, match="cannot be certified at any depth"):
            lipschitz_certify(op)
        eta = VectorState(haar_function(w("01")))
        with pytest.raises(ValueError, match="core depth"):
            connes_lower_bound(eta, eta, [op])


class TestCoreDepth:
    @pytest.mark.parametrize("k", range(0, 5))
    def test_multiplier(self, k):
        assert core_depth(Mult(random_function(k, k))) == k + 1

    @pytest.mark.parametrize("k", range(1, 5))
    def test_projection(self, k):
        assert core_depth(Proj(random_function(k, k, "unit-norm"))) == k + 1

    def test_kernel_projection(self):
        assert core_depth(KernelProj()) == 2

    @pytest.mark.parametrize("n", range(1, 5))
    def test_conditional_expectation(self, n):
        assert core_depth(CondExp(n)) == n + 1

    def test_ruelle_and_koopman(self):
        assert core_depth(Ruelle()) == 2
        assert core_depth(Koopman()) == 1
        assert core_depth(Adjoint(Koopman())) == 2

    def test_composite_reads_past_its_members(self):
        op = Compose((Ruelle(), Mult(random_function(48, 3)), Ruelle(), Ruelle()))
        assert core_depth(op) == 6

    def test_mixed_shifts_have_none(self):
        assert core_depth(Sum((Ruelle(), Mult(random_function(0, 2))))) is None
        assert core_depth(Sum((Koopman(), identity()))) is None
        # a tail mean adds at any shift
        assert core_depth(Sum((Ruelle(), Proj(random_function(0, 2, "unit-norm"))))) == 5

    def test_a_shifted_mean_member_widens_the_sum(self):
        # K^2 P has range K^2 psi, constant only past depth 4, not past the
        # multiplier's 2; with the sum's reach left at 2 the core was 4, where
        # the value is 1.513741 against 1.524270 from depth 5 on.
        op = Sum((Mult(random_function(33, 2)), Compose((Koopman(), Koopman(), Proj(random_function(1033, 2, "unit-norm"))))))
        core = core_depth(op)
        b = dirac_commutator(op)
        value = block_norm(b, core)
        assert core == 6 and block_norm(b, 4) < value - 1e-3
        assert abs(block_norm(b, core + 3) - value) <= 1e-12 * max(1.0, value)

    @pytest.mark.parametrize("op", [Proj(constant(1.0)), Sum(())], ids=["proj-constant", "zero"])
    def test_zero_commutators_have_core_zero(self, op):
        assert core_depth(op) == 0
        b = dirac_commutator(op)
        assert [block_norm(b, d) for d in range(4)] == [0.0] * 4
        assert commutator_norm(op).value == 0.0

    @pytest.mark.parametrize(
        "op",
        [
            Compose((Mult(random_function(0, 10)),) + (Ruelle(),) * 15),
            Compose((Koopman(),) * 14 + (Mult(random_function(0, 10)),)),
        ],
        ids=["mult-after-ruelle15", "koopman14-after-mult"],
    )
    def test_a_form_past_the_depth_cap_raises_the_depth_cap(self, op):
        # K^15 f, f of depth 10, is past the depth cap of 24: in the first
        # operator's own form L^15 M_{K^15 f} and in the second one's K block
        # form.  The blocks build it too when solved, in the first operator's
        # adjoint K^15 M_f and in the second one's upper block K^15 M_f, so
        # at an explicit depth the auto solve fails as the dense solve does.
        for solve in (core_depth, commutator_norm):
            with pytest.raises(ValueError, match="depth cap 24"):
                solve(op)
        for method in ("auto", "dense"):
            with pytest.raises(ValueError, match="depth cap 24"):
                commutator_norm(op, 5, method=method)

    @settings(max_examples=30, deadline=None)
    @given(_near_the_cap())
    @example(Compose((Koopman(),) * 23 + (Mult(random_function(0, 2)),)))
    @example(Compose((Mult(random_function(0, 10)),) + (Ruelle(),) * 15))
    @example(Compose((Koopman(),) * 22 + (Ruelle(), Mult(random_function(0, 4)))))
    def test_an_operator_whose_forms_pass_the_cap_is_refused_at_every_depth(self, op):
        # K^23 M_f and M_f L^15 pass the cap in their own forms, K^22 L M_h
        # in its K block's.  Whenever a form passes the cap, the core depth
        # and the solve at every depth refuse it with that cap.
        try:
            op.normal_form, op.dirac_forms
        except ValueError as exc:
            assert str(exc) == "depth cap 24 exceeded"
        else:
            return
        for solve in (core_depth, commutator_norm):
            with pytest.raises(ValueError, match="depth cap 24"):
                solve(op)
        for d in range(7):
            for method in ("auto", "dense"):
                with pytest.raises(ValueError, match="depth cap 24"):
                    commutator_norm(op, d, method=method)

    @pytest.mark.parametrize(
        "op",
        [Mult(random_function(5, 3)), Proj(random_function(6, 3, "unit-norm")), CondExp(2), KernelProj()],
        ids=["mult", "proj", "condexp", "kernel_proj"],
    )
    def test_value_is_flat_from_the_core_depth(self, op):
        core = core_depth(op)
        values = [block_norm(dirac_commutator(op), d) for d in range(core, core + 4)]
        assert max(values) - min(values) <= 1e-12 * max(1.0, values[0])

    @settings(max_examples=60, deadline=None)
    @given(_specs())
    def test_value_at_the_core_depth_is_the_value_three_deeper(self, op):
        self._assert_flat_from_the_core(op)

    @settings(max_examples=150, deadline=None)
    @given(_shifted_sums())
    def test_sums_with_shifted_members_are_flat_from_the_core(self, op):
        self._assert_flat_from_the_core(op)

    @staticmethod
    def _assert_flat_from_the_core(op):
        core = core_depth(op)
        assume(core is not None and core <= 5)
        b = dirac_commutator(op)
        value = block_norm(b, core)
        assert abs(block_norm(b, core + 3) - value) <= 1e-12 * max(1.0, value)


class TestCommutatorNorm:
    def test_solves_at_no_more_than_the_core_depth(self):
        op = Mult(random_function(4, 3))
        for depth, at in ((2, 2), (4, 4), (9, 4)):
            r = commutator_norm(op, depth)
            assert (r.depth, r.core_depth, r.computed_at) == (depth, 4, at)
            assert r.value == block_norm(dirac_commutator(op), at)

    def test_default_depth_is_the_core_depth(self):
        r = commutator_norm(CondExp(2))
        assert (r.depth, r.computed_at) == (3, 3)

    def test_builds_the_block_pair_once_and_binds_only_to_range_check(self, monkeypatch):
        from rkdirac import dirac, transfer

        calls = {"blocks": 0, "bound": []}

        def blocks(a):
            calls["blocks"] += 1
            return transfer.dirac_blocks(a)

        def bound(spec, depth):
            calls["bound"].append(depth)
            return transfer.BoundOperator(spec, depth)

        monkeypatch.setattr(dirac, "dirac_blocks", blocks)
        monkeypatch.setattr(dirac, "BoundOperator", bound)
        op = Mult(random_function(4, 3))
        r = commutator_norm(op, 3)
        assert calls == {"blocks": 1, "bound": []}
        assert r.value == block_norm(transfer.dirac_blocks(op), 3)
        commutator_norm(op, 9)  # solved at the core depth 4; depth 9 is only range-checked
        assert calls == {"blocks": 2, "bound": [9, 9]}

    def test_requested_depth_is_still_range_checked(self):
        with pytest.raises(ValueError, match="depth"):
            commutator_norm(Mult(random_function(4, 3)), 25)
        with pytest.raises(ValueError, match="depth"):
            commutator_norm(Mult(random_function(4, 3)), -1)


def _family(kind, depth, seeds):
    """Multipliers or unit-vector projections of one depth: one normal-form structure."""
    if kind == "mult":
        return [Mult(random_function(s, depth)) for s in seeds]
    return [Proj(random_function(s, depth, "unit-norm")) for s in seeds]


def _families():
    seeds = st.lists(st.integers(0, 10**6), min_size=1, max_size=6)
    return st.builds(_family, st.sampled_from(["mult", "proj"]), st.integers(0, 8), seeds)


def _variant(op, seed):
    """op with every function replaced by a seeded one of the same depth (a
    unit vector for a projection): the same normal-form structure."""
    if isinstance(op, Mult):
        return Mult(random_function(seed, op.f.depth))
    if isinstance(op, Proj):
        return Proj(random_function(seed, op.psi.depth, "unit-norm"))
    if isinstance(op, Compose):
        return Compose([_variant(o, seed + i + 1) for i, o in enumerate(op.ops)])
    if isinstance(op, Sum):
        return Sum([_variant(o, seed + i + 1) for i, o in enumerate(op.ops)], op.weights)
    if isinstance(op, Adjoint):
        return Adjoint(_variant(op.inner_op, seed + 1))
    return op


def _outcome(call):
    """call()'s result, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _assert_same_norm(got, want, rtol=1e-12, at=None):
    """got is want, solved in a stacked family at depth ``at`` (want's own
    computed_at when None).  A member solved at another depth than its own
    has its functions refined, so it is exact up to rounding of its O(1)
    terms: a zero norm (a projection onto a constant) may read 4e-16."""
    assert (got.depth, got.core_depth, got.computed_at) == (want.depth, want.core_depth, want.computed_at if at is None else at)
    for g, w_ in ((got.upper, want.upper), (got.lower, want.lower)):
        assert (g.method, g.iterations, g.converged, g.residual) == (w_.method, w_.iterations, w_.converged, w_.residual)
        scale = abs(w_.value) if got.computed_at == want.computed_at else max(abs(w_.value), 1.0)
        assert type(g.value) is float and abs(g.value - w_.value) <= rtol * scale
    assert got.value == max(got.upper.value, got.lower.value)


class TestStackedForms:
    """dirac.commutator_norms against one commutator_norm per member."""

    @settings(max_examples=80, deadline=None)
    @given(_families())
    def test_a_family_matches_the_per_member_solves(self, family):
        got = commutator_norms(family)
        assert len(got) == len(family)
        for g, a in zip(got, family):
            want = commutator_norm(a)
            _assert_same_norm(g, want)
            assert g.upper.method.startswith("exact") and g.lower.method.startswith("exact")
            if isinstance(a, Mult):  # elementwise arithmetic only: the same bits
                assert (g.upper.value, g.lower.value) == (want.upper.value, want.lower.value)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_families(), min_size=2, max_size=4), st.randoms(use_true_random=False))
    def test_mixed_structures_come_back_in_input_order(self, families, rnd):
        ops = [a for family in families for a in family]
        rnd.shuffle(ops)
        # multipliers of every depth are one family, projections another,
        # each solved at its largest core depth
        at = {kind: max(core_depth(a) for a in ops if type(a) is kind) for kind in {type(a) for a in ops}}
        for g, a in zip(commutator_norms(ops), ops):
            _assert_same_norm(g, commutator_norm(a), at=at[type(a)])

    @settings(max_examples=60, deadline=None)
    @given(_specs(), st.integers(0, 10**6))
    def test_any_stacked_family_matches_the_per_member_solves(self, op, seed):
        assume(core_depth(op) is not None and core_depth(op) <= 6)
        ops = [op, _variant(op, seed), _variant(op, seed + 100)]
        with np.errstate(over="ignore", invalid="ignore"):
            want = [_outcome(lambda: commutator_norm(a)) for a in ops]
            got = _outcome(lambda: commutator_norms(ops))
        if any(isinstance(x, str) for x in want):
            assert got == next(x for x in want if isinstance(x, str))
            return
        for g, w_ in zip(got, want):
            _assert_same_norm(g, w_)

    def test_each_family_derives_its_block_forms_once(self, monkeypatch):
        from rkdirac import dirac, transfer

        derived, paired = [], []
        derive = transfer.commutator_form
        monkeypatch.setattr(dirac, "commutator_form", lambda s, form: derived.append(form) or derive(s, form))
        monkeypatch.setattr(transfer, "commutator_form", lambda s, form: paired.append(form) or derive(s, form))
        ops = _family("mult", 3, range(5)) + _family("proj", 4, range(3)) + _family("mult", 2, range(4))
        commutator_norms(ops)
        # two families, the multipliers of both depths and the projections,
        # each block form derived once from the stack; one member's own pair
        # of forms per key (multipliers of depth 3 and 2, projections of
        # depth 4), derived from its form, for its core depth
        assert len(derived) == 4 and len({id(form) for form in derived}) == 2
        assert paired == [ops[i].normal_form for i in (0, 0, 8, 8, 5, 5)]

    def test_a_family_without_an_exact_solve_goes_member_by_member(self, monkeypatch):
        from rkdirac import dirac, transfer

        calls, derived, blocks = [], [], []
        per_member, derive = dirac._member_norm, transfer.commutator_form
        monkeypatch.setattr(dirac, "_member_norm", lambda a, depth, method: calls.append(a) or per_member(a, depth, method))
        monkeypatch.setattr(dirac, "commutator_form", lambda s, form: derived.append(form) or derive(s, form))
        monkeypatch.setattr(transfer, "commutator_form", lambda s, form: blocks.append(form) or derive(s, form))
        mixed = [Sum((Proj(haar_function(w("01"))), Mult(random_function(s, 2))), (1.0, 0.05)) for s in (1, 2)]
        ops = [mixed[0], Mult(random_function(1, 2)), mixed[1], Mult(random_function(2, 2)), Mult(random_function(3, 3)), CondExp(1), CondExp(1)]
        got = commutator_norms(ops)
        # a projection plus a multiplier has no exact solve; the depth-3
        # multiplier joins the depth-2 ones, all solved at its core depth 4;
        # CondExp(1)'s forms hold only the constant 1, nothing to stack
        assert calls == [ops[0], ops[2], ops[5], ops[6]]
        # the two stacks, each derived once: a chunk whose stack does not
        # solve goes member by member
        assert len(derived) == 4
        # one pair of block forms per member solved member by member, one per
        # key of the solved family (depth-2 and depth-3 multipliers), each
        # derived from that member's form
        assert [[i for i, a in enumerate(ops) if a.normal_form is form] for form in blocks] == [[0], [0], [2], [2], [1], [1], [4], [4], [5], [5], [6], [6]]
        assert got[0].upper.method == "dense" and got[5].upper.method == "exact-block"
        for g, a in zip(got, ops):
            _assert_same_norm(g, per_member(a, None, "auto"), at=4 if isinstance(a, Mult) else None)

    @pytest.mark.parametrize("kind", ["mult", "weighted-proj"])
    def test_a_non_finite_member_raises_the_per_member_error(self, kind):
        if kind == "mult":
            ops = _family("mult", 3, range(3)) + [Mult(random_function(9, 3) * 1e160)]
        else:  # the value 1e200 is finite, its square, the top Gram eigenvalue, is not
            ops = [Sum((a,), (w_,)) for a, w_ in zip(_family("proj", 3, range(3)), (1.0, 1e200, 2.0))]
        with np.errstate(over="ignore", invalid="ignore"):
            want = [_outcome(lambda: commutator_norm(a)) for a in ops]
            texts = [x for x in want if isinstance(x, str)]
            assert texts and texts[0].endswith("values must be finite")
            with pytest.raises(ValueError) as info:
                commutator_norms(ops)
        assert str(info.value) == texts[0]

    def test_a_non_unit_projection_is_still_refused(self):
        with pytest.raises(ValueError, match="projection vector must have unit norm"):
            commutator_norms(_family("proj", 3, range(2)) + [Proj(constant(0.5))])

    def test_each_key_is_range_checked_at_its_core_depth(self, monkeypatch):
        from rkdirac import dirac

        checked = []
        monkeypatch.setattr(dirac, "BoundOperator", lambda block, depth: checked.append((block.ops[0].ops[1], depth)))
        ops = [a for pair in zip(_family("mult", 3, range(3)), _family("mult", 2, range(3, 6))) for a in pair]
        got = commutator_norms(ops)
        # one family, two keys: the first member of each, both blocks, at its own core depth
        assert checked == [(ops[0], 4), (ops[0], 4), (ops[1], 3), (ops[1], 3)]
        assert [(r.depth, r.core_depth, r.computed_at) for r in got] == [(4, 4, 4), (3, 3, 4)] * 3

    def test_a_depth_past_the_cap_is_refused_as_per_member(self):
        # M_c K^24: core depth 1, where the K block's output depth 26 passes the cap
        ops = [Compose((Mult(constant(v)),) + (Koopman(),) * 24) for v in (1.0, 2.0)]
        want = _outcome(lambda: commutator_norm(ops[0]))
        assert want == "depth cap 24 exceeded"
        assert _outcome(lambda: commutator_norms(ops)) == want

    def test_an_empty_list(self):
        assert commutator_norms([]) == []

    @pytest.mark.parametrize("how", ["depth", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(_specs(), st.integers(0, 10**6), st.integers(0, 5))
    def test_a_depth_or_a_forced_method_solves_member_by_member(self, how, op, seed, depth):
        from rkdirac import dirac

        assume(how == "depth" or core_depth(op) is None or core_depth(op) <= 7)
        ops = [op, _variant(op, seed)]
        args = (depth, "auto") if how == "depth" else (None, "dense")
        with np.errstate(over="ignore", invalid="ignore"):
            want = [_outcome(lambda: dirac._member_norm(a, *args)) for a in ops]
            got = _outcome(lambda: commutator_norms(ops, *args))
        # the same solves, so the same bits, or the first member's error
        assert got == next((x for x in want if isinstance(x, str)), want)

    def test_several_chunks_each_solve_at_their_own_depth(self, monkeypatch):
        from rkdirac import dirac, transfer

        derived = []
        derive = transfer.commutator_form
        monkeypatch.setattr(dirac, "commutator_form", lambda s, form: derived.append(form) or derive(s, form))
        # three depth-4 columns of 16 rows fill CHUNK_BYTES: the ten multipliers
        # (depths 1 to 4) go as chunks of three, three, three and one; the
        # projections' widest slot has 4 rows, so they are one chunk
        monkeypatch.setattr(transfer, "CHUNK_BYTES", 8 * 16 * 3)
        mults = [Mult(random_function(s, 1 + s % 4)) for s in range(10)]
        ops = mults[:5] + _family("proj", 2, range(3)) + mults[5:]
        got = commutator_norms(ops)
        assert len(derived) == 2 * 4
        at = {id(a): max(core_depth(b) for b in mults[j : j + 3]) for j in (0, 3, 6) for a in mults[j : j + 3]}
        at.update((id(a), 3) for a in ops[5:8])
        for g, a in zip(got, ops):
            _assert_same_norm(g, commutator_norm(a), at=at.get(id(a)))
        assert (got[-1].computed_at, got[-1].core_depth) == (3, 3)  # the last multiplier, alone


def _member(kind, seed, depth):
    """A multiplier, a projection, a weighted projection or a single-shift sum
    M_f + K^n L^n with f non-constant, on functions of the given depth."""
    if kind == "mult":
        return Mult(random_function(seed, depth))
    if kind == "shifted-sum":
        return Sum((Mult(random_function(seed, depth + 1)), CondExp(1 + seed % 2)))
    p = Proj(random_function(seed, depth, "unit-norm"))
    return p if kind == "proj" else scaled(p, (seed % 7 - 3) / 2)


# Which aligned family each kind of member joins: projections and weighted
# projections share a structure (one rank-one pair); a shifted sum's stack
# has no exact solve, so its members are solved one by one.
_ALIGNED = {"mult": "mult", "proj": "proj", "weighted-proj": "proj", "shifted-sum": None}


class TestAlignedFamilies:
    """Families of one structure and several depths, stacked at each slot's
    deepest depth and solved at the largest core depth."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(_ALIGNED)), st.integers(0, 10**6), st.integers(0, 5)), min_size=1, max_size=10))
    def test_members_of_any_depths_match_the_per_member_solves(self, members):
        ops = [_member(*m) for m in members]
        families = [_ALIGNED[kind] for kind, _, _ in members]
        at = {f: max(core_depth(a) for a, g in zip(ops, families) if g == f) for f in set(families) - {None}}
        for g, a, family in zip(commutator_norms(ops), ops, families):
            want = commutator_norm(a)
            _assert_same_norm(g, want, at=at.get(family))
            if isinstance(a, Mult):  # refinement repeats values: the same bits
                assert (g.upper.value, g.lower.value) == (want.upper.value, want.lower.value)

    @pytest.mark.parametrize("deep, aligned", [(4, True), (5, False)])
    def test_a_family_past_chunk_bytes_splits_into_member_chunks(self, monkeypatch, deep, aligned):
        from rkdirac import dirac, transfer

        derived = []
        derive = transfer.commutator_form
        monkeypatch.setattr(dirac, "commutator_form", lambda s, form: derived.append(form) or derive(s, form))
        # the aligned stack's widest function is 2**12 rows by one column per
        # member: eight members fit in CHUNK_BYTES, so nine split into a
        # stacked chunk of eight and a last member solved on its own
        ops = _family("mult", 12, range(deep)) + _family("mult", 2, range(4))
        assert (8 * (1 << 12) * len(ops) <= transfer.CHUNK_BYTES) == aligned
        got = commutator_norms(ops)
        assert len(derived) == 2
        for i, (g, a) in enumerate(zip(got, ops)):
            want = commutator_norm(a)
            _assert_same_norm(g, want, at=13 if i < 8 else None)
            assert (g.upper.value, g.lower.value) == (want.upper.value, want.lower.value)

    def test_a_family_past_the_depth_cap_falls_back_to_the_per_member_depth_cap_error(self, monkeypatch):
        from rkdirac import dirac

        # K^22 L M_h: its K block holds K^22 L h, at depth 25 for h of depth 4,
        # past the cap, so deriving that member's block forms raises the depth
        # cap; so does the stack's, h refined to depth 4 in every member.
        # A constant h stays at depth 0.
        shallow = [Compose((Koopman(),) * 22 + (Ruelle(), Mult(constant(v)))) for v in (1.0, 2.0)]
        deep = Compose((Koopman(),) * 22 + (Ruelle(), Mult(random_function(0, 4))))
        assert deep.normal_form.structure() == shallow[0].normal_form.structure()
        calls = []
        per_member = dirac._member_norm
        monkeypatch.setattr(dirac, "_member_norm", lambda a, depth, method: calls.append(a) or per_member(a, depth, method))
        got = commutator_norms(shallow)
        for g, a in zip(got, shallow):
            _assert_same_norm(g, per_member(a, None, "auto"))
        assert calls == []  # stacked
        want = _outcome(lambda: per_member(deep, None, "auto"))
        assert want == "depth cap 24 exceeded"
        calls.clear()
        assert _outcome(lambda: commutator_norms(shallow + [deep])) == want
        assert calls == shallow + [deep]  # one chunk, whose stack has no block forms


def test_core_depth_norm_and_sweep_share_one_block_pair(monkeypatch):
    from rkdirac import transfer

    derived = []
    derive = transfer.commutator_form
    monkeypatch.setattr(transfer, "commutator_form", lambda s, form: derived.append(form) or derive(s, form))
    op = CondExp(2)
    core = core_depth(op)
    r = commutator_norm(op)
    points = depth_sweep(op, range(core, core + 3))
    assert (core, r.value, [p.value for p in points]) == (3, 1.0, [1.0] * 3)
    assert derived == [op.normal_form] * 2  # one form per block, derived once from the spec's own and cached on it


class TestConnesLowerBound:
    def test_identical_states(self):
        eta = VectorState(haar_function(w("01")))
        family = [Proj(haar_function(u)) for u in all_words(2)]
        bound, witness = connes_lower_bound(eta, eta, family)
        assert bound == 0.0
        assert witness is None

    def test_orthogonal_haar_states(self):
        eta = VectorState(haar_function(w("01")))
        xi = VectorState(haar_function(w("10")))
        family = [Proj(haar_function(u)) for u in words_up_to(3)]
        bound, witness = connes_lower_bound(eta, xi, family)
        assert bound == pytest.approx(1.0, abs=1e-12)
        assert witness is not None

    def test_empty_family(self):
        eta = VectorState(haar_function(w("01")))
        xi = VectorState(haar_function(w("10")))
        assert connes_lower_bound(eta, xi, []) == (0.0, None)

    def test_uncertified_member_rejected(self):
        eta = VectorState(haar_function(w("01")))
        xi = VectorState(haar_function(w("10")))
        loud = Mult(3.0 * indicator(w("0")))  # forward difference sup is 3
        with pytest.raises(ValueError, match="not certified"):
            connes_lower_bound(eta, xi, [loud])

    def test_a_mixed_family_gives_the_bound_of_its_members_certified_alone(self):
        eta = VectorState(haar_function(w("01")))
        xi = VectorState(normalized(haar_function(w("001")) + haar_function(w("1"))))
        family = [Proj(haar_function(u)) for u in words_up_to(3)] + [Mult(indicator(u)) for u in words_up_to(2)]
        family += [CondExp(1), CondExp(2), scaled(Mult(random_function(3, 3)), 0.1), Mult(random_function(4, 2) * 0.05)]
        want, witness = 0.0, None
        for a in family:
            cert = lipschitz_certify(a)
            assert cert["certified"]
            gap = abs(eta.expectation(a) - xi.expectation(a)) / max(1.0, cert["value"])
            if gap > want:
                want, witness = gap, a
        assert witness is not None and want > 0.5
        assert connes_lower_bound(eta, xi, family) == (want, witness)

    def test_a_member_certified_above_one_adds_its_scaled_gap(self):
        # certified within CERTIFY_TOL of one, M_g / value is in the ball
        f = random_function(0, 3)
        g = Mult(f * ((1.0 + 5e-10) / commutator_norm(Mult(f)).value))
        cert = lipschitz_certify(g)
        assert cert["certified"] and 1.0 < cert["value"] <= 1.0 + CERTIFY_TOL
        eta, xi = VectorState(haar_function(w("01"))), VectorState(haar_function(w("10")))
        gap = abs(eta.expectation(g) - xi.expectation(g))
        assert gap > 0.1
        assert connes_lower_bound(eta, xi, [g]) == (gap / cert["value"], g)

    @pytest.mark.parametrize("first", ["uncertified", "no-core-depth", "past-the-cap"])
    def test_the_first_failing_member_in_input_order_is_named(self, first):
        eta = VectorState(haar_function(w("01")))
        loud = Mult(5.0 * random_function(0, 3))
        mixed = Sum((Ruelle(), Mult(random_function(0, 2))))
        deep = Compose((Koopman(),) * 23 + (Mult(random_function(0, 2)),))  # its form holds K^23 f, of depth 25
        family = {"uncertified": [loud, mixed, deep], "no-core-depth": [mixed, deep, loud], "past-the-cap": [deep, loud, mixed]}[first]
        with pytest.raises(ValueError) as info:
            connes_lower_bound(eta, eta, family)
        if first == "uncertified":
            assert str(info.value).startswith(f"family member {loud.describe()} has commutator norm")
            assert "not certified: the value exceeds 1" in str(info.value)
        elif first == "no-core-depth":
            assert str(info.value).startswith(f"family member {mixed.describe()} cannot be solved: no core depth for {mixed.describe()}")
        else:
            assert str(info.value) == f"family member {deep.describe()} cannot be solved: depth cap 24 exceeded"

    def test_state_requires_unit_norm(self):
        with pytest.raises(ValueError):
            VectorState(constant(0.3))

    def test_state_expectation(self):
        psi = state_nw(0, EPSILON)
        state = VectorState(psi)
        assert state.expectation(CondExp(1)) == pytest.approx(0.0, abs=1e-12)
        assert state.expectation(identity()) == pytest.approx(1.0, abs=1e-12)


class TestBlockNormsInterface:
    def test_blocks_reported_separately(self):
        b = dirac_commutator(Proj(haar_function(w("01"))))
        nu, nl = block_norms(b, 4)
        assert nu == pytest.approx(1.0, abs=1e-9)
        assert nl == pytest.approx(1.0, abs=1e-9)


def test_block_norms_stay_matrix_free_at_depth_12():
    # The dense upper block alone would be 8192 x 4096 doubles (256 MB).
    psi = random_function(5, 6, "unit-norm")
    b = dirac_commutator(Proj(psi))
    tracemalloc.start()
    try:
        upper, lower = block_norms(b, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    c = koopman_overlap(psi)
    assert upper == pytest.approx(math.sqrt(1.0 - c * c), abs=1e-9)
    assert lower == pytest.approx(upper, abs=1e-9)


def test_the_package_exports_the_one_entry_point():
    import rkdirac
    from rkdirac import dirac

    assert rkdirac.commutator_norms is dirac.commutator_norms


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _lanczos_member():
    from rkdirac import dirac

    # a projection plus a multiplier has no exact solve, and at depth 10 its
    # blocks are past DENSE_CUTOFF
    r = dirac._member_norm(Sum((Proj(haar_function(w("01"))), Mult(random_function(0, 9))), (1.0, 0.05)), 10, "auto")
    assert r.upper.method == "lanczos"


_ENTRY_POINTS = {
    "norm": lambda: commutator_norm(Mult(random_function(1, 12))),
    "family": lambda: commutator_norms([Mult(random_function(s, 3)) for s in range(5)] + [CondExp(2), Proj(haar_function(w("01")))]),
    "sweep": lambda: depth_sweep(Mult(random_function(2, 6)), range(7, 12)),
    "certify": lambda: lipschitz_certify(Mult(random_function(3, 4))),
    "connes": lambda: connes_lower_bound(
        VectorState(haar_function(w("01"))),
        VectorState(haar_function(w("10"))),
        [Proj(haar_function(w("01"))), CondExp(1), CondExp(2), KernelProj(), Mult(indicator(w("0")))],
    ),
    "lanczos": _lanczos_member,
    "verify": lambda: run_suite("all", 8, 1),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_an_entry_point_leaves_no_cycles(no_collector, name):
    # an operator's block forms hold arrays only, never the operator, so
    # reference counting frees them with it and the collector finds nothing
    call = _ENTRY_POINTS[name]
    call()  # warm-up: first-use caches
    gc.collect()
    call()
    assert gc.collect() == 0


def test_fresh_operators_free_their_block_forms_with_them():
    fs = [random_function(s, 14) for s in range(40)]
    commutator_norm(Mult(random_function(99, 14)))  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for f in fs:
            commutator_norm(Mult(f))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one solve's temporaries and forms, about 1.4 MB; 40 operators whose
    # forms outlived them until the collector ran took about 13 MB
    assert peak < 4 << 20
