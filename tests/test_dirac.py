import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkdirac.dirac import (
    VectorState,
    block_norm,
    block_norms,
    commutator_norm,
    connes_lower_bound,
    core_depth,
    dirac_commutator,
    dirac_matrix,
    haar_projection_closed_forms,
    lipschitz_certify,
)
from rkdirac.dyadic import (
    constant,
    haar_function,
    indicator,
    is_close,
    random_function,
    state_nw,
)
from rkdirac.spectra import operator_norm
from rkdirac.formulas import koopman_overlap
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
from rkdirac.words import EPSILON, Word, all_words, words_up_to
from test_transfer import _specs


def w(text):
    return Word.from_string(text)


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


class TestDiracOperator:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_norm_is_one(self, depth):
        assert operator_norm(dirac_matrix(depth)).value == pytest.approx(1.0, abs=1e-9)


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
        cert = lipschitz_certify(Proj(haar_function(w("011"))))
        assert (cert["core_depth"], cert["computed_at"], cert["threshold"]) == (5, 5, 1.0)
        for block in ("upper", "lower"):
            assert cert[block] == {"method": "dense", "converged": True, "residual": 0.0}

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
        # core 9: the smaller side of a block is 512, past the dense cutoff
        f = random_function(3, 8)
        f = f * (0.25 / np.max(np.abs(f.values)))
        cert = lipschitz_certify(Mult(f))
        assert cert["computed_at"] == 9 and cert["value"] <= 1.0
        assert cert["upper"]["method"] == "lanczos" and cert["upper"]["converged"]
        assert not cert["certified"] and "lower bound" in cert["reason"]

    def test_unconverged_estimate_is_not_certified(self, monkeypatch):
        from rkdirac import spectra

        def stalled(upper, lower, depth, tol=1e-12, method="auto"):
            est = spectra.NormEstimate(0.5, 160, False, "lanczos", 1e-3)
            return est.value, est, est

        monkeypatch.setattr(spectra, "block_pair_norm", stalled)
        cert = lipschitz_certify(CondExp(1))
        assert cert["value"] == 0.5
        assert not cert["certified"]
        assert cert["upper"] == {"method": "lanczos", "converged": False, "residual": 1e-3}
        eta = VectorState(haar_function(w("01")))
        with pytest.raises(ValueError, match="unconverged"):
            connes_lower_bound(eta, eta, [CondExp(1)])

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

    def test_requested_depth_is_still_range_checked(self):
        with pytest.raises(ValueError, match="depth"):
            commutator_norm(Mult(random_function(4, 3)), 25)
        with pytest.raises(ValueError, match="depth"):
            commutator_norm(Mult(random_function(4, 3)), -1)


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
