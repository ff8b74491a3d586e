import math
import tracemalloc

import numpy as np
import pytest

from rkdirac.dirac import (
    VectorState,
    attainment_depth,
    block_norm,
    block_norms,
    connes_lower_bound,
    dirac_commutator,
    dirac_matrix,
    haar_projection_closed_forms,
    lipschitz_certify,
    self_adjoint_block_equality,
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
    CondExp,
    Koopman,
    Mult,
    Proj,
    Sum,
    identity,
    koopman_apply,
    scaled,
)
from rkdirac.words import EPSILON, Word, all_words, words_up_to


def w(text):
    return Word.from_string(text)


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
        b = dirac_commutator(Proj(haar_function(word)))
        probes = [haar_function(u) for u in words_up_to(4)]
        probes.append(random_function(0, 5))
        for phi in probes:
            upper_expected, lower_expected = haar_projection_closed_forms(word, phi)
            assert is_close(b.upper.apply(phi), upper_expected, atol=1e-12)
            assert is_close(b.lower.apply(phi), lower_expected, atol=1e-12)


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
    def test_haar_projection(self):
        nu, nl = self_adjoint_block_equality(Proj(haar_function(w("01"))), 5)
        assert nu == pytest.approx(1.0, abs=1e-9)
        assert nl == pytest.approx(1.0, abs=1e-9)

    def test_random_multiplier(self):
        nu, nl = self_adjoint_block_equality(Mult(random_function(8, 4)), 8)
        assert nu == pytest.approx(nl, rel=1e-8)

    def test_cond_expectation(self):
        nu, nl = self_adjoint_block_equality(CondExp(1), 4)
        assert (nu, nl) == (pytest.approx(1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))

    def test_koopman_rejected(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            self_adjoint_block_equality(Koopman(), 4)


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
        cert = lipschitz_certify(a, depth=5)
        assert cert["certified"]

    def test_small_forward_difference_certified(self):
        f = random_function(9, 3)
        f = f * (0.5 / max(np.max(np.abs(f.values)), 1e-12))
        # |K f - f|_sup <= 1 already forces certification
        assert np.max(np.abs(koopman_apply(f).values - np.repeat(f.values, 2)[: 2 ** 4])) <= 1.0
        assert lipschitz_certify(Mult(f))["certified"]

    def test_attainment_rules(self):
        assert attainment_depth(Proj(haar_function(w("01")))) == 4
        assert attainment_depth(Mult(random_function(0, 3))) == 4
        assert attainment_depth(CondExp(2)) == 4
        assert attainment_depth(identity()) == 0

    def test_reports_how_each_block_was_obtained(self):
        cert = lipschitz_certify(Proj(haar_function(w("011"))), depth=10)
        for block in ("upper", "lower"):
            assert cert[block]["method"] == "lanczos" and cert[block]["converged"] is True
            assert 0.0 <= cert[block]["residual"] <= 1e-12

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
        from rkdirac.transfer import Adjoint

        with pytest.raises(ValueError, match="depth"):
            lipschitz_certify(Adjoint(Koopman()))


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
