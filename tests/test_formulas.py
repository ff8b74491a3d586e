import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkdirac import formulas as fo
from rkdirac.dirac import block_norm, dirac_commutator
from rkdirac.dyadic import (
    SQRT2,
    DyadicFunction,
    constant,
    from_haar,
    haar_function,
    haar_slot,
    indicator,
    inner,
    l2_norm,
    normalized,
    random_function,
    refine,
    state_nw,
    to_haar,
)
from rkdirac.transfer import Proj, koopman_apply, ruelle_apply
from rkdirac.words import EPSILON, Word, all_words, shift

INV_SQRT2 = 2.0 ** -0.5


def w(text):
    return Word.from_string(text)


def three_level_vector(word, b_w, b_0w, b_1w):
    """psi = b_w e_w + b_0w e_0w + b_1w e_1w over a base word."""
    zero = Word(word.length + 1, word.bits)
    one = Word(word.length + 1, (1 << word.length) | word.bits)
    return (
        b_w * haar_function(word) + b_0w * haar_function(zero) + b_1w * haar_function(one)
    )


def witness_vector(word=None):
    return three_level_vector(word or w("01"), INV_SQRT2, -0.5, -0.5)


class TestKoopmanOverlap:
    def test_three_level_formula(self):
        # for psi supported on {e_w, e_0w, e_1w}: c = (b_w / sqrt2)(b_0w + b_1w)
        psi = three_level_vector(w("10"), 0.6, 0.48, 0.64)
        assert l2_norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert fo.koopman_overlap(psi) == pytest.approx((0.6 / SQRT2) * (0.48 + 0.64), abs=1e-12)

    def test_witness_value(self):
        assert fo.koopman_overlap(witness_vector()) == pytest.approx(-0.5, abs=1e-12)

    def test_kernel_vector_gives_zero(self):
        psi = normalized(random_function(3, 5, "kernel-of-L"))
        assert fo.koopman_overlap(psi) == pytest.approx(0.0, abs=1e-12)

    def test_coefficient_formula_handles_means(self):
        # the coefficient identity needs the squared-mean term; the zero-mean
        # shorthand differs from the true value exactly by mean(psi)**2
        psi = normalized(random_function(42, 4))
        direct = inner(koopman_apply(psi), psi)
        h = to_haar(psi)
        full = fo.koopman_overlap_from_coeffs(h)
        shorthand = fo.koopman_overlap_from_coeffs(h, zero_mean_form=True)
        mean = inner(psi, constant(1.0))
        assert full == pytest.approx(direct, abs=1e-12)
        assert shorthand + mean**2 == pytest.approx(direct, abs=1e-12)

    def test_lifted_kernel_combination(self):
        # psi = a0 f0 + a1 K f1 with f0, f1 unit kernel vectors:
        # c = a0 a1 <f0, f1>
        f0 = state_nw(0, EPSILON)
        f1 = normalized(0.8 * state_nw(0, EPSILON) + 0.6 * state_nw(0, w("0")))
        psi = 0.6 * f0 + 0.8 * koopman_apply(f1)
        assert l2_norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert fo.koopman_overlap(psi) == pytest.approx(0.6 * 0.8 * 0.8, abs=1e-12)

    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            fo.koopman_overlap(constant(2.0))

    def test_coefficient_cross_check_raises(self, monkeypatch):
        # a ValueError, not an assert, so that the check also runs under python -O
        monkeypatch.setattr(fo, "koopman_overlap_from_coeffs", lambda h: 2.0)
        with pytest.raises(ValueError, match="disagrees"):
            fo.koopman_overlap(witness_vector())


class TestOverlapSurface:
    def test_unit_a_gives_one(self):
        for c in (-0.7, 0.0, 0.4):
            p = fo.SurfacePoint.from_ac(1.0, c, 1)
            assert fo.overlap_surface(p) == pytest.approx(1.0, abs=1e-12)

    def test_reported_maximum_point(self):
        p = fo.SurfacePoint.from_ac(-math.sqrt(3) / 2, 0.5, -1)
        assert fo.overlap_surface(p) == pytest.approx(9.0 / 8.0, abs=1e-12)

    def test_stationary_curve_identity(self):
        for c in np.linspace(-0.99, 0.99, 23):
            a_c = math.sqrt((1 + c) / 2)
            p = fo.SurfacePoint.from_ac(a_c, float(c), 1)
            assert fo.overlap_surface(p) == pytest.approx(fo.surface_stationary_value(float(c)), abs=1e-12)

    def test_constraints_validated(self):
        with pytest.raises(ValueError):
            fo.SurfacePoint(a=1.0, b=0.5, c=0.0, d=1.0)
        with pytest.raises(ValueError):
            fo.SurfacePoint(a=0.6, b=-0.8, c=0.0, d=1.0)


class TestSurfaceScan:
    def test_half(self):
        assert fo.surface_max_scan(0.5)["max"] == pytest.approx(9.0 / 8.0, abs=1e-6)

    def test_zero(self):
        assert fo.surface_max_scan(0.0)["max"] == pytest.approx(1.0, abs=1e-6)

    def test_negative_half_maximum_uses_other_sign(self):
        # the scan over both d signs behaves like |c|: same max as c = +1/2
        scan = fo.surface_max_scan(-0.5)
        assert scan["max"] == pytest.approx(9.0 / 8.0, abs=1e-6)

    def test_matches_abs_closed_form_on_grid(self):
        for c in (-0.9, -0.3, 0.2, 0.7):
            assert fo.surface_max_scan(c)["max"] == pytest.approx(
                fo.surface_stationary_value(abs(c)), abs=1e-6
            )


class TestProjectionExpression:
    def test_kernel_vector_at_itself(self):
        psi = normalized(random_function(0, 4, "kernel-of-L"))
        assert fo.projection_sq_expression(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_doubly_orthogonal_input(self):
        psi = haar_function(w("01"))
        phi = haar_function(w("11"))  # orthogonal to psi, and K phi too
        assert fo.projection_sq_expression(phi, psi) == pytest.approx(0.0, abs=1e-15)

    def test_three_level_closed_form(self):
        b_w, b_0w, b_1w = 0.6, 0.48, 0.64
        psi = three_level_vector(w("01"), b_w, b_0w, b_1w)
        got = fo.projection_sq_expression(haar_function(w("01")), psi)
        s = b_0w + b_1w
        expected = b_w**2 + 0.5 * s**2 - b_w**2 * s**2
        assert got == pytest.approx(expected, abs=1e-12)

    def test_equals_direct_image_norm(self):
        for seed in range(200):
            phi = normalized(random_function(seed, 6))
            psi = normalized(random_function(seed + 1000, 6))
            assert fo.projection_sq_expression(phi, psi) == pytest.approx(
                fo.commutator_image_sq(phi, psi), abs=1e-10
            )

    def test_never_exceeds_nine_eighths(self):
        from rkdirac.dyadic import refine
        from rkdirac.transfer import coords

        for seed in range(4):
            psi = normalized(random_function(seed + 50, 5))
            d = psi.depth
            c = inner(koopman_apply(psi), psi)
            cpsi = coords(psi, d)
            clpsi = coords(refine(ruelle_apply(psi), d), d)
            rng = np.random.default_rng(seed)
            phis = rng.standard_normal((10000, 1 << d))
            phis /= np.linalg.norm(phis, axis=1, keepdims=True)
            x = phis @ cpsi
            y = phis @ clpsi
            values = x * x - 2.0 * c * x * y + y * y
            assert float(values.max()) <= 9.0 / 8.0 + 1e-9

    def test_ruelle_expression_matches_lower_block(self):
        from rkdirac.transfer import commutator_with_L

        for seed in range(20):
            phi = normalized(random_function(seed, 5))
            psi = normalized(random_function(seed + 500, 5))
            image = commutator_with_L(Proj(psi)).apply(phi)
            assert fo.ruelle_sq_expression(phi, psi) == pytest.approx(
                inner(image, image), abs=1e-10
            )


class TestCoefficientImage:
    def test_matches_direct_on_random_pairs(self):
        for seed in range(3):
            phi = normalized(random_function(seed + 10, 5))
            psi = normalized(random_function(seed + 20, 5))
            assert fo.coefficient_image_sq(phi, psi) == pytest.approx(
                fo.commutator_image_sq(phi, psi), abs=1e-10
            )

    def test_basis_element_self_pair(self):
        e = haar_function(w("011"))
        assert fo.coefficient_image_sq(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_eps_only_against_level_two(self):
        # phi supported on the eps pair, psi on length-two words: every pairing
        # in the coefficient formula vanishes, so the value is zero
        from rkdirac.words import EPS0, EPS1, all_words

        phi = 0.6 * haar_function(EPS0) + 0.8 * haar_function(EPS1)
        rng = np.random.default_rng(3)
        h = np.zeros(8)
        for u in all_words(2):
            h[haar_slot(u)] = float(rng.standard_normal())
        psi = normalized(from_haar(h))
        assert fo.coefficient_image_sq(phi, psi) == pytest.approx(0.0, abs=1e-15)
        assert fo.commutator_image_sq(phi, psi) == pytest.approx(0.0, abs=1e-15)

    def test_truncated_variant_differs_on_mean(self):
        phi = normalized(random_function(31, 4))
        psi = normalized(random_function(32, 4))
        exact = fo.coefficient_image_sq(phi, psi)
        truncated = fo.coefficient_image_sq_truncated(phi, psi)
        direct = fo.commutator_image_sq(phi, psi)
        assert exact == pytest.approx(direct, abs=1e-10)
        assert truncated != pytest.approx(direct, abs=1e-6)


class TestProjectionNormBounds:
    def test_haar_element_bound_is_tight(self):
        psi = haar_function(w("011"))
        bounds = fo.projection_norm_bounds(psi)
        assert bounds["lower_K"] == pytest.approx(1.0, abs=1e-12)

    def test_kernel_vector_bound_below_norm(self):
        psi = normalized(random_function(8, 4, "kernel-of-L"))
        bounds = fo.projection_norm_bounds(psi)
        numeric = block_norm(dirac_commutator(Proj(psi)), 5)
        assert numeric == pytest.approx(1.0, abs=1e-8)
        assert bounds["lower_K"] <= numeric + 1e-8
        assert bounds["lower_L"] <= numeric + 1e-8

    def test_witness_values(self):
        psi = witness_vector()
        bounds = fo.projection_norm_bounds(psi)
        assert bounds["lower_K"] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert bounds["lower_L"] == pytest.approx(INV_SQRT2, abs=1e-12)
        numeric = block_norm(dirac_commutator(Proj(psi)), 5)
        assert bounds["lower_K"] <= numeric + 1e-8


def _coeff_dict(h):
    """(eps0, eps1, {word: coefficient}) with the nonzero word coefficients,
    deepest level first: the dict form that the reference loops walk."""
    depth = h.size.bit_length() - 1
    coeffs = {}
    for length in range(depth - 1, 0, -1):
        for u in all_words(length):
            if h[haar_slot(u)] != 0.0:
                coeffs[u] = float(h[haar_slot(u)])
    return float(h[0]), float(h[1]), coeffs


def _children_loop(h, u):
    return h[2].get(Word(u.length + 1, u.bits), 0.0) + h[2].get(Word(u.length + 1, (1 << u.length) | u.bits), 0.0)


def _koopman_pairing_loop(a, b):
    """_koopman_pairing_coeffs walking the coefficient dicts word by word."""
    total = 0.0
    for v, av in a[2].items():
        total += av * _children_loop(b, v) * INV_SQRT2
    total += 0.5 * (a[0] + a[1]) * _children_loop(b, EPSILON)
    total += 0.5 * (a[1] - a[0]) * (b[1] - b[0])
    return total


def _projection_norm_bounds_loop(psi):
    """projection_norm_bounds walking every word of length 1 .. depth - 1."""
    c = fo.koopman_overlap(psi)
    h = _coeff_dict(to_haar(psi))
    best_k = 0.0
    best_l = 0.0
    for length in range(1, max(1, psi.depth - 1) + 1):
        for u in all_words(length):
            bw = h[2].get(u, 0.0)
            s = _children_loop(h, u)
            best_k = max(best_k, bw * bw + 0.5 * s * s - SQRT2 * bw * s * c)
            bsw = h[2].get(shift(u), 0.0) if length >= 2 else 0.0
            best_l = max(best_l, bw * bw + 0.5 * bsw * bsw - SQRT2 * bw * bsw * c)
    return {"lower_K": math.sqrt(max(best_k, 0.0)), "lower_L": math.sqrt(max(best_l, 0.0))}


_UNIT_FUNCTIONS = st.integers(1, 6).flatmap(
    lambda d: st.lists(
        st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), min_size=1 << d, max_size=1 << d
    )
)


def _unit(values):
    assume(any(v != 0.0 for v in values))
    return normalized(DyadicFunction(len(values).bit_length() - 1, values))


class TestSlotArraysAgainstDictLoops:
    @settings(max_examples=100, deadline=None)
    @given(_UNIT_FUNCTIONS, _UNIT_FUNCTIONS)
    def test_pairings(self, phi_values, psi_values):
        # the slot arrays pair at the common depth; the loops read each
        # function at its own depth, missing words counting as zero
        phi, psi = _unit(phi_values), _unit(psi_values)
        a, b = (to_haar(refine(f, max(phi.depth, psi.depth))) for f in (phi, psi))
        ref_a, ref_b = _coeff_dict(to_haar(phi)), _coeff_dict(to_haar(psi))
        assert abs(fo._koopman_pairing_coeffs(a, b) - _koopman_pairing_loop(ref_a, ref_b)) <= 1e-15
        assert abs(fo.koopman_overlap_from_coeffs(b) - _koopman_pairing_loop(ref_b, ref_b)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(_UNIT_FUNCTIONS)
    def test_projection_norm_bounds(self, values):
        psi = _unit(values)
        assert fo.projection_norm_bounds(psi) == _projection_norm_bounds_loop(psi)


class TestBackwardRms:
    def test_scaled_indicator(self):
        assert fo.backward_rms_norm(SQRT2 * indicator(w("0"))) == pytest.approx(1.0, abs=1e-12)

    def test_constant_is_flat(self):
        assert fo.backward_rms_norm(constant(5.0)) == 0.0

    def test_depth_one_indicator(self):
        assert fo.backward_rms_norm(indicator(w("1"))) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_matches_numeric_norm(self):
        from rkdirac.transfer import Mult

        for seed in range(100):
            depth = 2 + seed % 4
            f = random_function(seed, depth)
            numeric = block_norm(dirac_commutator(Mult(f)), depth + 1)
            assert fo.backward_rms_norm(f) == pytest.approx(numeric, abs=1e-8)


class TestForwardAndSandwich:
    def test_scaled_indicator_values(self):
        f = SQRT2 * indicator(w("0"))
        assert fo.forward_sup(f) == pytest.approx(SQRT2, abs=1e-12)
        assert fo.backward_rms_norm(f) == pytest.approx(1.0, abs=1e-12)
        assert fo.ruelle_diff_sup(f) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_constant_flat(self):
        assert fo.forward_sup(constant(2.0)) == 0.0
        assert fo.ruelle_diff_sup(constant(2.0)) == 0.0

    def test_sandwich_random(self):
        for seed in range(200):
            f = random_function(seed, 2 + seed % 3)
            rms = fo.backward_rms_norm(f)
            assert rms <= fo.forward_sup(f) + 1e-12
            assert rms >= fo.ruelle_diff_sup(f) - 1e-12

    def test_equality_off_first_coordinate(self):
        for seed in range(50):
            f = random_function(seed, 4, "independent-of-first-coordinate")
            vals = (fo.forward_sup(f), fo.backward_rms_norm(f), fo.ruelle_diff_sup(f))
            assert max(vals) - min(vals) < 1e-10


class TestWeightedSupChain:
    def test_depth_one_indicator(self):
        chain = fo.weighted_sup_chain(indicator(w("1")))
        assert chain["sup"] == pytest.approx(1.0, abs=1e-15)
        assert chain["mid"] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert chain["ruelle_sup"] == pytest.approx(0.5, abs=1e-15)

    def test_constants(self):
        chain = fo.weighted_sup_chain(constant(-3.0))
        assert chain == {"sup": 3.0, "mid": 3.0, "ruelle_sup": 3.0}

    def test_ordered_on_random_functions(self):
        for seed in range(100):
            chain = fo.weighted_sup_chain(random_function(seed, 1 + seed % 5))
            assert chain["sup"] >= chain["mid"] - 1e-12
            assert chain["mid"] >= chain["ruelle_sup"] - 1e-12

    def test_first_coordinate_independent_collapses(self):
        f = random_function(6, 4, "independent-of-first-coordinate")
        chain = fo.weighted_sup_chain(f)
        assert chain["sup"] == pytest.approx(chain["ruelle_sup"], abs=1e-12)


class TestKolmogorovChain:
    def test_scaled_indicator_orders(self):
        sups = fo.kolmogorov_mean_chain(SQRT2 * indicator(w("0")))
        assert sups[math.inf] == pytest.approx(SQRT2, abs=1e-12)
        assert sups[2.0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_random(self):
        for seed in range(100):
            f = random_function(seed, 3)
            sups = fo.kolmogorov_mean_chain(
                f, orders=(-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0, 10.0, math.inf)
            )
            ordered = sorted(sups)
            for lo, hi in zip(ordered, ordered[1:]):
                assert sups[lo] <= sups[hi] + 1e-12

    def test_zero_difference_convention(self):
        # one backward difference vanishes at every point, so all orders <= 0
        # collapse to zero while positive orders stay positive
        sups = fo.kolmogorov_mean_chain(indicator(w("1")))
        assert sups[-math.inf] == 0.0
        assert sups[-1.0] == 0.0
        assert sups[0.0] == 0.0
        assert sups[1.0] == pytest.approx(0.5, abs=1e-15)
        assert sups[2.0] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert sups[math.inf] == pytest.approx(1.0, abs=1e-15)


class TestL2Sandwich:
    def test_witness_multiplier(self):
        rep = fo.l2_sandwich_check(SQRT2 * indicator(w("0")))
        assert rep["applicable"] and rep["holds"]
        assert rep["l2_forward"] == pytest.approx(1.0, abs=1e-12)
        assert rep["l2_ruelle"] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_constants(self):
        rep = fo.l2_sandwich_check(constant(0.0))
        assert rep["holds"] and rep["norm"] == 0.0

    def test_random_certified(self):
        import numpy as np

        for seed in range(100):
            f = random_function(seed, 3)
            f = f * (0.9 / max(np.max(np.abs(f.values)), 1e-12))
            assert fo.l2_sandwich_check(f)["holds"]


class TestProjectionNormAdjudication:
    def test_kernel_vector_all_candidates_agree(self):
        psi = normalized(random_function(12, 4, "kernel-of-L"))
        adj = fo.projection_norm_adjudicate(psi)
        assert adj["c"] == pytest.approx(0.0, abs=1e-12)
        assert adj["numeric"] == pytest.approx(1.0, abs=1e-8)
        assert adj["candidate_linear"] == pytest.approx(1.0, abs=1e-12)
        assert adj["candidate_sqrt"] == pytest.approx(1.0, abs=1e-12)

    def test_witness_matches_only_the_adjudicated_form(self):
        adj = fo.projection_norm_adjudicate(witness_vector())
        assert adj["c"] == pytest.approx(-0.5, abs=1e-12)
        assert adj["numeric"] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
        assert adj["verdict"] == "sqrt_one_minus_c_sq"
        # the two closed-form candidates both miss
        assert abs(adj["candidate_linear"] - adj["numeric"]) > 1e-3
        assert abs(adj["candidate_sqrt"] - adj["numeric"]) > 1e-3

    def test_numeric_matches_independent_span_oracle(self):
        for psi in (
            witness_vector(),
            normalized(random_function(1, 4, "kernel-of-L")),
            normalized(random_function(2, 4)),
        ):
            adj = fo.projection_norm_adjudicate(psi)
            oracle = fo.projection_span_scan(psi)
            assert adj["numeric"] == pytest.approx(oracle, abs=1e-6)

    def test_adjudicated_closed_form_on_mixed_states(self):
        # after adjudication the numeric norm follows sqrt(1 - c^2)
        f0 = state_nw(0, EPSILON)
        f1 = normalized(0.8 * state_nw(0, EPSILON) + 0.6 * state_nw(0, w("0")))
        psi = 0.6 * f0 + 0.8 * koopman_apply(f1)
        adj = fo.projection_norm_adjudicate(psi)
        c = adj["c"]
        assert adj["numeric"] == pytest.approx(math.sqrt(1 - c * c), abs=1e-8)
