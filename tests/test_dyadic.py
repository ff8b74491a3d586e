import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkdirac.dyadic import (
    CONSTRAINTS,
    chain_batch,
    DyadicFunction,
    SQRT2,
    constant,
    from_haar,
    haar_batch,
    haar_function,
    haar_slot,
    indicator,
    inner,
    is_close,
    l2_dist,
    l2_norm,
    normalized,
    pointwise_mul,
    random_batch,
    random_function,
    refine,
    require_unit,
    require_unit_columns,
    state_n,
    state_nw,
    sup_norm,
    to_haar,
)
from rkdirac import formulas
from rkdirac.dirac import VectorState
from rkdirac.transfer import Proj, projection_apply, ruelle_apply
from rkdirac.words import EPS0, EPS1, EPSILON, Word, all_words, words_up_to


def w(text):
    return Word.from_string(text)


class TestRefine:
    def test_constant(self):
        f = refine(constant(1.0), 2)
        assert f.depth == 2
        np.testing.assert_array_equal(f.values, [1, 1, 1, 1])

    def test_indicator(self):
        f = refine(indicator(w("0")), 2)
        np.testing.assert_array_equal(f.values, [1, 1, 0, 0])

    def test_identity_at_same_depth(self):
        f = random_function(0, 3)
        np.testing.assert_array_equal(refine(f, 3).values, f.values)

    def test_cannot_coarsen(self):
        with pytest.raises(ValueError):
            refine(random_function(0, 3), 2)

    def test_preserves_inner_and_sup(self):
        f = random_function(5, 4)
        g = refine(f, 7)
        assert abs(inner(f, f) - inner(g, g)) < 1e-14
        assert sup_norm(f) == sup_norm(g)


class TestInner:
    def test_haar_elements_are_unit(self):
        e = haar_function(w("01"))
        assert inner(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_eps_elements_orthogonal(self):
        assert inner(haar_function(EPS0), haar_function(EPS1)) == 0.0

    def test_indicator_mass(self):
        assert inner(constant(1.0), indicator(w("0"))) == pytest.approx(0.5, abs=1e-15)

    def test_bilinear(self):
        f, g, h = (random_function(s, 4) for s in (1, 2, 3))
        lhs = inner(f + 2.0 * g, h)
        assert lhs == pytest.approx(inner(f, h) + 2.0 * inner(g, h), abs=1e-12)


class TestSupNorm:
    def test_scaled_indicator(self):
        assert sup_norm(SQRT2 * indicator(w("0"))) == pytest.approx(SQRT2, abs=0)

    def test_zero(self):
        assert sup_norm(constant(0.0)) == 0.0

    def test_haar_element(self):
        assert sup_norm(haar_function(w("01"))) == pytest.approx(2.0, abs=1e-15)


class TestHaarFunction:
    def test_eps1(self):
        e = haar_function(EPS1)
        assert e.depth == 1
        np.testing.assert_allclose(e.values, [0.0, SQRT2])

    def test_eps0(self):
        np.testing.assert_allclose(haar_function(EPS0).values, [-SQRT2, 0.0])

    def test_length_one_word(self):
        # e_1 = sqrt(2) (chi_[11] - chi_[10]) at depth 2, MSB-first cells 00,01,10,11
        np.testing.assert_allclose(haar_function(w("1")).values, [0, 0, -SQRT2, SQRT2])

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            haar_function(EPSILON)

    def test_family_orthonormal_exhaustive(self):
        family = [haar_function(EPS0), haar_function(EPS1)]
        family += [haar_function(u) for u in words_up_to(5)]
        depth = 6
        mat = np.stack([refine(f, depth).values * 2.0 ** (-depth / 2) for f in family])
        gram = mat @ mat.T
        assert np.max(np.abs(gram - np.eye(len(family)))) < 1e-12


    @staticmethod
    def _defined(idx):
        """e_idx written out from the definition, at its own depth."""
        if idx in (EPS0, EPS1):
            return np.array([-SQRT2, 0.0]) if idx is EPS0 else np.array([0.0, SQRT2])
        vals = np.zeros(1 << (idx.length + 1))
        vals[2 * idx.bits : 2 * idx.bits + 2] = [-(2.0 ** (idx.length / 2.0)), 2.0 ** (idx.length / 2.0)]
        return vals

    def test_batch_columns_are_the_elements_bit_for_bit(self):
        indices = [EPS0, EPS1] + list(words_up_to(6))
        batch = haar_batch([haar_slot(idx) for idx in indices], 7)
        for idx, col in zip(indices, batch.T):
            e = haar_function(idx)
            assert e.values.tobytes() == self._defined(idx).tobytes()
            assert col.tobytes() == refine(e, 7).values.tobytes()
            assert haar_batch([haar_slot(idx)], e.depth)[:, 0].tobytes() == e.values.tobytes()

    def test_batch_columns_follow_the_slots_given(self):
        batch = haar_batch([5, 0, 5], 4)
        assert batch.shape == (16, 3)
        assert batch[:, 0].tobytes() == batch[:, 2].tobytes() == refine(haar_function(w("01")), 4).values.tobytes()
        assert haar_batch([], 3).shape == (8, 0)

    def test_a_slot_deeper_than_the_batch_is_refused(self):
        with pytest.raises(ValueError, match="slot 8 needs depth 4, got 3"):
            haar_batch([1, 8], 3)
        with pytest.raises(ValueError, match="needs depth 1, got 0"):
            haar_batch([0], 0)

    def test_a_deep_element_allocates_its_own_column_only(self):
        e = w("01" * 10)
        tracemalloc.start()
        try:
            f = haar_function(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.depth == 21 and np.count_nonzero(f.values) == 2
        assert peak < 40 << 20  # the one column and the function's copy of it, 16 MB each

    def test_past_the_cap(self):
        with pytest.raises(ValueError, match="depth cap 24"):
            haar_function(Word(24, 0))
        with pytest.raises(TypeError):
            haar_function(3)


class TestHaarTransform:
    def test_constant_expansion(self):
        h = to_haar(constant(1.0))
        assert h[haar_slot(EPS0)] == pytest.approx(-1 / SQRT2, abs=1e-15)
        assert h[haar_slot(EPS1)] == pytest.approx(1 / SQRT2, abs=1e-15)
        assert np.flatnonzero(h[2:]).size == 0

    def test_basis_element_expansion(self):
        h = to_haar(haar_function(w("01")))
        assert h[haar_slot(EPS0)] == pytest.approx(0.0, abs=1e-15)
        assert h[haar_slot(EPS1)] == pytest.approx(0.0, abs=1e-15)
        assert set((np.flatnonzero(h[2:]) + 2).tolist()) == {haar_slot(w("01"))}
        assert h[haar_slot(w("01"))] == pytest.approx(1.0, abs=1e-15)

    def test_roundtrip_random(self):
        for seed in range(100):
            f = random_function(seed, 6)
            assert l2_dist(from_haar(to_haar(f)), f) < 1e-12

    def test_parseval_random(self):
        for seed in range(50):
            f = random_function(seed, 8)
            h = to_haar(f)
            assert abs(inner(f, f) - h @ h) < 1e-12

    def test_coefficients_are_inner_products(self):
        f = random_function(7, 4)
        h = to_haar(f)
        for u in words_up_to(3):
            assert h[haar_slot(u)] == pytest.approx(inner(f, haar_function(u)), abs=1e-12)
        assert h[haar_slot(EPS0)] == pytest.approx(inner(f, haar_function(EPS0)), abs=1e-12)

    def test_rejects_empty_word_keys(self):
        with pytest.raises(ValueError):
            haar_slot(EPSILON)

    def test_slot_layout(self):
        # slot 2**len(w) + bits(w): the words of length l fill [2**l, 2**(l+1)) in index order
        slots = [haar_slot(EPS0), haar_slot(EPS1)] + [haar_slot(u) for u in words_up_to(4)]
        assert slots == list(range(32))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 7).flatmap(
            lambda d: st.lists(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1e6, 1e6), min_size=1 << d, max_size=1 << d
            )
        )
    )
    def test_coefficients_match_the_per_coefficient_loop(self, values):
        # Exact zeros make exact-zero differences, which the loop skips; their
        # slots must hold zero, and every other slot the loop's value.
        f = DyadicFunction(len(values).bit_length() - 1, values)
        eps0, eps1, coeffs = _to_haar_loop(f)
        expected = np.zeros(1 << max(f.depth, 1))
        expected[haar_slot(EPS0)], expected[haar_slot(EPS1)] = eps0, eps1
        for u, b in coeffs.items():
            expected[haar_slot(u)] = b
        h = to_haar(f)
        assert h.dtype == np.float64
        assert np.array_equal(h, expected)

    def test_synthesis_of_a_one_hot_slot_is_the_haar_element(self):
        for depth in range(1, 7):
            indices = [EPS0, EPS1] + list(words_up_to(depth - 1))
            for idx in indices:
                onehot = np.zeros(1 << depth)
                onehot[haar_slot(idx)] = 1.0
                f = from_haar(onehot)
                assert f.depth == depth
                assert np.array_equal(f.values, refine(haar_function(idx), depth).values)

    def test_synthesis_rejects_a_length_that_is_not_a_power_of_two(self):
        for size in (0, 1, 3, 6):
            with pytest.raises(ValueError, match="Haar coefficients"):
                from_haar(np.zeros(size))

    def test_no_word_is_built(self, monkeypatch):
        psi = normalized(random_function(3, 6))
        phi = normalized(random_function(4, 5))

        def refuse(self):
            raise AssertionError("a Word was built")

        monkeypatch.setattr(Word, "__post_init__", refuse)
        h = to_haar(psi)
        assert l2_dist(from_haar(h), psi) < 1e-12
        formulas.koopman_overlap_from_coeffs(h)
        formulas.coefficient_image_sq(phi, psi)
        formulas.coefficient_image_sq_truncated(phi, psi)
        formulas.projection_norm_bounds(psi)


def _to_haar_loop(f):
    """to_haar with one Python step per coefficient, as it was first written:
    (eps0, eps1, {word: coefficient}) with the nonzero coefficients only."""
    g = refine(f, max(f.depth, 1))
    masses = g.values * 2.0 ** (-g.depth)
    coeffs = {}
    for level in range(g.depth, 1, -1):
        parents = masses[0::2] + masses[1::2]
        diffs = masses[1::2] - masses[0::2]
        scale = 2.0 ** ((level - 1) / 2.0)
        for i, dval in enumerate(diffs):
            if dval != 0.0:
                coeffs[Word(level - 1, i)] = scale * float(dval)
        masses = parents
    return -SQRT2 * float(masses[0]), SQRT2 * float(masses[1]), coeffs


class TestPointwiseMul:
    def test_square_of_haar_element(self):
        e = haar_function(w("01"))
        assert is_close(pointwise_mul(e, e), 4.0 * indicator(w("01")), atol=1e-12)

    def test_disjoint_supports(self):
        prod = pointwise_mul(haar_function(w("0")), haar_function(w("10")))
        assert sup_norm(prod) == 0.0

    def test_unit_identity(self):
        f = random_function(1, 3)
        assert is_close(pointwise_mul(constant(1.0), f), f)

    def test_nested_product_sign_convention(self):
        # e_u e_v = -(-1)**v_{len(u)+1} 2**(len(u)/2) e_v for u a strict prefix of v;
        # the sign really depends on the symbol right after the prefix.
        u = w("0")
        for v in (w("00"), w("01"), w("010"), w("001")):
            prod = pointwise_mul(haar_function(u), haar_function(v))
            sign = -((-1.0) ** v.symbol(u.length))
            expected = (sign * SQRT2) * haar_function(v)
            assert is_close(prod, expected, atol=1e-12)
        assert not is_close(
            pointwise_mul(haar_function(u), haar_function(w("00"))),
            SQRT2 * haar_function(w("00")),
            atol=1e-9,
        )


class TestChainStates:
    def test_vacuum(self):
        v = state_n(0)
        assert v.depth == 1
        np.testing.assert_allclose(v.values, [-1.0, 1.0])

    def test_unit_norms(self):
        for n in range(6):
            assert l2_norm(state_n(n)) == pytest.approx(1.0, abs=1e-12)

    def test_levels_orthogonal(self):
        assert inner(state_n(1), state_n(0)) == pytest.approx(0.0, abs=1e-12)

    def test_kernel_state_over_empty_word(self):
        expected = (1 / SQRT2) * (haar_function(w("0")) - haar_function(w("1")))
        assert is_close(state_nw(0, EPSILON), expected, atol=1e-12)

    def test_chain_state_norms(self):
        for n in range(4):
            for u in [EPSILON] + list(words_up_to(2)):
                assert l2_norm(state_nw(n, u)) == pytest.approx(1.0, abs=1e-12)

    def test_star_alias(self):
        assert is_close(state_nw(0, None), state_n(0))

    def test_depths(self):
        assert state_nw(2, w("01")).depth == 2 + 2 + 2
        assert state_n(3).depth == 4

    def test_cap(self):
        with pytest.raises(ValueError):
            state_n(21)


class TestChainBatch:
    @pytest.mark.parametrize("n", range(6))
    def test_every_column_is_the_state_of_its_word(self, n):
        assert np.array_equal(chain_batch(n, None)[:, 0], state_n(n).values)
        for length in range(6):
            batch = chain_batch(n, length)
            assert batch.shape == (1 << (n + length + 2), 1 << length)
            for u in all_words(length):
                assert np.array_equal(batch[:, u.bits], state_nw(n, u).values)

    def test_a_column_slice_is_those_columns(self):
        full = chain_batch(3, 3)
        for cols in (slice(0, 1), slice(2, 5), slice(5, 8), slice(None)):
            assert np.array_equal(chain_batch(3, 3, cols), full[:, cols])

    @pytest.mark.parametrize("n", range(4))
    def test_columns_are_the_haar_sums(self, n):
        # 2**(-(n+1)/2) * (sum e_{u0w} - sum e_{u1w}) over the length-n words u
        for length in range(4):
            batch = chain_batch(n, length)
            for u in all_words(length):
                expected = constant(0.0)
                for v in all_words(n):
                    expected = expected + haar_function(Word(n + 1 + length, (v.bits << (length + 1)) | u.bits))
                    expected = expected - haar_function(Word(n + 1 + length, (((v.bits << 1) | 1) << length) | u.bits))
                assert is_close(DyadicFunction(n + length + 2, batch[:, u.bits]), 2.0 ** (-(n + 1) / 2) * expected, atol=1e-12)

    def test_caps(self):
        with pytest.raises(ValueError, match="chain level 21"):
            chain_batch(21, None)
        with pytest.raises(ValueError, match="chain level must be >= 0"):
            chain_batch(-1, 2)
        with pytest.raises(ValueError, match="depth cap"):
            chain_batch(20, 3)


class TestWoldCompleteness:
    @staticmethod
    def family(depth):
        fam = [constant(1.0)]
        fam += [state_n(n) for n in range(depth)]
        for ell in range(depth - 1):
            for u in all_words(ell):
                fam.extend(state_nw(n, u) for n in range(depth - 1 - ell))
        return fam

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_count_and_gram(self, depth):
        fam = self.family(depth)
        assert len(fam) == 1 << depth
        mat = np.stack([refine(f, depth).values * 2.0 ** (-depth / 2) for f in fam])
        assert np.max(np.abs(mat @ mat.T - np.eye(len(fam)))) < 1e-12


class TestRandomFunction:
    def test_unit_norm(self):
        f = random_function(3, 3, "unit-norm")
        assert l2_norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_constraint(self):
        f = random_function(3, 3, "kernel-of-L")
        assert l2_norm(ruelle_apply(f)) < 1e-12

    def test_first_coordinate_independence(self):
        f = random_function(4, 4, "independent-of-first-coordinate")
        half = f.values.size // 2
        np.testing.assert_array_equal(f.values[:half], f.values[half:])

    def test_determinism(self):
        a = random_function(11, 5)
        b = random_function(11, 5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            random_function(0, 3, "smooth")
        with pytest.raises(ValueError):
            random_batch(0, 3, 2, "smooth")

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_batch_of_one_is_the_function_bit_for_bit(self, constraint):
        for seed, depth in ((0, 1), (1, 3), (7, 6), (900, 8)):
            column = random_batch(seed, depth, 1, constraint)[:, 0]
            assert column.tobytes() == random_function(seed, depth, constraint).values.tobytes()

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_every_column_meets_the_constraint(self, constraint):
        batch = random_batch(5, 4, 30, constraint)
        assert batch.shape == (16, 30)
        assert batch[:, 0].tobytes() == random_function(5, 4, constraint).values.tobytes()
        assert len({col.tobytes() for col in batch.T}) == 30
        for col in batch.T:
            f = DyadicFunction(4, col)
            if constraint == "unit-norm":
                assert l2_norm(f) == pytest.approx(1.0, abs=1e-12)
            elif constraint == "kernel-of-L":
                assert l2_norm(ruelle_apply(f)) < 1e-12
            elif constraint == "independent-of-first-coordinate":
                np.testing.assert_array_equal(col[:8], col[8:])

    def test_a_depth_past_the_cap_is_refused_before_drawing(self):
        with pytest.raises(ValueError, match="outside"):
            random_batch(0, 40, 1)
        with pytest.raises(ValueError, match="outside"):
            random_function(0, -1)


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DyadicFunction(1, [np.nan, 0.0])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            DyadicFunction(2, [1.0, 2.0])

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            normalized(constant(0.0))

    def test_overflow_in_arithmetic_rejected(self):
        big = DyadicFunction(0, [1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                big + big


class TestValueSemantics:
    """Results never alias their inputs, at equal or mixed depths."""

    @pytest.mark.parametrize("depths", [(3, 3), (2, 4), (4, 2)])
    @pytest.mark.parametrize(
        "op", [lambda f, g: f + g, lambda f, g: f - g, pointwise_mul], ids=["add", "sub", "mul"]
    )
    def test_binary_results_are_fresh(self, op, depths):
        f, g = random_function(1, depths[0]), random_function(2, depths[1])
        out = op(f, g)
        assert not np.shares_memory(out.values, f.values)
        assert not np.shares_memory(out.values, g.values)

    def test_refine_at_own_depth_copies(self):
        f = random_function(3, 4)
        g = refine(f, f.depth)
        assert not np.shares_memory(g.values, f.values)
        g.values[0] += 1.0
        assert g.values[0] != f.values[0]


class TestRequireUnit:
    def test_accepts_unit_vectors(self):
        require_unit(haar_function(w("01")), "psi")
        require_unit(constant(1.0 + 0.5e-9), "psi")

    @pytest.mark.parametrize(
        "entry",
        [
            lambda psi: require_unit(psi, "psi"),
            Proj,
            lambda psi: projection_apply(psi, constant(1.0)),
            formulas.koopman_overlap,
            VectorState,
        ],
        ids=["require_unit", "Proj", "projection_apply", "formulas", "VectorState"],
    )
    def test_norm_1_1_rejected(self, entry):
        psi = constant(1.1)
        assert abs(l2_norm(psi) - 1.1) < 1e-15
        with pytest.raises(ValueError, match="unit norm"):
            entry(psi)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_batch_names_its_first_bad_column_and_overflows_without_a_warning(self):
        e = haar_function(w("01")).values
        batch = np.column_stack([e, np.full(e.size, 1e200), np.full(e.size, 2.0)])
        with pytest.raises(ValueError, match=r"^psi must have unit norm, got inf$"):
            require_unit_columns(batch, "psi")
        with pytest.raises(ValueError, match=r"^psi must have unit norm, got 2\.0$"):
            require_unit_columns(batch[:, [0, 2]], "psi")
        require_unit_columns(batch[:, :1], "psi")
        require_unit_columns(batch[:, :0], "psi")  # no columns, nothing to check
