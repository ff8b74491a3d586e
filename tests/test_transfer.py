import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkdirac.dyadic import (
    SQRT2,
    DyadicFunction,
    constant,
    haar_function,
    indicator,
    inner,
    is_close,
    l2_dist,
    l2_norm,
    random_function,
    refine,
    state_n,
    state_nw,
)
from rkdirac.transfer import (
    Adjoint,
    BoundOperator,
    CondExp,
    Compose,
    KernelProj,
    Koopman,
    Mult,
    Proj,
    Ruelle,
    Sum,
    apply_to_identity,
    assemble,
    commutator_with_K,
    commutator_with_L,
    cond_expectation,
    coords,
    identity,
    kernel_projection,
    koopman_apply,
    mult_apply,
    projection_apply,
    ruelle_apply,
    scaled,
)
from rkdirac import transfer
from rkdirac.words import EPS0, EPS1, EPSILON, Word, shift


def w(text):
    return Word.from_string(text)


class TestRuelle:
    def test_haar_element_shifts(self):
        word = w("011")
        got = ruelle_apply(haar_function(word))
        assert is_close(got, (1 / SQRT2) * haar_function(shift(word)), atol=1e-12)

    def test_fixes_constants(self):
        assert is_close(ruelle_apply(constant(1.0)), constant(1.0))
        assert ruelle_apply(constant(3.0)).depth == 0

    def test_kills_vacuum(self):
        assert l2_norm(ruelle_apply(state_n(0))) < 1e-12

    def test_cylinder_average(self):
        f = random_function(0, 4)
        g = ruelle_apply(f)
        half = f.values.size // 2
        np.testing.assert_allclose(g.values, 0.5 * (f.values[:half] + f.values[half:]))


class TestKoopman:
    def test_haar_element_lifts(self):
        word = w("01")
        expected = (1 / SQRT2) * (haar_function(w("001")) + haar_function(w("101")))
        assert is_close(koopman_apply(haar_function(word)), expected, atol=1e-12)

    def test_eps1_image(self):
        expected = SQRT2 * (indicator(w("01")) + indicator(w("11")))
        assert is_close(koopman_apply(haar_function(EPS1)), expected, atol=1e-12)

    def test_fixes_constants(self):
        assert is_close(koopman_apply(constant(1.0)), constant(1.0))

    def test_isometry(self):
        for seed in range(20):
            f = random_function(seed, 6)
            assert abs(l2_norm(koopman_apply(f)) - l2_norm(f)) < 1e-12


class TestAdjointPair:
    def test_basis_pair(self):
        f, g = haar_function(w("0")), haar_function(w("10"))
        lhs, rhs = inner(koopman_apply(f), g), inner(f, ruelle_apply(g))
        assert lhs == pytest.approx(1 / SQRT2, abs=1e-12)
        assert rhs == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_constants(self):
        one = constant(1.0)
        assert (inner(koopman_apply(one), one), inner(one, ruelle_apply(one))) == (1.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_random_pairs(self, s1, s2):
        f = random_function(s1, 6)
        g = random_function(s2, 6)
        lhs, rhs = inner(koopman_apply(f), g), inner(f, ruelle_apply(g))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_left_inverse(self):
        for seed in range(100):
            f = random_function(seed, 8)
            assert l2_dist(ruelle_apply(koopman_apply(f)), f) < 1e-12


class TestCondExpectation:
    def test_fixes_first_coordinate_independent(self):
        f = random_function(2, 5, "independent-of-first-coordinate")
        assert l2_dist(cond_expectation(1, f), f) < 1e-12

    def test_eps1_image_is_constant(self):
        got = cond_expectation(1, haar_function(EPS1))
        assert is_close(got, (1 / SQRT2) * constant(1.0), atol=1e-12)

    def test_idempotent(self):
        for n in (1, 2, 3):
            for seed in range(10):
                f = random_function(seed, 6)
                once = cond_expectation(n, f)
                assert l2_dist(cond_expectation(n, once), once) < 1e-12

    def test_fixed_space_dimension(self):
        # the fixed space at depth d has dimension 2**(d - n)
        for n in (1, 2):
            m = assemble(CondExp(n), 5).matrix
            assert np.trace(m) == pytest.approx(2 ** (5 - n), abs=1e-12)
            np.testing.assert_allclose(m @ m, m, atol=1e-12)
            np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            cond_expectation(0, constant(1.0))


class TestKernelProjection:
    def test_fixes_kernel_states(self):
        for word in (EPSILON, w("0"), w("10")):
            st_ = state_nw(0, word)
            assert l2_dist(kernel_projection(st_), st_) < 1e-12

    def test_kills_koopman_range(self):
        g = random_function(9, 5)
        assert l2_norm(kernel_projection(koopman_apply(g))) < 1e-12

    def test_basis_example(self):
        got = kernel_projection(haar_function(w("0")))
        expected = 0.5 * (haar_function(w("0")) - haar_function(w("1")))
        assert is_close(got, expected, atol=1e-12)

    def test_matches_operator_commutator(self):
        for seed in range(30):
            f = random_function(seed, 6)
            lk = ruelle_apply(koopman_apply(f))
            kl = koopman_apply(ruelle_apply(f))
            assert l2_dist(lk - kl, kernel_projection(f)) < 1e-12

    def test_projection_properties(self):
        f = random_function(4, 6)
        p = kernel_projection(f)
        assert l2_norm(ruelle_apply(p)) < 1e-12
        assert l2_dist(kernel_projection(p), p) < 1e-12
        assert abs(inner(p, f - p)) < 1e-12


class TestMultAndProj:
    def test_mult_unit(self):
        g = random_function(1, 4)
        assert is_close(mult_apply(constant(1.0), g), g)

    def test_mult_haar_square(self):
        e = haar_function(w("01"))
        assert is_close(mult_apply(e, e), 4.0 * indicator(w("01")), atol=1e-12)

    def test_mult_of_one_recovers_multiplier(self):
        f = random_function(2, 3)
        assert is_close(mult_apply(f, constant(1.0)), f)

    def test_projection_idempotent(self):
        psi = random_function(5, 4, "unit-norm")
        phi = random_function(6, 4)
        once = projection_apply(psi, phi)
        assert is_close(projection_apply(psi, once), once, atol=1e-12)

    def test_projection_orthogonal_kill(self):
        got = projection_apply(haar_function(w("01")), haar_function(w("10")))
        assert l2_norm(got) < 1e-15

    def test_projection_of_child_indicator(self):
        word = w("01")
        got = projection_apply(haar_function(word), indicator(w("011")))
        expected = 2.0 ** (-word.length / 2 - 1) * haar_function(word)
        assert is_close(got, expected, atol=1e-12)

    def test_projection_requires_unit_vector(self):
        with pytest.raises(ValueError, match="unit norm"):
            projection_apply(constant(2.0), constant(1.0))


class TestAssemble:
    def test_ruelle_at_depth_one(self):
        m = assemble(Ruelle(), 1).matrix
        np.testing.assert_allclose(m, [[1 / SQRT2, 1 / SQRT2]], atol=1e-15)

    def test_koopman_columns_orthonormal(self):
        for d in range(1, 7):
            m = assemble(Koopman(), d).matrix
            np.testing.assert_allclose(m.T @ m, np.eye(1 << d), atol=1e-12)

    def test_identity_assembles_to_identity(self):
        m = assemble(identity(), 4).matrix
        np.testing.assert_allclose(m, np.eye(16), atol=1e-15)

    def test_matvec_agrees_with_application(self):
        ops = [
            Ruelle(),
            Koopman(),
            Mult(random_function(0, 3)),
            Proj(random_function(1, 3, "unit-norm")),
            CondExp(2),
            KernelProj(),
            commutator_with_K(Proj(haar_function(w("01")))),
            commutator_with_L(CondExp(1)),
        ]
        f = random_function(2, 4)
        for op in ops:
            am = assemble(op, 4)
            direct = coords(op.apply(f), am.out_depth)
            via = am.matrix @ coords(f, 4)
            assert np.max(np.abs(direct - via)) < 1e-12, op.describe()

    def test_adjoint_assembles_to_transpose(self):
        cases = [
            (Ruelle(), 4, 3),
            (Koopman(), 3, 4),
            (CondExp(2), 4, 4),
            (KernelProj(), 3, 3),
            (Mult(random_function(3, 2)), 4, 4),
            (Proj(random_function(4, 3, "unit-norm")), 3, 3),
        ]
        for op, d_fwd, d_adj in cases:
            fwd = assemble(op, d_fwd).matrix
            adj = assemble(Adjoint(op), d_adj).matrix
            assert np.max(np.abs(fwd - adj.T)) < 1e-12, op.describe()

    def test_double_adjoint_is_original(self):
        op = Adjoint(Adjoint(Koopman()))
        np.testing.assert_allclose(assemble(op, 3).matrix, assemble(Koopman(), 3).matrix)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            assemble(Koopman(), 24)


class TestCommutatorSpecs:
    def test_identity_commutes(self):
        f = random_function(0, 4)
        for comm in (commutator_with_K(identity()), commutator_with_L(identity())):
            assert l2_norm(comm.apply(f)) < 1e-12

    def test_constant_multiplier_commutes(self):
        a = Mult(constant(2.5))
        f = random_function(1, 4)
        assert l2_norm(commutator_with_K(a).apply(f)) < 1e-12
        assert l2_norm(commutator_with_L(a).apply(f)) < 1e-12

    def test_condexp_commutator_collapses(self):
        # K (K L) - (K L) K = K (K L - I): check on the raised image of a
        # function that does not ignore the first coordinate.
        f = random_function(2, 4)
        got = commutator_with_K(CondExp(1)).apply(f)
        expected = koopman_apply(cond_expectation(1, f) - f)
        assert l2_dist(got, expected) < 1e-12

    def test_scaled_weights(self):
        a = scaled(Proj(haar_function(w("01"))), -2.0)
        f = random_function(3, 3)
        assert is_close(a.apply(f), -2.0 * projection_apply(haar_function(w("01")), f), atol=1e-12)

    def test_sum_promotes_depths(self):
        s = Sum((Koopman(), Ruelle()), (1.0, 1.0))
        f = random_function(4, 3)
        got = s.apply(f)
        assert got.depth == 4
        assert is_close(got, koopman_apply(f) + refine(ruelle_apply(f), 4), atol=1e-12)

    def test_compose_order(self):
        # Compose((K, L)) applies L first
        f = random_function(5, 3)
        got = Compose((Koopman(), Ruelle())).apply(f)
        assert is_close(got, koopman_apply(ruelle_apply(f)), atol=1e-12)

    def test_sum_weight_arity_checked(self):
        with pytest.raises(ValueError):
            Sum((Koopman(),), (1.0, 2.0))

    @pytest.mark.parametrize("weight", [float("inf"), -float("inf"), float("nan"), 1e400])
    def test_a_non_finite_sum_weight_is_refused_when_the_sum_is_built(self, weight):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="sum weight values must be finite"):
            Sum((Koopman(), Ruelle()), (1.0, weight))


class TestOneApplyPath:
    # OperatorSpec.apply is defined once, over apply_batch; each leaf's free
    # function reaches the same kernel and must give the same function.
    # cond_expectation and kernel_projection are CondExp(n).apply and
    # KernelProj().apply themselves; TestBuiltFromThePair checks their kernels.
    @pytest.mark.parametrize("in_depth", [0, 2, 3, 5], ids=["depth-0", "shallower", "equal", "deeper"])
    @pytest.mark.parametrize("kind", ["ruelle", "koopman", "mult", "proj"])
    def test_spec_apply_is_the_free_function(self, kind, in_depth):
        g = random_function(22, 3)  # the depth-3 operand of Mult and Proj
        psi = random_function(21, 3, "unit-norm")
        spec, free = {
            "ruelle": (Ruelle(), ruelle_apply),
            "koopman": (Koopman(), koopman_apply),
            "mult": (Mult(g), lambda f: mult_apply(g, f)),
            "proj": (Proj(psi), lambda f: projection_apply(psi, f)),
        }[kind]
        f = random_function(30 + in_depth, in_depth)
        got, want = spec.apply(f), free(f)
        assert got.depth == want.depth
        np.testing.assert_array_equal(got.values, want.values)


class TestOperatorValidation:
    def test_proj_requires_unit(self):
        with pytest.raises(ValueError):
            Proj(constant(0.5))

    def test_condexp_requires_positive_order(self):
        with pytest.raises(ValueError):
            CondExp(0)


def _condexp_loop(n, x):
    """Reference: K^n L^n as the loop over the two kernels it once had."""
    for _ in range(n):
        x = transfer._ruelle(x)
    for _ in range(n):
        x = transfer._koopman(x)
    return x


def _kernel_proj_loop(x):
    """Reference: I - K L as the one subtraction it once had."""
    y = _condexp_loop(1, x)
    return transfer._refine_rows(x, transfer._depth(y)) - y


def _assert_form_equal(form, terms, rank_one=()):
    """form has the given terms and rank-one pairs, array for array."""
    assert len(form.terms) == len(terms) and len(form.rank_one) == len(rank_one)
    for t, u in zip(form.terms, terms):
        assert t[1:3] == u[1:3]
        np.testing.assert_array_equal(t[0], u[0])
        np.testing.assert_array_equal(t[3], u[3])
    for t, u in zip(form.rank_one, rank_one):
        np.testing.assert_array_equal(t[0], u[0])
        np.testing.assert_array_equal(t[1], u[1])


class TestBuiltFromThePair:
    """CondExp(n) is the composition K^n L^n and KernelProj() the sum I - K L."""

    @pytest.mark.parametrize("depth", range(9))
    def test_kernels_equal_the_reference_loops_bit_for_bit(self, depth):
        rng = np.random.default_rng(depth)
        for x in (rng.standard_normal(1 << depth), rng.standard_normal((1 << depth, 7))):
            for n in (1, 2, 3, 4):
                assert np.array_equal(CondExp(n).apply_batch(x), _condexp_loop(n, x))
                assert CondExp(n).out_depth(depth) == max(depth, n)
            assert np.array_equal(KernelProj().apply_batch(x), _kernel_proj_loop(x))
            assert KernelProj().out_depth(depth) == max(depth, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_condexp_normal_form_is_one_term(self, n):
        _assert_form_equal(CondExp(n).normal_form, [(np.ones(1), n, n, np.ones(1))])

    def test_kernel_proj_normal_form_is_identity_minus_kl(self):
        _assert_form_equal(KernelProj().normal_form, [(np.ones(1), 0, 0, np.ones(1)), (-np.ones(1), 1, 1, np.ones(1))])

    def test_describe(self):
        assert CondExp(2).describe() == "(koopman . koopman . ruelle . ruelle)"
        assert KernelProj().describe() == "[1*identity + -1*(koopman . ruelle)]"

    @pytest.mark.parametrize("n", [0, -1, 25, 10**9])
    def test_an_order_outside_the_cap_is_refused_before_the_tuple_is_built(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"order -?\d+ outside \[1, 24\]"):
                CondExp(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _leaf_specs():
    seeds = st.integers(0, 10**6)
    return st.one_of(
        st.just(Ruelle()),
        st.just(Koopman()),
        st.just(KernelProj()),
        st.just(identity()),
        st.just(Sum(())),
        st.integers(1, 3).map(CondExp),
        st.tuples(seeds, st.integers(0, 4)).map(lambda a: Mult(random_function(a[0], a[1]))),
        st.tuples(seeds, st.integers(0, 4)).map(lambda a: Proj(random_function(a[0], a[1], "unit-norm"))),
    )


def _specs():
    weights = st.floats(-2.0, 2.0, allow_nan=False)
    return st.recursive(
        _leaf_specs(),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(Compose),
            st.lists(st.tuples(children, weights), min_size=1, max_size=3).map(
                lambda terms: Sum([t[0] for t in terms], [t[1] for t in terms])
            ),
            children.map(Adjoint),
        ),
        max_leaves=6,
    )


# M_f L^15 = L^15 M_{K^15 f}, f of depth 10: K^15 f would be a depth-25 function.
_PAST_THE_CAP = Compose((Mult(random_function(0, 10)),) + (Ruelle(),) * 15)


class TestCommutator:
    @settings(max_examples=100, deadline=None)
    @given(_specs())
    @example(_PAST_THE_CAP)
    def test_its_form_is_that_of_the_sum_of_its_compositions(self, a):
        # the form derived from A's own is the generic Sum's, array for array;
        # deriving the generic form raises exactly when the block's form does
        for s, block in ((Koopman(), commutator_with_K(a)), (Ruelle(), commutator_with_L(a))):
            assert block.ops[0].ops == (s, a)
            try:
                generic = Sum(block.ops, block.weights).normal_form
            except ValueError:
                with pytest.raises(ValueError, match="depth cap 24"):
                    block.normal_form
                continue
            _assert_form_equal(block.normal_form, generic.terms, generic.rank_one)

    def test_a_form_past_the_depth_cap_raises_the_depth_cap(self):
        for block in (commutator_with_K(_PAST_THE_CAP), commutator_with_L(_PAST_THE_CAP)):
            with pytest.raises(ValueError, match="depth cap 24"):
                block.normal_form


class TestBatchedAssemble:
    @settings(max_examples=150, deadline=None)
    @given(_specs(), st.integers(0, 7))
    def test_matches_column_by_column_reference(self, op, depth):
        am = assemble(op, depth)
        scale = 2.0 ** (depth / 2.0)
        reference = np.empty_like(am.matrix)
        for j in range(1 << depth):
            basis = np.zeros(1 << depth)
            basis[j] = scale
            image = op.apply(DyadicFunction(depth, basis))
            reference[:, j] = coords(image, am.out_depth)
        np.testing.assert_allclose(am.matrix, reference, rtol=0.0, atol=1e-12)

    def test_adjoint_is_resolved_once(self):
        calls = []

        class Counting(Ruelle):
            def adjoint(self):
                calls.append(1)
                return Koopman()

        op = Adjoint(Counting())
        f = random_function(1, 3)
        for _ in range(3):
            op.apply(f)
        op.out_depth(3)
        assemble(op, 3)
        assert len(calls) == 1


class TestSumBatch:
    def test_result_never_aliases_the_input(self):
        # identity() returns its input unchanged, so the first weighted part
        # must be a fresh array before the second one is added into it.
        x = np.random.default_rng(1).standard_normal((8, 3))
        before = x.copy()
        out = Sum((identity(), identity()), (1.0, 1.0)).apply_batch(x)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(out, 2.0 * before)

    def test_first_member_at_a_coarser_depth(self):
        # Ruelle lands one depth coarser than Koopman; the first part is
        # refined up to the common depth before the second is added.
        x = np.random.default_rng(2).standard_normal((8, 2))
        out = Sum((Ruelle(), Koopman()), (2.0, -1.0)).apply_batch(x)
        half = 0.5 * (x[:4] + x[4:])
        expected = 2.0 * np.repeat(half, 4, axis=0) - np.concatenate([x, x])
        assert out.shape == (16, 2)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)


class TestIdentityChunks:
    @pytest.mark.parametrize("step", [1, 7, 64])  # 64: all columns in one chunk
    def test_chunk_width_does_not_change_the_matrix(self, monkeypatch, step):
        a = BoundOperator(commutator_with_L(Mult(random_function(5, 3))), 6)
        width = max(a.shape)
        reference = np.column_stack([a.matvec(col) for col in np.eye(a.shape[1])])
        monkeypatch.setattr(transfer, "CHUNK_BYTES", 8 * width * step)
        np.testing.assert_array_equal(apply_to_identity(a.matvec, a.shape, width), reference)


class TestBoundOperatorFiniteness:
    def test_rmatvec_rejects_non_finite_values(self):
        # M_f is finite for |f| near 1e160, but its adjoint applied to an
        # image of that size is not.
        f = random_function(0, 2) * 1e160
        a = BoundOperator(Mult(f), 3)
        y = a.matvec(np.ones(8))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            a.rmatvec(y)

    def test_a_wrong_row_count_is_refused(self):
        a = BoundOperator(Koopman(), 3)  # 16 x 8
        with pytest.raises(ValueError, match="expected 8 rows, got 16"):
            a.matvec(np.ones(16))
        with pytest.raises(ValueError, match="expected 16 rows, got 8"):
            a.rmatvec(np.ones((8, 2)))

    def test_gram_rejects_non_finite_values(self):
        f = random_function(0, 2) * 1e160
        n, _, gram = BoundOperator(Mult(f), 3).gram()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            gram(np.ones(n))


class TestGram:
    @settings(max_examples=150, deadline=None)
    @given(_specs(), st.integers(3, 7))
    def test_equals_the_product_of_matvec_and_rmatvec(self, op, depth):
        a = BoundOperator(op, depth)
        rows, cols = a.shape
        n, width, gram = a.gram()
        # the widest array is a side, or the adjoint's output on the output-depth space
        assert (n, width) == (min(rows, cols), max(rows, cols, 1 << op.adjoint().out_depth(a.out_depth)))
        v = np.random.default_rng(depth).standard_normal((n, 3))
        product = a.rmatvec(a.matvec(v)) if cols <= rows else a.matvec(a.rmatvec(v))
        got = gram(v)
        assert got.shape == product.shape
        assert np.abs(got - product).max() <= 1e-12 * max(1.0, np.abs(product).max())
        assert gram(v[:, 0]).shape == (n,)

    @pytest.mark.parametrize("depth", [6, 7])
    def test_both_sides_of_a_rectangular_block(self, depth):
        # A^T A for the tall upper block, A A^T for the wide lower one
        f = random_function(5, 3)
        for op, tall in ((commutator_with_K(Mult(f)), True), (commutator_with_L(Mult(f)), False)):
            a = BoundOperator(op, depth)
            assert (a.shape[1] < a.shape[0]) == tall
            m = assemble(op, depth).matrix
            n, _, gram = a.gram()
            expected = m.T @ m if tall else m @ m.T
            np.testing.assert_allclose(apply_to_identity(gram, (n, n), max(a.shape)), expected, rtol=0.0, atol=1e-12)
