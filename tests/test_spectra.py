import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkdirac.dirac import commutator_norm
from rkdirac.dyadic import SQRT2, DyadicFunction, constant, haar_function, indicator, inner, random_function
from rkdirac import spectra, transfer
from rkdirac.formulas import backward_rms_norm
from rkdirac.spectra import depth_sweep, operator_norm
from rkdirac.transfer import (
    Adjoint,
    BoundOperator,
    Compose,
    CondExp,
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
    dirac_blocks,
    identity,
    koopman_apply,
    scaled,
)
from rkdirac.words import Word
from test_dirac import _shifted_sums
from test_transfer import _specs


def w(text):
    return Word.from_string(text)


def _reference_lanczos(n, gram_apply, tol):
    """The earlier loop: the basis is re-stacked and T re-padded at every step."""
    if n == 0:
        return 0.0, 0, True, 0.0
    rng = np.random.default_rng(spectra._START_SEED)
    start = np.column_stack([rng.standard_normal(n), rng.standard_normal(n)])
    start /= np.linalg.norm(start, axis=0)
    basis, t = np.empty((n, 0)), np.empty((0, 0))
    block = spectra._extend(basis, start, np.empty((0, 2)), np.linalg.norm(start))
    scale = 0.0
    while True:
        z = gram_apply(block)
        scale = max(scale, float(np.linalg.norm(z)))
        basis = np.hstack([basis, block])
        coeffs = basis.T @ z
        m, prev = basis.shape[1], t.shape[0]
        t = np.pad(t, ((0, m - prev), (0, m - prev)))
        t[:, prev:] = coeffs
        thetas, vecs = np.linalg.eigh(t, UPLO="U")
        theta, y = float(thetas[-1]), vecs[:, -1]
        block = spectra._extend(basis, z, coeffs, scale)
        residual = float(np.linalg.norm((block.T @ z) @ y[prev:]))
        sigma = math.sqrt(max(theta, 0.0))
        if residual <= tol * sigma * max(1.0, sigma) or block.shape[1] == 0:
            return theta, m, True, residual
        if m + block.shape[1] > spectra.KRYLOV_BUDGET:
            return theta, m, False, residual


def _multiplier(scale=1.0):
    """A depth-6 multiplier: sweep-mult's third member (base seed 2), scaled."""
    return Mult(DyadicFunction(6, scale * np.random.default_rng(2).standard_normal(64)))


class TestOperatorNorm:
    def test_zero_matrix(self):
        est = operator_norm(np.zeros((8, 4)))
        assert est.value == 0.0
        assert est.converged

    def test_koopman_is_isometry(self):
        for d in range(1, 9):
            est = operator_norm(assemble(Koopman(), d))
            assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_ruelle_norm_one(self):
        for d in range(1, 9):
            assert operator_norm(assemble(Ruelle(), d)).value == pytest.approx(1.0, abs=1e-10)

    def test_haar_projection_commutator(self):
        m = assemble(commutator_with_K(Proj(haar_function(w("01")))), 3)
        assert operator_norm(m).value == pytest.approx(1.0, abs=1e-9)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((17, 9))
            assert operator_norm(a).value == pytest.approx(operator_norm(a.T).value, abs=1e-9)

    def test_power_matches_dense_random(self):
        rng = np.random.default_rng(1)
        for k in range(25):
            a = rng.standard_normal((rng.integers(2, 40), rng.integers(2, 40)))
            p = operator_norm(a, method="lanczos")
            d = operator_norm(a, method="dense")
            assert p.converged
            assert p.value == pytest.approx(d.value, abs=1e-10)

    def test_power_survives_zero_mean_leading_vector(self):
        # The top right-singular vector of this block is a Haar element, whose
        # coordinates sum to zero; the all-ones start alone would miss it.
        m = assemble(commutator_with_K(Proj(haar_function(w("01")))), 4)
        p = operator_norm(m, method="lanczos")
        d = operator_norm(m, method="dense")
        assert p.value == pytest.approx(d.value, abs=1e-10)
        assert p.value == pytest.approx(1.0, abs=1e-9)

    def test_power_matches_dense_structured(self):
        specs = [
            (Koopman(), 4),
            (Ruelle(), 4),
            (CondExp(2), 4),
            (commutator_with_K(CondExp(1)), 4),
            (commutator_with_K(Mult(SQRT2 * indicator(w("0")))), 3),
        ]
        for op, d in specs:
            m = assemble(op, d)
            p = operator_norm(m, method="lanczos")
            dn = operator_norm(m, method="dense")
            assert p.value == pytest.approx(dn.value, abs=1e-10), op.describe()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[np.inf, 0.0]]))

    def test_a_vector_is_refused(self):
        with pytest.raises(ValueError, match="expected a matrix, got ndim=1"):
            operator_norm(np.ones(3))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            operator_norm(np.eye(2), method="magic")


class TestDepthSweep:
    def test_haar_projection_plateaus(self):
        points = depth_sweep(Proj(haar_function(w("01"))), range(3, 7))
        for p in points:
            assert p.value == pytest.approx(1.0, abs=1e-9)
        assert points[-1].plateau

    def test_multiplier_constant_column(self):
        points = depth_sweep(Mult(SQRT2 * indicator(w("0"))), range(2, 7))
        for p in points:
            assert p.value == pytest.approx(1.0, abs=1e-9)

    def test_kernel_projection_vector_plateaus_at_one(self):
        from rkdirac.dyadic import normalized

        psi = normalized(random_function(11, 4, "kernel-of-L"))
        points = depth_sweep(Proj(psi), range(psi.depth, psi.depth + 4))
        for p in points[1:]:
            assert p.value == pytest.approx(1.0, abs=1e-8)
        assert points[-1].plateau

    def test_plateau_is_proved_from_the_core_depth(self):
        # R + I mixes shifts, so it has no core depth: equal values prove
        # nothing, and no row is flagged.
        points = depth_sweep(Sum((Ruelle(), identity())), range(2, 7))
        assert [p.value for p in points] == pytest.approx([1.0] * 5, abs=1e-12)
        assert not any(p.plateau for p in points)
        # A row is flagged once the previous row is at the core depth, 4 here.
        points = depth_sweep(Proj(haar_function(w("01"))), range(3, 7))
        assert [p.plateau for p in points] == [False, False, True, True]

    def test_flags_past_the_core_do_not_follow_the_values(self, monkeypatch):
        # The depth-6 multiplier's core depth is 7: from depth 8 on every row
        # is flagged, whatever values the solves report.
        values = iter([1.0e-12, 1.1e-12, 1.2e-12, 1.3e-12])

        estimates = {}

        def rising(m, method="auto"):
            # one value per depth, the same for both blocks
            if m.in_depth not in estimates:
                estimates[m.in_depth] = spectra.NormEstimate(next(values), 0, True, "dense", 0.0)
            return estimates[m.in_depth]

        monkeypatch.setattr(spectra, "operator_norm", rising)
        points = depth_sweep(_multiplier(), range(7, 11))
        assert [p.value for p in points] == [1.0e-12, 1.1e-12, 1.2e-12, 1.3e-12]
        assert [p.plateau for p in points] == [False, True, True, True]

    def test_points_carry_the_residual_of_the_estimate_that_set_them(self):
        # Mixed shifts have no exact solve: dense at depths 7-8, Lanczos at 9-10.
        op = Sum((Ruelle(), Mult(random_function(1, 2))))
        upper, lower = dirac_blocks(op)
        points = depth_sweep(op, range(7, 11))
        assert [p.method for p in points] == ["dense", "dense", "lanczos", "lanczos"]
        for p in points:
            eu, el = (operator_norm(BoundOperator(block, p.depth)) for block in (upper, lower))
            est = eu if eu.value >= el.value else el
            assert (p.method, p.residual) == (est.method, est.residual)
            if p.method == "dense":
                assert p.residual == 0.0
            else:
                assert 0.0 < p.residual <= 1e-12 * p.value * max(1.0, p.value)
        for p in depth_sweep(_multiplier(), range(7, 11)):
            assert (p.method, p.iterations, p.residual) == ("exact-diagonal", 0, 0.0)

    def test_identity_sweeps_to_zero(self):
        points = depth_sweep(identity(), range(1, 5))
        assert all(p.value < 1e-12 for p in points)

    def test_values_nondecreasing(self):
        psi = random_function(3, 4, "unit-norm")
        points = depth_sweep(Proj(psi), range(2, 7))
        values = [p.value for p in points]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-10


class TestMatrixFree:
    @pytest.mark.parametrize("depth", range(4, 9))
    def test_matches_svd_of_assembled_block(self, monkeypatch, depth):
        # Every block is solved three ways: under auto (exact where its normal
        # form allows), and forced onto the Lanczos or dense path.
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 8)
        psi = random_function(7, 3, "unit-norm")
        mixed = Sum((Proj(haar_function(w("01"))), Mult(random_function(1, 2))), (1.0, 0.05))  # no exact solve
        tall = [  # A^T A
            (commutator_with_K(Proj(psi)), "exact-rank-r"),
            (commutator_with_K(CondExp(2)), "exact-block"),
            (commutator_with_K(mixed), None),
            (Koopman(), "exact-diagonal"),
        ]
        wide = [  # A A^T
            (commutator_with_L(Mult(random_function(9, 3))), "exact-diagonal"),
            (commutator_with_L(Proj(psi)), "exact-rank-r"),
            (commutator_with_L(CondExp(2)), "exact-block"),
            (commutator_with_L(mixed), None),
            (Ruelle(), "exact-diagonal"),
        ]
        for ops, tall_side in ((tall, True), (wide, False)):
            for op, exact in ops:
                bound = BoundOperator(op, depth)
                rows, cols = bound.shape
                assert (cols < rows) if tall_side else (rows < cols)
                krylov = "lanczos" if min(rows, cols) > 8 else "dense"
                expected = np.linalg.svd(assemble(op, depth).matrix, compute_uv=False)[0]
                for method, want in (("auto", exact or krylov), (krylov, krylov), ("dense", "dense")):
                    est = operator_norm(bound, method=method)
                    assert est.method == want, op.describe()
                    assert abs(est.value - expected) <= 1e-12, op.describe()

    def test_transpose_is_exact(self):
        rng = np.random.default_rng(3)
        op = commutator_with_L(Mult(random_function(9, 3)))
        bound = BoundOperator(op, 5)
        x = rng.standard_normal((bound.shape[1], 3))
        y = rng.standard_normal((bound.shape[0], 3))
        m = assemble(op, 5).matrix
        np.testing.assert_allclose(bound.matvec(x), m @ x, atol=1e-12)
        np.testing.assert_allclose(bound.rmatvec(y), m.T @ y, atol=1e-12)

    def test_non_finite_values_rejected(self):
        # finite functions whose product overflows; a non-finite Sum weight is
        # refused when the Sum is built (test_transfer.py)
        op = Compose((Mult(constant(1e300)), Mult(constant(1e300))))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            operator_norm(BoundOperator(op, 3))


class TestLanczos:
    @settings(max_examples=150, deadline=None)
    @given(_specs(), st.integers(3, 7))
    # After 4 vectors this Krylov space is exhausted but for about 1e-10 of
    # signal, so from there on the residual is rounding noise: the in-place
    # run stopped at 12 vectors and the earlier loop at 6.
    @example(op=Sum((Mult(DyadicFunction(1, [0.34558419, 0.82161814])), Compose((Proj(constant(1.0)),))), (-1.0, 1e-10)), depth=4)
    def test_random_composites_match_dense(self, op, depth):
        bound = BoundOperator(op, depth)
        est = operator_norm(bound, method="lanczos")
        dense = operator_norm(bound, method="dense")
        assert est.converged
        # A cluster of eigenvalues within the stopping residual of each other
        # can leave the Ritz value a few residuals low; it is never high.
        assert abs(est.value - dense.value) <= 1e-10 * max(1.0, dense.value)
        assert est.value <= dense.value + 1e-12
        # The in-place basis changes only roundoff against the earlier loop, so
        # the two agree on the value and on convergence.  The vector counts are
        # not gated: where the residual falls steadily they agree, but where
        # the residual is down at rounding level before it meets the stopping
        # test, rounding alone decides the step at which it does.
        n, _, gram_apply = spectra._gram(bound)
        theta, _, converged, _ = _reference_lanczos(n, gram_apply, 1e-12)
        ref = math.sqrt(max(theta, 0.0))
        assert abs(est.value - ref) <= 1e-12 * max(1.0, ref)
        assert est.converged == converged

    @pytest.mark.parametrize("depth", range(4, 9))
    def test_repeated_top_value_converges(self, depth):
        # The top singular value of this block is repeated; power iteration
        # stalled on it for over 1,200 steps and reported non-convergence.
        op = commutator_with_L(Mult(random_function(8, 2)))
        est = operator_norm(BoundOperator(op, depth), method="lanczos")
        expected = np.linalg.svd(assemble(op, depth).matrix, compute_uv=False)
        assert expected[1] == pytest.approx(expected[0], abs=1e-12)
        assert est.converged and est.method == "lanczos"
        assert abs(est.value - expected[0]) <= 1e-12
        assert est.iterations < 100

    def test_sweep_multiplier_at_depth_11_needs_no_fallback(self):
        from rkdirac.dyadic import DyadicFunction
        from rkdirac.transfer import dirac_blocks

        # Forced onto Lanczos: under auto both blocks are solved exactly.
        f = DyadicFunction(6, np.random.default_rng(2).standard_normal(64))
        upper, lower = dirac_blocks(Mult(f))
        eu, el = (operator_norm(BoundOperator(block, 11), method="lanczos") for block in (upper, lower))
        xu, xl = (operator_norm(BoundOperator(block, 11)) for block in (upper, lower))
        for est, exact in ((eu, xu), (el, xl)):
            assert est.method == "lanczos" and est.converged
            assert est.fallback is False
            assert est.residual <= 1e-12 * est.value * max(1.0, est.value)
            assert exact.method == "exact-diagonal"
            assert abs(est.value - exact.value) <= 1e-12 * exact.value

    def test_rank_one_orthogonal_to_ones_is_exact(self):
        # All-ones alone would miss v.  G maps both start columns onto v, so
        # the block-scale test deflates the second; the Krylov space is then
        # exhausted after one live direction, and the value is exact.
        rng = np.random.default_rng(4)
        v = np.tile([1.0, -1.0], 200) / math.sqrt(400)
        u = rng.standard_normal(700)
        a = 3.0 * np.outer(u / np.linalg.norm(u), v)
        est = operator_norm(a, method="lanczos")
        assert est.converged and est.residual == 0.0
        assert est.iterations <= 4
        assert abs(est.value - 3.0) <= 1e-12

    def test_exhausted_krylov_space_is_exact(self):
        # A Haar projection's commutator blocks have rank two at every depth.
        op = commutator_with_K(Proj(haar_function(w("01"))))
        est = operator_norm(BoundOperator(op, 10), method="lanczos")
        assert est.converged and est.residual == 0.0
        assert abs(est.value - 1.0) <= 1e-12

    def test_budget_exhausted_falls_back_under_auto(self, monkeypatch):
        monkeypatch.setattr(spectra, "KRYLOV_BUDGET", 4)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 8)
        a = np.random.default_rng(6).standard_normal((60, 50))
        forced = operator_norm(a, method="lanczos")
        assert not forced.converged and forced.iterations <= 4
        auto = operator_norm(a)
        assert auto.method == "dense" and auto.fallback and auto.converged and auto.residual == 0.0
        assert auto.value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-12)
        assert forced.value <= auto.value + 1e-12

    def test_exact_eigenvector_in_the_start_span_does_not_stop_the_run(self):
        # G = 4 P_1 + 9 P_h: the all-ones vector is an exact eigenvector of G.
        # A start block containing it has an exact top Ritz pair (4, ones) with
        # residual 0 after one step, and stopped at the value 2.
        # Forced onto Lanczos: under auto this rank-two sum is solved exactly.
        op = Sum((Proj(constant(1.0)), Proj(haar_function(w("01")))), (2.0, 3.0))
        for depth in (9, 10):
            est = operator_norm(BoundOperator(op, depth), method="lanczos")
            assert est.method == "lanczos" and est.converged
            assert abs(est.value - 3.0) <= 1e-12
            exact = operator_norm(BoundOperator(op, depth))
            assert exact.method == "exact-rank-r" and abs(exact.value - 3.0) <= 1e-12

    def test_small_norm_is_not_stopped_at_a_rayleigh_quotient(self):
        # A residual test absolute in the Gram eigenvalue (1e-12 against
        # value**2 = 1e-18) passed at the first step and gave 7.2e-10.
        op = Sum((Ruelle(), Koopman()), (1e-9, 0.0))
        est = operator_norm(BoundOperator(op, 10))
        assert est.method == "lanczos" and est.converged
        assert abs(est.value - 1e-9) <= 1e-12 * 1e-9

    def test_basis_grows_in_place_below_the_earlier_peak(self):
        # The earlier loop held the old and the re-stacked basis at once on
        # every step; the in-place basis is resized without a second copy.
        upper, _ = dirac_blocks(_multiplier())
        n, _, gram_apply = spectra._gram(BoundOperator(upper, 14))
        peaks, results = [], []
        for solve in (_reference_lanczos, spectra._lanczos):
            tracemalloc.start()
            try:
                results.append(solve(n, gram_apply, 1e-12))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        (ref_theta, ref_m, _, _), (theta, m, converged, _) = results
        assert converged and abs(m - ref_m) <= 2
        assert abs(math.sqrt(theta) - math.sqrt(ref_theta)) <= 1e-12 * math.sqrt(ref_theta)
        assert peaks[1] <= peaks[0], peaks

    def test_basis_growth_keeps_earlier_columns(self, monkeypatch):
        # No spare columns: the basis is resized on every step.
        monkeypatch.setattr(spectra, "_GROW", 0)
        op = commutator_with_L(Mult(random_function(8, 2)))
        n, _, gram_apply = spectra._gram(BoundOperator(op, 8))
        theta, m, converged, _ = spectra._lanczos(n, gram_apply, 1e-12)
        ref_theta, ref_m, _, _ = _reference_lanczos(n, gram_apply, 1e-12)
        assert converged and m > 2 and abs(m - ref_m) <= 2
        assert abs(theta - ref_theta) <= 1e-12 * ref_theta

    def test_basis_growth_runs_under_a_profiler(self):
        # A profiler holds an extra reference to the basis array during the
        # resize call; the in-place resize must not refuse it.
        import cProfile

        upper, _ = dirac_blocks(_multiplier())
        est = cProfile.Profile().runcall(operator_norm, BoundOperator(upper, 9), method="lanczos")
        assert est.converged and est.iterations > 2 * spectra._GROW

    def test_gram_entries_above_1e154_keep_the_value(self):
        # The squares of such a Gram vector overflow; an infinite block scale
        # deflated every direction and stopped at the first Ritz value, 61% low.
        # Forced onto Lanczos: under auto the blocks are solved exactly.
        for scale in (1e100, 1e140):
            for base, big in zip(dirac_blocks(_multiplier()), dirac_blocks(_multiplier(scale))):
                expected = operator_norm(BoundOperator(base, 10), method="lanczos").value * scale
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    est = operator_norm(BoundOperator(big, 10), method="lanczos")
                    exact = operator_norm(BoundOperator(big, 10))
                assert est.method == "lanczos" and est.converged
                assert abs(est.value - expected) <= 1e-12 * expected
                assert exact.method == "exact-diagonal" and abs(exact.value - expected) <= 1e-12 * expected

    def test_overflowing_gram_is_a_typed_error(self):
        # |f| near 1e160: the blocks are finite, their Gram operator is not.
        upper, lower = dirac_blocks(_multiplier(1e160))
        for block, depth in ((upper, 9), (lower, 9), (upper, 7)):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite") as info:
                operator_norm(BoundOperator(block, depth))
            assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_overflowing_gram_of_a_matrix_is_a_typed_error(self, method):
        # The assembled block is finite; its Gram matrix A^T A is not.
        with np.errstate(all="ignore"):
            m = assemble(commutator_with_L(Mult(random_function(0, 6) * 1e160)), 7)
            with pytest.raises(ValueError, match="finite") as info:
                operator_norm(m, method=method)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_power_method_is_gone(self):
        with pytest.raises(ValueError):
            operator_norm(np.eye(2), method="power")


def _dense_sigma(g):
    return spectra._dense_sigma_max(g.shape[0], g.shape[0], lambda v: g @ v)


class TestDenseReduction:
    @pytest.mark.parametrize("step", [1, 3, 64])  # 64: the whole Gram in one chunk
    def test_a_gram_assembled_across_chunk_boundaries_gives_the_same_norm(self, monkeypatch, step):
        # A block of a mixed-shift sum has no exact solve, so its Gram is built
        # from identity chunks; with 3 columns a chunk, the last one is short.
        upper, _ = dirac_blocks(Sum((Ruelle(), Mult(random_function(1, 2)))))
        bound = BoundOperator(upper, 6)
        n, width, gram_apply = spectra._gram(bound)
        assert n == 64
        reference = np.column_stack([gram_apply(col) for col in np.eye(n)])
        monkeypatch.setattr(transfer, "CHUNK_BYTES", 8 * width * step)
        chunks = []

        def recording(v):
            chunks.append(v.shape[1])
            return gram_apply(v)

        chunked = apply_to_identity(recording, (n, n), width)
        assert chunks == [step] * (n // step) + [n % step] * (n % step > 0)
        np.testing.assert_array_equal(chunked, reference)
        sigma = spectra._dense_sigma_max(n, width, gram_apply)
        expected = np.linalg.svd(assemble(upper, 6).matrix, compute_uv=False)[0]
        assert abs(sigma - expected) <= 1e-12 * expected

    def test_a_gram_past_the_byte_budget_is_refused_before_it_is_allocated(self, monkeypatch):
        # With the budget at one 32 x 32 Gram and eigvalsh's copy of it, the
        # mixed-shift block's 64 x 64 Gram at depth 6 is refused under
        # method="dense" and as the fallback after Lanczos spends its budget,
        # and no Gram column is built.
        upper, _ = dirac_blocks(Sum((Ruelle(), Mult(random_function(1, 2)))))
        want = operator_norm(BoundOperator(upper, 5), method="dense").value
        monkeypatch.setattr(spectra, "DENSE_BYTES", 16 * 32 * 32)
        monkeypatch.setattr(spectra, "KRYLOV_BUDGET", 4)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 8)
        assert operator_norm(BoundOperator(upper, 5), method="dense").value == want  # at the budget
        assert not operator_norm(BoundOperator(upper, 6), method="lanczos").converged

        def refuse(*args):
            raise AssertionError("a Gram was built")

        monkeypatch.setattr(spectra, "apply_to_identity", refuse)
        for method in ("dense", "auto"):
            with pytest.raises(ValueError, match=r"^a dense 64 x 64 Gram needs 32768 bytes, 65536 with eigvalsh's copy, over the budget of 16384 bytes$"):
                operator_norm(BoundOperator(upper, 6), method=method)

    def test_zero_gram_is_zero(self):
        assert _dense_sigma(np.zeros((5, 5))) == 0.0
        assert operator_norm(np.zeros((7, 3))).value == 0.0
        assert operator_norm(BoundOperator(Sum((Koopman(), Koopman()), (1.0, -1.0)), 4)).value == 0.0

    def test_multiplier_blocks_are_solved_without_an_eigensolve(self, monkeypatch):
        # Both blocks of a multiplier have the diagonal Gram M_{L|Kf - f|^2},
        # which the auto path reads off the normal form.
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolve ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(spectra, "_lanczos", refuse)
        op = _multiplier()
        expected = backward_rms_norm(op.f)
        upper, lower = dirac_blocks(op)
        for block, depth in ((upper, 8), (lower, 9), (upper, 12), (lower, 12)):
            est = operator_norm(BoundOperator(block, depth))
            assert est.method == "exact-diagonal" and est.iterations == 0
            assert abs(est.value - expected) <= 1e-12 * expected


def _form_apply(form, x):
    """The normal form applied to the columns of x, with plain numpy."""

    def at(v, depth):
        return np.repeat(v, (1 << depth) // v.shape[0], axis=0)

    def depth_of(v):
        return v.shape[0].bit_length() - 1

    parts = []
    for g, a, b, h in form.terms:
        depth = max(depth_of(h), depth_of(x))
        y = at(h, depth)[:, None] * at(x, depth)
        for _ in range(b):
            y = 0.5 * (y[: len(y) // 2] + y[len(y) // 2 :]) if len(y) > 1 else y
        for _ in range(a):
            y = np.concatenate([y, y])
        depth = max(depth_of(g), depth_of(y))
        parts.append(at(g, depth)[:, None] * at(y, depth))
    for u, v in form.rank_one:
        depth = max(depth_of(v), depth_of(x))
        overlaps = at(x, depth).T @ at(v, depth) / 2**depth
        parts.append(np.outer(u, overlaps))
    depth = max([depth_of(x)] + [depth_of(p) for p in parts])
    return sum((at(p, depth) for p in parts), np.zeros((1 << depth, x.shape[1])))


def _words():
    """Products of up to six factors K, L, M_f, K^n L^n and I - K L: every branch
    of the composition rules, with multipliers between the shifts."""
    mults = st.tuples(st.integers(0, 10**6), st.integers(0, 3)).map(lambda a: Mult(random_function(a[0], a[1])))
    factors = st.one_of(
        st.sampled_from([Koopman(), Ruelle(), CondExp(1), CondExp(2), KernelProj()]), mults, mults.map(Adjoint)
    )
    return st.lists(factors, min_size=1, max_size=6).map(Compose)


def _families():
    """The spec families of test_transfer and test_dirac, operator words, and their Dirac blocks."""
    ops = st.one_of(_specs(), _shifted_sums(), _words())
    return st.one_of(ops, ops.map(lambda op: dirac_blocks(op)[0]), ops.map(lambda op: dirac_blocks(op)[1]))


# Products of two projections, with and without a Koopman step between them:
# the rule |u><v| |u'><v'| = <v, u'> |u><v'| of NormalForm.after.
_PSI, _PHI = random_function(21, 3, "unit-norm"), random_function(22, 2, "unit-norm")
_PROJ_PROJ = Compose((Proj(_PSI), Proj(_PHI)))
_PROJ_K_PROJ = Compose((Proj(_PSI), Koopman(), Proj(_PHI)))


def _at_core(op):
    return op, op.normal_form.core_depth()


# Single-shift forms with non-constant coefficients, at their core depth,
# where exact-block probes their blocks: both blocks of M_f + K^2 L^2
# (shifts 1 and -1), and M_f K L^2 (shift -1).
_PROBED = tuple(map(_at_core, dirac_blocks(Sum((Mult(random_function(3, 4)), CondExp(2)))))) + (
    _at_core(Compose((Mult(random_function(5, 2)), Koopman(), Ruelle(), Ruelle()))),
)


def _single_shift_sums():
    """Sums of one to three M_g K^a L^b M_h with one shift s = a - b and
    non-constant g, h of depth 1 to 3; the first has min(a, b) >= 1, so that
    no sum is one multiplier term (exact-diagonal) and exact-block solves
    each from its core depth on."""

    def term(shift, least):
        def build(c, gs, gd, hs, hd):
            a, b = c + max(shift, 0), c + max(-shift, 0)
            return Compose((Mult(random_function(gs, gd)),) + (Koopman(),) * a + (Ruelle(),) * b + (Mult(random_function(hs, hd)),))

        seeds, depths = st.integers(0, 10**6), st.integers(1, 3)
        return st.builds(build, st.integers(least, 2), seeds, depths, seeds, depths)

    def terms(shift):
        return st.tuples(term(shift, 1), st.lists(term(shift, 0), max_size=2)).map(lambda t: Sum((t[0],) + tuple(t[1])))

    return st.integers(-2, 2).flatmap(terms)


def _assert_block_value_matches_dense(op, bound, auto):
    dense = operator_norm(bound, method="dense")
    # Relative, but for a norm that cancels to the rounding of its terms,
    # where neither solve has relative accuracy: there, within 1e-14 of
    # the largest term coefficient sup|g| sup|h|, or of 1, the scale of
    # the specs' weights and values, when the coefficients are smaller
    # (they can be rounding residues themselves, such as 2.8e-17).
    scale = max(np.abs(g).max() * np.abs(h).max() for g, _, _, h in op.normal_form.terms)
    assert abs(auto.value - dense.value) <= max(1e-12 * dense.value, 1e-14 * max(1.0, scale)), op.describe()


class TestNormalForm:
    @settings(max_examples=200, deadline=None)
    @given(_families(), st.integers(0, 7), st.integers(0, 2**32 - 1))
    @example(_PROJ_PROJ, 3, 0)
    @example(_PROJ_PROJ, 6, 1)
    @example(_PROJ_K_PROJ, 3, 2)
    @example(_PROJ_K_PROJ, 6, 3)
    def test_form_applies_as_the_spec(self, op, depth, seed):
        x = np.random.default_rng(seed).standard_normal((1 << depth, 3))
        want = op.apply_batch(x)
        got = _form_apply(op.normal_form, x)
        out = max(want.shape[0], got.shape[0])
        want, got = (np.repeat(v, out // v.shape[0], axis=0) for v in (want, got))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), op.describe()

    def test_multiplier_blocks_are_one_term_each(self):
        # K M_f - M_f K = M_{Kf - f} K and L M_f - M_f L = L M_{f - Kf}
        f = random_function(4, 5)
        kf = np.tile(f.values, 2)
        upper, lower = dirac_blocks(Mult(f))
        ((g, a, b, h),) = upper.normal_form.terms
        assert (a, b, h.tolist()) == (1, 0, [1.0]) and np.abs(g - (kf - np.repeat(f.values, 2))).max() <= 1e-15
        ((g, a, b, h),) = lower.normal_form.terms
        assert (a, b, g.tolist()) == (0, 1, [1.0]) and np.abs(h - (np.repeat(f.values, 2) - kf)).max() <= 1e-15
        assert not upper.normal_form.rank_one and not lower.normal_form.rank_one

    def test_boson_relations_reduce(self):
        # L K = I, K L K = K, and a projection's K block has rank two
        assert Compose((Ruelle(), Koopman())).normal_form.terms[0][1:3] == (0, 0)
        ((g, a, b, h),) = Compose((Koopman(), Ruelle(), Koopman())).normal_form.terms
        assert (g.tolist(), a, b, h.tolist()) == ([1.0], 1, 0, [1.0])
        form = dirac_blocks(Proj(random_function(1, 3, "unit-norm")))[0].normal_form
        assert not form.terms and len(form.rank_one) == 2

    def test_derived_once_per_spec_object(self, monkeypatch):
        from rkdirac import transfer

        calls = []
        derive = transfer.Commutator._normal_form
        monkeypatch.setattr(transfer.Commutator, "_normal_form", lambda self: calls.append(self) or derive(self))
        points = depth_sweep(_multiplier(), range(7, 12))
        assert len(points) == 5 and len(calls) == 2  # the two blocks, once each

    def test_a_form_past_the_depth_cap_raises_the_depth_cap(self):
        # M_f L^15 = L^15 M_{K^15 f}: K^15 f would be a depth-25 function.
        # The dense solve builds it too, in the adjoint K^15 M_f.
        op = Compose((Mult(random_function(0, 10)), Compose((Ruelle(),) * 15)))
        with pytest.raises(ValueError, match="depth cap 24"):
            op.normal_form
        for method in ("auto", "dense"):
            with pytest.raises(ValueError, match="depth cap 24"):
                operator_norm(BoundOperator(op, 12), method=method)


class TestExactSolves:
    @settings(max_examples=200, deadline=None)
    @given(_families(), st.integers(0, 7))
    @example(_PROJ_PROJ, 3)
    @example(_PROJ_PROJ, 6)
    @example(_PROJ_K_PROJ, 3)
    @example(_PROJ_K_PROJ, 6)
    def test_exact_values_match_dense(self, op, depth):
        bound = BoundOperator(op, depth)
        auto = operator_norm(bound)
        dense = operator_norm(bound, method="dense")
        if auto.method.startswith("exact"):
            assert (auto.iterations, auto.converged, auto.residual) == (0, True, 0.0)
            assert abs(auto.value - dense.value) <= 1e-12 * max(1.0, dense.value), op.describe()

    @pytest.mark.parametrize("depth", [3, 6])
    def test_a_product_of_projections_has_the_overlap_as_its_norm(self, depth):
        # P_psi P_phi = <psi, phi> |psi><phi| and P_psi K P_phi = <psi, K phi> |psi><phi|
        for op, overlap in ((_PROJ_PROJ, inner(_PSI, _PHI)), (_PROJ_K_PROJ, inner(_PSI, koopman_apply(_PHI)))):
            est = operator_norm(BoundOperator(op, depth))
            assert est.method == "exact-rank-r"
            assert abs(est.value - abs(overlap)) <= 1e-12, op.describe()

    @pytest.mark.parametrize("k", [3, 6])
    def test_below_at_and_above_the_reach(self, k):
        # The lower multiplier block L M_h, h = f - Kf of depth k + 1, is exact
        # from depth k + 1 on; below that it falls back.  The others are exact
        # at every depth.
        f = random_function(k + 20, k)
        psi = random_function(k + 40, k, "unit-norm")
        (mu, ml), (pu, pl) = dirac_blocks(Mult(f)), dirac_blocks(Proj(psi))
        for depth in range(1, k + 4):
            for block, method in ((mu, "exact-diagonal"), (ml, "exact-diagonal"), (pu, "exact-rank-r"), (pl, "exact-rank-r")):
                bound = BoundOperator(block, depth)
                auto = operator_norm(bound)
                dense = operator_norm(bound, method="dense")
                if block is ml and depth < k + 1:
                    method = "dense"
                assert auto.method == method, (block.describe(), depth)
                assert abs(auto.value - dense.value) <= 1e-12 * dense.value, (block.describe(), depth)

    def test_lanczos_and_dense_never_take_the_exact_path(self, monkeypatch):
        def refuse(m):
            raise AssertionError("exact path taken")

        monkeypatch.setattr(spectra, "_exact", refuse)
        upper, _ = dirac_blocks(_multiplier())
        for method, depth in (("dense", 8), ("lanczos", 9)):
            assert operator_norm(BoundOperator(upper, depth), method=method).method == method

    def test_an_exact_solve_builds_no_adjoint(self, monkeypatch):
        from rkdirac import transfer

        calls = []
        adjoint = transfer.Sum.adjoint
        monkeypatch.setattr(transfer.Sum, "adjoint", lambda self: calls.append(self) or adjoint(self))
        for op in (_multiplier(), Proj(random_function(3, 4, "unit-norm"))):
            for block in dirac_blocks(op):
                bound = BoundOperator(block, 7)
                assert operator_norm(bound).method.startswith("exact")
                assert calls == []
                operator_norm(bound, method="dense")
                bound.rmatvec(np.ones(bound.shape[0]))
                assert calls == [block]  # built on first use, once per bound operator
                calls.clear()

    def test_zero_sum_is_zero(self):
        for op in (Sum(()), Sum((Koopman(), Koopman()), (1.0, -1.0))):
            est = operator_norm(BoundOperator(op, 5))
            assert est.method.startswith("exact") and est.value == 0.0

    def test_overflowing_rank_one_gram_is_a_typed_error(self):
        # The value 1e200 is finite, its square, the top Gram eigenvalue, is not.
        op = Sum((Proj(constant(1.0)),), (1e200,))
        with pytest.raises(ValueError, match="finite"):
            operator_norm(BoundOperator(op, 4))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            operator_norm(BoundOperator(op, 4), method="dense")

    def test_overflowing_block_gram_is_a_typed_error(self):
        # As above: the value is finite and the top Gram eigenvalue is not,
        # in closed form (K^2 L^2) and probed (plus a multiplier).
        for op in (CondExp(2), Sum((CondExp(2), Mult(random_function(1, 2))))):
            block = commutator_with_K(scaled(op, 1e200))
            with pytest.raises(ValueError, match="finite"):
                operator_norm(BoundOperator(block, 5))
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
                operator_norm(BoundOperator(block, 5), method="dense")

    @settings(max_examples=100, deadline=None)
    @given(_families(), st.integers(0, 7))
    @example(*_PROBED[0])
    @example(*_PROBED[1])
    @example(*_PROBED[2])
    def test_block_values_match_dense_to_1e_12_relative(self, op, depth):
        bound = BoundOperator(op, depth)
        auto = operator_norm(bound)
        if auto.method == "exact-block":
            _assert_block_value_matches_dense(op, bound, auto)

    @settings(max_examples=100, deadline=None)
    @given(_single_shift_sums(), st.integers(0, 2))
    def test_probed_single_shift_sums_match_dense_to_1e_12_relative(self, op, past):
        depth = op.normal_form.core_depth() + past
        bound = BoundOperator(op, depth)
        auto = operator_norm(bound)
        assert auto.method == "exact-block", (op.describe(), depth)
        _assert_block_value_matches_dense(op, bound, auto)

    @pytest.mark.parametrize("case", range(len(_PROBED)))
    def test_the_block_examples_reach_the_probe(self, case):
        # The first property above checks only its exact-block draws; these
        # examples of it have non-constant coefficients at their core depth,
        # so they run the probe, not the closed form, on every run.
        op, depth = _PROBED[case]
        form = op.normal_form
        assert depth == form.core_depth() and any(g.shape[0] > 1 or h.shape[0] > 1 for g, _, _, h in form.terms)
        assert operator_norm(BoundOperator(op, depth)).method == "exact-block"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_condexp_closed_form_probe_and_dense_agree(self, n):
        # The closed form at every depth, the probe of the blocks at the core
        # depth, and dense: K^n L^n's blocks have norm 1 from depth n (K) or
        # n + 1 (L) on, and 0 below.
        for block in dirac_blocks(CondExp(n)):
            form = block.normal_form
            core = form.core_depth()
            assert abs(transfer._block_top(form.terms, core) - 1.0) <= 1e-12
            for depth in range(1, core + 3):
                bound = BoundOperator(block, depth)
                auto, dense = operator_norm(bound), operator_norm(bound, method="dense")
                assert auto.method == "exact-block" and auto.value == (1.0 if depth >= core else 0.0)
                assert abs(auto.value - dense.value) <= 1e-12, (block.describe(), depth)

    def test_a_depth_below_the_core_depth_falls_back(self):
        # Both blocks of M_f + K^2 L^2 share one shift and have non-constant
        # coefficients: probed from their core depths on, dense below.
        op = Sum((Mult(random_function(3, 4)), CondExp(2)))
        for block in dirac_blocks(op):
            core = block.normal_form.core_depth()
            for depth in range(1, core + 2):
                bound = BoundOperator(block, depth)
                auto, dense = operator_norm(bound), operator_norm(bound, method="dense")
                assert auto.method == ("exact-block" if depth >= core else "dense"), (block.describe(), depth)
                assert abs(auto.value - dense.value) <= 1e-12 * dense.value, (block.describe(), depth)

    def test_probed_blocks_match_dense_and_converged_lanczos(self):
        # core 9: both blocks probed, against dense; core 13: against a
        # converged Lanczos run, the only other solve at that size
        for op, method, tol in ((Sum((Mult(random_function(3, 8)), CondExp(2))), "dense", 1e-12), (Sum((Mult(random_function(5, 12)), CondExp(3))), "lanczos", 1e-10)):
            got, want = commutator_norm(op), commutator_norm(op, method=method)
            assert got.computed_at == want.computed_at == op.normal_form.core_depth() + 1
            for g, w_ in ((got.upper, want.upper), (got.lower, want.lower)):
                assert g.method == "exact-block" and w_.method == method and w_.converged
                assert abs(g.value - w_.value) <= tol * w_.value

    def test_blocks_are_probed_in_chunks_of_tails(self, monkeypatch):
        # The same value one tail at a time, and a traced peak well below the
        # 2**(core + s + big) values of all blocks at once (8 MB here).
        upper, _ = dirac_blocks(Sum((Mult(random_function(5, 16)), CondExp(3))))
        form = upper.normal_form
        (s,) = {a - b for _, a, b, _ in form.terms}
        core, big = form.core_depth(), max(b for _, _, b, _ in form.terms)
        assert 8 << (core + s + big) == 8 << 20 and s >= 0
        tracemalloc.start()
        try:
            value = transfer._block_top(form.terms, core)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        monkeypatch.setattr(transfer, "CHUNK_BYTES", 8 << (big + s + big))  # one block
        assert transfer._block_top(form.terms, core) == value
        monkeypatch.setattr(transfer, "CHUNK_BYTES", (8 << (big + s + big)) - 8)
        assert transfer._block_top(form.terms, core) is None

    def test_blocks_past_chunk_bytes_fall_back(self):
        # M_f K L^16 has one 2 x 2**16 block (probed on its adjoint's 2
        # columns, 1 MB), and K^12 M_f K^8 L^8 at depth 8 one 2**20 x 2**8
        # block per tail (2 GB): neither fits in CHUNK_BYTES, so neither is
        # built, and both forms take the dense path, here on its 2 x 2 side.
        f = random_function(3, 1)
        wide = Compose((Mult(f), Koopman(), *(Ruelle(),) * 16))
        tall = Compose((Koopman(),) * 12 + (Mult(f), CondExp(8)))
        for op, depth in ((wide, 16), (tall, 8)) + tuple((block, 16) for block in dirac_blocks(wide)):
            form = op.normal_form
            tracemalloc.start()
            try:
                assert form.exact_norm(depth) is None, op.describe()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10
        tracemalloc.start()
        try:
            est = operator_norm(BoundOperator(wide, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ||M_f K L^16|| = ||f||, the mean of x onto the constants times f
        assert est.method == "dense" and abs(est.value - math.sqrt(np.mean(f.values**2))) <= 1e-12
        assert peak < 4 << 20


class TestSweepSharesTheNormSolve:
    @settings(max_examples=100, deadline=None)
    @given(_families(), st.integers(0, 7))
    def test_a_sweep_row_is_the_norm_solved_at_its_depth(self, op, depth):
        # At or below the core depth, or with no core depth, both solve the
        # blocks at the depth asked: the same row, bit for bit.  Past it the
        # norm is solved at the core depth, and the values agree bit for bit
        # where both depths solve both blocks exactly.
        r = commutator_norm(op, depth)
        (p,) = depth_sweep(op, [depth])
        if r.core_depth is None or depth <= r.core_depth:
            assert r.computed_at == depth
            est = r.upper if r.upper.value >= r.lower.value else r.lower
            want = (r.value, est.method, r.upper.iterations + r.lower.iterations, est.residual, r.upper.converged and r.lower.converged)
            assert (p.value, p.method, p.iterations, p.residual, p.converged) == want, op.describe()
        else:
            swept = [operator_norm(BoundOperator(block, depth)) for block in dirac_blocks(op)]
            if all(e.method.startswith("exact") for e in swept + [r.upper, r.lower]):
                assert p.value == r.value, op.describe()

    @settings(max_examples=60, deadline=None)
    @given(_families(), st.integers(0, 5))
    def test_every_row_of_a_sweep_is_the_pair_solved_at_its_depth(self, op, lo):
        # Past the core depth a row reads the first exact solve there instead
        # of solving again, and is still the solve at its own depth, bit for bit.
        from rkdirac import dirac

        pair, core = dirac_blocks(op), op.dirac_core
        points = depth_sweep(op, range(lo, lo + 4))
        assert [p.depth for p in points] == list(range(lo, lo + 4))
        for p in points:
            r = dirac._pair_norm(pair, core, p.depth, p.depth, "auto")
            est = r.upper if r.upper.value >= r.lower.value else r.lower
            want = (r.value, est.method, r.upper.iterations + r.lower.iterations, est.residual, r.upper.converged and r.lower.converged)
            assert (p.value, p.method, p.iterations, p.residual, p.converged) == want, (op.describe(), p.depth)

    @pytest.mark.parametrize("method, solves", [("auto", 2), ("dense", 10)])
    def test_an_exact_solve_past_the_core_depth_is_made_once(self, monkeypatch, method, solves):
        # a depth-6 multiplier has core depth 7: under auto its first row's two
        # exact solves serve all five rows; dense solves both blocks at each depth
        calls = []
        solve = spectra.operator_norm
        monkeypatch.setattr(spectra, "operator_norm", lambda m, method="auto": calls.append(m.in_depth) or solve(m, method))
        op = Mult(random_function(0, 6))
        points = depth_sweep(op, range(7, 12), method)
        assert len(calls) == solves and calls == sorted(calls)
        assert [p.depth for p in points] == list(range(7, 12))
