import numpy as np
import pytest

from rkdirac.dyadic import SQRT2, haar_function, indicator, random_function
from rkdirac import spectra
from rkdirac.spectra import depth_sweep, operator_norm
from rkdirac.transfer import (
    BoundOperator,
    CondExp,
    Koopman,
    Mult,
    Proj,
    Ruelle,
    Sum,
    assemble,
    commutator_with_K,
    commutator_with_L,
    identity,
)
from rkdirac.words import Word


def w(text):
    return Word.from_string(text)


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
            p = operator_norm(a, method="power")
            d = operator_norm(a, method="dense")
            assert p.converged
            assert p.value == pytest.approx(d.value, abs=1e-10)

    def test_power_survives_zero_mean_leading_vector(self):
        # The top right-singular vector of this block is a Haar element, whose
        # coordinates sum to zero; the all-ones start alone would miss it.
        m = assemble(commutator_with_K(Proj(haar_function(w("01")))), 4)
        p = operator_norm(m, method="power")
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
            p = operator_norm(m, method="power")
            dn = operator_norm(m, method="dense")
            assert p.value == pytest.approx(dn.value, abs=1e-10), op.describe()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[np.inf, 0.0]]))

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
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 8)
        psi = random_function(7, 3, "unit-norm")
        tall = [commutator_with_K(Proj(psi)), commutator_with_K(CondExp(2)), Koopman()]  # A^T A
        wide = [commutator_with_L(Mult(random_function(9, 3))), commutator_with_L(Proj(psi)), Ruelle()]  # A A^T
        for ops, tall_side in ((tall, True), (wide, False)):
            for op in ops:
                bound = BoundOperator(op, depth)
                rows, cols = bound.shape
                assert (cols < rows) if tall_side else (rows < cols)
                est = operator_norm(bound)
                assert est.method == ("power" if min(rows, cols) > 8 else "dense"), op.describe()
                expected = np.linalg.svd(assemble(op, depth).matrix, compute_uv=False)[0]
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
        op = Sum((Koopman(),), (float("inf"),))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            operator_norm(BoundOperator(op, 3))
