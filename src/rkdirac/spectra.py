"""Operator-norm (largest singular value) estimation.

``operator_norm`` is the one entry point.  It takes a dense matrix (an
ndarray or an ``AssembledMap``) or a ``BoundOperator``: an operator spec
bound to an input depth, with ``shape``, a batched ``matvec`` (A.X) and a
batched ``rmatvec`` (A^T.Y, the exact symbolic adjoint followed by averaging
onto the input depth).  Either way it works on the Gram operator of the
smaller side, A^T A when A has no more columns than rows and A A^T
otherwise, so blocks between depth spaces of different dimension cost the
smaller dimension n.

Which path runs:

* dense, when n <= DENSE_CUTOFF (1024) under method="auto", always under
  method="dense", and as the fallback: ``eigvalsh`` of the n x n Gram.  For
  a bound operator the Gram is built by applying the Gram operator to
  identity column chunks, so the rectangular block is never held next to
  it.  Memory: one n x n Gram (8 MB at n = 1024, 128 MB at n = 4096).
* power, otherwise: power iteration on the Gram operator.  For a bound
  operator it runs matrix-free on length-n vectors, with O(2**d) memory per
  vector at depth d.

The power path's start vectors are deterministic: the normalized all-ones
vector plus one fixed-seed pseudorandom vector.  The second start is not
optional decoration: many commutator blocks here have zero-mean leading
singular vectors, which are exactly orthogonal to the all-ones start, and a
single deterministic start would converge cleanly to the wrong singular
value.  Stagnation triggers one further seeded restart; remaining
non-convergence falls back to the dense solve (unless method="power").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple, Union

import math

import numpy as np

from .transfer import AssembledMap, BoundOperator, OperatorSpec, apply_to_identity, dirac_blocks
from .transfer import assemble  # noqa: F401  -- re-exported as spectra.assemble

DENSE_CUTOFF = 1024
_START_SEED = 0x5EED

Operand = Union[AssembledMap, BoundOperator, np.ndarray]


@dataclass(frozen=True)
class NormEstimate:
    value: float
    iterations: int
    converged: bool
    method: str  # "power" or "dense"

    @property
    def fallback(self) -> bool:
        """True when the power path ran and a dense solve replaced its result."""
        return self.method == "dense" and self.iterations > 0


def _as_matrix(m: Union[AssembledMap, np.ndarray]) -> np.ndarray:
    a = m.matrix if isinstance(m, AssembledMap) else np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _gram(m: Operand) -> Tuple[int, int, Callable[[np.ndarray], np.ndarray]]:
    """(n, larger side, V -> G V) for the Gram operator G of the smaller side of m."""
    if isinstance(m, BoundOperator):
        (rows, cols), matvec, rmatvec = m.shape, m.matvec, m.rmatvec
    else:
        a = _as_matrix(m)
        (rows, cols), matvec, rmatvec = a.shape, a.__matmul__, a.T.__matmul__
    if cols <= rows:
        return cols, rows, lambda v: rmatvec(matvec(v))
    return rows, cols, lambda v: matvec(rmatvec(v))


def _dense_sigma_max(n: int, width: int, gram_apply) -> float:
    if n == 0:
        return 0.0
    lam = float(np.linalg.eigvalsh(apply_to_identity(gram_apply, (n, n), width))[-1])
    return math.sqrt(max(lam, 0.0))


def _power_run(gram_apply, start: np.ndarray, tol: float, max_iter: int):
    """Power iteration on the (symmetric PSD) Gram operator from one start vector.

    Returns (lam, iterations, converged).  lam is a Rayleigh quotient, hence a
    certified lower bound on the top eigenvalue.
    """
    v = start / np.linalg.norm(start)
    lam_prev = None
    stagnant = 0
    for it in range(1, max_iter + 1):
        w = gram_apply(v)
        lam = float(v @ w)
        resid = float(np.linalg.norm(w - lam * v))
        if resid <= max(tol, 1e-15) * max(1.0, abs(lam)):
            return lam, it, True
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, it, True
        v = w / nw
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-16 * max(1.0, abs(lam)):
            stagnant += 1
            if stagnant >= 50:
                return lam, it, False
        else:
            stagnant = 0
        lam_prev = lam
    return (lam_prev if lam_prev is not None else 0.0), max_iter, False


def _power_sigma_max(dim: int, gram_apply, tol: float, max_iter: int):
    if dim == 0:
        return 0.0, 0, True
    rng = np.random.default_rng(_START_SEED)
    starts = [np.ones(dim), rng.standard_normal(dim)]
    best_lam, total_it, best_ok = -np.inf, 0, False
    for k, start in enumerate(starts):
        lam, it, ok = _power_run(gram_apply, start, tol, max_iter)
        total_it += it
        if not ok and k == len(starts) - 1:
            # one further seeded restart before giving up on the power path
            lam2, it2, ok2 = _power_run(gram_apply, rng.standard_normal(dim), tol, max_iter)
            total_it += it2
            if lam2 > lam:
                lam, ok = lam2, ok2
        if lam > best_lam:
            best_lam, best_ok = lam, ok
    return math.sqrt(max(best_lam, 0.0)), total_it, best_ok


def operator_norm(
    m: Operand,
    tol: float = 1e-12,
    max_iter: int = 20000,
    method: str = "auto",
) -> NormEstimate:
    """Largest singular value of a matrix, an assembled map or a bound operator.

    method="power" forces the power path (no fallback), method="dense" forces
    a dense solve, method="auto" picks dense when the smaller side is at most
    DENSE_CUTOFF and falls back to dense whenever the power path fails to
    converge.
    """
    n, width, gram_apply = _gram(m)
    if method not in ("auto", "power", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense" or (method == "auto" and n <= DENSE_CUTOFF):
        return NormEstimate(_dense_sigma_max(n, width, gram_apply), 0, True, "dense")
    sigma, iters, ok = _power_sigma_max(n, gram_apply, tol, max_iter)
    if method == "power":
        return NormEstimate(sigma, iters, ok, "power")
    if ok:
        return NormEstimate(sigma, iters, True, "power")
    return NormEstimate(_dense_sigma_max(n, width, gram_apply), iters, True, "dense")


def block_pair_norm(
    upper: OperatorSpec,
    lower: OperatorSpec,
    depth: int,
    tol: float = 1e-12,
    method: str = "auto",
) -> Tuple[float, NormEstimate, NormEstimate]:
    """Norms of an anti-diagonal block pair at a given input depth.

    Returns (value, upper_estimate, lower_estimate); the block-operator norm
    is the max of the two block norms.
    """
    eu = operator_norm(BoundOperator(upper, depth), tol=tol, method=method)
    el = operator_norm(BoundOperator(lower, depth), tol=tol, method=method)
    return max(eu.value, el.value), eu, el


@dataclass(frozen=True)
class SweepPoint:
    depth: int
    value: float
    iterations: int
    method: str
    converged: bool
    plateau: bool


def depth_sweep(
    op: OperatorSpec,
    depths: Iterable[int],
    tol: float = 1e-12,
    method: str = "auto",
    plateau_tol: float = 1e-10,
) -> List[SweepPoint]:
    """Dirac-commutator norm of op across input depths, with plateau flags.

    Truncation can only grow the norm, so the values are nondecreasing;
    consecutive values within plateau_tol flag a plateau.
    """
    upper, lower = dirac_blocks(op)
    points: List[SweepPoint] = []
    prev = None
    for d in sorted(set(int(d) for d in depths)):
        value, eu, el = block_pair_norm(upper, lower, d, tol=tol, method=method)
        est = eu if eu.value >= el.value else el
        plateau = prev is not None and abs(value - prev) <= plateau_tol
        points.append(
            SweepPoint(
                depth=d,
                value=value,
                iterations=eu.iterations + el.iterations,
                method=est.method,
                converged=eu.converged and el.converged,
                plateau=plateau,
            )
        )
        prev = value
    return points
