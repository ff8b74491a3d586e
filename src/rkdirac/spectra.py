"""Operator-norm (largest singular value) estimation of one operator; the
Dirac commutator's block pairs and depth sweeps are solved in ``dirac``.

``operator_norm`` is the one entry point.  It takes a dense matrix (an
ndarray or an ``AssembledMap``) or a ``BoundOperator``: an operator spec
bound to an input depth, whose ``gram`` applies the Gram operator in one
pass (the exact symbolic adjoint after the operator, or before it, with
averaging onto the input depth).  Either way it works on the Gram operator
G of the smaller side, A^T A when A has no more columns than rows and
A A^T otherwise, so blocks between depth spaces of different dimension
cost the smaller dimension n.

Which path runs:

* exact, under method="auto" only, for a bound operator at input depth d
  whose ``normal_form`` has an exact solve, ``NormalForm.exact_norm(d)``
  (``exact-diagonal``, ``exact-rank-r`` or ``exact-block``; see there):
  multiplier and projection blocks, and every block whose terms share one
  shift, such as the K^n L^n commutators at any n, in closed form, or
  probed from the core depth on when one of their blocks fits in
  transfer.CHUNK_BYTES.  Every other form (mixed shifts, terms with
  rank-one pairs, larger blocks) takes the paths below.  method="dense" and
  "lanczos" never take this path and apply the operator spec itself, so
  they remain an independent check of it.
* dense, when n <= DENSE_CUTOFF (256) under method="auto", always under
  method="dense", and as the fallback: ``eigvalsh``'s top eigenvalue of
  the n x n Gram.  For a bound operator the Gram is built by applying the
  Gram operator to identity column chunks of transfer.CHUNK_BYTES (cache
  sized), so the rectangular block is never held next to it.  Memory: one
  n x n Gram (512 KB at n = 256, 128 MB at n = 4096) and ``eigvalsh``'s
  copy of it, twice the Gram's bytes in all; a solve whose two copies pass
  DENSE_BYTES (2 GiB, so n = 2**13 is the largest) is refused with a
  ValueError before the Gram is allocated, under method="dense" and as the
  fallback alike.
* lanczos, otherwise: block Lanczos on G.  For a bound operator it runs
  matrix-free; its memory is the Krylov basis, O(n * m) for m Gram-operator
  vectors applied.  The basis is one column-major array resized in place
  (realloc) as the steps are taken, _GROW spare columns at a time, and T is
  filled in place (at most KRYLOV_BUDGET columns of each).

The Lanczos start block is deterministic: two pseudorandom vectors from one
fixed seed.  Neither may be a structured vector.  Many commutator blocks
here have zero-mean leading singular vectors, exactly orthogonal to the
all-ones vector; and where the all-ones vector is an exact eigenvector of
G for a lower eigenvalue, a start block containing it has an exact top
Ritz pair after one step, which passes the residual test below with the
wrong value.  Lanczos converges on repeated top singular values (a
multiplier commutator's top value has multiplicity 32 at depth 11 and
above), on which power iteration stalls.  Every new block is
reorthogonalized against the whole basis in two passes; a direction is
deflated when its norm falls below _DEFLATE_RTOL times the largest block
norm seen, a scale of the whole block rather than of the column itself.
The run stops when the top Ritz pair (theta, y) of G has residual
||G y - theta y|| <= tol * sigma * max(1, sigma), sigma = sqrt(theta) and
tol = NORM_TOL, or when the Krylov space is exhausted (every new direction
deflates), where theta is exact.  The residual bounds the error of theta, so this bounds the
error of the value sigma by about tol * max(1, sigma) / 2; a test of
tol * max(1, theta) would be absolute in theta and let a block of norm
1e-9 stop at its first Rayleigh quotient, 28% low.  Under
method="auto", a run that would pass KRYLOV_BUDGET vectors without
converging falls back to the dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import math

import numpy as np

from .dyadic import require_finite
from .transfer import AssembledMap, BoundOperator, apply_to_identity
from .transfer import assemble  # noqa: F401  -- re-exported as spectra.assemble

DENSE_CUTOFF = 256
DENSE_BYTES = 2 << 30  # the most a dense solve may allocate: its n x n Gram and eigvalsh's copy
NORM_TOL = 1e-12  # the Lanczos stopping test's relative tolerance (see above)
KRYLOV_BUDGET = 160  # Gram-operator vectors one Lanczos run may apply
_GROW = 8  # spare columns the Lanczos basis gains each time it is full
METHODS = ("auto", "lanczos", "dense")
_START_SEED = 0x5EED
_DEFLATE_RTOL = 1e-14

Operand = Union[AssembledMap, BoundOperator, np.ndarray]
_PATHS = {"dense": "dense", "lanczos": "matrix-free"}  # every other method is an exact solve


@dataclass(frozen=True)
class NormEstimate:
    """How a largest singular value was obtained.

    ``iterations`` is the number of Gram-operator vectors the Lanczos path
    applied (0 when only an exact or dense solve ran).  ``residual`` is the
    top Ritz pair's ||G y - theta y|| with theta = value**2, and 0.0 for an
    exact or dense value.
    """

    value: float
    iterations: int
    converged: bool
    method: str  # "exact-diagonal", "exact-rank-r", "exact-block", "dense" or "lanczos"
    residual: float

    @property
    def fallback(self) -> bool:
        """True when the Lanczos path ran and a dense solve replaced its result."""
        return self.method == "dense" and self.iterations > 0

    def diagnostics(self) -> dict:
        """How the value was obtained, as the ``norm`` and certify outputs report it."""
        return {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual": self.residual,
            "fallback": self.fallback,
            "path": _PATHS.get(self.method, "exact"),
        }


def _gram(m: Operand) -> Tuple[int, int, Callable[[np.ndarray], np.ndarray]]:
    """(n, width, V -> G V) for the Gram operator G of the smaller side of m,
    width the rows of the widest array G passes through.

    As in ``BoundOperator.gram``, the one finiteness check is on G V.
    """
    if isinstance(m, BoundOperator):
        return m.gram()
    a = m.matrix if isinstance(m, AssembledMap) else require_finite(np.asarray(m, dtype=float), "matrix")
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    rows, cols = a.shape
    if cols <= rows:
        return cols, rows, lambda v: require_finite(a.T @ (a @ v), "Gram operator")
    return rows, cols, lambda v: require_finite(a @ (a.T @ v), "Gram operator")


def _exact(m: BoundOperator) -> Optional[NormEstimate]:
    """The exact solve of m's normal form, or None when the form has none; a
    form past MAX_DEPTH raises the depth cap's ValueError."""
    exact = m.op.normal_form.exact_norm(m.in_depth)
    return None if exact is None else NormEstimate(exact[0], 0, True, exact[1], 0.0)


def _dense_sigma_max(n: int, width: int, gram_apply) -> float:
    """sqrt of the top eigenvalue of the n x n Gram (0 for an empty one)."""
    if 16 * n * n > DENSE_BYTES:  # eigvalsh works on a copy of the Gram
        raise ValueError(f"a dense {n} x {n} Gram needs {8 * n * n} bytes, {16 * n * n} with eigvalsh's copy, over the budget of {DENSE_BYTES} bytes")
    g = apply_to_identity(gram_apply, (n, n), width)
    return math.sqrt(max(float(np.linalg.eigvalsh(g)[-1]), 0.0)) if n else 0.0


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of x, finite whenever the norm itself is: for a Gram
    vector with entries above 1e154 the squares overflow, and an infinite
    block scale would deflate every direction and stop the run at once."""
    with np.errstate(over="ignore"):
        v = float(np.linalg.norm(x))
    if v == math.inf:
        peak = float(np.abs(x).max())
        v = peak * float(np.linalg.norm(x / peak))
    return v


def _extend(basis: np.ndarray, block: np.ndarray, coeffs: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal columns spanning the part of block orthogonal to basis.

    coeffs is basis.T @ block.  The first pass projects block out of basis and
    deflates every direction whose singular value is at most _DEFLATE_RTOL *
    scale; the second pass projects the surviving unit directions once more,
    which restores orthogonality that a small singular value amplified.
    """
    u, s, _ = np.linalg.svd(block - basis @ coeffs, full_matrices=False)
    u = u[:, s > _DEFLATE_RTOL * scale]
    return np.linalg.qr(u - basis @ (basis.T @ u))[0]


def _lanczos(n: int, gram_apply, tol: float) -> Tuple[float, int, bool, float]:
    """Block Lanczos for the top eigenvalue of the (symmetric PSD) Gram operator.

    Returns (theta, vectors applied, converged, residual).  theta is a Ritz
    value, so a lower bound on the top eigenvalue; it is exact when the
    Krylov space is exhausted.  The basis is a column-major view of one
    flat array that grows in place, with _GROW spare columns each time it is
    full, and T is filled in place in one KRYLOV_BUDGET x KRYLOV_BUDGET array.
    """
    if n == 0:
        return 0.0, 0, True, 0.0
    rng = np.random.default_rng(_START_SEED)
    start = np.column_stack([rng.standard_normal(n), rng.standard_normal(n)])
    start /= np.linalg.norm(start, axis=0)
    store = np.empty(n * _GROW)  # the basis, column after column
    t = np.zeros((KRYLOV_BUDGET, KRYLOV_BUDGET))
    basis = store[:0].reshape((n, 0), order="F")
    block = _extend(basis, start, np.empty((0, 2)), np.linalg.norm(start))
    scale, m = 0.0, 0
    while True:
        z = gram_apply(block)
        scale = max(scale, _norm(z))
        prev, m = m, m + block.shape[1]
        if n * m > store.size:
            # resize reallocates in place and may move the buffer, so no view
            # of it may outlive this; basis is the only one.  refcheck would
            # also count a profiler's reference and refuse.
            del basis
            store.resize(n * (m + _GROW), refcheck=False)
        basis = store[: n * m].reshape((n, m), order="F")
        basis[:, prev:] = block
        coeffs = basis.T @ z
        t[:m, prev:m] = coeffs  # T = Q^T G Q, upper triangle
        thetas, vecs = np.linalg.eigh(t[:m, :m], UPLO="U")
        theta, y = float(thetas[-1]), vecs[:, -1]
        block = _extend(basis, z, coeffs, scale)
        residual = _norm((block.T @ z) @ y[prev:])
        sigma = math.sqrt(max(theta, 0.0))
        if residual <= tol * sigma * max(1.0, sigma) or block.shape[1] == 0:
            return theta, m, True, residual
        if m + block.shape[1] > KRYLOV_BUDGET:
            return theta, m, False, residual


def operator_norm(m: Operand, method: str = "auto") -> NormEstimate:
    """Largest singular value of a matrix, an assembled map or a bound operator.

    method="lanczos" forces the Lanczos path (no fallback), method="dense"
    forces a dense solve, method="auto" first tries the exact solve of a
    bound operator's normal form, then picks dense when the smaller side is
    at most DENSE_CUTOFF and falls back to dense when the Lanczos path spends
    KRYLOV_BUDGET vectors without converging.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and isinstance(m, BoundOperator):
        exact = _exact(m)
        if exact is not None:
            return exact
    n, width, gram_apply = _gram(m)
    if method == "dense" or (method == "auto" and n <= DENSE_CUTOFF):
        return NormEstimate(_dense_sigma_max(n, width, gram_apply), 0, True, "dense", 0.0)
    theta, vectors, ok, residual = _lanczos(n, gram_apply, NORM_TOL)
    if ok or method == "lanczos":
        return NormEstimate(math.sqrt(max(theta, 0.0)), vectors, ok, "lanczos", residual)
    return NormEstimate(_dense_sigma_max(n, width, gram_apply), vectors, True, "dense", 0.0)


# Re-exported from dirac only because bench/ wraps it here, as spectra.assemble
# above; dirac imports this module only as a module, so the cycle is safe.
from .dirac import depth_sweep  # noqa: E402,F401
