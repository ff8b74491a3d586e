"""The block Dirac operator, its commutators with represented operators, and
certified-Lipschitz families for state-distance lower bounds.

The Dirac operator is the anti-diagonal block operator with the Koopman
operator in the upper block and the transfer operator in the lower block,
acting on the doubled space.  A bounded operator A is represented diagonally,
and the commutator with the Dirac operator is again anti-diagonal with blocks
K A - A K and L A - A L; its norm is the max of the two block norms, and the
two block norms coincide whenever A is self-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import spectra
from .dyadic import DyadicFunction, inner, require_unit
from .transfer import (
    CondExp,
    Compose,
    KernelProj,
    Koopman,
    Mult,
    OperatorSpec,
    Proj,
    Ruelle,
    Sum,
    assemble,
    dirac_blocks,
)


@dataclass(frozen=True, eq=False)
class BlockCommutator:
    """The anti-diagonal blocks of the Dirac commutator of a source operator."""

    source: OperatorSpec
    upper: OperatorSpec  # K A - A K
    lower: OperatorSpec  # L A - A L


def dirac_commutator(a: OperatorSpec) -> BlockCommutator:
    upper, lower = dirac_blocks(a)
    return BlockCommutator(source=a, upper=upper, lower=lower)


def dirac_matrix(depth: int) -> np.ndarray:
    """The Dirac operator itself, assembled on the doubled depth space."""
    mk = assemble(Koopman(), depth).matrix
    ml = assemble(Ruelle(), depth).matrix
    n = 1 << depth
    rows = mk.shape[0] + ml.shape[0]
    out = np.zeros((rows, 2 * n))
    out[: mk.shape[0], n:] = mk
    out[mk.shape[0] :, :n] = ml
    return out


def block_norms(
    b: BlockCommutator, depth: int, tol: float = 1e-12, method: str = "auto"
) -> Tuple[float, float]:
    """(upper, lower) block norms at the given input depth."""
    _, eu, el = spectra.block_pair_norm(b.upper, b.lower, depth, tol=tol, method=method)
    return eu.value, el.value


def block_norm(b: BlockCommutator, depth: int, tol: float = 1e-12, method: str = "auto") -> float:
    """Norm of the Dirac commutator at the given input depth (max of the blocks)."""
    nu, nl = block_norms(b, depth, tol=tol, method=method)
    return max(nu, nl)


def is_self_adjoint(a: OperatorSpec, depth: int, tol: float = 1e-10) -> bool:
    m = assemble(a, depth)
    if m.matrix.shape[0] != m.matrix.shape[1]:
        return False
    return bool(np.max(np.abs(m.matrix - m.matrix.T)) <= tol)


def self_adjoint_block_equality(a: OperatorSpec, depth: int) -> Tuple[float, float]:
    """Both block norms of [D, pi(A)] for self-adjoint A; they agree.

    Raises if the assembled matrix at this depth is not symmetric to 1e-10.
    """
    if not is_self_adjoint(a, depth):
        raise ValueError(f"operator {a.describe()} is not self-adjoint at depth {depth}")
    return block_norms(dirac_commutator(a), depth)


def attainment_depth(a: OperatorSpec) -> Optional[int]:
    """Input depth at which the commutator norm of a known operator plateaus.

    Rank-one projections attain at one past the vector's depth (the maximizer
    lives in the span of the vector and its transfer image); multipliers at
    one past the multiplier's depth (the sup runs over the multiplier's
    cylinders); conditional expectations of order n at n + 2.  Unknown
    composites return None and require an explicit depth.
    """
    if isinstance(a, Proj):
        return a.psi.depth + 1
    if isinstance(a, Mult):
        return a.f.depth + 1
    if isinstance(a, CondExp):
        return a.n + 2
    if isinstance(a, KernelProj):
        return 2
    if isinstance(a, (Koopman, Ruelle)):
        return 1
    if isinstance(a, Compose):
        depths = [attainment_depth(op) for op in a.ops]
        if not depths:
            return 0
        return max(d for d in depths) if all(d is not None for d in depths) else None
    if isinstance(a, Sum):
        depths = [attainment_depth(op) for op in a.ops]
        if not depths:
            return 0
        return max(d for d in depths) if all(d is not None for d in depths) else None
    return None


def lipschitz_certify(
    a: OperatorSpec,
    depth: Optional[int] = None,
    threshold: float = 1.0,
    tol: float = 1e-9,
) -> dict:
    """Evaluate the Dirac commutator norm of A and compare against a threshold.

    The norm is computed at the larger of the requested depth and the
    operator's attainment depth, when the latter is known.  ``certified`` is
    True when the value does not exceed threshold + tol and both block
    estimates converged: an unconverged Ritz value is only a lower bound.
    ``upper`` and ``lower`` say how each block norm was obtained.
    """
    rule = attainment_depth(a)
    if depth is None and rule is None:
        raise ValueError("no attainment rule for this operator; pass an explicit depth")
    d = rule if depth is None else max(depth, rule or 0)
    b = dirac_commutator(a)
    value, eu, el = spectra.block_pair_norm(b.upper, b.lower, d)
    return {
        "certified": bool(value <= threshold + tol and eu.converged and el.converged),
        "value": value,
        "depth": d,
        "threshold": threshold,
        "operator": a.describe(),
        "upper": _estimate_summary(eu),
        "lower": _estimate_summary(el),
    }


def _estimate_summary(est: spectra.NormEstimate) -> dict:
    return {"method": est.method, "converged": est.converged, "residual": est.residual}


@dataclass(frozen=True, eq=False)
class VectorState:
    """The state A -> <A psi, psi> attached to a unit vector psi."""

    psi: DyadicFunction

    def __post_init__(self):
        require_unit(self.psi, "state vector")

    def expectation(self, a: OperatorSpec) -> float:
        return inner(a.apply(self.psi), self.psi)


def connes_lower_bound(
    eta: VectorState,
    xi: VectorState,
    family: Sequence[OperatorSpec],
    depth: Optional[int] = None,
    threshold: float = 1.0,
) -> Tuple[float, Optional[OperatorSpec]]:
    """Best lower bound on the Dirac state distance from a certified family.

    Every family member must have commutator norm at most the threshold; the
    sup over such operators of |eta(A) - xi(A)| dominates each evaluation, so
    the returned max is a valid lower bound.  The sup over an empty family
    is 0.
    """
    best, witness = 0.0, None
    for a in family:
        cert = lipschitz_certify(a, depth=depth, threshold=threshold)
        if not cert["certified"]:
            converged = cert["upper"]["converged"] and cert["lower"]["converged"]
            reason = f"> {threshold:g}" if converged else "from an unconverged solve"
            raise ValueError(
                f"family member {a.describe()} has commutator norm "
                f"{cert['value']:.12g} {reason}; not certified"
            )
        gap = abs(eta.expectation(a) - xi.expectation(a))
        if gap > best:
            best, witness = gap, a
    return best, witness


def haar_projection_closed_forms(w, phi: DyadicFunction) -> Tuple[DyadicFunction, DyadicFunction]:
    """Closed forms of the two commutator blocks of a Haar projection on basis input.

    For a word w of length at least two,
      (K e^_w - e^_w K)(phi) = 2**-0.5 [ <e_w, phi> (e_0w + e_1w) - <e_sw, phi> e_w ]
      (L e^_w - e^_w L)(phi) = 2**-0.5 [ <e_w, phi> e_sw - <e_0w + e_1w, phi> e_w ]
    with sw the shifted word.  Used as an independent oracle by the tests.
    """
    from .dyadic import INV_SQRT2, haar_function
    from .words import prepend, shift

    if w.length < 2:
        raise ValueError("closed forms require a word of length >= 2")
    e_w = haar_function(w)
    e_sw = haar_function(shift(w))
    e_0w = haar_function(prepend(0, w))
    e_1w = haar_function(prepend(1, w))
    upper = INV_SQRT2 * (inner(e_w, phi) * (e_0w + e_1w) - inner(e_sw, phi) * e_w)
    lower = INV_SQRT2 * (inner(e_w, phi) * e_sw - inner(e_0w + e_1w, phi) * e_w)
    return upper, lower
