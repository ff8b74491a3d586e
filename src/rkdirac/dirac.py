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
from .transfer import BoundOperator, Koopman, OperatorSpec, Ruelle, assemble, dirac_blocks, pair_core_depth


# The (upper, lower) = (K A - A K, L A - A L) block pair, under its older
# name, kept because bench/test_bench.py imports it.
dirac_commutator = dirac_blocks


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


def block_norms(b: Tuple[OperatorSpec, OperatorSpec], depth: int) -> Tuple[float, float]:
    """Norms of the (upper, lower) block pair at the given input depth."""
    upper, lower = b
    _, eu, el = spectra.block_pair_norm(upper, lower, depth)
    return eu.value, el.value


def block_norm(b: Tuple[OperatorSpec, OperatorSpec], depth: int) -> float:
    """Norm of the Dirac commutator at the given input depth (max of the blocks)."""
    return max(block_norms(b, depth))


def core_depth(a: OperatorSpec) -> Optional[int]:
    """Input depth from which the Dirac commutator norm of A no longer changes.

    Each commutator block is read off its normal form, sum_i M_{g_i} K^{a_i}
    L^{b_i} M_{h_i} + sum_j |u_j><v_j| (``transfer.NormalForm.core_depth``):
    the terms must share one shift s = a - b, else there is no core depth
    (None; a sum of mixed shifts such as L + M_f).  The form reads a fixed
    number of leading symbols, its reach, and maps the rest either as the
    identity moved by s or, through a rank-one pair, onto its mean; past the
    reach the block's norm is fixed.  Refining a function appends constant
    symbols, so the norm at a lower depth is that of a restriction and can
    only be smaller.  The core depth is the larger of the two blocks' depths:
    k + 1 for a depth-k multiplier or projection.  A form with a function
    past MAX_DEPTH (``normal_form`` is None) gives no core depth either.
    """
    return pair_core_depth(dirac_blocks(a))


@dataclass(frozen=True)
class CommutatorNorm:
    """The Dirac commutator norm of an operator and how it was obtained.

    ``depth`` is the requested input depth; both blocks were solved at
    ``computed_at = min(depth, core_depth)``, where the value is that of every
    depth from the core depth on.
    """

    value: float
    upper: spectra.NormEstimate
    lower: spectra.NormEstimate
    depth: int
    core_depth: Optional[int]
    computed_at: int


def commutator_norm(a: OperatorSpec, depth: Optional[int] = None, method: str = "auto") -> CommutatorNorm:
    """||[D, pi(A)]|| at an input depth, solved at no more than the core depth.

    With no depth the requested depth is the core depth; an operator without
    one (a sum of mixed shifts) needs an explicit depth.  The block pair is
    built and its normal forms derived once per call, the exact solve
    reusing them.
    """
    pair = dirac_blocks(a)
    core = pair_core_depth(pair)
    if depth is None:
        if core is None:
            raise ValueError(
                f"no core depth for {a.describe()}: its norm may grow with depth, so it "
                "cannot be certified at any depth; pass an explicit depth"
            )
        depth = core
    at = depth if core is None else min(depth, core)
    if at != depth:
        for block in pair:
            BoundOperator(block, depth)  # the requested depth must be representable
    value, eu, el = spectra.block_pair_norm(*pair, at, method=method)
    return CommutatorNorm(value, eu, el, depth, core, at)


LIPSCHITZ_THRESHOLD = 1.0  # the radius of the Lipschitz ball ||[D, pi(A)]|| <= 1
CERTIFY_TOL = 1e-9


def lipschitz_certify(a: OperatorSpec) -> dict:
    """Evaluate the Dirac commutator norm of A and compare it with one.

    The norm is ``commutator_norm(a)``, solved at the core depth, where it
    is the value of every depth.  An operator without a core depth (a sum of
    mixed shifts) raises ``ValueError``: its norm may grow with depth, so no
    depth certifies it.  ``certified`` is True only for an upper estimate:
    both blocks solved exactly (an ``exact-*`` solve of the normal form) or
    by a dense eigensolve, and the value at most LIPSCHITZ_THRESHOLD +
    CERTIFY_TOL.  A Lanczos Ritz value is only a lower bound.  ``reason``
    says why a result is not certified (None when it is); ``upper`` and
    ``lower`` say how each block norm was obtained.
    """
    r = commutator_norm(a)
    reason = _uncertified_reason(r)
    return {
        "certified": reason is None,
        "reason": reason,
        "value": r.value,
        "core_depth": r.core_depth,
        "computed_at": r.computed_at,
        "threshold": LIPSCHITZ_THRESHOLD,
        "operator": a.describe(),
        "upper": r.upper.diagnostics(),
        "lower": r.lower.diagnostics(),
    }


def _uncertified_reason(r: CommutatorNorm) -> Optional[str]:
    if r.value > LIPSCHITZ_THRESHOLD + CERTIFY_TOL:
        return f"the value exceeds {LIPSCHITZ_THRESHOLD:g}"
    for name, est in (("upper", r.upper), ("lower", r.lower)):
        if not est.converged:
            return f"the {name} block is from an unconverged solve"
        if est.method == "lanczos":
            return f"the {name} block is a Lanczos Ritz value, only a lower bound"
    return None


@dataclass(frozen=True, eq=False)
class VectorState:
    """The state A -> <A psi, psi> attached to a unit vector psi."""

    psi: DyadicFunction

    def __post_init__(self):
        require_unit(self.psi, "state vector")

    def expectation(self, a: OperatorSpec) -> float:
        return inner(a.apply(self.psi), self.psi)


def connes_lower_bound(
    eta: VectorState, xi: VectorState, family: Sequence[OperatorSpec]
) -> Tuple[float, Optional[OperatorSpec]]:
    """Best lower bound on the Dirac state distance from a certified family.

    Every family member must certify (``lipschitz_certify``): commutator norm
    at most one at its core depth.  The sup over such operators of
    |eta(A) - xi(A)| dominates each evaluation, so the returned max is a
    valid lower bound.  The sup over an empty family is 0.
    """
    best, witness = 0.0, None
    for a in family:
        cert = lipschitz_certify(a)
        if not cert["certified"]:
            raise ValueError(
                f"family member {a.describe()} has commutator norm "
                f"{cert['value']:.12g}; not certified: {cert['reason']}"
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
