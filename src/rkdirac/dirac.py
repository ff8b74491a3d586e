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
from typing import Dict, List, Optional, Sequence, Tuple

from . import spectra
from .dyadic import MAX_DEPTH, DyadicFunction, inner, require_unit
from .transfer import CHUNK_BYTES, BoundOperator, Koopman, NormalForm, OperatorSpec, Ruelle, commutator_form, commutator_with_K, commutator_with_L, dirac_blocks, pair_core_depth


# The (upper, lower) = (K A - A K, L A - A L) block pair, under its older
# name, kept because bench/test_bench.py imports it.
dirac_commutator = dirac_blocks


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

    ``depth`` is the requested input depth and ``computed_at`` the depth
    both blocks were solved at, where the value is that of every depth from
    the core depth on: ``min(depth, core_depth)`` for ``commutator_norm``,
    and for a member of a family that ``commutator_norms`` solves stacked
    the family's solve depth, the largest core depth of its members, so at
    least the member's own ``core_depth``.
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
    A's own (``transfer.dirac_blocks``, built once per spec), its normal
    forms derived once, the exact solve reusing them.
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


def commutator_norms(ops: Sequence[OperatorSpec]) -> List[CommutatorNorm]:
    """``commutator_norm(a)`` of each operator, in input order, solved as
    stacked families.

    Operators whose forms share a ``NormalForm.structure`` (their terms'
    (a, b), which functions are the constant 1, their number of rank-one
    pairs) form a family.  Its forms are stacked (``NormalForm.stack``), each
    function refined to the deepest depth of its slot, so members of any
    depths stack; the two block forms are derived once from the stack
    (``transfer.commutator_form``) and each solved by one ``exact_norm``
    call at the stack's core depth, the largest of the members' core depths,
    one value per member.  From a member's own core depth on its norm no
    longer changes, so that depth gives its exact value.  Each member keeps
    its own ``depth`` and ``core_depth``, which are read, and its blocks
    range-checked there, once per ``NormalForm.key``: members of one key
    have the same depths.  ``computed_at`` is the family's solve depth.

    A family is stacked this way only while its widest stacked function, its
    members at one slot's deepest depth, fits in CHUNK_BYTES.  A family past
    that, or whose stack has no exact solve of both blocks, splits into
    families of one ``NormalForm.key``, stacked alike; a family of one, one
    with nothing to stack or without an exact solve of both blocks, and an
    operator without a normal form go through ``commutator_norm``.
    """
    return _by_family(ops, NormalForm.structure, _aligned_norms)


def _by_family(ops: Sequence[OperatorSpec], key, solve) -> List[CommutatorNorm]:
    """``solve(family)`` for each family of the operators whose forms share
    ``key(form)``, in input order; an operator without a form is alone."""
    families: Dict[tuple, List[int]] = {}
    for i, a in enumerate(ops):
        families.setdefault(("alone", i) if a.normal_form is None else key(a.normal_form), []).append(i)
    out: List[Optional[CommutatorNorm]] = [None] * len(ops)
    for members in families.values():
        for i, r in zip(members, solve([ops[i] for i in members])):
            out[i] = r
    return out


def _aligned_norms(family: List[OperatorSpec]) -> List[CommutatorNorm]:
    """The norms of a family of one structure: stacked whole when its stack
    fits in CHUNK_BYTES and solves, else by families of one key; a family of
    one key that was tried whole goes member by member."""
    if len(family) > 1:
        slots = zip(*(a.normal_form.functions() for a in family))
        if 8 * len(family) * max((max(f.shape[0] for f in slot) for slot in slots), default=1) <= CHUNK_BYTES:
            whole = _family_norms(family)
            if whole is not None or len({a.normal_form.key() for a in family}) == 1:
                return whole or list(map(commutator_norm, family))
    return _by_family(family, NormalForm.key, lambda sub: _family_norms(sub) or list(map(commutator_norm, sub)))


def _family_norms(family: List[OperatorSpec]) -> Optional[List[CommutatorNorm]]:
    """The family's norms from its stacked block forms, or None."""
    stacked = NormalForm.stack([a.normal_form for a in family]) if len(family) > 1 else None
    blocks = [None] if stacked is None else [commutator_form(s().normal_form, stacked) for s in (Koopman, Ruelle)]
    depths = [None] if None in blocks else [form.core_depth() for form in blocks]
    if None in depths or max(depths) > MAX_DEPTH:
        return None
    at = max(depths)
    solves = [form.exact_norm(at) for form in blocks]
    if None in solves:  # commutator_norm derives each member's pair
        return None
    keys = [a.normal_form.key() for a in family]
    cores: Dict[tuple, int] = {}
    for a, key in zip(family, keys):
        if key not in cores:
            # a fresh pair, not the spec's cached one, which refers back to
            # the spec: that cycle would keep its forms until the collector
            # runs (verify's peak RSS read 0.2 MB higher with it)
            pair = (commutator_with_K(a), commutator_with_L(a))
            cores[key] = pair_core_depth(pair)  # the stack's is the largest, so none is None
            for block in pair:
                BoundOperator(block, cores[key])  # as in commutator_norm: the blocks must be representable there
    (upper, mu), (lower, ml) = solves
    est = spectra.NormEstimate
    return [CommutatorNorm(max(u, l), est(u, 0, True, mu, 0.0), est(l, 0, True, ml, 0.0), cores[k], cores[k], at) for u, l, k in zip(upper, lower, keys)]


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

