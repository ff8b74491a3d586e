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
from .transfer import BoundOperator, Koopman, NormalForm, OperatorSpec, Ruelle, column_chunks, commutator_form, dirac_blocks


# dirac_blocks under its older name, kept only because bench/ imports it.
dirac_commutator = dirac_blocks


def block_norms(b: Tuple[OperatorSpec, OperatorSpec], depth: int) -> Tuple[float, float]:
    """Norms of the (upper, lower) block pair at an input depth; kept only because bench/ wraps it."""
    _, eu, el = spectra.block_pair_norm(*b, depth)
    return eu.value, el.value


def block_norm(b: Tuple[OperatorSpec, OperatorSpec], depth: int) -> float:
    """The max of ``block_norms``; kept only because bench/ imports it."""
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
    k + 1 for a depth-k multiplier or projection.  An operator whose form or
    block forms would hold a function past MAX_DEPTH raises the depth cap's
    ValueError, as every solve of it does.
    """
    return a.dirac_core


@dataclass(frozen=True)
class CommutatorNorm:
    """The Dirac commutator norm of an operator and how it was obtained.

    ``depth`` is the requested input depth and ``computed_at`` the depth
    both blocks were solved at, where the value is that of every depth from
    the core depth on: ``min(depth, core_depth)``, or for a member solved
    stacked its chunk's solve depth (see ``commutator_norms``).
    """

    value: float
    upper: spectra.NormEstimate
    lower: spectra.NormEstimate
    depth: int
    core_depth: Optional[int]
    computed_at: int


def commutator_norm(a: OperatorSpec, depth: Optional[int] = None, method: str = "auto") -> CommutatorNorm:
    """``commutator_norms([a], depth, method)``'s one member."""
    return commutator_norms([a], depth, method)[0]


def commutator_norms(ops: Sequence[OperatorSpec], depth: Optional[int] = None, method: str = "auto") -> List[CommutatorNorm]:
    """||[D, pi(A)]|| of each operator at an input depth (by default its core
    depth, which a sum of mixed shifts lacks), solved at no more than its
    core depth; the first operator whose solve fails raises its ValueError.

    With no depth under method="auto", operators whose forms share a
    ``NormalForm.structure`` form a family, split in input order into
    ``transfer.column_chunks`` at the rows of its widest slot.  A chunk's
    forms are stacked (``NormalForm.stack``); its two block forms, derived
    once from the stack, are each solved by one ``exact_norm`` call at the
    chunk's solve depth, the largest core depth of its members, past which
    no member's norm changes.  Each member keeps its own ``depth`` and
    ``core_depth``, read, and its blocks range-checked there, once per
    ``NormalForm.key``.  Every other operator is solved on its own
    (``_member_norm``): a chunk of one, one with nothing to stack, without
    an exact solve of both blocks or whose stacked solve fails (its members'
    own solves then say which fails and why), an operator given a depth or
    solved by method="dense" or "lanczos", one whose normal form passes the
    depth cap.
    """
    out = _outcomes(ops, depth, method)
    for r in out:
        if isinstance(r, ValueError):
            raise r
    return out


def _outcomes(ops: Sequence[OperatorSpec], depth: Optional[int], method: str) -> list:
    """``commutator_norms``, with the ValueError of each failed solve in its place."""
    out: dict = {}
    families: Dict[tuple, List[int]] = {}
    for i, a in enumerate(ops):
        form = _attempt(getattr, a, "normal_form") if depth is None and method == "auto" else None
        if isinstance(form, NormalForm):
            families.setdefault(form.structure(), []).append(i)
        else:
            out[i] = _attempt(_member_norm, a, depth, method)
    for members in families.values():
        widest = max((f.shape[0] for i in members for f in ops[i].normal_form.functions()), default=1)
        for chunk in column_chunks(len(members), widest):
            family = [ops[i] for i in members[chunk]]
            stacked = _attempt(_family_norms, family) if len(family) > 1 else None
            if not isinstance(stacked, list):
                stacked = [_attempt(_member_norm, a, None, method) for a in family]
            out.update(zip(members[chunk], stacked))
    return [out[i] for i in range(len(ops))]


def _attempt(solve, *args):
    """solve(*args), or the ValueError it raises, without its traceback: the
    error is raised again from a frame that holds it, and that cycle would
    keep the solve's frames and their arrays (128 MB at the depth cap) until
    the collector runs."""
    try:
        return solve(*args)
    except ValueError as exc:
        return exc.with_traceback(None)


def _member_norm(a: OperatorSpec, depth: Optional[int], method: str) -> CommutatorNorm:
    """One operator's norm, from its block pair (``dirac_blocks``) and the forms A caches."""
    core = a.dirac_core
    if depth is None and core is None:
        raise ValueError(
            f"no core depth for {a.describe()}: its norm may grow with depth, so it "
            "cannot be certified at any depth; pass an explicit depth"
        )
    depth = core if depth is None else depth
    at = depth if core is None else min(depth, core)
    pair = dirac_blocks(a)
    if at != depth:
        for block in pair:
            BoundOperator(block, depth)  # the requested depth must be representable
    value, eu, el = spectra.block_pair_norm(*pair, at, method=method)
    return CommutatorNorm(value, eu, el, depth, core, at)


def _family_norms(family: List[OperatorSpec]) -> Optional[List[CommutatorNorm]]:
    """The chunk's norms from its stacked block forms, or None."""
    stacked = NormalForm.stack([a.normal_form for a in family])
    if stacked is None:
        return None
    blocks = [commutator_form(s().normal_form, stacked) for s in (Koopman, Ruelle)]
    depths = [form.core_depth() for form in blocks]
    if None in depths or max(depths) > MAX_DEPTH:
        return None
    at = max(depths)
    solves = [form.exact_norm(at) for form in blocks]
    if None in solves:  # each member's own solve derives its own forms
        return None
    keys = [a.normal_form.key() for a in family]
    cores: Dict[tuple, int] = {}
    for a, key in zip(family, keys):
        if key not in cores:
            cores[key] = a.dirac_core  # the stack's is the largest, so none is None
            for block in dirac_blocks(a):
                BoundOperator(block, cores[key])  # as in _member_norm: the blocks must be representable there
    (upper, mu), (lower, ml) = solves
    est = spectra.NormEstimate
    return [CommutatorNorm(max(u, l), est(u, 0, True, mu, 0.0), est(l, 0, True, ml, 0.0), cores[k], cores[k], at) for u, l, k in zip(upper, lower, keys)]


LIPSCHITZ_THRESHOLD = 1.0  # the radius of the Lipschitz ball ||[D, pi(A)]|| <= 1
CERTIFY_TOL = 1e-9


def lipschitz_certify(a: OperatorSpec) -> dict:
    """Evaluate the Dirac commutator norm of A and compare it with one.

    The norm is ``commutator_norm(a)``, solved at the core depth, the value
    of every depth; an operator without one (a sum of mixed shifts) raises
    its ``ValueError``.  ``certified`` is True only for an upper estimate:
    both blocks solved exactly (an ``exact-*`` solve of the normal form) or
    by a dense eigensolve, and the value at most LIPSCHITZ_THRESHOLD +
    CERTIFY_TOL.  A Lanczos Ritz value is only a lower bound.  ``reason``
    says why a result is not certified (None when it is); ``upper`` and
    ``lower`` say how each block norm was obtained.
    """
    return _certificate(a, commutator_norm(a))


def _certificate(a: OperatorSpec, r: CommutatorNorm) -> dict:
    """``lipschitz_certify``'s result for A from its norm r."""
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

    The family is solved as one ``commutator_norms`` call, and each member
    must certify as in ``lipschitz_certify``; the first member, in input
    order, that fails to solve or to certify raises a ValueError that names
    it.  A certified
    A / max(1, value) is in the Lipschitz ball, so the max of the scaled
    gaps |eta(A) - xi(A)| / max(1, value) bounds the state distance from
    below.  The sup over an empty family is 0.
    """
    best, witness = 0.0, None
    for a, r in zip(family, _outcomes(family, None, "auto")):
        if isinstance(r, ValueError):
            raise ValueError(f"family member {a.describe()} cannot be solved: {r}") from r
        cert = _certificate(a, r)
        if not cert["certified"]:
            raise ValueError(f"family member {a.describe()} has commutator norm {cert['value']:.12g}; not certified: {cert['reason']}")
        gap = abs(eta.expectation(a) - xi.expectation(a)) / max(1.0, r.value)
        if gap > best:
            best, witness = gap, a
    return best, witness
