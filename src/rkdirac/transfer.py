"""The transfer (Ruelle) and Koopman operators and their operator algebra.

Conventions:

* ``ruelle_apply`` averages over the two shift preimages,
  ``(L f)[u] = (f[0u] + f[1u]) / 2``; it fixes constants, so it acts as the
  identity on depth-0 functions.
* ``koopman_apply`` composes with the shift, ``(K f)[a u] = f[u]``; it raises
  the depth by one and preserves inner products.
* Operators never compress their codomain: when an output is representable at
  a coarser depth it may be returned there, but matrices and bound operators
  always refine every image to a common output depth, which can only be
  finer.  Refinement is isometric, so norms are unaffected.

Batched kernels.  Every :class:`OperatorSpec` has one batched kernel,
``apply_batch``, acting on an array of cylinder values whose axis 0 has 2**d
rows: a 1-D array is one depth-d function, a ``(2**d, k)`` array is k of
them, one per column.  The depth comes from the row count, and the result
has the row count of the depth the kernel lands at.  The DyadicFunction
functions (``ruelle_apply`` ... ``kernel_projection``) and the one
``OperatorSpec.apply`` are thin wrappers over these kernels.

Linear maps work in orthonormal coordinates: the depth-d coordinate vector of
f is ``values(f) * 2**(-d/2)``, i.e. coefficients over the basis of
normalized indicators ``2**(d/2) * chi_[w]``.  ``BoundOperator(op, d)`` is op
on the depth-d space as such a map, without a matrix: ``matvec`` is A.X and
``rmatvec`` is A^T.Y, the exact symbolic ``adjoint()`` (built on first use)
followed by averaging onto the depth-d space.  ``gram`` is the Gram operator
of the smaller side, A^T A or A A^T, as one composition of the two kernels:
the coordinate scalings of the two maps cancel in it, so it applies none.
Each column costs O(2**max(d, out_depth)) memory; all three reject a
non-finite result.  ``assemble`` materializes the matrix by applying
``matvec`` to identity column chunks of about ``CHUNK_BYTES`` (256 KB, cache
sized) each; the norm engine never calls it, but builds its dense Grams from
``gram`` applied to the same chunks.

Normal form.  ``OperatorSpec.normal_form`` rewrites a spec, once per spec
object, as sum_i M_{g_i} K^{a_i} L^{b_i} M_{h_i} + sum_j |u_j><v_j| (see
:class:`NormalForm`), using the relations of the Ruelle-Koopman pair.  The
norm engine reads exact norms off it: a multiplier block's Gram is itself a
multiplier, and a projection block has rank two.  ``pair_core_depth`` reads
the depth from which a block pair's norm is fixed off it too, from the shift
and the function depths of its terms (``NormalForm.core_depth``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dyadic import DyadicFunction, MAX_DEPTH, _refine_rows, inner, refine, require_finite, require_unit

# One identity chunk, measured at the widest array it passes through.  Cache
# sized, and small enough that its temporaries stay below glibc's mmap
# threshold: with 4 MB (and 512 KB) chunks every temporary of an n = 256
# dense Gram build was a fresh mapping, about 1,600-2,100 page faults per
# solve; 256 KB faults none.  128 KB is as fast on a sweep, but the extra
# chunks slow verify's many n <= 256 solves.
CHUNK_BYTES = 256 << 10


# ---------------------------------------------------------------------------
# Batched kernels on arrays of cylinder values (axis 0 indexes cylinders).


def _depth(x: np.ndarray) -> int:
    return x.shape[0].bit_length() - 1


def _rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 1-D array v shaped to scale the rows of x."""
    return v.reshape(v.shape + (1,) * (x.ndim - 1))


def _ruelle(x: np.ndarray) -> np.ndarray:
    if x.shape[0] == 1:
        return x
    half = x.shape[0] // 2
    return 0.5 * (x[:half] + x[half:])


def _koopman(x: np.ndarray) -> np.ndarray:
    if _depth(x) + 1 > MAX_DEPTH:
        raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
    return np.concatenate([x, x])


def _condexp(n: int, x: np.ndarray) -> np.ndarray:
    for _ in range(n):
        x = _ruelle(x)
    for _ in range(n):
        x = _koopman(x)
    return x


def _kernel_proj(x: np.ndarray) -> np.ndarray:
    y = _condexp(1, x)
    return _refine_rows(x, _depth(y)) - y


def _mult(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    depth = max(_depth(f), _depth(x))
    return _rows(_refine_rows(f, depth), x) * _refine_rows(x, depth)


def _proj(psi: np.ndarray, x: np.ndarray) -> np.ndarray:
    depth = max(_depth(psi), _depth(x))
    overlaps = (_refine_rows(x, depth).T @ _refine_rows(psi, depth)) * 2.0 ** (-depth)
    return np.multiply.outer(psi, overlaps)


def _function(values: np.ndarray) -> DyadicFunction:
    return DyadicFunction(_depth(values), values)


# ---------------------------------------------------------------------------
# The same operators on DyadicFunction values.


def ruelle_apply(f: DyadicFunction) -> DyadicFunction:
    """Average over preimages; output depth max(d - 1, 0)."""
    return _function(_ruelle(f.values))


def koopman_apply(f: DyadicFunction) -> DyadicFunction:
    """Compose with the shift; output depth d + 1."""
    return _function(_koopman(f.values))


def adjoint_check(f: DyadicFunction, g: DyadicFunction) -> Tuple[float, float]:
    """Return (<Kf, g>, <f, Lg>); the two sides agree since K is the adjoint of L."""
    return inner(koopman_apply(f), g), inner(f, ruelle_apply(g))


def cond_expectation(n: int, f: DyadicFunction) -> DyadicFunction:
    """K^n L^n f: conditional expectation onto functions ignoring the first n symbols."""
    if n < 1:
        raise ValueError("conditional expectation order must be >= 1")
    return _function(_condexp(n, f.values))


def kernel_projection(f: DyadicFunction) -> DyadicFunction:
    """Orthogonal projection onto ker L, computed as f - K L f."""
    return _function(_kernel_proj(f.values))


def mult_apply(f: DyadicFunction, g: DyadicFunction) -> DyadicFunction:
    """Multiplication operator M_f applied to g."""
    return _function(_mult(f.values, g.values))


def projection_apply(psi: DyadicFunction, phi: DyadicFunction) -> DyadicFunction:
    """Rank-one projection <phi, psi> psi; psi must be a unit vector."""
    require_unit(psi, "projection vector")
    return _function(_proj(psi.values, phi.values))


# ---------------------------------------------------------------------------
# Operator specifications: an immutable, lazily applied operator algebra.


class OperatorSpec:
    """A linear operator between depth spaces, applied lazily.

    Subclasses provide ``apply_batch`` (the batched kernel on cylinder-value
    arrays), ``out_depth`` (the output depth of matrices and bound operators
    for a given input depth) and ``adjoint`` (the symbolic Hilbert adjoint,
    exact on the full space); ``apply`` runs the kernel on a DyadicFunction,
    and ``normal_form`` gives its :class:`NormalForm`, derived once per object.
    """

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, f: DyadicFunction) -> DyadicFunction:
        return _function(self.apply_batch(f.values))

    def out_depth(self, in_depth: int) -> int:
        raise NotImplementedError

    def adjoint(self) -> "OperatorSpec":
        raise NotImplementedError

    @cached_property
    def normal_form(self) -> Optional["NormalForm"]:
        """The operator's NormalForm, or None when a function of it would pass MAX_DEPTH."""
        try:
            return self._normal_form()
        except _TooDeep:
            return None

    def _normal_form(self) -> Optional["NormalForm"]:
        return None

    def describe(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class Ruelle(OperatorSpec):
    def apply_batch(self, x):
        return _ruelle(x)

    def out_depth(self, d):
        return max(d - 1, 0)

    def adjoint(self):
        return Koopman()

    def _normal_form(self):
        return NormalForm(((_ONE, 0, 1, _ONE),))

    def describe(self):
        return "ruelle"


@dataclass(frozen=True)
class Koopman(OperatorSpec):
    def apply_batch(self, x):
        return _koopman(x)

    def out_depth(self, d):
        return d + 1

    def adjoint(self):
        return Ruelle()

    def _normal_form(self):
        return NormalForm(((_ONE, 1, 0, _ONE),))

    def describe(self):
        return "koopman"


@dataclass(frozen=True, eq=False)
class Mult(OperatorSpec):
    f: DyadicFunction

    def apply_batch(self, x):
        return _mult(self.f.values, x)

    def out_depth(self, d):
        return max(d, self.f.depth)

    def adjoint(self):
        return self

    def _normal_form(self):
        return NormalForm(((self.f.values, 0, 0, _ONE),))

    def describe(self):
        return f"mult(depth={self.f.depth})"


@dataclass(frozen=True, eq=False)
class Proj(OperatorSpec):
    psi: DyadicFunction

    def __post_init__(self):
        require_unit(self.psi, "projection vector")

    def apply_batch(self, x):
        return _proj(self.psi.values, x)

    def out_depth(self, d):
        # Enlarged so that the assembled matrix is square (and symmetric)
        # whenever the input space contains psi.
        return max(d, self.psi.depth)

    def adjoint(self):
        return self

    def _normal_form(self):
        return NormalForm((), ((self.psi.values, self.psi.values),))

    def describe(self):
        return f"proj(depth={self.psi.depth})"


@dataclass(frozen=True)
class CondExp(OperatorSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("conditional expectation order must be >= 1")

    def apply_batch(self, x):
        return _condexp(self.n, x)

    def out_depth(self, d):
        return max(d, self.n)

    def adjoint(self):
        return self

    def _normal_form(self):
        return NormalForm(((_ONE, self.n, self.n, _ONE),))

    def describe(self):
        return f"condexp({self.n})"


@dataclass(frozen=True)
class KernelProj(OperatorSpec):
    def apply_batch(self, x):
        return _kernel_proj(x)

    def out_depth(self, d):
        return max(d, 1)

    def adjoint(self):
        return self

    def _normal_form(self):
        return NormalForm(((_ONE, 0, 0, _ONE), (-_ONE, 1, 1, _ONE)))  # I - K L

    def describe(self):
        return "kernel_proj"


@dataclass(frozen=True, eq=False)
class Compose(OperatorSpec):
    """Composition, rightmost applied first; Compose(()) is the identity."""

    ops: Tuple[OperatorSpec, ...] = ()

    def __init__(self, ops: Sequence[OperatorSpec] = ()):
        object.__setattr__(self, "ops", tuple(ops))

    def apply_batch(self, x):
        for op in reversed(self.ops):
            x = op.apply_batch(x)
        return x

    def apply(self, f):  # kept so that bench/tracer.py can time this class
        return super().apply(f)

    def out_depth(self, d):
        for op in reversed(self.ops):
            d = op.out_depth(d)
        return d

    def adjoint(self):
        return Compose(tuple(op.adjoint() for op in reversed(self.ops)))

    def _normal_form(self):
        forms = [op.normal_form for op in self.ops]
        if any(form is None for form in forms):
            return None
        acc = forms[0] if forms else NormalForm(((_ONE, 0, 0, _ONE),))
        for form in forms[1:]:
            acc = acc.after(form)
        return acc

    def describe(self):
        return "identity" if not self.ops else "(" + " . ".join(op.describe() for op in self.ops) + ")"


@dataclass(frozen=True, eq=False)
class Sum(OperatorSpec):
    """Weighted sum; members are promoted to a common output depth."""

    ops: Tuple[OperatorSpec, ...]
    weights: Tuple[float, ...]

    def __init__(self, ops: Sequence[OperatorSpec], weights: Sequence[float] = ()):
        ops = tuple(ops)
        weights = tuple(float(x) for x in weights) if weights else (1.0,) * len(ops)
        if len(weights) != len(ops):
            raise ValueError("one weight per operator required")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "weights", weights)

    def apply_batch(self, x):
        if not self.ops:
            return np.zeros_like(x)
        parts = [op.apply_batch(x) for op in self.ops]
        depth = max(_depth(p) for p in parts)
        out = self.weights[0] * _refine_rows(parts[0], depth)  # a fresh array, never x itself
        for w, p in zip(self.weights[1:], parts[1:]):
            out += w * _refine_rows(p, depth)
        return out

    def apply(self, f):  # kept so that bench/tracer.py can time this class
        return super().apply(f)

    def out_depth(self, d):
        return max((op.out_depth(d) for op in self.ops), default=d)

    def adjoint(self):
        return Sum(tuple(op.adjoint() for op in self.ops), self.weights)

    def _normal_form(self):
        terms: List[Term] = []
        rank_one: List[Tuple[np.ndarray, np.ndarray]] = []
        for w, op in zip(self.weights, self.ops):
            form = op.normal_form
            if form is None:
                return None
            terms += [_term(w * g, a, b, h) for g, a, b, h in form.terms]
            rank_one += [(w * u, v) for u, v in form.rank_one]
        return NormalForm(_merged(terms), tuple(rank_one))

    def describe(self):
        terms = " + ".join(f"{w:g}*{op.describe()}" for w, op in zip(self.weights, self.ops))
        return f"[{terms}]" if terms else "zero"


@dataclass(frozen=True, eq=False)
class Adjoint(OperatorSpec):
    inner_op: OperatorSpec
    resolved: OperatorSpec = field(init=False, repr=False)  # inner_op.adjoint(), once

    def __post_init__(self):
        object.__setattr__(self, "resolved", self.inner_op.adjoint())

    def apply_batch(self, x):
        return self.resolved.apply_batch(x)

    def apply(self, f):  # kept so that bench/tracer.py can time this class
        return super().apply(f)

    def out_depth(self, d):
        return self.resolved.out_depth(d)

    def adjoint(self):
        return self.inner_op

    def _normal_form(self):
        return self.resolved.normal_form

    def describe(self):
        return f"adjoint({self.inner_op.describe()})"


def identity() -> Compose:
    return Compose(())


def scaled(op: OperatorSpec, weight: float) -> Sum:
    return Sum((op,), (weight,))


def commutator_with_K(a: OperatorSpec) -> Sum:
    """K A - A K, as a lazily applied spec (depth d -> d + 1 for square A)."""
    return Sum((Compose((Koopman(), a)), Compose((a, Koopman()))), (1.0, -1.0))


def commutator_with_L(a: OperatorSpec) -> Sum:
    """L A - A L, as a lazily applied spec."""
    return Sum((Compose((Ruelle(), a)), Compose((a, Ruelle()))), (1.0, -1.0))


def dirac_blocks(a: OperatorSpec) -> Tuple[Sum, Sum]:
    """The two off-diagonal blocks (K A - A K, L A - A L) of the Dirac commutator."""
    return commutator_with_K(a), commutator_with_L(a)


def pair_core_depth(pair: Tuple[OperatorSpec, OperatorSpec]) -> Optional[int]:
    """The larger core depth of a ``dirac_blocks`` pair's normal forms, or
    None when either block has none.  See ``dirac.core_depth``."""
    depths = [None if block.normal_form is None else block.normal_form.core_depth() for block in pair]
    return None if None in depths else max(depths)


# ---------------------------------------------------------------------------
# The normal form of the operator algebra.

# A term M_g K^a L^b M_h, as (g, a, b, h) with g and h arrays of cylinder values.
Term = Tuple[np.ndarray, int, int, np.ndarray]

_ONE = np.ones(1)  # the constant 1 at depth 0; shared, never written to


class _TooDeep(Exception):
    """A function of a normal form would pass MAX_DEPTH."""


def _koopman_pow(u: np.ndarray, n: int) -> np.ndarray:
    """K^n u; a constant stays a depth-0 array."""
    if n == 0 or u.shape[0] == 1:
        return u
    if _depth(u) + n > MAX_DEPTH:
        raise _TooDeep
    for _ in range(n):
        u = _koopman(u)
    return u


def _ruelle_pow(u: np.ndarray, n: int) -> np.ndarray:
    for _ in range(min(n, _depth(u))):  # L fixes constants
        u = _ruelle(u)
    return u


def _times(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x if f is _ONE else f if x is _ONE else _mult(f, x)


def _plus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    depth = max(_depth(x), _depth(y))
    return _refine_rows(x, depth) + _refine_rows(y, depth)


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    depth = max(_depth(x), _depth(y))
    return float(_refine_rows(x, depth) @ _refine_rows(y, depth)) * 2.0 ** (-depth)


def _term(g: np.ndarray, a: int, b: int, h: np.ndarray) -> Term:
    """M_g K^a L^b M_h with a one-sided term's multiplier on its open side:
    K^a M_h = M_{K^a h} K^a when b = 0, and M_g L^b = L^b M_{K^b g} when a = 0."""
    if b == 0:
        return _times(g, _koopman_pow(h, a)), a, 0, _ONE
    if a == 0:
        return _ONE, 0, b, _times(_koopman_pow(g, b), h)
    return g, a, b, h


def _term_apply(term: Term, u: np.ndarray) -> np.ndarray:
    g, a, b, h = term
    return _times(g, _koopman_pow(_ruelle_pow(_times(h, u), b), a))


def _compose_terms(s: Term, t: Term) -> Term:
    """s after t.  In the middle, L^k M_u K^k = M_{L^k u} with k = min(b, a'),
    which leaves K's or L's on one side only; the multiplier then moves out
    through them."""
    g, a, b, h = s
    g2, a2, b2, h2 = t
    k = min(b, a2)
    u = _ruelle_pow(_times(h, g2), k)
    if b == k:  # M_g K^a M_u K^(a2-k) L^b2 M_h2
        return _term(_times(g, _koopman_pow(u, a)), a + a2 - k, b2, h2)
    # a2 == k: M_g K^a L^(b-k) M_u L^b2 M_h2
    return _term(g, a, b - k + b2, _times(_koopman_pow(u, b2), h2))


def _merged(terms: Sequence[Term]) -> Tuple[Term, ...]:
    """The terms, with one-sided terms that share (a, b) summed into one."""
    out: List[Term] = []
    at = {}
    for g, a, b, h in terms:
        i = None if a and b else at.get((a, b))
        if i is None:
            at[(a, b)] = len(out)
            out.append((g, a, b, h))
        else:
            g0, _, _, h0 = out[i]
            out[i] = (_plus(g0, g), a, b, h0) if b == 0 else (g0, a, b, _plus(h0, h))
    return tuple(out)


def _mean_onto(z: np.ndarray, d: int) -> np.ndarray:
    """z averaged onto the depth-d space when it is finer, else z itself."""
    if _depth(z) > d:
        return z.reshape((1 << d, -1) + z.shape[1:]).mean(axis=1)
    return z


def _columns(fs: Sequence[np.ndarray]) -> np.ndarray:
    """The functions' orthonormal coordinates at their common depth, one per column."""
    depth = max((_depth(f) for f in fs), default=0)
    cols = [_refine_rows(f, depth) for f in fs]
    return np.column_stack(cols) * 2.0 ** (-depth / 2.0) if cols else np.zeros((1, 0))


@dataclass(frozen=True, eq=False)
class NormalForm:
    """An operator as sum_i M_{g_i} K^{a_i} L^{b_i} M_{h_i} + sum_j |u_j><v_j|.

    ``terms`` holds the (g, a, b, h) and ``rank_one`` the (u, v), with
    ``|u><v| x = <v, x> u``; every function is an array of cylinder values.
    It is reached with the relations L K = I, K M_f = M_{Kf} K,
    M_f L = L M_{Kf}, L M_u K = M_{Lu} and M_f M_g = M_{fg}: multipliers move
    left past K and right past L.  A term with b = 0 has h = 1 and one with
    a = 0 < b has g = 1, and such one-sided terms that share (a, b) are
    merged.  Rank-one terms are closed under composition:
    T |u><v| = |Tu><v|, |u><v| T = |u><T^* v| and
    |u><v| |u'><v'| = <v, u'> |u><v'|.
    """

    terms: Tuple[Term, ...] = ()
    rank_one: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()

    def after(self, other: "NormalForm") -> "NormalForm":
        """The form of self . other (other applied first)."""
        rank_one = [(_term_apply(s, u), v) for s in self.terms for u, v in other.rank_one]
        rank_one += [(u, _term_apply((h, b, a, g), v)) for u, v in self.rank_one for g, a, b, h in other.terms]
        rank_one += [(u * _inner(v, u2), v2) for u, v in self.rank_one for u2, v2 in other.rank_one]
        terms = [_compose_terms(s, t) for s in self.terms for t in other.terms]
        return NormalForm(_merged(terms), tuple(rank_one))

    def core_depth(self) -> Optional[int]:
        """The input depth from which the form's norm no longer changes, or
        None when its terms do not share one shift s = a - b.

        At input depth d >= reach, split as (leading reach symbols) (x) (the
        rest): every term reads max(depth(h), b) leading symbols and carries
        the rest over, moved by s, and its M_g lies inside the output's
        leading reach + s; every |u><v| reads the rest's mean through v and
        puts u inside the same leading reach + s.  The form is C_I (x) I +
        C_J (x) J (J the mean onto constants) with C_I, C_J fixed; its norm
        is max(||C_I + C_J||, ||C_I||) once the rest has a non-constant
        function, from reach + 1 on when both parts are present.  Rank-one
        pairs alone are U W^T with W the v_j averaged onto depth d, fixed
        from max depth(v) on.  See ``dirac.core_depth``.
        """
        if not self.terms:
            return max((_depth(v) for _, v in self.rank_one), default=0)
        shifts = {a - b for _, a, b, _ in self.terms}
        if len(shifts) > 1:
            return None
        (s,) = shifts
        reach = max(
            [max(_depth(h), b, _depth(g) - s) for g, _, b, h in self.terms]
            + [max(_depth(v), _depth(u) - s) for u, v in self.rank_one]
        )
        return reach + bool(self.rank_one)

    def gram_diagonal(self, d: int) -> Optional[np.ndarray]:
        """The diagonal of a Gram operator of the form on the depth-d space,
        when the form is one multiplier term; None otherwise.

        For M_g K^a (b = 0), A^T A = P_d M_{L^a|g|^2} P_d at every d, with P_d
        the averaging onto depth d: the depth-d cell means of L^a|g|^2.  For
        L^b M_h (a = 0), A A^T = M_{L^b|h|^2} when depth(h) <= d and b <= d:
        the adjoint M_h K^b maps the indicator of each depth-(d - b) cell into
        the depth-d space, so that space holds the top of the spectrum.
        """
        if self.rank_one or len(self.terms) != 1:
            return None
        g, a, b, h = self.terms[0]
        if b == 0:
            return _mean_onto(_ruelle_pow(g * g, a), d)
        if a == 0 and _depth(h) <= d and b <= d:
            return _ruelle_pow(h * h, b)
        return None

    def rank_one_sides(self, d: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(U, W) with U W^T the form on the depth-d space, in orthonormal
        coordinates, when it has rank-one terms only: U holds the u_j and W the
        P_d v_j, one per column.  None when it has a multiplier term."""
        if self.terms:
            return None
        return _columns([u for u, _ in self.rank_one]), _columns([_mean_onto(v, d) for _, v in self.rank_one])


# ---------------------------------------------------------------------------
# Linear maps in orthonormal coordinates.


class BoundOperator:
    """op on the depth-``in_depth`` space, as a matrix-free linear map.

    ``shape`` is the shape of the matrix that ``assemble`` would build.
    ``matvec`` and ``rmatvec`` take one coordinate vector or an array with
    one vector per column.  ``rmatvec`` applies the symbolic adjoint and
    averages the result onto the depth-``in_depth`` space (the orthogonal
    projection onto it), so it is the exact transpose of ``matvec``.
    ``gram`` is the Gram operator of the smaller side in one pass.
    """

    def __init__(self, op: OperatorSpec, in_depth: int):
        if not 0 <= in_depth <= MAX_DEPTH:
            raise ValueError(f"depth {in_depth} outside [0, {MAX_DEPTH}]")
        out_depth = op.out_depth(in_depth)
        if out_depth > MAX_DEPTH:
            raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
        self.op, self.in_depth, self.out_depth = op, in_depth, out_depth
        self.shape = (1 << out_depth, 1 << in_depth)

    @cached_property
    def _adjoint(self) -> OperatorSpec:
        """op.adjoint(), built on first use: an exact solve never applies it."""
        return self.op.adjoint()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"expected {self.shape[1]} rows, got {x.shape[0]}")
        y = self.op.apply_batch(x * 2.0 ** (self.in_depth / 2.0))
        return require_finite(_refine_rows(y, self.out_depth) * 2.0 ** (-self.out_depth / 2.0), "operator")

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        if y.shape[0] != self.shape[0]:
            raise ValueError(f"expected {self.shape[0]} rows, got {y.shape[0]}")
        z = self._onto_input(self._adjoint.apply_batch(y * 2.0 ** (self.out_depth / 2.0)))
        return require_finite(z * 2.0 ** (-self.in_depth / 2.0), "adjoint")

    def gram(self) -> Tuple[int, int, Callable[[np.ndarray], np.ndarray]]:
        """(n, larger side, V -> G V) for the Gram operator G of the smaller side.

        G is A^T A = P_d . adj . op when A has no more columns than rows and
        A A^T = R_out . op . P_d . adj otherwise, with P_d the averaging onto
        the input depth and R_out the refinement to the output depth.  The
        coordinate scalings of matvec and rmatvec cancel in either product,
        2**(d/2) * 2**(-out/2) * 2**(out/2) * 2**(-d/2) = 1, so none is
        applied.  The one finiteness check is on G V: the kernels are linear,
        so a non-finite intermediate leaves G V non-finite.
        """
        (rows, cols), out = self.shape, self.out_depth
        op, adj = self.op.apply_batch, self._adjoint.apply_batch
        if cols <= rows:
            return cols, rows, lambda v: require_finite(self._onto_input(adj(op(v))), "Gram operator")
        return rows, cols, lambda v: require_finite(_refine_rows(op(self._onto_input(adj(v))), out), "Gram operator")

    def _onto_input(self, z: np.ndarray) -> np.ndarray:
        """z averaged onto, or refined to, the depth-``in_depth`` space."""
        return _refine_rows(_mean_onto(z, self.in_depth), self.in_depth)


def apply_to_identity(fn: Callable[[np.ndarray], np.ndarray], shape: Tuple[int, int], width: int) -> np.ndarray:
    """The matrix of a batched linear map of the given shape, built from identity
    column chunks; ``width`` is the most rows any array inside ``fn`` has, and
    each chunk takes about CHUNK_BYTES at that width."""
    rows, cols = shape
    out = np.empty((rows, cols))
    step = max(1, CHUNK_BYTES // (8 * width))
    for j in range(0, cols, step):
        k = min(step, cols - j)
        eye = np.zeros((cols, k))
        eye[np.arange(j, j + k), np.arange(k)] = 1.0
        out[:, j : j + k] = fn(eye)
    return out


@dataclass(frozen=True, eq=False)
class AssembledMap:
    """A dense matrix of an operator between depth spaces, orthonormal coordinates."""

    in_depth: int
    out_depth: int
    matrix: np.ndarray

    def __post_init__(self):
        expected = (1 << self.out_depth, 1 << self.in_depth)
        if self.matrix.shape != expected:
            raise ValueError(f"matrix shape {self.matrix.shape} != {expected}")
        require_finite(self.matrix, "matrix")


def coords(f: DyadicFunction, depth: int) -> np.ndarray:
    """Orthonormal coordinates of f in the depth-d space (requires depth >= f.depth)."""
    return refine(f, depth).values * 2.0 ** (-depth / 2.0)


def assemble(op: OperatorSpec, in_depth: int) -> AssembledMap:
    """Materialize op on the depth-in_depth space as a dense matrix.

    Column j is the image of the normalized indicator of cylinder j, expanded
    in orthonormal coordinates at ``op.out_depth(in_depth)``.
    """
    a = BoundOperator(op, in_depth)
    return AssembledMap(in_depth=in_depth, out_depth=a.out_depth, matrix=apply_to_identity(a.matvec, a.shape, max(a.shape)))
