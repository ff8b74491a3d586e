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

The conditional expectation and the kernel projection are built from the
pair, not kept as spec classes: ``CondExp(n)`` is the composition K^n L^n
and ``KernelProj()`` the sum I - K L = [L, K].  Their kernels, adjoints,
output depths and normal forms are those of ``Compose`` and ``Sum``.

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
norm engine reads exact norms off it (``NormalForm.exact_norm``): a
multiplier block's Gram is itself a multiplier, a projection block has rank
two, and a block whose terms share one shift is block diagonal.
The forms of a spec's Dirac blocks, K A - A K and L A - A L, are derived from
its own (``commutator_form``) once and cached on it as arrays only, freed with
it (``OperatorSpec.dirac_forms``); the :class:`Commutator` specs that
``dirac_blocks`` builds afresh read theirs there.  ``OperatorSpec.dirac_core``
reads the depth from which the pair's norm is fixed off them
(``NormalForm.core_depth``).  Forms of one structure stack into one
(``NormalForm.stack``) whose functions carry a trailing member axis,
``(2**d, k)`` for k members as a batch carries columns, each refined to the
deepest depth of its slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dyadic import DyadicFunction, MAX_DEPTH, _col_inner, _common, _inner_rows, _refine_rows, refine, require_depth, require_finite, require_unit

# One identity chunk, measured at the widest array it passes through.  Cache
# sized, and small enough that its temporaries stay below glibc's mmap
# threshold: with 4 MB (and 512 KB) chunks every temporary of an n = 256
# dense Gram build was a fresh mapping, about 1,600-2,100 page faults per
# solve; 256 KB faults none.  128 KB is as fast on a sweep, but the extra
# chunks slow verify's many n <= 256 solves.  It also keeps temporaries under
# glibc's heap trim threshold, which is why verify's whole-batch checks run in
# these chunks too (``suites``): on whole batches their 0.2-1 MB temporaries
# were trimmed off the heap and faulted back in every op, about 1,560 page
# faults per ``verify --suite all --depth 8``.
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


def _aligned(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x and y at their common depth; a trailing axis that only one of them
    carries (a batch's columns, a stacked form's members) spreads over the other."""
    a, b, _ = _common(x, y)
    return (_rows(a, b) if a.ndim < b.ndim else a), (_rows(b, a) if b.ndim < a.ndim else b)


def _mult(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, b = _aligned(f, x)
    return a * b


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


def cond_expectation(n: int, f: DyadicFunction) -> DyadicFunction:
    """K^n L^n f: conditional expectation onto functions ignoring the first n symbols."""
    return CondExp(n).apply(f)


def kernel_projection(f: DyadicFunction) -> DyadicFunction:
    """Orthogonal projection onto ker L, computed as f - K L f."""
    return KernelProj().apply(f)


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
    def normal_form(self) -> "NormalForm":
        """The operator's NormalForm; a ValueError when a function of it would pass MAX_DEPTH."""
        return self._normal_form()

    def _normal_form(self) -> "NormalForm":
        raise NotImplementedError

    @cached_property
    def dirac_forms(self) -> Tuple["NormalForm", "NormalForm"]:
        """The forms of K A - A K and L A - A L (``commutator_form``), shared by
        every Dirac-norm entry point: arrays only; a ValueError past MAX_DEPTH."""
        return tuple(commutator_form(s().normal_form, self.normal_form) for s in (Koopman, Ruelle))

    @property
    def dirac_core(self) -> Optional[int]:
        """The larger core depth of the ``dirac_forms``, None if either has none (``dirac.core_depth``)."""
        depths = [form.core_depth() for form in self.dirac_forms]
        return None if None in depths else max(depths)

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
        require_finite(weights, "sum weight")
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
        return _sum_form(self.weights, [op.normal_form for op in self.ops])

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


def CondExp(n: int) -> Compose:
    """K^n L^n, the conditional expectation onto functions ignoring the first
    n symbols; an order outside [1, MAX_DEPTH] is refused before the tuple is
    built (K^n cannot be applied past MAX_DEPTH)."""
    if not 1 <= n <= MAX_DEPTH:
        raise ValueError(f"conditional expectation order {n} outside [1, {MAX_DEPTH}]")
    return Compose((Koopman(),) * n + (Ruelle(),) * n)


def KernelProj() -> Sum:
    """I - K L = [L, K], the orthogonal projection onto ker L."""
    return Sum((identity(), CondExp(1)), (1.0, -1.0))


class Commutator(Sum):
    """S A - A S for S the Koopman or the transfer operator, as the Sum spec of
    the two compositions; its normal form is the one A caches
    (``OperatorSpec.dirac_forms``), with no forms of the compositions."""

    def __init__(self, s: OperatorSpec, a: OperatorSpec):  # constant weights: no finiteness check
        object.__setattr__(self, "ops", (Compose((s, a)), Compose((a, s))))
        object.__setattr__(self, "weights", (1.0, -1.0))

    def _normal_form(self):
        s, a = self.ops[0].ops
        return a.dirac_forms[0 if isinstance(s, Koopman) else 1]


def commutator_with_K(a: OperatorSpec) -> Commutator:
    """K A - A K, as a lazily applied spec (depth d -> d + 1 for square A)."""
    return Commutator(Koopman(), a)


def commutator_with_L(a: OperatorSpec) -> Commutator:
    """L A - A L, as a lazily applied spec."""
    return Commutator(Ruelle(), a)


def dirac_blocks(a: OperatorSpec) -> Tuple[Commutator, Commutator]:
    """The two off-diagonal blocks (K A - A K, L A - A L) of the Dirac commutator,
    built afresh on each call; their normal forms are A's ``dirac_forms``."""
    return commutator_with_K(a), commutator_with_L(a)


def commutator_form(s: "NormalForm", form: "NormalForm") -> "NormalForm":
    """The form of S A - A S from the forms of S and A (either of them
    stacked); a ValueError when a function of it would pass MAX_DEPTH."""
    return _sum_form((1.0, -1.0), (s.after(form), form.after(s)))


# ---------------------------------------------------------------------------
# The normal form of the operator algebra.

# A term M_g K^a L^b M_h, as (g, a, b, h) with g and h arrays of cylinder values.
Term = Tuple[np.ndarray, int, int, np.ndarray]

_ONE = np.ones(1)  # the constant 1 at depth 0; shared, never written to


def _koopman_pow(u: np.ndarray, n: int) -> np.ndarray:
    """K^n u; a constant stays a depth-0 array."""
    if n == 0 or u.shape[0] == 1:
        return u
    if _depth(u) + n > MAX_DEPTH:
        raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
    for _ in range(n):
        u = _koopman(u)
    return u


def _ruelle_pow(u: np.ndarray, n: int) -> np.ndarray:
    for _ in range(min(n, _depth(u))):  # L fixes constants
        u = _ruelle(u)
    return u


def _times(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x if f is _ONE else f if x is _ONE else _mult(f, x)


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
            out[i] = (np.add(*_aligned(g0, g)), a, b, h0) if b == 0 else (g0, a, b, np.add(*_aligned(h0, h)))
    return tuple(out)


def _sum_form(weights: Sequence[float], forms: Sequence["NormalForm"]) -> "NormalForm":
    """The form of the weighted sum of operators with the given forms."""
    terms: List[Term] = []
    rank_one: List[Tuple[np.ndarray, np.ndarray]] = []
    for w, form in zip(weights, forms):
        terms += [_term(w * g, a, b, h) for g, a, b, h in form.terms]
        rank_one += [(w * u, v) for u, v in form.rank_one]
    return NormalForm(_merged(terms), tuple(rank_one))


def _mean_onto(z: np.ndarray, d: int) -> np.ndarray:
    """z averaged onto the depth-d space when it is finer, else z itself."""
    if _depth(z) > d:
        return z.reshape((1 << d, -1) + z.shape[1:]).mean(axis=1)
    return z


def _columns(fs: Sequence[np.ndarray]) -> np.ndarray:
    """The functions' orthonormal coordinates at their common depth, one per
    column; stacked functions give one such matrix per member, (k, n, r)."""
    depth = max((_depth(f) for f in fs), default=0)
    cols = [_refine_rows(f, depth) for f in fs]
    if not cols:
        return np.zeros((1, 0))
    x = np.column_stack(cols) if cols[0].ndim == 1 else np.stack([c.T for c in cols], axis=-1)
    return x * 2.0 ** (-depth / 2.0)


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

    A stacked form (``stack``) holds k forms: each function but the shared
    constant 1 has a trailing member axis, ``(2**d, k)``, and products, sums
    and rank-one inner products act member by member.
    """

    terms: Tuple[Term, ...] = ()
    rank_one: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()

    def after(self, other: "NormalForm") -> "NormalForm":
        """The form of self . other (other applied first)."""
        rank_one = [(_term_apply(s, u), v) for s in self.terms for u, v in other.rank_one]
        rank_one += [(u, _term_apply((h, b, a, g), v)) for u, v in self.rank_one for g, a, b, h in other.terms]
        rank_one += [(u * (_col_inner if v.ndim > 1 else _inner_rows)(v, u2), v2) for u, v in self.rank_one for u2, v2 in other.rank_one]
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

    def exact_norm(self, d: int) -> Optional[Tuple[object, str]]:
        """(value, method): the form's exact norm on the depth-d space, or None
        when the form has no exact solve.  No Krylov run is made, and the
        only Grams built are those of exact-block's small blocks.  A stacked
        form gives a list, one value per member, from the same numpy calls
        over the stack.

        * exact-diagonal: one multiplier term, whose Gram is a multiplier,
          read off as the largest entry of its diagonal (per member, the max
          over axis 0).  For M_g K^a (b = 0),
          A^T A = P_d M_{L^a|g|^2} P_d at every d, with P_d the averaging onto
          depth d: the depth-d cell means of L^a|g|^2.  The K block
          M_{Kf - f} K of a multiplier gives the paper's ||[D, pi(M_f)]|| =
          |sqrt(L|Kf - f|^2)|_inf.  For L^b M_h (a = 0), A A^T = M_{L^b|h|^2}
          when depth(h) <= d and b <= d: the adjoint M_h K^b maps the
          indicator of each depth-(d - b) cell into the depth-d space, so that
          space holds the top of the spectrum.  The L block L M_{f - Kf} of a
          multiplier qualifies from the multiplier's own depth plus one on.
        * exact-rank-r: rank-one terms only, U W^T in orthonormal coordinates,
          U holding the u_j and W the P_d v_j, one per column (a projection's
          blocks, |K psi><psi| - |psi><L psi|, have r = 2): a QR of the two
          r-column sides, then the top singular value of the r x r product of
          their R factors.  A stack's sides are (k, n, r), solved by one
          ``qr`` and one ``svd`` call over the stack.
        * exact-block: every other form whose terms share one shift
          s = a - b, with no rank-one pair.  With E_c = K^c L^c, the mean
          over the leading c symbols (nested projections, E_0 = I),
          K^a L^b is K^s E_b for s >= 0 and E_a L^{-s} otherwise.
          - Constant coefficients w_i (the K^n L^n family): the form is
            K^s T or T L^{-s} with T = sum_i w_i E_{c_i}, c_i = min(a_i, b_i).
            K^s is an isometry and L^{-s} maps the depth-d space onto the
            depth-d' one, d' = max(d + s, 0), as a co-isometry, so the value
            is the norm of T there: T's eigenvalues are the partial sums
            Q_k = sum_{c_i <= k} w_i for k < d' and Q_top on the constants,
            top = max c_i, and the value is max(|Q_top|, |Q_k| for
            k < min(top, d')), at every d in O(top).  The K block
            K^{n+1} L^n - K^n L^{n-1} of K^n L^n is K (E_n - E_{n-1}), of
            norm 1 from depth n on: the paper's ||[D, pi(KL)]|| = 1.
          - Otherwise, from the core depth on, when the form is not stacked
            and one block, 2**(top + |s|) x 2**top values, fits in
            CHUNK_BYTES: the form is block diagonal, its blocks probed on
            their smaller side in chunks of tails and solved by batched
            ``eigvalsh`` (``_block_top``).
          The Gram form A^* A, derived symbolically from the form and its
          adjoint, is not solved instead: where the form's terms cancel, its
          terms cancel after squaring, and it gave 1e-8 where the norm is 0.

        Every other form (mixed shifts, terms with rank-one pairs, a depth
        below the core depth of a probed form, blocks past CHUNK_BYTES) has
        none.  The value's
        square, the top Gram eigenvalue, must be finite, as every Gram
        product of the dense and Lanczos paths must.
        """
        if not self.terms:
            sides = _columns([u for u, _ in self.rank_one]), _columns([_mean_onto(v, d) for _, v in self.rank_one])
            u, w = (np.linalg.qr(require_finite(x, "operator"), mode="r") for x in sides)
            sigma = np.linalg.svd(u @ w.swapaxes(-1, -2), compute_uv=False)[..., 0] if u.size else np.zeros(())
            require_finite([s * s for s in sigma.reshape(-1).tolist()], "Gram operator")  # Python floats: no overflow warning
            return sigma.tolist(), "exact-rank-r"
        if self.rank_one:
            return None
        if len(self.terms) == 1:
            g, a, b, h = self.terms[0]
            diagonal = None
            if b == 0:
                diagonal = _mean_onto(_ruelle_pow(g * g, a), d)
            elif a == 0 and _depth(h) <= d and b <= d:
                diagonal = _ruelle_pow(h * h, b)
            if diagonal is not None:
                lam = require_finite(diagonal, "Gram operator").max(axis=0)
                return np.sqrt(np.maximum(lam, 0.0)).tolist(), "exact-diagonal"
        return self._block_norm(d)

    def _block_norm(self, d: int) -> Optional[Tuple[object, str]]:
        """The exact-block solve of ``exact_norm``, or None (see there)."""
        shifts = {a - b for _, a, b, _ in self.terms}
        if len(shifts) > 1:
            return None
        (s,) = shifts
        top = max(min(a, b) for _, a, b, _ in self.terms)
        if all(g.shape[0] == h.shape[0] == 1 for g, _, _, h in self.terms):
            w = [(g * h)[0] for g, _, _, h in self.terms]
            q = np.zeros((top + 1,) + np.broadcast_shapes(*(x.shape for x in w)))
            for x, (_, a, b, _) in zip(w, self.terms):
                q[min(a, b)] += x
            q = np.abs(np.cumsum(q, axis=0))
            sigma = np.maximum(q[top], q[: min(top, max(d + min(s, 0), 0))].max(axis=0, initial=0.0))
            require_finite([x * x for x in sigma.reshape(-1).tolist()], "Gram operator")  # as exact-rank-r
            return sigma.tolist(), "exact-block"
        reach = self.core_depth()
        if d < reach or any(f.ndim > 1 for g, _, _, h in self.terms for f in (g, h)):
            return None
        value = _block_top(self.terms, reach)
        return None if value is None else (value, "exact-block")

    def structure(self) -> tuple:
        """The form's terms' (a, b), which of its functions are the constant 1,
        and its number of rank-one pairs.  Forms of one structure take the
        same derivation steps, and ``stack`` joins them."""
        return tuple((a, b, g is _ONE, h is _ONE) for g, a, b, h in self.terms), len(self.rank_one)

    def key(self) -> tuple:
        """The form's structure and the shapes of all its functions: forms
        with one key have the same depths, so the same core depth."""
        shape = lambda x: None if x is _ONE else x.shape
        return tuple((a, b, shape(g), shape(h)) for g, a, b, h in self.terms), tuple((u.shape, v.shape) for u, v in self.rank_one)

    def functions(self) -> List[np.ndarray]:
        """Every function of the form, in slot order: each term's g and h, then
        each rank-one pair's u and v."""
        return [f for g, _, _, h in self.terms for f in (g, h)] + [f for pair in self.rank_one for f in pair]

    @staticmethod
    def stack(forms: Sequence["NormalForm"]) -> Optional["NormalForm"]:
        """One form of forms that share a ``structure``, or None when they have
        no function but the constant 1.  Each function is refined to the
        deepest depth of its slot, which re-expresses the same operator, so
        forms of different depths stack."""

        def join(xs):
            if xs[0] is _ONE:
                return _ONE
            depth = max(_depth(x) for x in xs)
            return np.stack([_refine_rows(x, depth) for x in xs], axis=-1)

        terms = tuple((join(g), a[0], b[0], join(h)) for g, a, b, h in (zip(*ts) for ts in zip(*(f.terms for f in forms))))
        rank_one = tuple((join(u), join(v)) for u, v in (zip(*ps) for ps in zip(*(f.rank_one for f in forms))))
        return NormalForm(terms, rank_one) if rank_one or any(g is not _ONE or h is not _ONE for g, _, _, h in terms) else None


def _block_top(terms: Sequence[Term], reach: int) -> Optional[float]:
    """The largest singular value of sum_i M_{g_i} K^{a_i} L^{b_i} M_{h_i},
    every a_i - b_i = s, on the depth-``reach`` space (``core_depth``), or
    None when one of its blocks would not fit in CHUNK_BYTES.

    With B = max b_i, each term maps input symbol B + j to output symbol
    B + s + j, so the form is block diagonal in the input's last reach - B
    symbols (its tail): one 2**(B + s) x 2**B block per tail.  For s < 0
    the adjoint sum_i M_{h_i} K^{b_i} L^{a_i} M_{g_i}, whose blocks are the
    transposes, is probed instead, so that the probes are always the smaller
    side's 2**top depth-top cylinder indicators, top = max min(a_i, b_i),
    and each block has 2**(top + |s|) rows.  Applied to them, the form gives
    every block at once (column grouping, or probing): row (p, t) of column
    q is entry (p, q) of block t.  The rows are laid out as (2**top or
    2**(top + |s|), tails, columns), so that a function deeper than its
    side's leading symbols is its reshape to those rows and the tails; tails
    go through in chunks.  The blocks are squared numerically on their
    smaller side, as a dense Gram is, so that terms which cancel lose no
    more digits than they do there.
    """
    tails = reach - max(b for _, _, b, _ in terms)
    (s,) = {a - b for _, a, b, _ in terms}
    if s < 0:
        terms, s = [(h, b, a, g) for g, a, b, h in terms], -s
    top = max(b for _, _, b, _ in terms)
    m, n = 1 << (top + s), 1 << top
    if 8 * m * n > CHUNK_BYTES:
        return None
    lam = 0.0
    for chunk in column_chunks(1 << tails, m * n):
        t = np.arange(chunk.start, chunk.stop)

        def cut(f: np.ndarray, lead: int) -> np.ndarray:
            # f's symbols past its side's leading ones are the leading bits of a tail
            e = _depth(f)
            return f if e <= lead else f.reshape(1 << lead, -1)[:, t >> (tails + lead - e), None]

        x = np.broadcast_to(np.eye(n)[:, None, :], (n, t.size, n))
        out = np.zeros((m, t.size, n))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, with a ValueError
            for g, a, b, h in terms:
                out += _refine_rows(_term_apply((cut(g, top + s), a, b, cut(h, top)), x), top + s)
            blocks = require_finite(out, "operator").transpose(1, 0, 2) * 2.0 ** (-s / 2.0)
            gram = blocks.swapaxes(1, 2) @ blocks
        lam = max(lam, float(np.linalg.eigvalsh(require_finite(gram, "Gram operator"))[:, -1].max()))
    return float(np.sqrt(lam))


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
        require_depth(in_depth)
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
        """(n, width, V -> G V) for the Gram operator G of the smaller side.

        G is A^T A = P_d . adj . op when A has no more columns than rows and
        A A^T = R_out . op . P_d . adj otherwise, with P_d the averaging onto
        the input depth and R_out the refinement to the output depth.  width,
        the rows of the widest array G passes through, is the larger side or
        the rows of the adjoint's output on the output-depth space, which can
        be finer (the adjoint K^k M_f of M_f L^k).  The coordinate scalings
        of matvec and rmatvec cancel in either product, 2**(d/2) *
        2**(-out/2) * 2**(out/2) * 2**(-d/2) = 1, so none is applied.  The
        one finiteness check is on G V: the kernels are linear, so a
        non-finite intermediate leaves G V non-finite.
        """
        (rows, cols), out = self.shape, self.out_depth
        op, adj = self.op.apply_batch, self._adjoint.apply_batch
        width = max(rows, cols, 1 << self._adjoint.out_depth(out))
        if cols <= rows:
            return cols, width, lambda v: require_finite(self._onto_input(adj(op(v))), "Gram operator")
        return rows, width, lambda v: require_finite(_refine_rows(op(self._onto_input(adj(v))), out), "Gram operator")

    def _onto_input(self, z: np.ndarray) -> np.ndarray:
        """z averaged onto, or refined to, the depth-``in_depth`` space."""
        return _refine_rows(_mean_onto(z, self.in_depth), self.in_depth)


def column_chunks(cols: int, width: int) -> Iterator[slice]:
    """Slices that split ``cols`` columns into chunks of about CHUNK_BYTES each
    at ``width`` rows, the most rows any array a chunk passes through has."""
    step = max(1, CHUNK_BYTES // (8 * width))
    return (slice(j, min(j + step, cols)) for j in range(0, cols, step))


def apply_to_identity(fn: Callable[[np.ndarray], np.ndarray], shape: Tuple[int, int], width: int) -> np.ndarray:
    """The matrix of a batched linear map of the given shape, built from identity
    column chunks (``column_chunks`` at ``width``, the most rows any array
    inside ``fn`` has)."""
    rows, cols = shape
    out = np.empty((rows, cols))
    for chunk in column_chunks(cols, width):
        k = chunk.stop - chunk.start
        eye = np.zeros((cols, k))
        eye[np.arange(chunk.start, chunk.stop), np.arange(k)] = 1.0
        out[:, chunk] = fn(eye)
    return out


@dataclass(frozen=True, eq=False)
class AssembledMap:
    """A dense matrix of an operator between depth spaces, orthonormal coordinates.

    ``assemble`` builds it from ``BoundOperator.matvec``, which checks every
    column for finiteness.
    """

    in_depth: int
    out_depth: int
    matrix: np.ndarray


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
