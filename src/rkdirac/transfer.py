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
``rmatvec`` is A^T.Y, the exact symbolic ``adjoint()`` followed by averaging
onto the depth-d space.  Each column costs O(2**max(d, out_depth)) memory;
both maps reject a non-finite result.  ``assemble`` materializes the matrix by
applying ``matvec`` to identity column chunks of about ``CHUNK_BYTES`` (256 KB,
cache sized) each; the norm engine never calls it, but builds its dense Grams
from the same chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .dyadic import DyadicFunction, MAX_DEPTH, _refine_rows, inner, refine, require_unit

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


@dataclass(frozen=True)
class Tail:
    """How an operator treats the symbols past the leading ``reach`` it reads.

    At every input depth d >= reach the operator is ``C_I (x) I + C_J (x) J``
    on (the leading ``reach`` symbols) (x) (the other d - reach): ``I``
    carries the tail over unchanged, moved by ``shift`` symbols, and ``J``
    is the tail mean, onto constants; both put the output's dependence on
    its own leading ``reach + shift`` symbols in ``C_I`` and ``C_J``.
    ``identity`` and ``mean`` say which of the two terms is present.  See
    ``dirac.core_depth``.
    """

    shift: int
    reach: int
    identity: bool = True
    mean: bool = False


class OperatorSpec:
    """A linear operator between depth spaces, applied lazily.

    Subclasses provide ``apply_batch`` (the batched kernel on cylinder-value
    arrays), ``out_depth`` (the output depth of matrices and bound operators
    for a given input depth) and ``adjoint`` (the symbolic Hilbert adjoint,
    exact on the full space); ``apply`` runs the kernel on a DyadicFunction,
    and ``tail`` gives the operator's :class:`Tail`, or None when it has none.
    """

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, f: DyadicFunction) -> DyadicFunction:
        return _function(self.apply_batch(f.values))

    def out_depth(self, in_depth: int) -> int:
        raise NotImplementedError

    def adjoint(self) -> "OperatorSpec":
        raise NotImplementedError

    def tail(self) -> Optional[Tail]:
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

    def tail(self):
        return Tail(shift=-1, reach=1)

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

    def tail(self):
        return Tail(shift=1, reach=0)

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

    def tail(self):
        return Tail(shift=0, reach=self.f.depth)

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

    def tail(self):
        return Tail(shift=0, reach=self.psi.depth, identity=False, mean=True)

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

    def tail(self):
        return Tail(shift=0, reach=self.n)

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

    def tail(self):
        return Tail(shift=0, reach=1)

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

    def tail(self):
        # A after B reads B's leading reach and, through B's shift, A's.
        acc = Tail(shift=0, reach=0)
        for op in reversed(self.ops):
            t = op.tail()
            if t is None:
                return None
            acc = Tail(
                shift=acc.shift + t.shift,
                reach=max(acc.reach, t.reach - acc.shift),
                identity=acc.identity and t.identity,
                mean=acc.mean or t.mean,
            )
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

    def tail(self):
        # Identity tails add only when they land at the same shift s.  A
        # member's output is constant past its reach + shift, which must lie
        # inside the sum's reach + s, so the reach is raised until it does.
        # A sum of mean tails alone keeps the smallest reach and takes the
        # shift that puts every member's output inside it.
        tails = [op.tail() for op in self.ops]
        if any(t is None for t in tails):
            return None
        shifts = {t.shift for t in tails if t.identity}
        if len(shifts) > 1:
            return None
        reach = max((t.reach for t in tails), default=0)
        shift = shifts.pop() if shifts else max((t.reach + t.shift for t in tails), default=0) - reach
        return Tail(
            shift=shift,
            reach=max([reach] + [t.reach + t.shift - shift for t in tails]),
            identity=any(t.identity for t in tails),
            mean=any(t.mean for t in tails),
        )

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

    def tail(self):
        return self.resolved.tail()

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


# ---------------------------------------------------------------------------
# Linear maps in orthonormal coordinates.


class BoundOperator:
    """op on the depth-``in_depth`` space, as a matrix-free linear map.

    ``shape`` is the shape of the matrix that ``assemble`` would build.
    ``matvec`` and ``rmatvec`` take one coordinate vector or an array with
    one vector per column.  ``rmatvec`` applies the symbolic adjoint and
    averages the result onto the depth-``in_depth`` space (the orthogonal
    projection onto it), so it is the exact transpose of ``matvec``.
    """

    def __init__(self, op: OperatorSpec, in_depth: int):
        if not 0 <= in_depth <= MAX_DEPTH:
            raise ValueError(f"depth {in_depth} outside [0, {MAX_DEPTH}]")
        out_depth = op.out_depth(in_depth)
        if out_depth > MAX_DEPTH:
            raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
        self.op, self.in_depth, self.out_depth = op, in_depth, out_depth
        self.shape = (1 << out_depth, 1 << in_depth)
        self._adjoint = op.adjoint()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"expected {self.shape[1]} rows, got {x.shape[0]}")
        y = self.op.apply_batch(x * 2.0 ** (self.in_depth / 2.0))
        y = _refine_rows(y, self.out_depth) * 2.0 ** (-self.out_depth / 2.0)
        if not np.all(np.isfinite(y)):
            raise ValueError("operator values must be finite")
        return y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        if y.shape[0] != self.shape[0]:
            raise ValueError(f"expected {self.shape[0]} rows, got {y.shape[0]}")
        z = self._adjoint.apply_batch(y * 2.0 ** (self.out_depth / 2.0))
        d = self.in_depth
        if _depth(z) > d:
            z = z.reshape((1 << d, -1) + z.shape[1:]).mean(axis=1)
        else:
            z = _refine_rows(z, d)
        z = z * 2.0 ** (-d / 2.0)
        if not np.all(np.isfinite(z)):
            raise ValueError("adjoint values must be finite")
        return z


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
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix entries must be finite")


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
