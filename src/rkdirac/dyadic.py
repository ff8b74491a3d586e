"""Finite-depth functions on the binary shift space.

A depth-d function is constant on each depth-d cylinder and is stored as a
vector of 2**d cylinder values, indexed MSB-first (see :mod:`rkdirac.words`).
The reference measure is the (1/2, 1/2) Bernoulli measure, so each depth-d
cylinder carries mass 2**-d and the inner product of two depth-d functions is
``2**-d * sum(f_i * g_i)``.

The orthonormal Haar family consists of

* ``e_eps0 = -sqrt(2) * chi_[0]`` and ``e_eps1 = sqrt(2) * chi_[1]``,
* ``e_w = 2**(len(w)/2) * (chi_[w1] - chi_[w0])`` for nonempty words w.

Constants are spanned through ``1 = 2**-0.5 * (e_eps1 - e_eps0)``; there is no
separate constant coordinate.

Haar coefficients are one array of ``2**max(d, 1)`` slots: e_eps0 in slot 0,
e_eps1 in slot 1 and e_w in slot ``2**len(w) + bits(w)`` (:func:`haar_slot`),
so the words of length l fill slots ``[2**l, 2**(l+1))`` in index order.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .words import EPS0, EPS1, HaarIndex, MAX_LEN, Word, word_index

MAX_DEPTH = MAX_LEN
MAX_CHAIN_LEVEL = 20  # the highest level n of a chain state |n>

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2


class DyadicFunction:
    """A real function constant on depth-d cylinders, as its cylinder values."""

    __slots__ = ("depth", "values")

    def __init__(self, depth: int, values) -> None:
        require_depth(depth)
        arr = np.array(values, dtype=float)
        if arr.shape != (1 << depth,):
            raise ValueError(f"expected {1 << depth} values at depth {depth}, got shape {arr.shape}")
        require_finite(arr, "function")
        self.depth = depth
        self.values = arr

    def __repr__(self) -> str:
        return f"DyadicFunction(depth={self.depth}, values={self.values!r})"

    # Value-type arithmetic with automatic depth promotion.
    def __add__(self, other: "DyadicFunction") -> "DyadicFunction":
        return DyadicFunction(max(self.depth, other.depth), _add_rows(self.values, other.values))

    def __sub__(self, other: "DyadicFunction") -> "DyadicFunction":
        a, b, d = _common(self.values, other.values)
        return DyadicFunction(d, a - b)

    def __neg__(self) -> "DyadicFunction":
        return DyadicFunction(self.depth, -self.values)

    def __mul__(self, scalar: float) -> "DyadicFunction":
        return DyadicFunction(self.depth, self.values * float(scalar))

    __rmul__ = __mul__


def constant(value: float, depth: int = 0) -> DyadicFunction:
    return DyadicFunction(depth, np.full(1 << depth, float(value)))


def indicator(w: Word) -> DyadicFunction:
    """The characteristic function of the cylinder [w], at depth len(w)."""
    vals = np.zeros(1 << w.length)
    vals[word_index(w)] = 1.0
    return DyadicFunction(w.length, vals)


def refine(f: DyadicFunction, depth: int) -> DyadicFunction:
    """Re-express f at a finer depth; values repeat over child cylinders."""
    if depth < f.depth:
        raise ValueError(f"cannot refine depth {f.depth} down to {depth}")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
    return DyadicFunction(depth, _refine_rows(f.values, depth))


def _refine_rows(x: np.ndarray, depth: int) -> np.ndarray:
    """x re-expressed at a depth no coarser than its own: rows repeat over child
    cylinders; x itself when the depths are equal."""
    r = (1 << depth) // x.shape[0]
    return x if r == 1 else np.repeat(x, r, axis=0)


def _common(x: np.ndarray, y: np.ndarray):
    """Two arrays of cylinder values at their common depth, for read-only use,
    and that depth."""
    d = max(x.shape[0], y.shape[0]).bit_length() - 1
    return _refine_rows(x, d), _refine_rows(y, d), d


def _add_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y, two arrays of cylinder values, at their common depth."""
    a, b, _ = _common(x, y)
    return a + b


def _inner_rows(x: np.ndarray, y: np.ndarray) -> float:
    """The L2 inner product of two arrays of cylinder values."""
    a, b, d = _common(x, y)
    return float(a @ b) * 2.0 ** (-d)


def _col_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The L2 inner products of two batches of functions, column by column, at
    their common depth; a batch holds one function per column."""
    a, b, d = _common(x, y)
    return np.einsum("ij,ij->j", a, b) * 2.0 ** (-d)


def _col_dist(x: np.ndarray, y) -> np.ndarray:
    """The L2 distance of each column of x from the same column of y (or from
    y = 0), both batches of functions at one depth."""
    z = x - y
    return np.sqrt(_col_inner(z, z))


def inner(f: DyadicFunction, g: DyadicFunction) -> float:
    """L2 inner product against the equal-weights Bernoulli measure."""
    return _inner_rows(f.values, g.values)


def l2_norm(f: DyadicFunction) -> float:
    return math.sqrt(max(inner(f, f), 0.0))


UNIT_TOL = 1e-9


def require_depth(depth: int) -> None:
    """Raise ValueError unless a depth-``depth`` space is within [0, MAX_DEPTH]."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} outside [0, {MAX_DEPTH}]")


def require_finite(x, what: str):
    """x itself, or a ValueError saying that the ``what`` values must be finite.

    The one finiteness check: functions, matrices, every product of the norm
    engine and the exact norm solves all use it.
    """
    if not np.isfinite(x).all():
        raise ValueError(f"{what} values must be finite")
    return x


def require_unit(f: DyadicFunction, what: str) -> None:
    """``require_unit_columns`` on f's values, one column."""
    require_unit_columns(f.values, what)


def require_unit_columns(x: np.ndarray, what: str) -> None:
    """Raise ValueError, with the first bad norm, unless each column of x (cylinder
    values, one function per column) has L2 norm one within UNIT_TOL."""
    norms = np.sqrt(np.einsum("i...,i...->...", x, x) / len(x))  # einsum overflows to inf silently
    off = ~(np.abs(norms - 1.0) <= UNIT_TOL)  # nan is off too
    if off.any():
        raise ValueError(f"{what} must have unit norm, got {float(np.ravel(norms)[np.ravel(off)][0])!r}")


def sup_norm(f: DyadicFunction) -> float:
    return float(np.max(np.abs(f.values))) if f.values.size else 0.0


def l2_dist(f: DyadicFunction, g: DyadicFunction) -> float:
    a, b, d = _common(f.values, g.values)
    return math.sqrt(max(float((a - b) @ (a - b)) * 2.0 ** (-d), 0.0))


def is_close(f: DyadicFunction, g: DyadicFunction, atol: float = 1e-12) -> bool:
    """True iff f and g agree as L2 elements up to atol, at common depth."""
    a, b, _ = _common(f.values, g.values)
    return bool(np.max(np.abs(a - b)) <= atol) if a.size else True


def normalized(f: DyadicFunction) -> DyadicFunction:
    n = l2_norm(f)
    if n == 0.0:
        raise ValueError("cannot normalize the zero function")
    return f * (1.0 / n)


def pointwise_mul(f: DyadicFunction, g: DyadicFunction) -> DyadicFunction:
    a, b, d = _common(f.values, g.values)
    return DyadicFunction(d, a * b)


def haar_function(idx: HaarIndex) -> DyadicFunction:
    """The orthonormal Haar element for the given index: ``haar_batch``'s
    one column at the element's own depth."""
    if idx is not EPS0 and idx is not EPS1 and not isinstance(idx, Word):
        raise TypeError(f"not a Haar index: {idx!r}")
    slot = haar_slot(idx)
    depth = max(slot.bit_length(), 1)
    if depth > MAX_DEPTH:
        raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
    return DyadicFunction(depth, haar_batch([slot], depth)[:, 0])


def haar_batch(slots: Sequence[int], depth: int) -> np.ndarray:
    """The Haar elements of the given slots (``haar_slot``), one per column of
    an array of cylinder values at a depth no coarser than theirs."""
    out = np.zeros((1 << depth, len(slots)))
    for j, slot in enumerate(slots):
        level = max(slot.bit_length() - 1, 0)
        if level >= depth:
            raise ValueError(f"Haar slot {slot} needs depth {level + 1}, got {depth}")
        span = 1 << (depth - level - 1)  # the cells of one child cylinder
        if slot < 2:  # e_eps0 on [0], e_eps1 on [1]
            out[slot * span : (slot + 1) * span, j] = SQRT2 if slot else -SQRT2
        else:  # e_w on [w0] and [w1]
            w0 = 2 * (slot - (1 << level)) * span
            scale = 2.0 ** (level / 2.0)
            out[w0 : w0 + span, j] = -scale
            out[w0 + span : w0 + 2 * span, j] = scale
    return out


def haar_slot(idx: HaarIndex) -> int:
    """The slot of a Haar index in a coefficient array: 0 for eps0, 1 for eps1,
    ``2**len(w) + bits(w)`` for a nonempty word w."""
    if idx is EPS0:
        return 0
    if idx is EPS1:
        return 1
    if idx.length == 0:
        raise ValueError("Haar indices use nonempty words (eps0/eps1 cover depth one)")
    return (1 << idx.length) | idx.bits


def to_haar(f: DyadicFunction) -> np.ndarray:
    """The coefficients of f over the orthonormal Haar family, in slot order
    (exact at depth(f); ``2**max(depth(f), 1)`` slots).

    Computed by the mass pyramid: with S_k(u) the integral of f over the
    depth-k cylinder [u], the coefficient of e_w is
    ``2**(len(w)/2) * (S(w1) - S(w0))``, and the eps coefficients read off the
    depth-one masses.  Constants fold into eps0/eps1 automatically.
    """
    return _haar_rows(f.values)


def _haar_rows(x: np.ndarray) -> np.ndarray:
    """to_haar along axis 0 of an array of cylinder values: the coefficients
    of each column of a batch, one column each."""
    depth = max(x.shape[0].bit_length() - 1, 1)
    masses = _refine_rows(x, depth) * 2.0 ** (-depth)
    h = np.empty((1 << depth,) + x.shape[1:])
    for level in range(depth - 1, 0, -1):  # the words of length level, slots [n, 2n)
        n = 1 << level
        h[n : 2 * n] = 2.0 ** (level / 2.0) * (masses[1::2] - masses[0::2])
        masses = masses[0::2] + masses[1::2]
    h[0], h[1] = -SQRT2 * masses[0], SQRT2 * masses[1]
    return h


def from_haar(h: np.ndarray) -> DyadicFunction:
    """The function with the given Haar coefficients, at depth log2(len(h))."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size < 2 or h.size & (h.size - 1):  # not 2**d slots, d >= 1
        raise ValueError(f"expected 2**d Haar coefficients with d >= 1, got shape {h.shape}")
    return DyadicFunction(h.size.bit_length() - 1, _from_haar_rows(h))


def _from_haar_rows(h: np.ndarray) -> np.ndarray:
    """from_haar along axis 0 of an array of 2**d >= 2 coefficient slots: the
    cylinder values of each column of a batch, one column each."""
    vals = SQRT2 * np.stack([-h[0], h[1]]) + 0.0  # + 0.0 leaves no -0.0 cell
    for level in range(1, h.shape[0].bit_length() - 1):  # the words of length level, slots [n, 2n)
        n = 1 << level
        scaled = 2.0 ** (level / 2.0) * h[n : 2 * n]
        vals = np.repeat(vals, 2, axis=0)
        vals[0::2] -= scaled  # [w0]
        vals[1::2] += scaled  # [w1]
    return vals


def chain_batch(n: int, length: Optional[int], cols: slice = slice(None)) -> np.ndarray:
    """The level-n chain states over the words of one length, one column per
    word in index order (``cols`` picks a slice of those columns); length None
    gives the plain level state as the one column.

    For a word w the state is
    ``2**(-(n+1)/2) * (sum_{len(u)=n} e_{u0w} - sum_{len(u)=n} e_{u1w})``,
    materialized directly at its minimal depth n + len(w) + 2.  The plain
    level state is ``2**(-n/2)`` times the sum of the level-n Haar elements:
    at depth n + 1 its cylinder values alternate -1, +1, and n = 0 gives the
    vacuum ``2**-0.5 * (e_eps0 + e_eps1)``.
    """
    if length is None:
        if not 0 <= n <= MAX_CHAIN_LEVEL:
            raise ValueError(f"chain level {n} outside [0, {MAX_CHAIN_LEVEL}]")
        return np.tile([[-1.0], [1.0]], (1 << n, 1))[:, cols]
    if n < 0:
        raise ValueError("chain level must be >= 0")
    if n + length + 2 > MAX_DEPTH:
        raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
    # One block per length-n word u; inside a block the only nonzero cells of
    # the column of w are the four [u a w b] with a, b in {0, 1}.
    i = np.arange(1 << length)[cols]
    j = np.arange(i.size)
    block = np.zeros((1 << (length + 2), i.size))
    scale = 2.0 ** (length / 2.0)
    half = 1 << (length + 1)
    block[2 * i, j] = -scale  # a=0, b=0 from +e_{u0w}
    block[2 * i + 1, j] = scale  # a=0, b=1
    block[half + 2 * i, j] = scale  # a=1, b=0 from -e_{u1w}
    block[half + 2 * i + 1, j] = -scale  # a=1, b=1
    return np.tile(block, (1 << n, 1))


def state_n(n: int) -> DyadicFunction:
    """The level-n chain state over the vacuum, at depth n + 1 (see chain_batch)."""
    return DyadicFunction(n + 1, chain_batch(n, None)[:, 0])


def state_nw(n: int, w: Optional[Word]) -> DyadicFunction:
    """The chain state over the kernel vector indexed by w, at depth
    n + len(w) + 2 (see chain_batch); w = None means state_n(n)."""
    if w is None:
        return state_n(n)
    i = word_index(w)
    return DyadicFunction(n + w.length + 2, chain_batch(n, w.length, slice(i, i + 1))[:, 0])


CONSTRAINTS = ("none", "unit-norm", "kernel-of-L", "independent-of-first-coordinate")


def random_batch(seed: int, depth: int, count: int, constraint: str = "none") -> np.ndarray:
    """count seeded random depth-d functions, one per column of a (2**depth,
    count) array, from one generator, with the constraint enforced exactly.

    kernel-of-L forces values[1u] = -values[0u] (so the preimage average
    vanishes on every cylinder); independent-of-first-coordinate forces
    values[1u] = values[0u].  Column 0 is ``random_function(seed, depth,
    constraint)``.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    require_depth(depth)
    rng = np.random.default_rng(seed)
    if constraint in ("kernel-of-L", "independent-of-first-coordinate"):
        if depth < 1:
            raise ValueError(f"constraint {constraint!r} needs depth >= 1")
        half = rng.standard_normal((count, 1 << (depth - 1)))
        sign = -1.0 if constraint == "kernel-of-L" else 1.0
        rows = np.concatenate([half, sign * half], axis=1)
    else:
        rows = rng.standard_normal((count, 1 << depth))
    if constraint == "unit-norm":  # each row times 1 / its l2_norm, as in normalized
        rows *= 1.0 / np.sqrt(np.einsum("ij,ij->i", rows, rows) * 2.0 ** (-depth))[:, None]
    return require_finite(rows.T, "function")


def random_function(seed: int, depth: int, constraint: str = "none") -> DyadicFunction:
    """A seeded random depth-d function: column 0 of ``random_batch``."""
    return DyadicFunction(depth, random_batch(seed, depth, 1, constraint)[:, 0])
