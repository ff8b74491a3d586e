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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .words import EPS0, EPS1, HaarIndex, MAX_LEN, Word, word_index

MAX_DEPTH = MAX_LEN

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2


class DyadicFunction:
    """A real function constant on depth-d cylinders, as its cylinder values."""

    __slots__ = ("depth", "values")

    def __init__(self, depth: int, values) -> None:
        if not 0 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth {depth} outside [0, {MAX_DEPTH}]")
        arr = np.array(values, dtype=float)
        if arr.shape != (1 << depth,):
            raise ValueError(f"expected {1 << depth} values at depth {depth}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        self.depth = depth
        self.values = arr

    def __repr__(self) -> str:
        return f"DyadicFunction(depth={self.depth}, values={self.values!r})"

    # Value-type arithmetic with automatic depth promotion.
    def __add__(self, other: "DyadicFunction") -> "DyadicFunction":
        a, b, d = _common(self, other)
        return DyadicFunction(d, a + b)

    def __sub__(self, other: "DyadicFunction") -> "DyadicFunction":
        a, b, d = _common(self, other)
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


def _common(f: DyadicFunction, g: DyadicFunction):
    """The values of f and g at their common depth, for read-only use."""
    d = max(f.depth, g.depth)
    return _refine_rows(f.values, d), _refine_rows(g.values, d), d


def inner(f: DyadicFunction, g: DyadicFunction) -> float:
    """L2 inner product against the equal-weights Bernoulli measure."""
    a, b, d = _common(f, g)
    return float(a @ b) * 2.0 ** (-d)


def l2_norm(f: DyadicFunction) -> float:
    return math.sqrt(max(inner(f, f), 0.0))


UNIT_TOL = 1e-9


def require_unit(f: DyadicFunction, what: str) -> None:
    """Raise ValueError unless f has L2 norm one within UNIT_TOL; ``what`` names f."""
    n = l2_norm(f)
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(f"{what} must have unit norm, got {n!r}")


def sup_norm(f: DyadicFunction) -> float:
    return float(np.max(np.abs(f.values))) if f.values.size else 0.0


def l2_dist(f: DyadicFunction, g: DyadicFunction) -> float:
    a, b, d = _common(f, g)
    return math.sqrt(max(float((a - b) @ (a - b)) * 2.0 ** (-d), 0.0))


def is_close(f: DyadicFunction, g: DyadicFunction, atol: float = 1e-12) -> bool:
    """True iff f and g agree as L2 elements up to atol, at common depth."""
    a, b, _ = _common(f, g)
    return bool(np.max(np.abs(a - b)) <= atol) if a.size else True


def normalized(f: DyadicFunction) -> DyadicFunction:
    n = l2_norm(f)
    if n == 0.0:
        raise ValueError("cannot normalize the zero function")
    return f * (1.0 / n)


def pointwise_mul(f: DyadicFunction, g: DyadicFunction) -> DyadicFunction:
    a, b, d = _common(f, g)
    return DyadicFunction(d, a * b)


def haar_function(idx: HaarIndex) -> DyadicFunction:
    """The orthonormal Haar element for the given index."""
    if idx is EPS0:
        return DyadicFunction(1, [-SQRT2, 0.0])
    if idx is EPS1:
        return DyadicFunction(1, [0.0, SQRT2])
    if not isinstance(idx, Word):
        raise TypeError(f"not a Haar index: {idx!r}")
    if idx.length == 0:
        raise ValueError("Haar indices use nonempty words (eps0/eps1 cover depth one)")
    if idx.length + 1 > MAX_DEPTH:
        raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
    scale = 2.0 ** (idx.length / 2.0)
    vals = np.zeros(1 << (idx.length + 1))
    i = word_index(idx)
    vals[2 * i] = -scale  # [w0]
    vals[2 * i + 1] = scale  # [w1]
    return DyadicFunction(idx.length + 1, vals)


@dataclass
class HaarCoeffs:
    """Coefficients over the orthonormal family {e_eps0, e_eps1} + {e_w}."""

    eps0: float = 0.0
    eps1: float = 0.0
    coeffs: Dict[Word, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for w in self.coeffs:
            if w.length == 0:
                raise ValueError("coefficient words must be nonempty")

    def norm_sq(self) -> float:
        return self.eps0**2 + self.eps1**2 + sum(b * b for b in self.coeffs.values())

    def get(self, w: Word) -> float:
        return self.coeffs.get(w, 0.0)


def to_haar(f: DyadicFunction) -> HaarCoeffs:
    """Expand f over the orthonormal Haar family (exact at depth(f)).

    Computed by the mass pyramid: with S_k(u) the integral of f over the
    depth-k cylinder [u], the coefficient of e_w is
    ``2**(len(w)/2) * (S(w1) - S(w0))``, and the eps coefficients read off the
    depth-one masses.  Constants fold into eps0/eps1 automatically.
    """
    g = refine(f, max(f.depth, 1))
    masses = g.values * 2.0 ** (-g.depth)
    coeffs: Dict[Word, float] = {}
    for level in range(g.depth, 1, -1):
        parents = masses[0::2] + masses[1::2]
        diffs = masses[1::2] - masses[0::2]
        scale = 2.0 ** ((level - 1) / 2.0)
        for i, dval in enumerate(diffs):
            if dval != 0.0:
                coeffs[Word(level - 1, i)] = scale * float(dval)
        masses = parents
    eps0 = -SQRT2 * float(masses[0])
    eps1 = SQRT2 * float(masses[1])
    return HaarCoeffs(eps0=eps0, eps1=eps1, coeffs=coeffs)


def from_haar(h: HaarCoeffs) -> DyadicFunction:
    """Synthesize the function with the given Haar coefficients."""
    depth = max([1] + [w.length + 1 for w in h.coeffs])
    vals = np.zeros(1 << depth)
    half = 1 << (depth - 1)
    vals[:half] += h.eps0 * (-SQRT2)
    vals[half:] += h.eps1 * SQRT2
    for w, b in h.coeffs.items():
        scale = b * 2.0 ** (w.length / 2.0)
        span = 1 << (depth - w.length - 1)
        start = word_index(w) * 2 * span
        vals[start : start + span] -= scale  # [w0]
        vals[start + span : start + 2 * span] += scale  # [w1]
    return DyadicFunction(depth, vals)


def state_n(n: int) -> DyadicFunction:
    """The level-n chain state over the vacuum: 2**(-n/2) * sum of level-n Haar elements.

    At depth n + 1 the cylinder values alternate -1, +1.  n = 0 gives the
    vacuum ``2**-0.5 * (e_eps0 + e_eps1)``.
    """
    if not 0 <= n <= 20:
        raise ValueError(f"chain level {n} outside [0, 20]")
    return DyadicFunction(n + 1, np.tile([-1.0, 1.0], 1 << n))


def state_nw(n: int, w: Optional[Word]) -> DyadicFunction:
    """The chain state over the kernel vector indexed by w; w = None means state_n(n).

    For a word w the state is
    ``2**(-(n+1)/2) * (sum_{len(u)=n} e_{u0w} - sum_{len(u)=n} e_{u1w})``,
    materialized directly at its minimal depth n + len(w) + 2.
    """
    if w is None:
        return state_n(n)
    if n < 0:
        raise ValueError("chain level must be >= 0")
    depth = n + w.length + 2
    if depth > MAX_DEPTH:
        raise ValueError(f"depth cap {MAX_DEPTH} exceeded")
    # One block per length-n word u; inside a block the only nonzero cells are
    # the four [u a w b] with a, b in {0, 1}.
    block = np.zeros(1 << (w.length + 2))
    scale = 2.0 ** (w.length / 2.0)
    i = word_index(w)
    half = 1 << (w.length + 1)
    block[2 * i] = -scale  # a=0, b=0 from +e_{u0w}
    block[2 * i + 1] = scale  # a=0, b=1
    block[half + 2 * i] = scale  # a=1, b=0 from -e_{u1w}
    block[half + 2 * i + 1] = -scale  # a=1, b=1
    return DyadicFunction(depth, np.tile(block, 1 << n))


CONSTRAINTS = ("none", "unit-norm", "kernel-of-L", "independent-of-first-coordinate")


def random_function(seed: int, depth: int, constraint: str = "none") -> DyadicFunction:
    """A seeded random depth-d function, with the constraint enforced exactly.

    kernel-of-L forces values[1u] = -values[0u] (so the preimage average
    vanishes on every cylinder); independent-of-first-coordinate forces
    values[1u] = values[0u].
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    rng = np.random.default_rng(seed)
    if constraint in ("kernel-of-L", "independent-of-first-coordinate"):
        if depth < 1:
            raise ValueError(f"constraint {constraint!r} needs depth >= 1")
        half = rng.standard_normal(1 << (depth - 1))
        sign = -1.0 if constraint == "kernel-of-L" else 1.0
        return DyadicFunction(depth, np.concatenate([half, sign * half]))
    vals = rng.standard_normal(1 << depth)
    f = DyadicFunction(depth, vals)
    if constraint == "unit-norm":
        f = normalized(f)
    return f
