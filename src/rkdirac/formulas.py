"""Closed-form oracles for the commutator-norm identities, used to cross-check
the numeric norm engine and to adjudicate between competing closed-form
candidates that cannot all be right.

Notation used throughout: for a unit vector psi, ``c(psi)`` is the inner
product of psi with its Koopman image.  The squared norm of the image of phi
under the upper commutator block of the rank-one projection onto psi is

    <phi,psi>**2 - 2 <phi,psi> <K phi,psi> c(psi) + <K phi,psi>**2,

and the analogous expression with the transfer operator gives the lower
block.  All multiplier-operator norms reduce to cylinder sups (root mean
square of the two backward differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from . import dirac
from .dyadic import (
    DyadicFunction,
    INV_SQRT2,
    SQRT2,
    _common,
    _refine_rows,
    inner,
    l2_norm,
    pointwise_mul,
    refine,
    require_finite,
    require_unit,
    require_unit_columns,
    sup_norm,
    to_haar,
)
from .transfer import Koopman, Proj, Ruelle, _depth, koopman_apply, ruelle_apply

# ---------------------------------------------------------------------------
# Column batches.
#
# Each multiplier formula and projection expression below has one
# implementation, ``<name>_batch``, on arrays of cylinder values whose axis 0
# has 2**d rows, as the transfer kernels take: a 1-D array is one depth-d
# function and a (2**d, m) array holds m of them, one per column.  It gives
# one value per column (per column pair for the projection expressions), and
# the DyadicFunction form ``<name>`` is its one-function case.  A column's
# value has the same bits in any batch, since every sum over a column is
# taken on its own (``_pair_inner``), and the sups do not change when a
# column is refined.  An intermediate that overflows is refused with
# ``require_finite``'s ValueError, not a numpy warning.

_K, _L = Koopman().apply_batch, Ruelle().apply_batch


def _pair_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_j, y_j> for each column pair, at their common depth.  Each column is
    summed as one contiguous row, so that its sum has the same bits whatever
    the other columns are."""
    a, b, d = _common(x, y)
    return np.ascontiguousarray((a * b).T).sum(axis=-1) * 2.0 ** (-d)


def _col_proj(psi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<x_j, psi_j> psi_j for each column pair: the rank-one projections."""
    a, b, _ = _common(psi, x)
    return a * _pair_inner(b, a)


def _col_l2(z: np.ndarray) -> np.ndarray:
    """The L2 norm of each column of z, from the column scaled by its sup so
    that no square overflows."""
    s = np.abs(z).max(axis=0)
    u = z / np.where(s > 0.0, s, 1.0)
    return s * np.sqrt(_pair_inner(u, u))


# ---------------------------------------------------------------------------
# c(psi) and its Haar-coefficient forms, on ``to_haar`` slot arrays.


def koopman_overlap_from_coeffs(h: np.ndarray, zero_mean_form: bool = False) -> float:
    """<K psi, psi> from Haar coefficients alone.

    The full identity is

        sum_u (b_u / sqrt2) (b_0u + b_1u)
          + (b_0 + b_1)(beta_0 + beta_1) / 2
          + (beta_0 - beta_1)**2 / 2,

    where the last term is the squared mean of psi: this is
    ``_koopman_pairing_coeffs(h, h)``.  ``zero_mean_form=True`` drops that
    term, giving the simplification that is only valid for zero-mean inputs;
    kept so reports can quantify the gap.
    """
    total = _koopman_pairing_coeffs(h, h)
    if zero_mean_form:
        total -= 0.5 * float(h[0] - h[1]) ** 2
    return total


def koopman_overlap(psi: DyadicFunction) -> float:
    """<K psi, psi> for unit psi, cross-checked against the coefficient formula."""
    require_unit(psi, "projection vector")
    direct = inner(koopman_apply(psi), psi)
    from_coeffs = koopman_overlap_from_coeffs(to_haar(psi))
    if not abs(direct - from_coeffs) <= 1e-12:
        raise ValueError(
            f"coefficient formula for <K psi, psi> disagrees with the direct value: "
            f"{from_coeffs!r} vs {direct!r}"
        )
    return direct


# ---------------------------------------------------------------------------
# The two-parameter surface G and its brute-force maximization.


@dataclass(frozen=True)
class SurfacePoint:
    """A point (a, b, c, d) on the constraint set a**2 + b**2 = 1 = c**2 + d**2,
    with b >= 0 and d of either sign."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.a**2 + self.b**2 - 1.0) > 1e-12 or abs(self.c**2 + self.d**2 - 1.0) > 1e-12:
            raise ValueError("constraints a^2+b^2 = 1 = c^2+d^2 violated")
        if self.b < 0:
            raise ValueError("sign convention requires b >= 0")

    @classmethod
    def from_ac(cls, a: float, c: float, d_sign: int = 1) -> "SurfacePoint":
        b = math.sqrt(max(1.0 - a * a, 0.0))
        d = d_sign * math.sqrt(max(1.0 - c * c, 0.0))
        return cls(a=a, b=b, c=c, d=d)


def _surface(a, b, c, d):
    """G = a^2 - a t c + t^2 with t = a c + b d, on scalars or arrays."""
    t = a * c + b * d
    return a**2 - a * t * c + t * t


def overlap_surface(p: SurfacePoint) -> float:
    """The surface G(a, c) = a^2 - a (a c + b d) c + (a c + b d)^2."""
    return _surface(p.a, p.b, p.c, p.d)


def surface_stationary_value(c: float) -> float:
    """The stationary value (2 + c - c^2) / 2 of G along a = sqrt((1+c)/2)."""
    return 0.5 * (2.0 + c - c * c)


SCAN_GRID = 4001  # points per pass of surface_max_scan


def surface_max_scan(c: float) -> dict:
    """Brute-force maximum of G over a in [-1, 1] and both d signs.

    A coarse vectorized grid of SCAN_GRID points locates the maximizer and
    two local refinements pin it down well inside 1e-6.  Returns the maximum
    and its location.
    """
    best = {"max": -np.inf, "argmax": {"a": 0.0, "d_sign": 1}}
    for d_sign in (1, -1):
        d = d_sign * math.sqrt(max(1.0 - c * c, 0.0))
        lo, hi = -1.0, 1.0
        for _ in range(3):  # coarse grid, then two zoomed passes
            avals = np.linspace(lo, hi, SCAN_GRID)
            vals = _surface(avals, np.sqrt(np.clip(1.0 - avals * avals, 0.0, None)), c, d)
            k = int(np.argmax(vals))
            if vals[k] > best["max"]:
                best["max"] = float(vals[k])
                best["argmax"] = {"a": float(avals[k]), "d_sign": d_sign}
            step = (hi - lo) / (SCAN_GRID - 1)
            lo = max(-1.0, avals[k] - 2 * step)
            hi = min(1.0, avals[k] + 2 * step)
    return best


# ---------------------------------------------------------------------------
# Projection-commutator expressions and coefficient forms.


def _image_sq(x, y, c):
    """x^2 - 2 x y c + y^2: the squared upper-block image norm from x = <phi,psi>,
    y = <K phi,psi> and c = <K psi,psi>, on scalars or arrays."""
    return x * x - 2.0 * x * y * c + y * y


def projection_sq_expression_batch(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """:func:`projection_sq_expression` of each column pair (phi_j, psi_j) of
    two batches of cylinder values (see "Column batches" above)."""
    require_unit_columns(psi, "projection vector")
    with np.errstate(over="ignore", invalid="ignore"):
        x = _pair_inner(phi, psi)
        y = _pair_inner(_K(phi), psi)
        c = _pair_inner(_K(psi), psi)
        return require_finite(_image_sq(x, y, c), "projection expression")


def projection_sq_expression(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """The squared upper-block image norm, from inner products:

    <phi,psi>^2 - 2 <phi,psi> <K phi,psi> <K psi,psi> + <K phi,psi>^2.
    """
    return float(projection_sq_expression_batch(phi.values, psi.values))


def ruelle_sq_expression(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """Lower-block analogue of :func:`projection_sq_expression`.

    Unlike the Koopman operator, the transfer operator is not an isometry, so
    the leading term carries the factor |L psi|^2; the symmetric-looking form
    without it holds only when psi does not depend on the first coordinate.
    """
    require_unit(psi, "projection vector")
    lpsi = ruelle_apply(psi)
    x = inner(phi, psi)
    y = inner(ruelle_apply(phi), psi)
    c = inner(lpsi, psi)
    return require_finite(x * x * inner(lpsi, lpsi) - 2.0 * x * y * c + y * y, "projection expression")  # Python floats: no overflow warning


def commutator_image_sq_batch(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """:func:`commutator_image_sq` of each column pair (phi_j, psi_j)."""
    require_unit_columns(psi, "projection vector")
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, _ = _common(_K(_col_proj(psi, phi)), _col_proj(psi, _K(phi)))
        return require_finite(_pair_inner(a - b, a - b), "commutator image")


def commutator_image_sq(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """|K proj(phi) - proj K(phi)|^2 computed directly from the operators."""
    return float(commutator_image_sq_batch(phi.values, psi.values))


def _children(h: np.ndarray) -> np.ndarray:
    """b_0w + b_1w in the slot of each word w (the empty word in slot 1): for the
    words of slots [n, 2n), h[2n:3n] + h[3n:4n]; zero on the last level."""
    out = np.zeros(h.size)
    for level in range(h.size.bit_length() - 2):  # every level with a level below it
        n = 1 << level
        out[n : 2 * n] = h[2 * n : 3 * n] + h[3 * n : 4 * n]
    return out


def _koopman_pairing_coeffs(a: np.ndarray, b: np.ndarray) -> float:
    """<K phi, psi> from coefficients at a common depth: the exact coefficient
    expansion

    sum_v a_v (b_0v + b_1v) / sqrt2
      + (alpha_0 + alpha_1)(b_0 + b_1) / 2
      + (alpha_1 - alpha_0)(beta_1 - beta_0) / 2.
    """
    children = _children(b)
    total = float(a[2:] @ children[2:]) * INV_SQRT2
    total += 0.5 * float(a[0] + a[1]) * float(children[1])
    total += 0.5 * float(a[1] - a[0]) * float(b[1] - b[0])
    return total


def coefficient_image_sq(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """The squared upper-block image norm from Haar coefficients only.

    Assembles <phi,psi>, <K phi,psi> and <K psi,psi> purely from coefficient
    sums and combines them as x^2 - 2 x y c + y^2.
    """
    require_unit(psi, "projection vector")
    d = max(phi.depth, psi.depth)  # pair at the common depth
    a, b = to_haar(refine(phi, d)), to_haar(refine(psi, d))
    return require_finite(_image_sq(float(a @ b), _koopman_pairing_coeffs(a, b), koopman_overlap_from_coeffs(b)), "projection expression")


def coefficient_image_sq_truncated(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """A truncated variant of :func:`coefficient_image_sq` whose overlap factor
    skips length-one words and the squared-mean term.  Kept as a secondary
    oracle so reports can quantify when the dropped terms matter."""
    d = max(phi.depth, psi.depth)
    a, b = to_haar(refine(phi, d)), to_haar(refine(psi, d))
    children = _children(b)
    t = float((b[4:] * INV_SQRT2) @ children[4:])  # words of length > 1
    t += 0.5 * float(children[1]) * float(b[0] + b[1])
    return require_finite(_image_sq(float(a @ b), _koopman_pairing_coeffs(a, b), t), "projection expression")


def projection_norm_bounds(psi: DyadicFunction) -> Dict[str, float]:
    """Coefficient lower bounds for the two commutator block norms of proj(psi).

    lower_K takes the sup over words w of
      sqrt(b_w^2 + (b_0w + b_1w)^2 / 2 - sqrt2 b_w (b_0w + b_1w) c),
    lower_L the sup of
      sqrt(b_w^2 + b_sw^2 / 2 - sqrt2 b_w b_sw c)
    with sw the shifted word (absent for length-one words): for the words of
    slots [n, 2n), b_sw is h[n/2:n] tiled twice.
    """
    c = koopman_overlap(psi)
    h = to_haar(psi)
    shifted = np.zeros(h.size)
    for level in range(2, h.size.bit_length() - 1):
        n = 1 << level
        shifted[n : 2 * n] = np.tile(h[n // 2 : n], 2)
    bw, s, bsw = h[2:], _children(h)[2:], shifted[2:]
    term_k = bw * bw + 0.5 * s * s - SQRT2 * bw * s * c
    term_l = bw * bw + 0.5 * bsw * bsw - SQRT2 * bw * bsw * c
    best_k, best_l = (max(0.0, float(t.max(initial=0.0))) for t in (term_k, term_l))  # +0.0, never -0.0
    return {"lower_K": math.sqrt(best_k), "lower_L": math.sqrt(best_l)}


# ---------------------------------------------------------------------------
# Multiplier-operator norms and derivative sups.


def _backward_diffs(x: np.ndarray):
    """Per-cylinder |f(x) - f(0x)| and |f(x) - f(1x)| of each column, at its
    depth (both zero at depth 0)."""
    parent = np.arange(x.shape[0]) >> 1  # 0x lives in the cylinder with index i >> 1
    with np.errstate(over="ignore"):
        d0 = np.abs(x - x[parent])
        d1 = np.abs(x - x[(x.shape[0] >> 1) + parent])
    return require_finite(d0, "backward difference"), require_finite(d1, "backward difference")


def _forward_diff(x: np.ndarray) -> np.ndarray:
    """K f - f for each column."""
    with np.errstate(over="ignore"):
        return require_finite(_K(x) - _refine_rows(x, _depth(x) + 1), "function")


def _ruelle_diff(x: np.ndarray) -> np.ndarray:
    """f - L f for each column."""
    with np.errstate(over="ignore"):
        return require_finite(x - _refine_rows(_L(x), _depth(x)), "function")


def backward_rms_norm_batch(x: np.ndarray) -> np.ndarray:
    """:func:`backward_rms_norm` of each column."""
    return _power_mean(*_backward_diffs(x), 2.0).max(axis=0)


def backward_rms_norm(f: DyadicFunction) -> float:
    """sup_x sqrt((|f(x)-f(0x)|^2 + |f(x)-f(1x)|^2) / 2), exact over cylinders.

    Equals the Dirac commutator norm of the multiplication operator by f, and
    also the sup norm of sqrt(L |K f - f|^2).
    """
    return float(backward_rms_norm_batch(f.values))


def forward_sup_batch(x: np.ndarray) -> np.ndarray:
    """:func:`forward_sup` of each column."""
    return np.abs(_forward_diff(x)).max(axis=0)


def forward_sup(f: DyadicFunction) -> float:
    """|K f - f|_sup: the sup of the forward shift difference."""
    return float(forward_sup_batch(f.values))


def ruelle_diff_sup_batch(x: np.ndarray) -> np.ndarray:
    """:func:`ruelle_diff_sup` of each column."""
    return np.abs(_ruelle_diff(x)).max(axis=0)


def ruelle_diff_sup(f: DyadicFunction) -> float:
    """|f - L f|_sup."""
    return float(ruelle_diff_sup_batch(f.values))


def weighted_sup_chain(f: DyadicFunction) -> Dict[str, float]:
    """The three sups of the chain |f|_sup >= |sqrt(L f^2)|_sup >= |L f|_sup,
    all computed exactly; the suites judge the ordering."""
    m = sup_norm(f)
    u = DyadicFunction(f.depth, f.values / (m if m > 0.0 else 1.0))  # |u| <= 1, so no square overflows
    mid = m * float(np.sqrt(ruelle_apply(pointwise_mul(u, u)).values).max())
    return {"sup": m, "mid": mid, "ruelle_sup": sup_norm(ruelle_apply(f))}


_DEFAULT_ORDERS = (-math.inf, -1.0, 0.0, 1.0, 2.0, math.inf)


def _power_mean(d0: np.ndarray, d1: np.ndarray, order: float) -> np.ndarray:
    """Pointwise order-p mean of the two differences; means of order <= 0 are 0
    whenever either difference vanishes (limit convention).

    A finite order is taken as m M_p(d0/m, d1/m) with m = max(d0, d1), and 0
    where m = 0: both ratios lie in [0, 1] and one of them is 1, so no power
    overflows, and a power can only underflow where it is negligible beside 1.
    """
    if order == math.inf:
        return np.maximum(d0, d1)
    if order == -math.inf:
        return np.minimum(d0, d1)
    m = np.maximum(d0, d1)
    safe = np.where(m > 0.0, m, 1.0)
    r0, r1 = d0 / safe, d1 / safe
    if order == 0.0:
        return m * np.sqrt(r0 * r1)
    if order > 0.0:
        return m * (0.5 * (r0**order + r1**order)) ** (1.0 / order)
    mean = np.zeros_like(r0)
    pos = (r0 > 0.0) & (r1 > 0.0)
    a = np.log(r0[pos]) * order
    b = np.log(r1[pos]) * order
    mean[pos] = np.exp((np.logaddexp(a, b) - math.log(2.0)) / order)
    return m * mean


def kolmogorov_mean_chain_batch(x: np.ndarray, orders: Sequence[float] = _DEFAULT_ORDERS) -> Dict[float, np.ndarray]:
    """:func:`kolmogorov_mean_chain` of each column: one array per order."""
    d0, d1 = _backward_diffs(x)
    return {p: _power_mean(d0, d1, p).max(axis=0) for p in sorted(orders)}


def kolmogorov_mean_chain(f: DyadicFunction, orders: Sequence[float] = _DEFAULT_ORDERS) -> Dict[float, float]:
    """sup_x of the order-p mean of the two backward differences, per order.

    The per-point power means are nondecreasing in the order, so the sups
    (keyed in increasing order) form a chain, which the suites judge; the
    order-2 entry is the commutator norm of the multiplier and the
    order-infinity entry is the forward sup.
    """
    return {p: float(v) for p, v in kolmogorov_mean_chain_batch(f.values, orders).items()}


def l2_sandwich_check_batch(x: np.ndarray) -> Dict[str, np.ndarray]:
    """:func:`l2_sandwich_check` of each column: one array per key."""
    norm = backward_rms_norm_batch(x)
    kdiff = _col_l2(_forward_diff(x))
    ldiff = _col_l2(_ruelle_diff(x))
    applicable = norm <= 1.0 + 1e-9
    return {
        "norm": norm,
        "l2_forward": kdiff,
        "l2_ruelle": ldiff,
        "applicable": applicable,
        "holds": ~applicable | ((kdiff <= 1.0 + 1e-9) & (ldiff <= 1.0 + 1e-9)),
    }


def l2_sandwich_check(f: DyadicFunction) -> dict:
    """If the commutator norm of the multiplier is at most one, both L2
    differences |K f - f| and |L f - f| are at most one as well."""
    return {key: v.item() for key, v in l2_sandwich_check_batch(f.values).items()}


# ---------------------------------------------------------------------------
# Adjudication of the projection-norm closed forms.


def projection_norm_adjudicate(psi: DyadicFunction, depth: Optional[int] = None) -> dict:
    """Compare the numeric commutator norm of proj(psi) against closed forms.

    Candidates: the linear form (2 + c - c^2)/2, its square root, the same two
    at |c|, and sqrt(1 - c^2).  The verdict names the candidate matching the
    numeric value within 1e-6, or "none".
    """
    c = koopman_overlap(psi)
    result = dirac.commutator_norm(Proj(psi), depth)
    numeric = result.value
    candidates = {
        "linear": surface_stationary_value(c),
        "sqrt": math.sqrt(surface_stationary_value(c)),
        "linear_abs": surface_stationary_value(abs(c)),
        "sqrt_abs": math.sqrt(surface_stationary_value(abs(c))),
        "sqrt_one_minus_c_sq": math.sqrt(max(1.0 - c * c, 0.0)),
    }
    verdict = "none"
    for name in ("linear", "sqrt", "linear_abs", "sqrt_abs", "sqrt_one_minus_c_sq"):
        if abs(candidates[name] - numeric) <= 1e-6:
            verdict = name
            break
    return {
        "c": c,
        "candidate_linear": candidates["linear"],
        "candidate_sqrt": candidates["sqrt"],
        "candidate_sqrt_one_minus_c_sq": candidates["sqrt_one_minus_c_sq"],
        "numeric": numeric,
        "depth": result.depth,
        "computed_at": result.computed_at,
        "verdict": verdict,
    }


SPAN_SAMPLES = 200001  # angles projection_span_scan tries in [0, pi]


def projection_span_scan(psi: DyadicFunction) -> float:
    """Independent oracle for the upper-block norm of proj(psi): brute-force
    the squared expression over the two-dimensional span of psi and its
    transfer image, where the maximizer is known to live."""
    require_unit(psi, "projection vector")
    lpsi = ruelle_apply(psi)
    c = inner(lpsi, psi)
    rest = lpsi - c * psi
    rest_norm = l2_norm(rest)
    if rest_norm <= 1e-14:
        # transfer image parallel to psi: only the psi direction matters
        return math.sqrt(max(projection_sq_expression(psi, psi), 0.0))
    perp = rest * (1.0 / rest_norm)
    thetas = np.linspace(0.0, math.pi, SPAN_SAMPLES)
    # phi = cos(theta) psi + sin(theta) perp, so <phi, psi> = cos(theta) and
    # <phi, L psi> = cos(theta) c + sin(theta) <perp, L psi>
    x = np.cos(thetas)
    y = x * c + np.sin(thetas) * inner(perp, lpsi)
    best = float(_image_sq(x, y, c).max())
    return math.sqrt(max(best, 0.0))
