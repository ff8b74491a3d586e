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
    inner,
    l2_norm,
    pointwise_mul,
    refine,
    require_unit,
    sup_norm,
    to_haar,
)
from .transfer import Proj, koopman_apply, projection_apply, ruelle_apply

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


def projection_sq_expression(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """The squared upper-block image norm, from inner products:

    <phi,psi>^2 - 2 <phi,psi> <K phi,psi> <K psi,psi> + <K phi,psi>^2.
    """
    require_unit(psi, "projection vector")
    return _image_sq(inner(phi, psi), inner(koopman_apply(phi), psi), inner(koopman_apply(psi), psi))


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
    return x * x * inner(lpsi, lpsi) - 2.0 * x * y * c + y * y


def commutator_image_sq(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """|K proj(phi) - proj K(phi)|^2 computed directly from the operators."""
    image = koopman_apply(projection_apply(psi, phi)) - projection_apply(psi, koopman_apply(phi))
    return inner(image, image)


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
    return _image_sq(float(a @ b), _koopman_pairing_coeffs(a, b), koopman_overlap_from_coeffs(b))


def coefficient_image_sq_truncated(phi: DyadicFunction, psi: DyadicFunction) -> float:
    """A truncated variant of :func:`coefficient_image_sq` whose overlap factor
    skips length-one words and the squared-mean term.  Kept as a secondary
    oracle so reports can quantify when the dropped terms matter."""
    d = max(phi.depth, psi.depth)
    a, b = to_haar(refine(phi, d)), to_haar(refine(psi, d))
    children = _children(b)
    t = float((b[4:] * INV_SQRT2) @ children[4:])  # words of length > 1
    t += 0.5 * float(children[1]) * float(b[0] + b[1])
    return _image_sq(float(a @ b), _koopman_pairing_coeffs(a, b), t)


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


def _backward_diff_arrays(f: DyadicFunction):
    """Per-cylinder |f(x) - f(0x)| and |f(x) - f(1x)| at depth(f)."""
    if f.depth == 0:
        return np.zeros(1), np.zeros(1)
    vals = f.values
    idx = np.arange(vals.size)
    parent = idx >> 1
    d0 = np.abs(vals - vals[parent])  # 0x lives in the cylinder with index i >> 1
    d1 = np.abs(vals - vals[(vals.size >> 1) + parent])
    return d0, d1


def backward_rms_norm(f: DyadicFunction) -> float:
    """sup_x sqrt((|f(x)-f(0x)|^2 + |f(x)-f(1x)|^2) / 2), exact over cylinders.

    Equals the Dirac commutator norm of the multiplication operator by f, and
    also the sup norm of sqrt(L |K f - f|^2).
    """
    d0, d1 = _backward_diff_arrays(f)
    return float(np.sqrt(0.5 * (d0 * d0 + d1 * d1)).max())


def forward_sup(f: DyadicFunction) -> float:
    """|K f - f|_sup: the sup of the forward shift difference."""
    return sup_norm(koopman_apply(f) - f)


def ruelle_diff_sup(f: DyadicFunction) -> float:
    """|f - L f|_sup."""
    return sup_norm(f - ruelle_apply(f))


def weighted_sup_chain(f: DyadicFunction) -> Dict[str, float]:
    """The three sups of the chain |f|_sup >= |sqrt(L f^2)|_sup >= |L f|_sup,
    all computed exactly; the suites judge the ordering."""
    return {
        "sup": sup_norm(f),
        "mid": float(np.sqrt(np.clip(ruelle_apply(pointwise_mul(f, f)).values, 0.0, None)).max()),
        "ruelle_sup": sup_norm(ruelle_apply(f)),
    }


_DEFAULT_ORDERS = (-math.inf, -1.0, 0.0, 1.0, 2.0, math.inf)


def _power_mean(d0: np.ndarray, d1: np.ndarray, order: float) -> np.ndarray:
    """Pointwise order-p mean of the two differences; means of order <= 0 are 0
    whenever either difference vanishes (limit convention)."""
    if order == math.inf:
        return np.maximum(d0, d1)
    if order == -math.inf:
        return np.minimum(d0, d1)
    if order == 0.0:
        return np.sqrt(d0 * d1)
    if order > 0.0:
        return (0.5 * (d0**order + d1**order)) ** (1.0 / order)
    out = np.zeros_like(d0)
    pos = (d0 > 0.0) & (d1 > 0.0)
    if np.any(pos):
        a = np.log(d0[pos]) * order
        b = np.log(d1[pos]) * order
        out[pos] = np.exp((np.logaddexp(a, b) - math.log(2.0)) / order)
    return out


def kolmogorov_mean_chain(f: DyadicFunction, orders: Sequence[float] = _DEFAULT_ORDERS) -> Dict[float, float]:
    """sup_x of the order-p mean of the two backward differences, per order.

    The per-point power means are nondecreasing in the order, so the sups
    (keyed in increasing order) form a chain, which the suites judge; the
    order-2 entry is the commutator norm of the multiplier and the
    order-infinity entry is the forward sup.
    """
    d0, d1 = _backward_diff_arrays(f)
    return {p: float(_power_mean(d0, d1, p).max()) for p in sorted(orders)}


def l2_sandwich_check(f: DyadicFunction) -> dict:
    """If the commutator norm of the multiplier is at most one, both L2
    differences |K f - f| and |L f - f| are at most one as well."""
    norm = backward_rms_norm(f)
    kdiff = l2_norm(koopman_apply(f) - f)
    ldiff = l2_norm(ruelle_apply(f) - f)
    report = {
        "norm": norm,
        "l2_forward": kdiff,
        "l2_ruelle": ldiff,
        "applicable": norm <= 1.0 + 1e-9,
    }
    report["holds"] = (not report["applicable"]) or (kdiff <= 1.0 + 1e-9 and ldiff <= 1.0 + 1e-9)
    return report


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
