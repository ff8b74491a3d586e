"""Named verification suites behind the command-line ``verify`` command.

Each suite runs a list of checks and returns a report.  A check records a
measured value against an expected value and a tolerance; report-only checks
adjudicate between closed-form candidates that cannot all be right,
so they carry information but never fail the run.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import boson as bo
from . import dirac as di
from . import formulas as fo
from . import spectra as sp
from . import transfer as tr
from .dyadic import (
    DyadicFunction,
    MAX_CHAIN_LEVEL,
    MAX_DEPTH,
    SQRT2,
    constant,
    from_haar,
    haar_function,
    indicator,
    inner,
    l2_dist,
    l2_norm,
    normalized,
    pointwise_mul,
    random_function,
    refine,
    state_n,
    state_nw,
    sup_norm,
    to_haar,
)
from .words import EPS0, EPS1, EPSILON, Word, all_words, shift, words_up_to

TOL_EXACT = 1e-12
TOL_NORM = 1e-9
TOL_SCAN = 1e-6

# The suites that read the requested depth run at min(depth, DEPTH_CAP) and
# need at least DEPTH_FLOOR (transfer's condexp-rank expects 2**(d-n) for
# n <= 3); the others solve each Dirac norm at the operator's core depth
# (``dirac.commutator_norm``) and are passed None.
DEPTH_CAP = 8
DEPTH_FLOOR = 3
DEPTH_SUITES = frozenset({"basis", "transfer", "boson", "fermion", "wold"})

# The boson suite's default grid: chain levels n <= N_MAX, words of length <= W_MAX_LEN.
N_MAX = 4
W_MAX_LEN = 3


def suite_depth(name: str, depth: int) -> Optional[int]:
    """The depth a suite runs at for a requested depth; None if it ignores the request."""
    if name not in DEPTH_SUITES:
        return None
    if depth < DEPTH_FLOOR:
        raise ValueError(f"suite {name!r} needs a depth of at least {DEPTH_FLOOR}, got {depth}")
    return min(depth, DEPTH_CAP)


@dataclass
class Check:
    id: str
    description: str
    ref: str
    status: str  # "pass" | "fail" | "report-only"
    value: object
    expected: object
    tolerance: Optional[float]


@dataclass
class SuiteReport:
    suite: str
    checks: List[Check]
    seed: int
    depth: int  # as requested; ``runs`` has the depth each suite ran at
    wall_time: float
    runs: Dict[str, dict] = field(default_factory=dict)  # suite -> {"depth", "wall_time"}

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "depth": self.depth,
            "wall_time": self.wall_time,
            "suites": self.runs,
            "passed": self.passed,
            "checks": [asdict(c) for c in sorted(self.checks, key=lambda c: c.id)],
        }


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: List[Check] = []

    def close_to(self, cid, description, ref, value, expected, tol):
        value = float(value)
        expected = float(expected)
        status = "pass" if abs(value - expected) <= tol else "fail"
        self.checks.append(Check(f"{self.suite}.{cid}", description, ref, status, value, expected, tol))

    def at_most(self, cid, description, ref, value, bound, slack=0.0):
        value = float(value)
        status = "pass" if value <= bound + slack else "fail"
        self.checks.append(Check(f"{self.suite}.{cid}", description, ref, status, value, float(bound), slack))

    def report(self, cid, description, ref, value, expected=None):
        self.checks.append(
            Check(f"{self.suite}.{cid}", description, ref, "report-only", value, expected, None)
        )


def _gram_deviation(family: List[DyadicFunction], d: int) -> float:
    """Largest entry of |Gram - I| for a family of functions in the depth-d space."""
    mat = np.stack([tr.coords(f, d) for f in family])
    return float(np.max(np.abs(mat @ mat.T - np.eye(len(family)))))


# ---------------------------------------------------------------------------


def run_basis(d: int, seed: int) -> List[Check]:
    rec = _Recorder("basis")

    # pairwise orthonormality of the Haar family restricted to the depth-d space
    max_len = min(5, d - 1)
    family = [haar_function(EPS0), haar_function(EPS1)]
    family += [haar_function(w) for w in words_up_to(max_len)]
    rec.close_to(
        "orthonormal",
        f"Gram matrix of the Haar family (word length <= {max_len}) is the identity",
        "haar-orthonormality",
        _gram_deviation(family, max_len + 1),
        0.0,
        TOL_EXACT,
    )

    worst = 0.0
    for k in range(20):
        f = random_function(seed + k, d)
        h = to_haar(f)
        worst = max(worst, abs(inner(f, f) - h.norm_sq()))
    rec.close_to(
        "parseval",
        "squared norm equals the squared-coefficient sum of the Haar expansion",
        "haar-parseval",
        worst,
        0.0,
        TOL_EXACT,
    )

    worst = max(l2_dist(from_haar(to_haar(random_function(seed + 100 + k, min(d, 6)))),
                        random_function(seed + 100 + k, min(d, 6))) for k in range(20))
    rec.close_to("roundtrip", "analysis then synthesis returns the input", "plumbing", worst, 0.0, TOL_EXACT)

    eps_err = max(
        float(np.max(np.abs(haar_function(EPS1).values - np.array([0.0, SQRT2])))),
        float(np.max(np.abs(haar_function(EPS0).values - np.array([-SQRT2, 0.0])))),
    )
    rec.close_to("eps-values", "depth-one Haar elements are the scaled indicators", "haar-definition", eps_err, 0.0, TOL_EXACT)

    h1 = to_haar(constant(1.0))
    rec.close_to(
        "constant-expansion",
        "the constant function expands as 2**-0.5 (e_eps1 - e_eps0)",
        "haar-definition",
        max(abs(h1.eps0 + 2 ** -0.5), abs(h1.eps1 - 2 ** -0.5), max((abs(v) for v in h1.coeffs.values()), default=0.0)),
        0.0,
        TOL_EXACT,
    )

    # Product of nested Haar elements: e_u e_v = -(-1)**v_{l(u)+1} * 2**(l(u)/2) e_v.
    worst_signed = 0.0
    plus_fails = False
    for u in words_up_to(2):
        for v in words_up_to(min(4, d - 1)):
            if u.length < v.length and (v.bits >> (v.length - u.length)) == u.bits:
                prod = pointwise_mul(haar_function(u), haar_function(v))
                scale = 2.0 ** (u.length / 2)
                sign = -((-1.0) ** v.symbol(u.length))
                worst_signed = max(worst_signed, l2_dist(prod, (sign * scale) * haar_function(v)))
                if l2_dist(prod, scale * haar_function(v)) > 1e-9:
                    plus_fails = True
    rec.close_to(
        "product-nested",
        "nested product rule with the symbol-dependent sign",
        "haar-product",
        worst_signed,
        0.0,
        TOL_EXACT,
    )
    rec.report(
        "product-sign",
        "of the two candidate sign conventions for e_u e_v, only the symbol-dependent one holds",
        "haar-product",
        "symbol-dependent form matches; constant-positive form fails when the next symbol is 0"
        if plus_fails
        else "both candidate forms match on the tested pairs",
    )

    f = random_function(seed + 1, min(d, 6))
    g = refine(f, min(d, 6) + 2)
    rec.close_to(
        "refine-isometry",
        "refinement preserves inner products and sups",
        "plumbing",
        max(abs(inner(f, f) - inner(g, g)), abs(sup_norm(f) - sup_norm(g))),
        0.0,
        1e-14,
    )
    return rec.checks


def run_transfer(d: int, seed: int) -> List[Check]:
    rec = _Recorder("transfer")

    worst_lk = worst_adj = worst_iso = 0.0
    for k in range(100):
        f = random_function(seed + k, d)
        g = random_function(seed + 1000 + k, d)
        worst_lk = max(worst_lk, l2_dist(tr.ruelle_apply(tr.koopman_apply(f)), f))
        lhs, rhs = tr.adjoint_check(f, g)
        worst_adj = max(worst_adj, abs(lhs - rhs))
        worst_iso = max(worst_iso, abs(l2_norm(tr.koopman_apply(f)) - l2_norm(f)))
    rec.close_to("left-inverse", "the transfer operator inverts the Koopman operator", "transfer-koopman-pair", worst_lk, 0.0, TOL_EXACT)
    rec.close_to("adjoint", "<K f, g> equals <f, L g>", "transfer-koopman-pair", worst_adj, 0.0, TOL_EXACT)
    rec.close_to("koopman-isometry", "the Koopman operator preserves the L2 norm", "transfer-koopman-pair", worst_iso, 0.0, TOL_EXACT)

    w = Word.from_string("011")
    rec.close_to(
        "ruelle-basis",
        "L e_w = 2**-0.5 e_sw on Haar elements",
        "basis-action",
        l2_dist(tr.ruelle_apply(haar_function(w)), 2 ** -0.5 * haar_function(shift(w))),
        0.0,
        TOL_EXACT,
    )
    rec.close_to(
        "koopman-basis",
        "K e_w = 2**-0.5 (e_0w + e_1w) on Haar elements",
        "basis-action",
        l2_dist(
            tr.koopman_apply(haar_function(w)),
            2 ** -0.5 * (haar_function(Word.from_string("0011")) + haar_function(Word.from_string("1011"))),
        ),
        0.0,
        TOL_EXACT,
    )
    rec.close_to(
        "vacuum-annihilated",
        "the vacuum lies in the kernel of the transfer operator",
        "basis-action",
        l2_norm(tr.ruelle_apply(state_n(0))),
        0.0,
        TOL_EXACT,
    )

    worst = 0.0
    for n in (1, 2, 3):
        for k in range(10):
            f = random_function(seed + 5 * n + k, min(d, 6))
            once = tr.cond_expectation(n, f)
            worst = max(worst, l2_dist(tr.cond_expectation(n, once), once))
    rec.close_to("condexp-idempotent", "iterated conditional expectation is idempotent", "condexp", worst, 0.0, TOL_EXACT)

    worst = 0.0
    for n in (1, 2, 3):
        m = tr.assemble(tr.CondExp(n), min(d, 6)).matrix
        worst = max(worst, abs(np.trace(m) - 2 ** (min(d, 6) - n)))
    rec.close_to(
        "condexp-rank",
        "conditional expectation projects onto a space of dimension 2**(d-n)",
        "condexp",
        worst,
        0.0,
        TOL_EXACT,
    )

    worst_kerl = worst_idem = worst_comm = 0.0
    for k in range(30):
        f = random_function(seed + 300 + k, d)
        p = tr.kernel_projection(f)
        worst_kerl = max(worst_kerl, l2_norm(tr.ruelle_apply(p)))
        worst_idem = max(worst_idem, l2_dist(tr.kernel_projection(p), p))
        lk = tr.ruelle_apply(tr.koopman_apply(f))
        kl = tr.koopman_apply(tr.ruelle_apply(f))
        worst_comm = max(worst_comm, l2_dist(lk - kl, p))
    rec.close_to("kernel-projection-range", "the kernel projection lands in ker L", "kernel-projection", worst_kerl, 0.0, TOL_EXACT)
    rec.close_to("kernel-projection-idempotent", "the kernel projection is idempotent", "kernel-projection", worst_idem, 0.0, TOL_EXACT)
    rec.close_to("commutator-identity", "[L, K] equals the kernel projection", "kernel-projection", worst_comm, 0.0, TOL_EXACT)

    op = tr.commutator_with_K(tr.Proj(haar_function(Word.from_string("01"))))
    am = tr.assemble(op, min(d, 5))
    f = random_function(seed + 777, min(d, 5))
    direct = tr.coords(op.apply(f), am.out_depth)
    via = am.matrix @ tr.coords(f, am.in_depth)
    rec.close_to("assemble-matvec", "assembled matrices act like the operators", "plumbing", float(np.max(np.abs(direct - via))), 0.0, TOL_EXACT)

    worst = 0.0
    for op_, da, db in ((tr.Ruelle(), 4, 3), (tr.Koopman(), 3, 4), (tr.CondExp(2), 4, 4), (tr.KernelProj(), 3, 3)):
        a = tr.assemble(op_, da).matrix
        b = tr.assemble(tr.Adjoint(op_), db).matrix
        worst = max(worst, float(np.max(np.abs(a - b.T))))
    rec.close_to("assemble-adjoint", "the assembled adjoint is the transpose", "plumbing", worst, 0.0, TOL_EXACT)

    ident = tr.assemble(tr.identity(), min(d, 5)).matrix
    rec.close_to("assemble-identity", "the empty composition assembles to the identity matrix", "plumbing", float(np.max(np.abs(ident - np.eye(ident.shape[0])))), 0.0, 1e-15)

    worst = 0.0
    for d_ in range(1, min(d, 6) + 1):
        m = tr.assemble(tr.Koopman(), d_).matrix
        worst = max(worst, float(np.max(np.abs(m.T @ m - np.eye(1 << d_)))))
    rec.close_to("koopman-columns", "assembled Koopman matrices have orthonormal columns", "transfer-koopman-pair", worst, 0.0, TOL_EXACT)
    return rec.checks


def run_boson(d: int, seed: int, n_max: int = N_MAX, w_max_len: int = W_MAX_LEN, tol: float = TOL_EXACT) -> List[Check]:
    """The ladder, number-operator and commutation checks on every chain state
    |n, w> with n <= n_max and len(w) <= w_max_len.  A grid with a state past
    the depth cap (raising |n, w> lands at depth n + len(w) + 3) or past the
    chain-level cap (|n + 1> needs n + 1 <= MAX_CHAIN_LEVEL) is refused before
    any work."""
    if not (1 <= n_max <= MAX_CHAIN_LEVEL - 1 and 0 <= w_max_len and n_max + w_max_len + 3 <= MAX_DEPTH):
        raise ValueError(
            f"boson grid n_max={n_max}, w_max_len={w_max_len} outside 1 <= n_max <= {MAX_CHAIN_LEVEL - 1}, "
            f"w_max_len >= 0, n_max + w_max_len <= {MAX_DEPTH - 3}"
        )
    rec = _Recorder("boson")

    words: List[Optional[Word]] = [None, EPSILON]
    words += [w for w in words_up_to(w_max_len)]
    worst_raise = worst_lower = worst_power = 0.0
    for w in words:
        for n in range(0, n_max + 1):
            report = bo.chain_shift_check(n, w)
            worst_raise = max(worst_raise, report["errors"]["raise"])
            worst_lower = max(worst_lower, report["errors"].get("lower", 0.0))
            worst_power = max(worst_power, report["errors"]["power"])
    rec.close_to("ladder-raise", "creation maps level n to 2**-0.5 times level n+1", "ladder", worst_raise, 0.0, tol)
    rec.close_to("ladder-lower", "annihilation maps level n to 2**-0.5 times level n-1 and kills level 0", "ladder", worst_lower, 0.0, tol)
    rec.close_to("ladder-power", "n-fold creation on level 0 gives 2**(-n/2) times level n", "ladder", worst_power, 0.0, tol)

    worst_num = worst_ker = 0.0
    for w in words:
        for n in range(1, n_max + 1):
            st = state_nw(n, w)
            worst_num = max(worst_num, l2_dist(bo.number_apply(st), 0.5 * st))
        st0 = state_nw(0, w)
        worst_ker = max(worst_ker, l2_norm(bo.number_apply(st0)))
    rec.close_to("number-eigenvalue", "the number operator halves every lifted chain state", "number-operator", worst_num, 0.0, tol)
    rec.close_to("number-kernel", "the number operator kills the kernel level", "number-operator", worst_ker, 0.0, tol)

    worst = 0.0
    for k in range(100):
        f = random_function(seed + k, d)
        worst = max(worst, l2_dist(bo.ccr_defect(f), 0.5 * tr.kernel_projection(f)))
    for w in words:
        st0 = state_nw(0, w)
        worst = max(worst, l2_dist(bo.ccr_defect(st0), 0.5 * st0))
    rec.close_to(
        "ccr-kernel-projection",
        "the ladder commutator is half the projection onto ker L",
        "generalized-ccr",
        worst,
        0.0,
        tol,
    )

    vac = state_n(0)
    rec.report(
        "ccr-vacuum-scale",
        "commutator weight on the vacuum: the kernel-projection form gives 1/2 "
        "(a competing candidate form asserts weight 1)",
        "generalized-ccr",
        inner(bo.ccr_defect(vac), vac),
        0.5,
    )
    return rec.checks


def run_fermion(d: int, seed: int) -> List[Check]:
    rec = _Recorder("fermion")
    worst = 0.0
    for k in range(100):
        phi = random_function(seed + k, d, "independent-of-first-coordinate")
        worst = max(worst, l2_dist(bo.car_anticommutator(phi), phi))
    rec.close_to(
        "car-invariant-subspace",
        "the anticommutator is the identity on first-coordinate-independent functions",
        "car",
        worst,
        0.0,
        TOL_EXACT,
    )

    one = constant(1.0)
    worst = 0.0
    for k in range(100):
        phi = random_function(seed + 500 + k, d)
        worst = max(worst, abs(inner(bo.car_anticommutator(phi), one) - inner(phi, one)))
    rec.close_to("car-integral", "the anticommutator preserves integrals", "car", worst, 0.0, TOL_EXACT)

    worst = 0.0
    for w in [EPSILON] + list(words_up_to(2)):
        st = state_nw(0, w)
        worst = max(worst, l2_dist(bo.car_anticommutator(st), 0.5 * st))
    rec.close_to("car-kernel", "the anticommutator halves kernel-level states", "car", worst, 0.0, TOL_EXACT)
    return rec.checks


def run_dirac_projections(depth: None, seed: int) -> List[Check]:
    rec = _Recorder("dirac-projections")

    worst_gap = 0.0
    for length in (2, 3, 4):
        for w in all_words(length):
            worst_gap = max(worst_gap, abs(di.commutator_norm(tr.Proj(haar_function(w))).value - 1.0))
    rec.close_to(
        "haar-norm",
        "Dirac commutator norm of every Haar projection (word length 2..4) is one",
        "haar-projection-norm",
        worst_gap,
        0.0,
        TOL_NORM,
    )

    worst = _projection_case_table_error(2, 4)
    rec.close_to(
        "case-table",
        "squared commutator images of Haar elements take the tabulated values {0, 1/2, 1}",
        "haar-projection-cases",
        worst,
        0.0,
        TOL_EXACT,
    )

    worst = 0.0
    for k in range(10):
        psi = normalized(random_function(seed + k, 5, "kernel-of-L"))
        worst = max(worst, abs(di.commutator_norm(tr.Proj(psi)).value - 1.0))
    rec.close_to("kernel-norm", "projections onto kernel vectors have commutator norm one", "kernel-projection-norm", worst, 0.0, 1e-8)

    f = normalized(random_function(seed + 50, 4, "kernel-of-L"))
    worst = 0.0
    for k in range(1, 4):
        g = f
        for _ in range(k):
            g = tr.koopman_apply(g)
        worst = max(worst, abs(di.commutator_norm(tr.Proj(g)).value - 1.0))
    rec.close_to("lifted-kernel-norm", "projections onto Koopman lifts of kernel vectors keep norm one", "kernel-projection-norm", worst, 0.0, 1e-8)

    worst = 0.0
    for a in (tr.Proj(haar_function(Word.from_string("01"))), tr.Mult(random_function(seed + 60, 3)), tr.CondExp(1)):
        r = di.commutator_norm(a)
        nu, nl = r.upper.value, r.lower.value
        worst = max(worst, abs(nu - nl) / max(nu, nl, 1.0))
    rec.close_to("block-equality", "the two commutator blocks of a self-adjoint operator share their norm", "self-adjoint-blocks", worst, 0.0, 1e-8)

    worst = -math.inf
    for k in range(5):
        psi = normalized(random_function(seed + 70 + k, 4, "kernel-of-L"))
        bounds = fo.projection_norm_bounds(psi)
        numeric = di.commutator_norm(tr.Proj(psi)).value
        worst = max(worst, bounds["lower_K"] - numeric, bounds["lower_L"] - numeric)
    rec.at_most("coeff-lower-bounds", "coefficient bounds stay below the numeric norm", "projection-norm-bounds", worst, 0.0, 1e-8)

    values = {}
    for name, idx in (("e0", Word.from_string("0")), ("e1", Word.from_string("1")), ("eps0", EPS0), ("eps1", EPS1)):
        values[name] = di.commutator_norm(tr.Proj(haar_function(idx))).value
    rec.report(
        "length-one",
        "commutator norms of the four depth-one projections (no asserted closed form)",
        "haar-projection-norm",
        {k: round(v, 12) for k, v in values.items()},
    )
    return rec.checks


def _projection_case_table_error(min_len: int, max_len: int) -> float:
    """Worst deviation of squared commutator images from the case table.

    The target Haar elements e_t (1 <= len(t) <= max_len) are the columns of
    one depth-(max_len + 1) array, so each block is applied once per word w.
    """
    targets = list(words_up_to(max_len))
    cols = np.stack([refine(haar_function(t), max_len + 1).values for t in targets], axis=1)
    worst = 0.0
    for lw in range(min_len, max_len + 1):
        for w in all_words(lw):
            upper, lower = tr.dirac_blocks(tr.Proj(haar_function(w)))
            sw = shift(w)
            exp_u = [1.0 if t == w else 0.5 if t == sw else 0.0 for t in targets]
            exp_l = [0.5 if t == w or (t.length >= 2 and shift(t) == w) else 0.0 for t in targets]
            for block, expected in ((upper, exp_u), (lower, exp_l)):
                img = block.apply_batch(cols)
                # each of the img.shape[0] cylinders carries mass 1 / img.shape[0]
                sq = np.einsum("ij,ij->j", img, img) / img.shape[0]
                worst = max(worst, float(np.max(np.abs(sq - expected))))
    return worst


def run_dirac_mult(depth: None, seed: int) -> List[Check]:
    rec = _Recorder("dirac-mult")
    f0 = SQRT2 * indicator(Word.from_string("0"))
    rec.close_to("remark-forward", "forward sup of the witness multiplier is sqrt(2)", "mult-norm-remark", fo.forward_sup(f0), SQRT2, TOL_EXACT)
    rec.close_to(
        "remark-norm",
        "commutator norm of the witness multiplier is one",
        "mult-norm-remark",
        di.commutator_norm(tr.Mult(f0)).value,
        1.0,
        TOL_NORM,
    )
    rec.close_to("remark-ruelle-diff", "averaged difference sup of the witness multiplier", "mult-sandwich", fo.ruelle_diff_sup(f0), 2 ** -0.5, TOL_EXACT)

    worst_match = 0.0
    worst_sandwich = -math.inf
    worst_eq = 0.0
    for k in range(60):
        d_ = 2 + (k % 4)
        f = random_function(seed + k, d_)
        numeric = di.commutator_norm(tr.Mult(f)).value
        rms = fo.backward_rms_norm(f)
        worst_match = max(worst_match, abs(numeric - rms))
        worst_sandwich = max(worst_sandwich, numeric - fo.forward_sup(f), fo.ruelle_diff_sup(f) - numeric)
        g = random_function(seed + 400 + k, d_, "independent-of-first-coordinate")
        vals = (fo.forward_sup(g), fo.backward_rms_norm(g), fo.ruelle_diff_sup(g))
        worst_eq = max(worst_eq, max(vals) - min(vals))
    rec.close_to("rms-match", "cylinder root-mean-square sup equals the numeric commutator norm", "mult-rms-norm", worst_match, 0.0, 1e-8)
    rec.at_most("sandwich", "forward sup >= commutator norm >= averaged-difference sup", "mult-sandwich", worst_sandwich, 0.0, TOL_NORM)
    rec.close_to("first-coordinate-equality", "all three derivative sups agree off the first coordinate", "mult-sandwich", worst_eq, 0.0, 1e-10)

    worst_chain = -math.inf
    worst_ties = 0.0
    for k in range(40):
        d_ = 2 + (k % 3)
        f = random_function(seed + 900 + k, d_)
        sups = fo.kolmogorov_mean_chain(f, orders=(-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0, 10.0, math.inf))
        ordered = sorted(sups)
        worst_chain = max(
            worst_chain, max(sups[a] - sups[b] for a, b in zip(ordered, ordered[1:]))
        )
        worst_ties = max(worst_ties, abs(sups[2.0] - fo.backward_rms_norm(f)), abs(sups[math.inf] - fo.forward_sup(f)))
    rec.at_most("kolmogorov-chain", "power-mean sups are monotone in the order", "kolmogorov-means", worst_chain, 0.0, TOL_EXACT)
    rec.close_to("kolmogorov-ties", "order two matches the norm; order infinity matches the forward sup", "kolmogorov-means", worst_ties, 0.0, TOL_EXACT)

    chain = fo.weighted_sup_chain(indicator(Word.from_string("1")))
    rec.close_to(
        "sup-chain-example",
        "sup chain of the depth-one indicator is (1, 2**-0.5, 1/2)",
        "sup-chain",
        max(abs(chain["sup"] - 1.0), abs(chain["mid"] - 2 ** -0.5), abs(chain["ruelle_sup"] - 0.5)),
        0.0,
        TOL_EXACT,
    )

    ok = True
    for k in range(40):
        f = random_function(seed + 2000 + k, 3)
        f = f * (0.9 / max(sup_norm(f), 1e-12))
        rep = fo.l2_sandwich_check(f)
        ok = ok and rep["holds"]
    rec.close_to("l2-sandwich", "norm at most one forces both L2 differences at most one", "l2-sandwich", 0.0 if ok else 1.0, 0.0, 0.0)
    return rec.checks


def run_dirac_condexp(depth: None, seed: int) -> List[Check]:
    rec = _Recorder("dirac-condexp")
    worst = 0.0
    for n in (1, 2, 3):
        worst = max(worst, abs(di.commutator_norm(tr.CondExp(n)).value - 1.0))
    rec.close_to("norm", "commutator norm of every conditional expectation is one", "condexp-norm", worst, 0.0, TOL_NORM)

    worst = 0.0
    for n in (1, 2, 3):
        core = di.core_depth(tr.CondExp(n))
        points = sp.depth_sweep(tr.CondExp(n), range(core, core + 3))
        values = [p.value for p in points]
        worst = max(worst, max(values) - min(values))
    rec.close_to("plateau", "the norm is already attained at the rule depth and stays flat", "condexp-norm", worst, 0.0, 1e-9)

    worst = 0.0
    for n in (1, 2, 3):
        for k in range(10):
            h = random_function(seed + 10 * n + k, 3)
            g = h
            for _ in range(n):
                g = tr.koopman_apply(g)
            worst = max(worst, l2_dist(tr.cond_expectation(n, g), g))
    rec.close_to("fixed-subspace", "conditional expectation fixes functions ignoring the first n symbols", "condexp", worst, 0.0, TOL_EXACT)
    return rec.checks


def _witness_vector() -> DyadicFunction:
    w = Word.from_string("01")
    return (
        (2 ** -0.5) * haar_function(w)
        - 0.5 * haar_function(Word.from_string("001"))
        - 0.5 * haar_function(Word.from_string("101"))
    )


def _random_sup_expression(psi: DyadicFunction, trials: int, seed: int) -> float:
    """Vectorized sup over random unit phi of the squared-expression."""
    d = psi.depth
    lpsi = refine(tr.ruelle_apply(psi), d)
    rng = np.random.default_rng(seed)
    phis = rng.standard_normal((trials, 1 << d))
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    x = phis @ tr.coords(psi, d)
    y = phis @ tr.coords(lpsi, d)
    return float(np.max(fo._image_sq(x, y, inner(tr.koopman_apply(psi), psi))))


def run_adjudication(depth: None, seed: int) -> List[Check]:
    rec = _Recorder("adjudication")

    worst = 0.0
    for c in (-0.5, -0.3, 0.0, 0.3, 0.5, 0.9):
        scan = fo.surface_max_scan(c)
        worst = max(worst, abs(scan["max"] - fo.surface_stationary_value(abs(c))))
    rec.close_to(
        "scan-closed-form",
        "the surface maximum over both d signs matches (2 + |c| - c^2)/2",
        "overlap-surface",
        worst,
        0.0,
        TOL_SCAN,
    )

    worst = 0.0
    for c in np.linspace(-0.95, 0.95, 39):
        a_c = math.sqrt((1 + c) / 2)
        p = fo.SurfacePoint.from_ac(a_c, float(c), 1)
        worst = max(worst, abs(fo.overlap_surface(p) - fo.surface_stationary_value(float(c))))
    rec.close_to("stationary-curve", "the surface along a = sqrt((1+c)/2) equals (2 + c - c^2)/2", "overlap-surface", worst, 0.0, TOL_EXACT)

    witness = _witness_vector()
    scan = fo.surface_max_scan(fo.koopman_overlap(witness))
    rec.close_to("witness-scan", "the witness scan maximum is 9/8", "overlap-surface", scan["max"], 9.0 / 8.0, TOL_SCAN)

    psis = [witness] + [normalized(random_function(seed + k, 4, "kernel-of-L")) for k in range(3)] + [
        normalized(random_function(seed + 40, 5))
    ]
    sup_worst = 0.0
    for j, psi in enumerate(psis):
        sup_worst = max(sup_worst, _random_sup_expression(psi, 10000, seed + j))
    rec.at_most("expression-global-bound", "the squared expression never exceeds 9/8 over random unit inputs", "overlap-surface", sup_worst, 9.0 / 8.0, TOL_NORM)

    worst = 0.0
    for k in range(50):
        phi = normalized(random_function(seed + 100 + k, 5))
        psi = normalized(random_function(seed + 200 + k, 5))
        worst = max(worst, abs(fo.projection_sq_expression(phi, psi) - fo.commutator_image_sq(phi, psi)))
    rec.close_to("expression-oracle", "the inner-product expression equals the direct squared image norm", "projection-expression", worst, 0.0, 1e-10)

    adj = fo.projection_norm_adjudicate(witness)
    rec.report(
        "witness-norm",
        "numeric commutator norm of the witness projection vs the closed-form candidates",
        "projection-norm-forms",
        {
            "c": adj["c"],
            "numeric": round(adj["numeric"], 12),
            "linear_form": round(adj["candidate_linear"], 12),
            "sqrt_form": round(adj["candidate_sqrt"], 12),
            "sqrt_one_minus_c_sq": round(adj["candidate_sqrt_one_minus_c_sq"], 12),
            "verdict": adj["verdict"],
        },
    )
    rec.report(
        "witness-bounds",
        "candidate two-sided bound 1 <= norm <= 3/(2 sqrt 2) evaluated at the witness "
        "(the lower bound holds only when c vanishes)",
        "projection-norm-forms",
        {
            "numeric": round(adj["numeric"], 12),
            "lower_bound_holds": bool(adj["numeric"] >= 1.0 - 1e-9),
            "upper_bound_holds": bool(adj["numeric"] <= 3.0 / (2.0 * SQRT2) + 1e-9),
        },
    )

    kernel_adj = fo.projection_norm_adjudicate(normalized(random_function(seed + 3, 4, "kernel-of-L")))
    rec.report(
        "kernel-closed-forms",
        "for kernel vectors (c = 0) every candidate and the numeric norm agree at one",
        "projection-norm-forms",
        {"c": round(kernel_adj["c"], 15), "numeric": round(kernel_adj["numeric"], 12), "verdict": kernel_adj["verdict"]},
    )

    psim = normalized(random_function(seed + 4, 4))
    h = to_haar(psim)
    rec.report(
        "overlap-shorthand-gap",
        "the zero-mean shorthand for <K psi, psi> drops the squared-mean term",
        "coefficient-forms",
        {
            "direct": inner(tr.koopman_apply(psim), psim),
            "full_formula": fo.koopman_overlap_from_coeffs(h),
            "zero_mean_shorthand": fo.koopman_overlap_from_coeffs(h, zero_mean_form=True),
        },
    )
    phi = normalized(random_function(seed + 5, 4))
    rec.report(
        "coefficient-truncation-gap",
        "the truncated coefficient expansion of the squared image norm vs the exact one",
        "coefficient-forms",
        {
            "exact": fo.coefficient_image_sq(phi, psim),
            "truncated": fo.coefficient_image_sq_truncated(phi, psim),
            "direct": fo.commutator_image_sq(phi, psim),
        },
    )
    return rec.checks


def run_wold(depth: int, seed: int) -> List[Check]:
    rec = _Recorder("wold")
    worst_count = 0
    worst_gram = 0.0
    for d in range(1, depth + 1):
        family = wold_family(d)
        worst_count = max(worst_count, abs(len(family) - (1 << d)))
        worst_gram = max(worst_gram, _gram_deviation(family, d))
    rec.close_to("count", "the chain family restricted to depth d has exactly 2**d members", "wold-basis", float(worst_count), 0.0, 0.0)
    rec.close_to("gram", "the chain family is orthonormal at every depth", "wold-basis", worst_gram, 0.0, TOL_EXACT)
    return rec.checks


def wold_family(d: int) -> List[DyadicFunction]:
    """The constant plus every chain state that fits inside the depth-d space."""
    family = [constant(1.0)]
    for n in range(0, d):
        family.append(state_n(n))
    for ell in range(0, max(d - 1, 0)):
        for w in all_words(ell):
            for n in range(0, d - 1 - ell):
                family.append(state_nw(n, w))
    return family


# Each suite takes (depth, seed): the depth from suite_depth, None for a suite
# that ignores the request.
SUITES: Dict[str, Callable[[Optional[int], int], List[Check]]] = {
    "basis": run_basis,
    "transfer": run_transfer,
    "boson": run_boson,
    "fermion": run_fermion,
    "dirac-projections": run_dirac_projections,
    "dirac-mult": run_dirac_mult,
    "dirac-condexp": run_dirac_condexp,
    "adjudication": run_adjudication,
    "wold": run_wold,
}


def run_suite(name: str, depth: int = DEPTH_CAP, seed: int = 0) -> SuiteReport:
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}, all")
    keys = sorted(SUITES) if name == "all" else [name]
    return run_suites(name, {key: SUITES[key] for key in keys}, depth, seed)


def run_suites(
    label: str, parts: Dict[str, Callable[[Optional[int], int], List[Check]]], depth: int, seed: int
) -> SuiteReport:
    """Run each named suite in order at its suite_depth and report the depth
    and wall time of each.  A depth below the floor is refused before any
    suite runs."""
    t0 = time.perf_counter()
    depths = {key: suite_depth(key, depth) for key in parts}
    checks: List[Check] = []
    runs: Dict[str, dict] = {}
    for key, run in parts.items():
        t = time.perf_counter()
        checks.extend(run(depths[key], seed))
        runs[key] = {"depth": depths[key], "wall_time": time.perf_counter() - t}
    wall = time.perf_counter() - t0
    return SuiteReport(suite=label, checks=checks, seed=seed, depth=depth, wall_time=wall, runs=runs)
