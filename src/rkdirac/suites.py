"""Named verification suites behind the command-line ``verify`` command.

Each suite runs a list of checks and returns a report.  A check records a
measured value against an expected value and a tolerance; report-only checks
adjudicate between closed-form candidates that cannot all be right,
so they carry information but never fail the run.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
    _col_dist,
    _col_inner,
    _common,
    _from_haar_rows,
    _haar_rows,
    _refine_rows,
    chain_batch,
    constant,
    haar_batch,
    haar_function,
    indicator,
    inner,
    l2_dist,
    l2_norm,
    normalized,
    random_batch,
    random_function,
    refine,
    require_depth,
    state_n,
    sup_norm,
    to_haar,
)
from .words import EPS0, EPS1, Word, all_words, shift

TOL_EXACT = 1e-12
TOL_NORM = 1e-9
TOL_SCAN = 1e-6

# The suites that read the requested depth run at min(depth, DEPTH_CAP) and
# need at least DEPTH_FLOOR (transfer's condexp-rank expects 2**(d-n) for
# n <= 3); the others solve each Dirac norm at the operator's core depth
# (``dirac.commutator_norms``) and are passed None.
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
    require_depth(depth)
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
            "checks": [dict(vars(c)) for c in sorted(self.checks, key=lambda c: c.id)],  # the fields, in order
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


def _unit_columns(batch: np.ndarray) -> List[DyadicFunction]:
    """The functions of a batch, one per column, each normalized."""
    return [normalized(DyadicFunction(batch.shape[0].bit_length() - 1, col)) for col in batch.T]


def _leading_columns(batch: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Column k's leading 2**depths[k] values, a depth-depths[k] function,
    refined to the batch's depth, which keeps every sup of the function."""
    out = np.empty_like(batch)
    for dk in set(depths.tolist()):  # not np.unique: numpy 2.4 keeps 0.5 MB allocated after its first call
        cols = depths == dk
        out[:, cols] = _refine_rows(batch[: 1 << dk, cols], batch.shape[0].bit_length() - 1)
    return out


def _chunked_max(cols: int, width: int, check: Callable[[slice], object]) -> np.ndarray:
    """The largest of ``check(chunk)`` (one worst value or a tuple of them)
    over the column chunks of ``transfer.column_chunks(cols, width)``; width
    is the most rows any array the check passes through has per column."""
    return np.max([check(chunk) for chunk in tr.column_chunks(cols, width)], axis=0)


# ---------------------------------------------------------------------------


def run_basis(d: int, seed: int) -> List[Check]:
    rec = _Recorder("basis")

    # pairwise orthonormality of the Haar family restricted to the depth-d space
    depth = min(5, d - 1) + 1
    haar = haar_batch(range(1 << depth), depth)
    coords = (haar * 2.0 ** (-depth / 2.0)).T  # orthonormal coordinates, one row each
    rec.close_to(
        "orthonormal",
        f"Gram matrix of the Haar family (word length <= {depth - 1}) is the identity",
        "haar-orthonormality",
        float(np.max(np.abs(coords @ coords.T - np.eye(1 << depth)))),
        0.0,
        TOL_EXACT,
    )

    x = random_batch(seed, d, 20)
    h = _haar_rows(x)
    worst = np.abs(_col_inner(x, x) - np.einsum("ij,ij->j", h, h)).max()
    rec.close_to(
        "parseval",
        "squared norm equals the squared-coefficient sum of the Haar expansion",
        "haar-parseval",
        worst,
        0.0,
        TOL_EXACT,
    )

    x = random_batch(seed + 100, min(d, 6), 20)
    worst = _col_dist(_from_haar_rows(_haar_rows(x)), x).max()
    rec.close_to("roundtrip", "analysis then synthesis returns the input", "plumbing", worst, 0.0, TOL_EXACT)

    eps_err = float(np.max(np.abs(haar[:, :2] - _refine_rows(np.diag([-SQRT2, SQRT2]), depth))))
    rec.close_to("eps-values", "depth-one Haar elements are the scaled indicators", "haar-definition", eps_err, 0.0, TOL_EXACT)

    h1 = to_haar(constant(1.0))
    rec.close_to(
        "constant-expansion",
        "the constant function expands as 2**-0.5 (e_eps1 - e_eps0)",
        "haar-definition",
        max(abs(h1[0] + 2 ** -0.5), abs(h1[1] - 2 ** -0.5), float(np.abs(h1[2:]).max(initial=0.0))),
        0.0,
        TOL_EXACT,
    )

    # Product of nested Haar elements: e_u e_v = -(-1)**v_{l(u)+1} * 2**(l(u)/2) e_v,
    # for the slots u = v >> k (k >= 1) of length <= 2; v_{l(u)+1} is bit k - 1
    # of v, 2**(l(u)/2) the sup of e_u.
    depth = min(4, d - 1) + 1
    u, v, k = np.array([(s >> k, s, k) for s in range(4, 1 << depth) for k in range(1, s.bit_length() - 1) if s >> k < 8]).T
    haar = haar[:: haar.shape[0] >> depth, : 1 << depth]  # the same elements at this depth
    prod, scale = haar[:, u] * haar[:, v], np.abs(haar[:, u]).max(axis=0)
    worst_signed = _col_dist(prod, (2.0 * (v >> (k - 1) & 1) - 1.0) * scale * haar[:, v]).max()
    plus_fails = bool((_col_dist(prod, scale * haar[:, v]) > 1e-9).any())
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

    ruelle, koopman, kernel_proj = tr.Ruelle().apply_batch, tr.Koopman().apply_batch, tr.KernelProj().apply_batch
    f, g = random_batch(seed, d, 100), random_batch(seed + 1000, d, 100)

    def pair_errors(cols: slice) -> Tuple[float, float, float]:
        fc, gc = f[:, cols], g[:, cols]
        kf = koopman(fc)
        return (
            _col_dist(ruelle(kf), fc).max(),
            np.abs(_col_inner(kf, gc) - _col_inner(fc, ruelle(gc))).max(),
            np.abs(_col_dist(kf, 0.0) - _col_dist(fc, 0.0)).max(),
        )

    worst_lk, worst_adj, worst_iso = _chunked_max(f.shape[1], 2 * f.shape[0], pair_errors)  # K f is the widest
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
        condexp = tr.CondExp(n).apply_batch
        once = condexp(random_batch(seed + 5 * n, min(d, 6), 10))
        worst = max(worst, _col_dist(condexp(once), once).max())
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

    f = random_batch(seed + 300, d, 30)
    p = kernel_proj(f)
    worst_kerl = _col_dist(ruelle(p), 0.0).max()
    worst_idem = _col_dist(kernel_proj(p), p).max()
    worst_comm = _col_dist(ruelle(koopman(f)) - koopman(ruelle(f)), p).max()
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
    chain-level cap (|n + 1> needs n + 1 <= MAX_CHAIN_LEVEL), or a tolerance
    that is not finite and >= 0, is refused before any work."""
    if not 0 <= tol < math.inf:  # also refuses nan
        raise ValueError(f"boson tolerance {tol!r} must be finite and >= 0")
    if not (1 <= n_max <= MAX_CHAIN_LEVEL - 1 and 0 <= w_max_len and n_max + w_max_len + 3 <= MAX_DEPTH):
        raise ValueError(
            f"boson grid n_max={n_max}, w_max_len={w_max_len} outside 1 <= n_max <= {MAX_CHAIN_LEVEL - 1}, "
            f"w_max_len >= 0, n_max + w_max_len <= {MAX_DEPTH - 3}"
        )
    rec = _Recorder("boson")

    # Each level n of a word length (None: the plain level states) goes
    # through in column chunks sized at its widest array, the raised states;
    # the consecutive levels that chunk the words alike share one ladder
    # per chunk, carried from level to level.
    f = random_batch(seed, d, 100)
    worst = dict.fromkeys(("raise", "lower", "power", "number", "kernel"), 0.0)
    worst["ccr"] = _chunked_max(  # K f, inside the commutator, is the widest
        f.shape[1], 2 * f.shape[0], lambda c: _col_dist(bo.CCR_DEFECT.apply_batch(f[:, c]), 0.5 * tr.KernelProj().apply_batch(f[:, c])).max()
    )
    for length in [None] + list(range(w_max_len + 1)):
        words = 1 if length is None else 1 << length
        lead = 1 if length is None else length + 2  # level n's states have depth n + lead
        for chunks, levels in itertools.groupby(range(n_max + 1), key=lambda n: tuple(tr.column_chunks(words, 1 << (n + lead + 1)))):
            levels = list(levels)
            for cols in chunks:
                for _, errors in bo.chain_ladder(levels[0], levels[-1], length, cols):
                    for key, err in errors.items():
                        worst[key] = max(worst[key], float(err.max(initial=0.0)))
    rec.close_to("ladder-raise", "creation maps level n to 2**-0.5 times level n+1", "ladder", worst["raise"], 0.0, tol)
    rec.close_to("ladder-lower", "annihilation maps level n to 2**-0.5 times level n-1 and kills level 0", "ladder", worst["lower"], 0.0, tol)
    rec.close_to("ladder-power", "n-fold creation on level 0 gives 2**(-n/2) times level n", "ladder", worst["power"], 0.0, tol)
    rec.close_to("number-eigenvalue", "the number operator halves every lifted chain state", "number-operator", worst["number"], 0.0, tol)
    rec.close_to("number-kernel", "the number operator kills the kernel level", "number-operator", worst["kernel"], 0.0, tol)
    rec.close_to(
        "ccr-kernel-projection",
        "the ladder commutator is half the projection onto ker L",
        "generalized-ccr",
        worst["ccr"],
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
    # each batch goes through in column chunks; K phi, inside the anticommutator, is the widest
    phi = random_batch(seed, d, 100, "independent-of-first-coordinate")
    worst = _chunked_max(phi.shape[1], 2 * phi.shape[0], lambda c: _col_dist(bo.CAR_ANTICOMMUTATOR.apply_batch(phi[:, c]), phi[:, c]).max())
    rec.close_to(
        "car-invariant-subspace",
        "the anticommutator is the identity on first-coordinate-independent functions",
        "car",
        worst,
        0.0,
        TOL_EXACT,
    )

    phi = random_batch(seed + 500, d, 100)
    one = np.ones((1, 1))  # the constant 1, as a batch of one, paired with every column
    worst = _chunked_max(
        phi.shape[1], 2 * phi.shape[0], lambda c: np.abs(_col_inner(bo.CAR_ANTICOMMUTATOR.apply_batch(phi[:, c]), one) - _col_inner(phi[:, c], one)).max()
    )
    rec.close_to("car-integral", "the anticommutator preserves integrals", "car", worst, 0.0, TOL_EXACT)

    states = [chain_batch(0, length) for length in (0, 1, 2)]  # over the empty word and every word of length <= 2
    worst = max(_col_dist(bo.CAR_ANTICOMMUTATOR.apply_batch(st), 0.5 * st).max() for st in states)
    rec.close_to("car-kernel", "the anticommutator halves kernel-level states", "car", worst, 0.0, TOL_EXACT)
    return rec.checks


def run_dirac_projections(depth: None, seed: int) -> List[Check]:
    rec = _Recorder("dirac-projections")
    kernel = _unit_columns(random_batch(seed, 5, 10, "kernel-of-L"))
    lifted = [normalized(random_function(seed + 50, 4, "kernel-of-L"))]
    for _ in range(3):
        lifted.append(tr.koopman_apply(lifted[-1]))
    bounded = _unit_columns(random_batch(seed + 70, 4, 5, "kernel-of-L"))
    names = {"e0": Word.from_string("0"), "e1": Word.from_string("1"), "eps0": EPS0, "eps1": EPS1}
    norms = _grouped_norms(
        {
            "haar-norm": [tr.Proj(haar_function(w)) for length in (2, 3, 4) for w in all_words(length)],
            "kernel-norm": [tr.Proj(psi) for psi in kernel],
            "lifted-kernel-norm": [tr.Proj(g) for g in lifted[1:]],
            "block-equality": [tr.Proj(haar_function(Word.from_string("01"))), tr.Mult(random_function(seed + 60, 3)), tr.CondExp(1)],
            "coeff-lower-bounds": [tr.Proj(psi) for psi in bounded],
            "length-one": [tr.Proj(haar_function(idx)) for idx in names.values()],
        }
    )

    worst_gap = max(abs(r.value - 1.0) for r in norms["haar-norm"])
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

    worst = max(abs(r.value - 1.0) for r in norms["kernel-norm"])
    rec.close_to("kernel-norm", "projections onto kernel vectors have commutator norm one", "kernel-projection-norm", worst, 0.0, 1e-8)

    worst = max(abs(r.value - 1.0) for r in norms["lifted-kernel-norm"])
    rec.close_to("lifted-kernel-norm", "projections onto Koopman lifts of kernel vectors keep norm one", "kernel-projection-norm", worst, 0.0, 1e-8)

    worst = 0.0
    for r in norms["block-equality"]:
        nu, nl = r.upper.value, r.lower.value
        worst = max(worst, abs(nu - nl) / max(nu, nl, 1.0))
    rec.close_to("block-equality", "the two commutator blocks of a self-adjoint operator share their norm", "self-adjoint-blocks", worst, 0.0, 1e-8)

    worst = -math.inf
    for psi, r in zip(bounded, norms["coeff-lower-bounds"]):
        bounds = fo.projection_norm_bounds(psi)
        worst = max(worst, bounds["lower_K"] - r.value, bounds["lower_L"] - r.value)
    rec.at_most("coeff-lower-bounds", "coefficient bounds stay below the numeric norm", "projection-norm-bounds", worst, 0.0, 1e-8)

    values = {name: r.value for name, r in zip(names, norms["length-one"])}
    rec.report(
        "length-one",
        "commutator norms of the four depth-one projections (no asserted closed form)",
        "haar-projection-norm",
        {k: round(v, 12) for k, v in values.items()},
    )
    return rec.checks


def _grouped_norms(groups: Dict[str, List[tr.OperatorSpec]]) -> Dict[str, List[di.CommutatorNorm]]:
    """Each group's Dirac norms, from one ``dirac.commutator_norms`` call over
    every group's operators, so that operators of one structure are solved
    as one family whichever check they belong to."""
    norms = iter(di.commutator_norms([a for ops in groups.values() for a in ops]))
    return {name: [next(norms) for _ in ops] for name, ops in groups.items()}


def _projection_case_table_error(min_len: int, max_len: int) -> float:
    """Worst deviation of squared commutator images from the case table.

    The target Haar elements e_t (1 <= len(t) <= max_len) and the projection
    vectors e_w (min_len <= len(w) <= max_len) are columns of one
    depth-(max_len + 1) array, and the images S P_w e_t - P_w S e_t of every
    pair (w, t) go through each of the kernels S = K, L as (rows, w, t)
    arrays, in column chunks of the projection vectors.  Words are kept as
    their Haar slots (``dyadic.haar_slot``): the word in slot s has length l
    with 2**l <= s < 2**(l+1), and its shift sits in slot
    2**(l-1) + s mod 2**(l-1).
    """
    slots = np.arange(2, 1 << (max_len + 1))  # the targets t, in words_up_to order
    half = np.repeat(1 << np.arange(max_len), 2 << np.arange(max_len))  # 2**(len(t) - 1)
    shifted = half | slots % half
    targets = _from_haar_rows(np.eye(slots.size + 2)[:, slots])
    ws = slots >= 1 << min_len  # the targets that are projection vectors
    psi, w = targets[:, ws], slots[ws, None]
    tables = {
        tr.Koopman: (slots == w) + 0.5 * (slots == shifted[ws, None]),
        tr.Ruelle: 0.5 * ((slots == w) | (shifted == w)),
    }
    worst = 0.0
    for spec, expected in tables.items():
        kernel = spec().apply_batch
        images = kernel(targets)

        def table_error(cols: slice) -> float:
            a, b, _ = _common(kernel(_projections(psi[:, cols], targets)), _projections(psi[:, cols], images))
            img = a - b
            # each of the img.shape[0] cylinders carries mass 1 / img.shape[0]
            sq = np.einsum("ijk,ijk->jk", img, img) / img.shape[0]
            return float(np.max(np.abs(sq - expected[cols])))

        # a chunk's (rows, w, t) arrays have the rows of psi or of S psi, whichever is more
        rows = max(psi.shape[0], images.shape[0])
        worst = max(worst, float(_chunked_max(psi.shape[1], rows * slots.size, table_error)))
    return worst


def _projections(psi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<x_t, psi_j> psi_j for every column psi_j of psi and x_t of x, as one
    (rows, j, t) array at their common depth."""
    a, b, d = _common(psi, x)
    return a[:, :, None] * ((a.T @ b) * 2.0 ** (-d))[None]


def run_dirac_mult(depth: None, seed: int) -> List[Check]:
    rec = _Recorder("dirac-mult")
    f0 = SQRT2 * indicator(Word.from_string("0"))
    rec.close_to("remark-forward", "forward sup of the witness multiplier is sqrt(2)", "mult-norm-remark", fo.forward_sup(f0), SQRT2, TOL_EXACT)
    # Column k of batch holds f: its leading 2**d_k values, d_k = 2 + k % 4,
    # independent normals as a column is; the sups take f refined to depth 5.
    # The witness's norm is solved in the same stacked family.
    batch = random_batch(seed, 5, 60)
    depths = 2 + np.arange(60) % 4
    fs = [DyadicFunction(int(d_), batch[: 1 << d_, k]) for k, d_ in enumerate(depths)]
    witness, *norms = di.commutator_norms([tr.Mult(f) for f in [f0] + fs])
    rec.close_to("remark-norm", "commutator norm of the witness multiplier is one", "mult-norm-remark", witness.value, 1.0, TOL_NORM)
    rec.close_to("remark-ruelle-diff", "averaged difference sup of the witness multiplier", "mult-sandwich", fo.ruelle_diff_sup(f0), 2 ** -0.5, TOL_EXACT)

    numeric = np.array([r.value for r in norms])
    f5 = _leading_columns(batch, depths)
    worst_match = np.abs(numeric - fo.backward_rms_norm_batch(f5)).max()
    worst_sandwich = max((numeric - fo.forward_sup_batch(f5)).max(), (fo.ruelle_diff_sup_batch(f5) - numeric).max())
    g = np.concatenate([_refine_rows(random_batch(seed + 400 + d_, d_, 15, "independent-of-first-coordinate"), 5) for d_ in range(2, 6)], axis=1)
    vals = np.stack([fo.forward_sup_batch(g), fo.backward_rms_norm_batch(g), fo.ruelle_diff_sup_batch(g)])
    worst_eq = (vals.max(axis=0) - vals.min(axis=0)).max()
    rec.close_to("rms-match", "cylinder root-mean-square sup equals the numeric commutator norm", "mult-rms-norm", worst_match, 0.0, 1e-8)
    rec.at_most("sandwich", "forward sup >= commutator norm >= averaged-difference sup", "mult-sandwich", worst_sandwich, 0.0, TOL_NORM)
    rec.close_to("first-coordinate-equality", "all three derivative sups agree off the first coordinate", "mult-sandwich", worst_eq, 0.0, 1e-10)

    f4 = _leading_columns(random_batch(seed + 900, 4, 40), 2 + np.arange(40) % 3)  # f as in the loop above
    sups = fo.kolmogorov_mean_chain_batch(f4, orders=(-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0, 10.0, math.inf))
    ordered = sorted(sups)
    worst_chain = max((sups[a] - sups[b]).max() for a, b in zip(ordered, ordered[1:]))
    worst_ties = max(
        np.abs(sups[2.0] - fo.backward_rms_norm_batch(f4)).max(), np.abs(sups[math.inf] - fo.forward_sup_batch(f4)).max()
    )
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

    x = random_batch(seed + 2000, 3, 40)
    ok = fo.l2_sandwich_check_batch(x * (0.9 / np.maximum(np.abs(x).max(axis=0), 1e-12)))["holds"].all()
    rec.close_to("l2-sandwich", "norm at most one forces both L2 differences at most one", "l2-sandwich", 0.0 if ok else 1.0, 0.0, 0.0)
    return rec.checks


def run_dirac_condexp(depth: None, seed: int) -> List[Check]:
    rec = _Recorder("dirac-condexp")
    ops = {n: tr.CondExp(n) for n in (1, 2, 3)}  # one spec per n: its normal form is derived once
    norms = dict(zip(ops, di.commutator_norms(list(ops.values()))))
    worst = max(abs(r.value - 1.0) for r in norms.values())
    rec.close_to("norm", "commutator norm of every conditional expectation is one", "condexp-norm", worst, 0.0, TOL_NORM)

    worst = 0.0
    for n, op in ops.items():
        core = norms[n].core_depth
        points = sp.depth_sweep(op, range(core, core + 3))
        values = [p.value for p in points]
        worst = max(worst, max(values) - min(values))
    rec.close_to("plateau", "the norm is already attained at the rule depth and stays flat", "condexp-norm", worst, 0.0, 1e-9)

    worst = 0.0
    for n in (1, 2, 3):
        g = tr.Compose((tr.Koopman(),) * n).apply_batch(random_batch(seed + 10 * n, 3, 10))
        worst = max(worst, _col_dist(ops[n].apply_batch(g), g).max())
    rec.close_to("fixed-subspace", "conditional expectation fixes functions ignoring the first n symbols", "condexp", worst, 0.0, TOL_EXACT)
    return rec.checks


def _witness_vector() -> DyadicFunction:
    w = Word.from_string("01")
    return (
        (2 ** -0.5) * haar_function(w)
        - 0.5 * haar_function(Word.from_string("001"))
        - 0.5 * haar_function(Word.from_string("101"))
    )


def _sup_expression(psi: DyadicFunction) -> float:
    """The exact sup over unit phi of x^2 - 2 x y c + y^2, x = <phi, psi>,
    y = <phi, L psi>, c = <K psi, psi>: a rank-two form on span(psi, L psi), so
    the top eigenvalue of M G, G the Gram matrix of (psi, L psi) and
    M = [[1, -c], [-c, 1]]."""
    lpsi = tr.ruelle_apply(psi)
    c = inner(tr.koopman_apply(psi), psi)
    gram = np.array([[inner(psi, psi), inner(psi, lpsi)], [inner(lpsi, psi), inner(lpsi, lpsi)]])
    return float(np.linalg.eigvals(np.array([[1.0, -c], [-c, 1.0]]) @ gram).real.max())


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

    psis = [witness] + _unit_columns(random_batch(seed, 4, 3, "kernel-of-L")) + [normalized(random_function(seed + 40, 5))]
    sup_worst = max(_sup_expression(psi) for psi in psis)
    rec.at_most("expression-global-bound", "the squared expression never exceeds 9/8 over unit inputs", "overlap-surface", sup_worst, 9.0 / 8.0, TOL_NORM)

    phi, psi = random_batch(seed + 100, 5, 50, "unit-norm"), random_batch(seed + 200, 5, 50, "unit-norm")
    worst = np.abs(fo.projection_sq_expression_batch(phi, psi) - fo.commutator_image_sq_batch(phi, psi)).max()
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
    full, own = wold_members(depth)
    for d in range(1, depth + 1):
        # a copy scaled in place to wold_family(d); the top depth, the last, scales full itself
        family = full if d == depth else full[:: 1 << (depth - d), own <= d]
        family *= 2.0 ** (-d / 2.0)
        worst_count = max(worst_count, abs(family.shape[1] - (1 << d)))

        def gram_error(cols: slice) -> float:
            gram = family.T @ family[:, cols]  # the Gram matrix's columns cols
            gram[cols].flat[:: gram.shape[1] + 1] -= 1.0  # minus the identity's, in place
            return float(np.abs(gram, out=gram).max())

        worst_gram = max(worst_gram, float(_chunked_max(family.shape[1], max(family.shape), gram_error)))
    rec.close_to("count", "the chain family restricted to depth d has exactly 2**d members", "wold-basis", float(worst_count), 0.0, 0.0)
    rec.close_to("gram", "the chain family is orthonormal at every depth", "wold-basis", worst_gram, 0.0, TOL_EXACT)
    return rec.checks


def wold_family(d: int) -> np.ndarray:
    """The depth-d orthonormal coordinates of the constant and of every chain
    state that fits inside the depth-d space, one member per column."""
    values, _ = wold_members(d)
    return values * 2.0 ** (-d / 2.0)


def wold_members(depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """(values, own): the cylinder values at ``depth`` of the members of
    ``wold_family(depth)``, one per column, and each member's own depth.
    ``wold_family(d)`` for d <= depth is ``values[:: 2**(depth - d), own <= d]
    * 2**(-d/2)``: a member of depth at most d repeats each of its depth-d
    values over 2**(depth - d) consecutive rows."""
    groups = [np.ones((1, 1))] + [chain_batch(n, None) for n in range(0, depth)]
    groups += [chain_batch(n, ell) for ell in range(0, max(depth - 1, 0)) for n in range(0, depth - 1 - ell)]
    own = np.concatenate([np.full(g.shape[1], tr._depth(g)) for g in groups])
    values = np.empty((1 << depth, own.size))
    j = 0
    for g in groups:  # one group refined at a time
        values[:, j : j + g.shape[1]] = _refine_rows(g, depth)
        j += g.shape[1]
    return values, own


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
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}, all")
    keys = sorted(SUITES) if name == "all" else [name]
    return run_suites(name, {key: SUITES[key] for key in keys}, depth, seed)


def run_suites(
    label: str, parts: Dict[str, Callable[[Optional[int], int], List[Check]]], depth: int, seed: int
) -> SuiteReport:
    """Run each named suite in order at its suite_depth and report the depth
    and wall time of each.  A depth below the floor or a negative seed is
    refused before any suite runs."""
    if seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")
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
