"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All tolerances are pinned here; report-only lines adjudicate between
closed-form candidates that cannot all be right, with the numeric engine as
the referee, and never affect the outcome.
"""

import math

import numpy as np

import rkdirac.boson as bo
import rkdirac.dirac as di
import rkdirac.formulas as fo
import rkdirac.spectra as sp
import rkdirac.transfer as tr
from rkdirac.dyadic import (
    SQRT2,
    constant,
    haar_function,
    indicator,
    inner,
    l2_dist,
    l2_norm,
    normalized,
    random_function,
    refine,
    state_n,
    state_nw,
)
from rkdirac.suites import wold_family
from rkdirac.words import EPSILON, Word, all_words, shift, words_up_to

INV_SQRT2 = 2.0 ** -0.5
SEED = 20240901


def w(text):
    return Word.from_string(text)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{status}] criterion {num:02d} {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _report(num, name, detail):
    print(f"[REPORT] criterion {num:02d} {name}: {detail}")


def _chain_words():
    return [None, EPSILON] + list(words_up_to(3))


def test_criterion_01_ladder_relations():
    tol = 1e-12
    worst = 0.0
    for n in range(0, 5):
        worst = max(worst, l2_dist(bo.creation(state_n(n)), INV_SQRT2 * state_n(n + 1)))
        if n >= 1:
            worst = max(worst, l2_dist(bo.annihilation(state_n(n)), INV_SQRT2 * state_n(n - 1)))
    worst = max(worst, l2_norm(bo.annihilation(state_n(0))))
    for word in _chain_words():
        for n in range(1, 5):
            powered = state_nw(0, word)
            for _ in range(n):
                powered = bo.creation(powered)
            worst = max(worst, l2_dist(powered, 2.0 ** (-n / 2) * state_nw(n, word)))
    _line(1, "ladder relations", worst <= tol, f"max error {worst:.3e} (tol {tol:g})")


def test_criterion_02_generalized_ccr_and_number_operator():
    tol = 1e-12
    worst = 0.0
    for k in range(100):
        f = random_function(SEED + k, 8)
        worst = max(worst, l2_dist(bo.ccr_defect(f), 0.5 * tr.kernel_projection(f)))
    for word in _chain_words():
        st0 = state_nw(0, word)
        worst = max(worst, l2_dist(bo.ccr_defect(st0), 0.5 * st0))

    # independent oracle: the explicit rank-2**(d-1) projector built from the
    # kernel-level chain states
    d = 8
    family = [state_n(0)] + [state_nw(0, word) for ell in range(d - 1) for word in all_words(ell)]
    mat = np.stack([tr.coords(f, d) for f in family])
    projector = mat.T @ mat
    for k in range(20):
        f = random_function(SEED + 500 + k, d)
        got = tr.coords(bo.ccr_defect(f), d)
        expected = 0.5 * (projector @ tr.coords(f, d))
        worst = max(worst, float(np.max(np.abs(got - expected))) * 2.0 ** (d / 2))

    worst_num = 0.0
    for word in _chain_words():
        for n in range(1, 5):
            st = state_nw(n, word)
            worst_num = max(worst_num, l2_dist(bo.number_apply(st), 0.5 * st))
    ok = worst <= tol and worst_num <= tol
    _line(
        2,
        "generalized commutation relation and number operator",
        ok,
        f"commutator error {worst:.3e}, number-operator error {worst_num:.3e} (tol {tol:g})",
    )


def test_criterion_03_car_on_invariant_subspace():
    tol = 1e-12
    worst_fix = 0.0
    for k in range(100):
        phi = random_function(SEED + k, 8, "independent-of-first-coordinate")
        worst_fix = max(worst_fix, l2_dist(bo.car_anticommutator(phi), phi))
    one = constant(1.0)
    worst_int = 0.0
    for k in range(100):
        phi = random_function(SEED + 1000 + k, 8)
        worst_int = max(worst_int, abs(inner(bo.car_anticommutator(phi), one) - inner(phi, one)))
    ok = worst_fix <= tol and worst_int <= tol
    _line(
        3,
        "anticommutator identity and integral preservation",
        ok,
        f"subspace error {worst_fix:.3e}, integral error {worst_int:.3e} (tol {tol:g})",
    )


def test_criterion_04_haar_projection_norms_and_case_table():
    tol_norm = 1e-9
    tol_table = 1e-12
    worst_norm = 0.0
    for length in (2, 3, 4):
        for word in all_words(length):
            b = di.dirac_commutator(tr.Proj(haar_function(word)))
            worst_norm = max(worst_norm, abs(di.block_norm(b, length + 2) - 1.0))

    worst_table = 0.0
    for lw in range(2, 5):
        for word in all_words(lw):
            upper, lower = tr.dirac_blocks(tr.Proj(haar_function(word)))
            sw = shift(word)
            for lt in range(1, 5):
                for wt in all_words(lt):
                    e = haar_function(wt)
                    img_u = upper.apply(e)
                    exp_u = 1.0 if wt == word else (0.5 if wt == sw else 0.0)
                    img_l = lower.apply(e)
                    exp_l = 0.5 if (wt == word or (wt.length >= 2 and shift(wt) == word)) else 0.0
                    worst_table = max(
                        worst_table,
                        abs(inner(img_u, img_u) - exp_u),
                        abs(inner(img_l, img_l) - exp_l),
                    )
    ok = worst_norm <= tol_norm and worst_table <= tol_table
    _line(
        4,
        "Haar-projection commutator norms and case table",
        ok,
        f"norm gap {worst_norm:.3e} (tol {tol_norm:g}), table gap {worst_table:.3e} (tol {tol_table:g})",
    )


def test_criterion_05_conditional_expectation_norms():
    tol = 1e-9
    worst = 0.0
    worst_plateau = 0.0
    for n in (1, 2, 3):
        points = sp.depth_sweep(tr.CondExp(n), range(n + 2, n + 5))
        values = [p.value for p in points]
        worst = max(worst, abs(values[0] - 1.0))
        worst_plateau = max(worst_plateau, max(values) - min(values))
    ok = worst <= tol and worst_plateau <= tol
    _line(
        5,
        "conditional-expectation commutator norms",
        ok,
        f"norm gap {worst:.3e}, plateau spread {worst_plateau:.3e} (tol {tol:g})",
    )


def test_criterion_06_multiplier_norms_and_sandwich():
    f0 = SQRT2 * indicator(w("0"))
    forward_gap = abs(fo.forward_sup(f0) - SQRT2)
    norm_gap = abs(di.block_norm(di.dirac_commutator(tr.Mult(f0)), 2) - 1.0)

    worst_match = 0.0
    worst_sandwich = -math.inf
    for k in range(100):
        depth = 2 + k % 4  # depths 2..5
        f = random_function(SEED + k, depth)
        numeric = di.block_norm(di.dirac_commutator(tr.Mult(f)), depth + 1)
        worst_match = max(worst_match, abs(numeric - fo.backward_rms_norm(f)))
        worst_sandwich = max(
            worst_sandwich, numeric - fo.forward_sup(f), fo.ruelle_diff_sup(f) - numeric
        )

    worst_eq = 0.0
    for k in range(50):
        g = random_function(SEED + 2000 + k, 4, "independent-of-first-coordinate")
        numeric = di.block_norm(di.dirac_commutator(tr.Mult(g)), 5)
        vals = (fo.forward_sup(g), numeric, fo.ruelle_diff_sup(g))
        worst_eq = max(worst_eq, max(vals) - min(vals))

    ok = (
        forward_gap <= 1e-12
        and norm_gap <= 1e-9
        and worst_match <= 1e-8
        and worst_sandwich <= 1e-9
        and worst_eq <= 1e-10
    )
    _line(
        6,
        "multiplier norms, closed form and derivative sandwich",
        ok,
        f"witness gaps ({forward_gap:.1e}, {norm_gap:.1e}), closed-form gap {worst_match:.3e}, "
        f"sandwich slack {worst_sandwich:.3e}, equality spread {worst_eq:.3e}",
    )


def test_criterion_07_power_mean_chain():
    tol = 1e-12
    orders = (-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0, 10.0, math.inf)
    worst_chain = -math.inf
    worst_tie = 0.0
    for k in range(100):
        depth = 2 + k % 3
        f = random_function(SEED + k, depth)
        sups = fo.kolmogorov_mean_chain(f, orders=orders)
        keys = sorted(sups)
        worst_chain = max(worst_chain, max(sups[a] - sups[b] for a, b in zip(keys, keys[1:])))
        numeric = di.block_norm(di.dirac_commutator(tr.Mult(f)), depth + 1)
        worst_tie = max(worst_tie, abs(sups[2.0] - numeric))
    ok = worst_chain <= tol and worst_tie <= 1e-8
    _line(
        7,
        "power-mean chain through the commutator norm",
        ok,
        f"worst chain violation {worst_chain:.3e}, order-two gap {worst_tie:.3e}",
    )


def test_criterion_08_projection_norms_and_adjudication():
    tol_norm = 1e-8
    worst = 0.0
    tested = []
    for k in range(20):
        psi = normalized(random_function(SEED + k, 5, "kernel-of-L"))
        tested.append(psi)
        worst = max(worst, abs(di.block_norm(di.dirac_commutator(tr.Proj(psi)), 6) - 1.0))
    base = normalized(random_function(SEED + 100, 4, "kernel-of-L"))
    for k in range(1, 4):
        lifted = base
        for _ in range(k):
            lifted = tr.koopman_apply(lifted)
        tested.append(lifted)
        worst = max(
            worst, abs(di.block_norm(di.dirac_commutator(tr.Proj(lifted)), lifted.depth + 1) - 1.0)
        )
    _line(
        8,
        "projection norms on kernel vectors and their lifts",
        worst <= tol_norm,
        f"max norm gap {worst:.3e} (tol {tol_norm:g})",
    )

    # witness vector with coefficients (2**-0.5, -1/2, -1/2) over a length-two word
    witness = (
        INV_SQRT2 * haar_function(w("01"))
        - 0.5 * haar_function(w("001"))
        - 0.5 * haar_function(w("101"))
    )
    tested.append(witness)
    adj = fo.projection_norm_adjudicate(witness)
    scan = fo.surface_max_scan(adj["c"])
    scan_gap = abs(scan["max"] - fo.surface_stationary_value(abs(adj["c"])))
    _line(
        8,
        "witness surface scan against the closed-form maximum",
        scan_gap <= 1e-6 and abs(scan["max"] - 9.0 / 8.0) <= 1e-6,
        f"scan {scan['max']:.9f} vs 9/8, gap {scan_gap:.2e}",
    )
    _report(
        8,
        "witness adjudication",
        f"numeric {adj['numeric']:.12f}; candidates: linear {adj['candidate_linear']:.6f}, "
        f"sqrt {adj['candidate_sqrt']:.6f}, sqrt(1-c^2) {adj['candidate_sqrt_one_minus_c_sq']:.12f}; "
        f"verdict {adj['verdict']}",
    )
    upper_cap = 3.0 / (2.0 * SQRT2) + 1e-9
    _report(
        8,
        "witness two-sided bound",
        f"candidate bound 1 <= norm <= 3/(2 sqrt 2): lower holds {adj['numeric'] >= 1 - 1e-9}, "
        f"upper holds {adj['numeric'] <= upper_cap} "
        "(the lower bound is valid exactly when the Koopman overlap c vanishes)",
    )

    # global expression bound and two-sided norm bounds over every tested
    # vector from the assertion families (overlap c = 0 for all of them)
    worst_sup = 0.0
    worst_bounds = 0.0
    for j, psi in enumerate(tested):
        d = psi.depth
        cpsi = tr.coords(psi, d)
        clpsi = tr.coords(refine(tr.ruelle_apply(psi), d), d)
        c = inner(tr.koopman_apply(psi), psi)
        rng = np.random.default_rng(SEED + 31 * j)
        phis = rng.standard_normal((10000, 1 << d))
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        x = phis @ cpsi
        y = phis @ clpsi
        worst_sup = max(worst_sup, float(np.max(x * x - 2.0 * c * x * y + y * y)))
        if psi is not witness:
            value = di.block_norm(di.dirac_commutator(tr.Proj(psi)), d + 1)
            worst_bounds = max(worst_bounds, 1.0 - value, value - 3.0 / (2.0 * SQRT2))
    _line(
        8,
        "expression bound and two-sided norm bounds",
        worst_sup <= 9.0 / 8.0 + 1e-9 and worst_bounds <= 1e-9,
        f"max expression {worst_sup:.6f} <= 9/8; worst bound slack {worst_bounds:.3e} "
        "(asserted on the zero-overlap families; the witness value is report-only above)",
    )


def test_criterion_09_chain_family_completeness():
    tol = 1e-12
    worst = 0.0
    for d in range(1, 9):
        family = wold_family(d)  # orthonormal coordinates, one member per column
        assert family.shape == (1 << d, 1 << d), f"depth {d}: {family.shape[1]} members"
        worst = max(worst, float(np.max(np.abs(family.T @ family - np.eye(family.shape[1])))))
    _line(
        9,
        "chain-family completeness at every depth",
        worst <= tol,
        f"max Gram deviation {worst:.3e} (tol {tol:g})",
    )


def _assembled_roster():
    """Deterministic family of assembled matrices covering every operator kind
    exercised by the other criteria."""
    roster = []
    for d in range(1, 7):
        roster.append(tr.assemble(tr.Koopman(), d))
        roster.append(tr.assemble(tr.Ruelle(), d))
    for length in (2, 3):
        for word in all_words(length):
            blocks = tr.dirac_blocks(tr.Proj(haar_function(word)))
            roster.append(tr.assemble(blocks[0], length + 2))
            roster.append(tr.assemble(blocks[1], length + 2))
    for n in (1, 2, 3):
        blocks = tr.dirac_blocks(tr.CondExp(n))
        roster.append(tr.assemble(blocks[0], n + 2))
        roster.append(tr.assemble(blocks[1], n + 2))
    f0 = SQRT2 * indicator(w("0"))
    for spec in (tr.Mult(f0), tr.Mult(random_function(SEED, 3)), tr.KernelProj()):
        blocks = tr.dirac_blocks(spec)
        roster.append(tr.assemble(blocks[0], 4))
        roster.append(tr.assemble(blocks[1], 4))
    psi = normalized(random_function(SEED + 7, 4, "kernel-of-L"))
    blocks = tr.dirac_blocks(tr.Proj(psi))
    roster.append(tr.assemble(blocks[0], 5))
    roster.append(tr.assemble(blocks[1], 5))
    return roster


def test_criterion_10_norm_engine_oracle_equivalence():
    worst_pd = 0.0
    count = 0
    for am in _assembled_roster():
        if min(am.matrix.shape) > 256:
            continue
        count += 1
        p = sp.operator_norm(am, method="lanczos")
        dn = sp.operator_norm(am, method="dense")
        assert p.converged, f"power iteration failed to converge on {am.matrix.shape}"
        worst_pd = max(worst_pd, abs(p.value - dn.value))

    worst_unit = 0.0
    for d in range(1, 9):
        worst_unit = max(worst_unit, abs(sp.operator_norm(tr.assemble(tr.Koopman(), d)).value - 1.0))
        worst_unit = max(worst_unit, abs(sp.operator_norm(tr.assemble(tr.Ruelle(), d)).value - 1.0))
    ok = worst_pd <= 1e-10 and worst_unit <= 1e-10
    _line(
        10,
        "norm-engine oracle equivalence and unit operator norms",
        ok,
        f"power-vs-dense gap {worst_pd:.3e} over {count} matrices; unit-norm gap {worst_unit:.3e}",
    )
