"""Seeded inputs and engine-independent oracles for the benchmark workloads.

Each workload turns a seed into input files plus the argv lists of one op
(``rkdirac`` only ever sees those files and argv), and checks each op's
outputs against closed forms computed here with plain numpy.  Nothing in
this module imports ``rkdirac``.

Conventions shared with the engine (and nothing else): a depth-d function is
a vector of 2**d cylinder values indexed MSB-first, so the children of
cylinder i are 2i and 2i+1, the shift drops the leading bit, and the inner
product is the mean of the pointwise product.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

TOL = 1e-9  # the acceptance tolerance for norm values

VERIFY_CHECKS = Path(__file__).with_name("verify_d8_checks.json")

NORM_DEPTH = 12
NORM_PAIRS = 3
SWEEP_DEPTHS = (7, 11)
# The sweep batch is fixed: the first three seeds of the base generator.  At
# the seed commit two members converge on the power path at depth 11 and one
# stalls and falls back to a dense SVD.  Whether the power path stalls hangs
# on rounding (its stagnation test is at 1e-16), so the run seed only scales
# each member by a sign and a power of two: both are exact in floating point
# and leave the solver's trajectory bit for bit the same, so the mode mix --
# and the op time -- does not depend on the run seed.
SWEEP_BASE_SEEDS = (0, 1, 2)
SWEEP_MULT_DEPTH = 6


@dataclass
class Case:
    """One workload instance: the argv of each CLI call in one op, and its oracle."""

    name: str
    calls: List[List[str]]
    outputs: List[Path]
    oracle: Callable[[List[int]], Optional[str]]  # exit codes -> failure reason or None


# ---------------------------------------------------------------------------
# Closed forms (numpy only).


def koopman_overlap(psi: np.ndarray) -> float:
    """c = <K psi, psi>: K psi repeats psi over the new leading bit."""
    return float(np.mean(np.concatenate([psi, psi]) * np.repeat(psi, 2)))


def projection_commutator_norm(psi: np.ndarray) -> float:
    """||[D, pi(proj_psi)]|| = sqrt(1 - c^2) for a unit vector psi."""
    c = koopman_overlap(psi)
    return math.sqrt(max(1.0 - c * c, 0.0))


def mult_commutator_norm(f: np.ndarray) -> float:
    """Cylinder RMS sup: max over x of sqrt(((f(x)-f(0x))^2 + (f(x)-f(1x))^2) / 2)."""
    k = int(f.size).bit_length() - 1
    idx = np.arange(f.size)
    tail = idx >> 1  # the first k-1 symbols of x
    f0 = f[tail]
    f1 = f[(1 << (k - 1)) | tail]
    return math.sqrt(float(np.max(((f - f0) ** 2 + (f - f1) ** 2) / 2.0)))


def haar_values(word: str) -> np.ndarray:
    """The orthonormal Haar element e_w at depth len(w) + 1."""
    n = len(word)
    vals = np.zeros(1 << (n + 1))
    i = int(word, 2)
    vals[2 * i] = -(2.0 ** (n / 2.0))
    vals[2 * i + 1] = 2.0 ** (n / 2.0)
    return vals


def refine(values: np.ndarray, depth: int) -> np.ndarray:
    return np.repeat(values, (1 << depth) // values.size)


def _function_json(values: np.ndarray) -> dict:
    return {"depth": int(values.size).bit_length() - 1, "values": values.tolist()}


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _exit_failure(codes: List[int]) -> Optional[str]:
    return None if all(c == 0 for c in codes) else f"exit codes {codes}"


# ---------------------------------------------------------------------------
# Workloads.


def make_verify(seed: int, work: Path) -> Case:
    out = work / "report.json"
    expected: Dict[str, str] = _read_json(VERIFY_CHECKS)
    argv = ["verify", "--suite", "all", "--depth", "8", "--seed", str(seed), "--out", str(out)]

    def oracle(codes: List[int]) -> Optional[str]:
        return _exit_failure(codes) or check_verify(_read_json(out), expected)

    return Case("verify-d8", [argv], [out], oracle)


def check_verify(report: dict, expected: Dict[str, str]) -> Optional[str]:
    got = {c["id"]: c["status"] for c in report.get("checks", [])}
    if set(got) != set(expected):
        return f"check ids differ from the seed commit's {len(expected)}: {sorted(set(got) ^ set(expected))}"
    wrong = sorted(cid for cid, status in got.items() if status != expected[cid])
    if wrong:
        return f"checks not passing: {wrong}"
    if report.get("passed") is not True:
        return "report says not passed"
    return None


def norm_psi(seed: int) -> np.ndarray:
    """A seeded unit depth-6 vector whose projection commutator has a fixed spectral shape.

    The commutator blocks of proj(psi) have rank two, and their singular
    values depend only on c = <K psi, psi> and ||L psi||.  With
    psi = sum_i alpha_i (x e_{u_i} + y e_{b_i u_i}) over words u_i of length
    4 with distinct tails, ||L psi||^2 = 1/2 and c = x y / sqrt(2), so the
    power solve takes about the same number of steps for every seed while
    the words, bits, weights and angle are all drawn from the seed.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.3, 1.2)  # c in [0.2, 0.354]
    x, y = math.cos(theta), math.sin(theta)
    tails = rng.choice(8, size=NORM_PAIRS, replace=False)
    heads = rng.integers(0, 2, size=NORM_PAIRS)
    bits = rng.integers(0, 2, size=NORM_PAIRS)
    alpha = rng.standard_normal(NORM_PAIRS)
    alpha /= np.linalg.norm(alpha)
    psi = np.zeros(1 << 6)
    for tail, head, bit, a in zip(tails, heads, bits, alpha):
        u = format((int(head) << 3) | int(tail), "04b")
        psi += a * (x * refine(haar_values(u), 6) + y * haar_values(str(bit) + u))
    return psi


def make_norm(seed: int, work: Path) -> Case:
    psi = norm_psi(seed)
    op_path, out = work / "op.json", work / "norm.json"
    _write_json(op_path, {"kind": "proj", "psi": _function_json(psi)})
    argv = ["norm", "--operator", str(op_path), "--depth", str(NORM_DEPTH), "--out", str(out)]

    @functools.cache
    def expected() -> float:
        return projection_commutator_norm(psi)

    def oracle(codes: List[int]) -> Optional[str]:
        return _exit_failure(codes) or check_norm(_read_json(out), expected())

    return Case("norm-d12", [argv], [out], oracle)


def check_norm(result: dict, expected: float) -> Optional[str]:
    if result.get("depth") != NORM_DEPTH:
        return f"depth {result.get('depth')} != {NORM_DEPTH}"
    if not abs(result["value"] - expected) <= TOL:
        return f"value {result['value']!r} != sqrt(1 - c^2) = {expected!r}"
    if not abs(result["block_upper"] - result["block_lower"]) <= TOL:
        return f"blocks differ: {result['block_upper']!r} vs {result['block_lower']!r}"
    return None


def sweep_batch(seed: int) -> List[np.ndarray]:
    """The fixed base multipliers, each times a seeded sign and power of two."""
    rng = np.random.default_rng(seed)
    batch = []
    for base_seed in SWEEP_BASE_SEEDS:
        f = np.random.default_rng(base_seed).standard_normal(1 << SWEEP_MULT_DEPTH)
        batch.append(float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.integers(-1, 2)) * f)
    return batch


def make_sweep(seed: int, work: Path) -> Case:
    batch = sweep_batch(seed)
    calls, outputs = [], []
    lo, hi = SWEEP_DEPTHS
    for i, f in enumerate(batch):
        op_path, out = work / f"mult{i}.json", work / f"sweep{i}.csv"
        _write_json(op_path, {"kind": "mult", "f": _function_json(f)})
        calls.append(["sweep", "--operator", str(op_path), "--depths", f"{lo}:{hi}", "--csv", str(out)])
        outputs.append(out)

    @functools.cache
    def expected() -> List[float]:
        return [mult_commutator_norm(f) for f in batch]

    def oracle(codes: List[int]) -> Optional[str]:
        bad = _exit_failure(codes)
        for out, value in zip(outputs, expected()):
            bad = bad or check_sweep(_read_csv(out), value)
        return bad

    return Case("sweep-mult", calls, outputs, oracle)


def _read_csv(path: Path) -> List[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(rows: List[dict], expected: float) -> Optional[str]:
    lo, hi = SWEEP_DEPTHS
    depths = [int(r["depth"]) for r in rows]
    if depths != list(range(lo, hi + 1)):
        return f"depths {depths}"
    for i, row in enumerate(rows):
        value = float(row["value"])
        if not abs(value - expected) <= TOL:
            return f"depth {row['depth']}: value {value!r} != cylinder RMS sup {expected!r}"
        if (row["plateau"] == "True") != (i > 0):
            return f"depth {row['depth']}: plateau flag {row['plateau']}"
    return None


WORKLOADS: Dict[str, Callable[[int, Path], Case]] = {
    "verify-d8": make_verify,
    "norm-d12": make_norm,
    "sweep-mult": make_sweep,
}
