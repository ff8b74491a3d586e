"""Outside-in tracing of the ``rkdirac`` modules for the benchmark's traced runs.

Nothing under ``src/`` knows about tracing: a :class:`Tracer` replaces the
public functions and methods listed in :data:`BOUNDARIES` with wrappers, in
every ``rkdirac`` module namespace (and module-level registry dict) that
binds them, and puts the originals back on exit.

Three kinds of boundary:

* ``span``  -- a timed span (name, start, end, parent) kept in memory;
* ``hot``   -- a boundary too hot for a span record (``DyadicFunction``
  construction): a count plus time, charged to the enclosing span so that
  self times still add up;
* ``count`` -- a count only.

A span's self time is its duration minus the time covered by its child spans
and by hot calls made directly inside it.  A boundary that cannot be found
(say, after a rename) is reported by name, and the metrics that depend on it
are left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A span record: [name, start, end, parent index or -1, hot seconds inside].
Span = list

Hook = Callable[["Tracer", tuple, dict, object, Optional[Span]], None]


@dataclass(frozen=True)
class Boundary:
    name: str  # span name (or counter prefix) it records under
    module: str
    qualname: str  # "fn" or "Class.method"
    metrics: Tuple[str, ...]  # per-layer metrics that need this boundary
    kind: str = "span"  # "span" | "hot" | "count"
    hook: Optional[Hook] = None


# ---------------------------------------------------------------------------
# Hooks: computed quantities, read from arguments and results only.


def _shape(m) -> Tuple[int, int]:
    a = getattr(m, "matrix", m)
    return tuple(a.shape)


def _norm_hook(tr: "Tracer", args, kwargs, est, rec) -> None:
    """Classify an operator_norm call from its NormEstimate."""
    rows, cols = _shape(args[0] if args else kwargs["m"])
    tr.add("spectra.matrix_bytes", 8 * rows * cols)
    if est.method == "dense" and est.iterations == 0:
        tr.add("spectra.dense.calls")
    else:
        tr.add("spectra.power.calls")
        tr.add("spectra.power.iters", est.iterations)
        tr.add("spectra.matvec_flops", 4 * rows * cols * est.iterations)  # two mat-vecs per Gram step
        if est.method == "dense":
            rec[0] = "spectra.fallback"
    if not est.converged:
        tr.add("spectra.nonconverged.calls")


def _assemble_hook(tr, args, kwargs, result, rec) -> None:
    tr.add("transfer.assemble.columns", result.matrix.shape[1])
    tr.add("transfer.assemble.bytes", result.matrix.nbytes)


def _apply_bytes_hook(tr, args, kwargs, result, rec) -> None:
    moved = result.values.nbytes
    for a in args:
        values = getattr(a, "values", None)
        if values is not None:
            moved += values.nbytes
    tr.add("transfer.apply.bytes", moved)


def _suite_hook(tr, args, kwargs, result, rec) -> None:
    tr.add("suites.checks", len(result))


def _construct_hook(tr, args, kwargs, result, rec) -> None:
    tr.add("dyadic.construct.bytes", args[0].values.nbytes)


# ---------------------------------------------------------------------------
# The boundaries, by module.

SUITE_FUNCTIONS = {
    "adjudication": "run_adjudication",
    "basis": "run_basis",
    "boson": "run_boson",
    "dirac-condexp": "run_dirac_condexp",
    "dirac-mult": "run_dirac_mult",
    "dirac-projections": "run_dirac_projections",
    "fermion": "run_fermion",
    "transfer": "run_transfer",
    "wold": "run_wold",
}

LEAF_APPLIES = {
    "ruelle": "ruelle_apply",
    "koopman": "koopman_apply",
    "mult": "mult_apply",
    "proj": "projection_apply",
    "condexp": "cond_expectation",
    "kernel_proj": "kernel_projection",
}
COMPOSITE_APPLIES = {"compose": "Compose.apply", "sum": "Sum.apply", "adjoint": "Adjoint.apply"}

BOSON_FUNCTIONS = ("creation", "annihilation", "number_apply", "ccr_defect", "car_anticommutator", "chain_shift_check")
FORMULAS_FUNCTIONS = (
    "koopman_overlap_from_coeffs", "koopman_overlap", "overlap_surface", "surface_stationary_value",
    "surface_max_scan", "projection_sq_expression", "ruelle_sq_expression", "commutator_image_sq",
    "coefficient_image_sq", "coefficient_image_sq_truncated", "projection_norm_bounds",
    "backward_rms_norm", "forward_sup", "ruelle_diff_sup", "weighted_sup_chain",
    "kolmogorov_mean_chain", "l2_sandwich_check", "projection_norm_adjudicate", "projection_span_scan",
)

_NORM_METRICS = (
    "spectra.norm.calls", "spectra.norm_s", "spectra.dense.calls", "spectra.power.calls",
    "spectra.fallback.calls", "spectra.fallback_s", "spectra.power.useful_frac", "spectra.power.iters",
    "spectra.nonconverged.calls", "spectra.matrix_bytes", "spectra.matvec_flops",
)


def _boundaries() -> List[Boundary]:
    B = Boundary
    out = [
        B("cli.main", "rkdirac.cli", "main", ("cli.main.calls", "cli.self_s")),
        B("cli.read", "rkdirac.cli", "load_operator_envelope", ("cli.read_s",)),
        B("io.load", "rkdirac.io", "load_function", ("io.load.calls", "io.load_s")),
        B("io.load", "rkdirac.io", "load_operator", ("io.load.calls", "io.load_s")),
        B("dirac.block_norms", "rkdirac.dirac", "block_norms", ("dirac.block_norms.calls", "dirac.block_norms_s")),
        B("spectra.norm", "rkdirac.spectra", "operator_norm", _NORM_METRICS, hook=_norm_hook),
        B("spectra.sweep", "rkdirac.spectra", "depth_sweep", ("spectra.sweep.calls", "spectra.sweep_s")),
        B("transfer.assemble", "rkdirac.transfer", "assemble",
          ("transfer.assemble.calls", "transfer.assemble_s", "transfer.assemble.columns", "transfer.assemble.bytes"),
          hook=_assemble_hook),
        B("dyadic.construct", "rkdirac.dyadic", "DyadicFunction.__init__",
          ("dyadic.construct.calls", "dyadic.construct.bytes", "dyadic.construct_s"), kind="hot", hook=_construct_hook),
        B("dyadic.refine", "rkdirac.dyadic", "refine", ("dyadic.refine.calls",), kind="count"),
        B("words.word", "rkdirac.words", "Word.__init__", ("words.word.calls",), kind="count"),
    ]
    for suite, fn in SUITE_FUNCTIONS.items():
        out.append(B(f"suites.{suite}", "rkdirac.suites", fn, (f"suites.{suite}_s", "suites.checks"), hook=_suite_hook))
    for kind, fn in LEAF_APPLIES.items():
        metrics = (f"transfer.apply.{kind}.calls", f"transfer.apply.{kind}_s", "transfer.apply.bytes")
        out.append(B(f"transfer.apply.{kind}", "rkdirac.transfer", fn, metrics, hook=_apply_bytes_hook))
    for kind, qual in COMPOSITE_APPLIES.items():
        out.append(B(f"transfer.apply.{kind}", "rkdirac.transfer", qual, (f"transfer.apply.{kind}.calls", f"transfer.apply.{kind}_s")))
    for fn in ("to_haar", "from_haar", "haar_function"):
        out.append(B("dyadic.haar", "rkdirac.dyadic", fn, ("dyadic.haar.calls",), kind="count"))
    out += [B("boson", "rkdirac.boson", fn, ("boson.calls", "boson_s")) for fn in BOSON_FUNCTIONS]
    out += [B("formulas", "rkdirac.formulas", fn, ("formulas.calls", "formulas_s")) for fn in FORMULAS_FUNCTIONS]
    return out


BOUNDARIES: Tuple[Boundary, ...] = tuple(_boundaries())


# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """Per span name: (calls, self seconds).

    Self time is a span's duration minus its children's durations and the hot
    time recorded directly inside it.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, Tuple[int, float]] = {}
    for i, (name, start, end, _, hot) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i] - hot)
    return out


class Tracer:
    """Installs the boundary wrappers on entry and restores the originals on exit."""

    def __init__(self, boundaries: Iterable[Boundary] = BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.hot_s: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def absent(self) -> set:
        """Metrics that depend on a boundary this tracer could not find."""
        return {m for b in self.boundaries if f"{b.module}.{b.qualname}" in self.missing for m in b.metrics}

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.hot_s.clear()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.missing = []
        try:
            for b in self.boundaries:
                self._install(b)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _install(self, b: Boundary) -> None:
        try:
            module = importlib.import_module(b.module)
        except ImportError:
            module = None
        owner_name, _, attr = b.qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{b.module}.{b.qualname}")
            return
        wrapper = self._wrap(b, original)
        if owner_name:  # a method: the class attribute is the only binding
            self._patch(owner, attr, wrapper)
            return
        for mod in [m for n, m in sys.modules.items() if n == "rkdirac" or n.startswith("rkdirac.")]:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patch(mod, key, wrapper)
                elif isinstance(value, dict):  # registries such as suites.SUITES
                    for k, v in list(value.items()):
                        if v is original:
                            self._patch(value, k, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, wrapper)

    def _wrap(self, b: Boundary, fn):
        spans, stack, counters, hot_s = self.spans, self._stack, self.counters, self.hot_s
        perf, name, hook, tracer = time.perf_counter, b.name, b.hook, self

        if b.kind == "count":
            calls = name + ".calls"

            def counted(*args, **kwargs):
                counters[calls] += 1
                return fn(*args, **kwargs)

            return counted

        if b.kind == "hot":
            calls = name + ".calls"

            def hot(*args, **kwargs):
                t0 = perf()
                result = fn(*args, **kwargs)
                dt = perf() - t0
                counters[calls] += 1
                hot_s[name] += dt
                if stack:
                    spans[stack[-1]][4] += dt
                if hook is not None:
                    hook(tracer, args, kwargs, result, None)
                return result

            return hot

        def spanned(*args, **kwargs):
            rec = [name, perf(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result, rec)
            return result

        return spanned


# ---------------------------------------------------------------------------
# Per-layer metrics.


class TraceTotals:
    """Per-layer sums over the traced ops of one run."""

    def __init__(self):
        self.ops = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.hot_s: Dict[str, float] = defaultdict(float)
        self.unattributed_s = 0.0

    def add_op(self, tracer: Tracer, op_wall: float) -> None:
        """Fold one traced op's spans into the totals and clear the tracer."""
        attributed = sum(tracer.hot_s.values())
        for name, (calls, self_s) in self_times(tracer.spans).items():
            self.calls[name] += calls
            self.self_s[name] += self_s
            attributed += self_s
        for key, value in tracer.counters.items():
            self.counters[key] += value
        for key, value in tracer.hot_s.items():
            self.hot_s[key] += value
        self.unattributed_s += op_wall - attributed
        self.ops += 1
        tracer.reset()

    def metrics(self, absent: set, overhead_frac: float) -> Dict[str, float]:
        """Per-op averages, named as in BENCHMARK.json; absent where a boundary is missing."""
        n = max(self.ops, 1)
        calls = lambda name: self.calls.get(name, 0) / n
        self_s = lambda name: self.self_s.get(name, 0.0) / n
        count = lambda key: self.counters.get(key, 0.0) / n
        power = self.counters.get("spectra.power.calls", 0.0)
        fallback = self.calls.get("spectra.fallback", 0)
        m = {
            "cli.main.calls": calls("cli.main"),
            "cli.self_s": self_s("cli.main"),
            "cli.read_s": self_s("cli.read"),
            "cli.out_bytes": count("cli.out_bytes"),
            "io.load.calls": calls("io.load"),
            "io.load_s": self_s("io.load"),
            "suites.checks": count("suites.checks"),
            "dirac.block_norms.calls": calls("dirac.block_norms"),
            "dirac.block_norms_s": self_s("dirac.block_norms"),
            "spectra.norm.calls": calls("spectra.norm") + calls("spectra.fallback"),
            "spectra.norm_s": self_s("spectra.norm"),
            "spectra.dense.calls": count("spectra.dense.calls"),
            "spectra.power.calls": count("spectra.power.calls"),
            "spectra.fallback.calls": calls("spectra.fallback"),
            "spectra.fallback_s": self_s("spectra.fallback"),
            "spectra.power.useful_frac": (power - fallback) / power if power else 0.0,
            "spectra.power.iters": count("spectra.power.iters"),
            "spectra.nonconverged.calls": count("spectra.nonconverged.calls"),
            "spectra.matrix_bytes": count("spectra.matrix_bytes"),
            "spectra.matvec_flops": count("spectra.matvec_flops"),
            "spectra.sweep.calls": calls("spectra.sweep"),
            "spectra.sweep_s": self_s("spectra.sweep"),
            "transfer.assemble.calls": calls("transfer.assemble"),
            "transfer.assemble_s": self_s("transfer.assemble"),
            "transfer.assemble.columns": count("transfer.assemble.columns"),
            "transfer.assemble.bytes": count("transfer.assemble.bytes"),
            "transfer.apply.bytes": count("transfer.apply.bytes"),
            "dyadic.construct.calls": count("dyadic.construct.calls"),
            "dyadic.construct.bytes": count("dyadic.construct.bytes"),
            "dyadic.construct_s": self.hot_s.get("dyadic.construct", 0.0) / n,
            "dyadic.refine.calls": count("dyadic.refine.calls"),
            "dyadic.haar.calls": count("dyadic.haar.calls"),
            "boson.calls": calls("boson"),
            "boson_s": self_s("boson"),
            "formulas.calls": calls("formulas"),
            "formulas_s": self_s("formulas"),
            "words.word.calls": count("words.word.calls"),
            "trace.overhead_frac": overhead_frac,
            "trace.unattributed_s": self.unattributed_s / n,
        }
        for suite in SUITE_FUNCTIONS:
            m[f"suites.{suite}_s"] = self_s(f"suites.{suite}")
        for kind in list(LEAF_APPLIES) + list(COMPOSITE_APPLIES):
            m[f"transfer.apply.{kind}.calls"] = calls(f"transfer.apply.{kind}")
            m[f"transfer.apply.{kind}_s"] = self_s(f"transfer.apply.{kind}")
        return {k: v for k, v in m.items() if k not in absent}

    def span_table(self) -> Dict[str, dict]:
        """Per span name: calls and self seconds over the whole run, for the trace file."""
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name]} for name in sorted(self.calls)}


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("flops"):
        return "flop"
    if metric.endswith("frac"):
        return "ratio"
    return "count"
