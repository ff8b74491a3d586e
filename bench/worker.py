"""One benchmark process: set up a workload, then (unless --setup-only) run its ops.

Prints ``ready`` on stdout when set-up is done (imports plus seeded input
generation); the parent times process start to that line as one set-up
sample.  A measuring worker then runs ops through ``rkdirac.cli.main``
in-process, in a closed loop, for the given number of seconds, and prints
its results as one JSON line.  With --trace 1 it alternates untraced and
traced ops: the traced ones give the per-layer metrics, the pairs give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rkdirac  # noqa: E402
from rkdirac import cli  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


REFERENCE_ITERS = 600_000  # about 0.045 s on a quiet 2-vCPU Xeon VM, 0.08 s when slowed


def reference_s() -> float:
    """Wall seconds of a fixed, allocation-free Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_op(case: wl.Case, refs=None):
    """Run one op; returns (wall seconds, cpu seconds, failure reason or None).

    With a list for refs, the reference loop is timed into it before the
    op's first CLI call and after each call, outside the op's timings.
    """
    for out in case.outputs:
        out.unlink(missing_ok=True)
    if refs is not None:
        refs.append(reference_s())
    codes, wall, cpu = [], 0.0, 0.0
    for argv in case.calls:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            traceback.print_exc()
            return wall + time.perf_counter() - t0, cpu + _cpu_s() - cpu0, "raised"
        wall, cpu = wall + time.perf_counter() - t0, cpu + _cpu_s() - cpu0
        if refs is not None:
            refs.append(reference_s())
    try:
        reason = case.oracle(codes)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason is not None:
        print(f"{case.name}: op failed its oracle: {reason}", file=sys.stderr)
    return wall, cpu, reason


def measure(case: wl.Case, seconds: float) -> dict:
    walls, cpus, reasons, rels, ref_all = [], [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        refs = []
        wall, cpu, reason = run_op(case, refs)
        walls.append(wall)
        cpus.append(cpu)
        reasons.append(reason)
        # A failed op counts as missing any latency, so it ranks as infinitely slow.
        rels.append(wall / statistics.fmean(refs) if reason is None else math.inf)
        ref_all.extend(refs)
    p50 = statistics.median(w if r is None else math.inf for w, r in zip(walls, reasons))
    rel = statistics.median(rels)
    passed = reasons.count(None)
    return {
        "attempted": len(walls),
        "failed": len(walls) - passed,
        # Bounded metrics.  Neighbours on a shared host slow all work (by up
        # to 1.6x, for seconds to minutes), so op seconds drift with the host;
        # op time over the reference loop's time, taken around each CLI call
        # of the same op, drifts much less and still moves with the program.
        "metrics": {
            "op_p50_rel": rel if rel != math.inf else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        # Printed by name, not bounded: they move with the host's speed.
        "info": {
            "op_p50_s": p50 if p50 != math.inf else None,
            "ops_per_s": passed / sum(walls),
            "cpu_per_op_s": statistics.median(cpus),
            "ref_p50_s": statistics.median(ref_all),
        },
    }


def measure_traced(case: wl.Case, seconds: float, trace_file: Path) -> dict:
    totals = tr.TraceTotals()
    tracer = tr.Tracer()
    plain, traced, failed, attempted = [], [], 0, 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, _, reason = run_op(case)
        plain.append(wall)
        with tracer:
            t_wall, _, t_reason = run_op(case)
        for out in case.outputs:
            if out.exists():
                tracer.add("cli.out_bytes", out.stat().st_size)
        totals.add_op(tracer, t_wall)
        traced.append(t_wall)
        attempted += 2
        failed += (reason is not None) + (t_reason is not None)
    for name in tracer.missing:
        print(f"trace: boundary not found: {name}", file=sys.stderr)
    base = statistics.median(plain)
    metrics = totals.metrics(tracer.absent(), (statistics.median(traced) - base) / base)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"env": environment(), "missing": tracer.missing, "traced_ops": totals.ops,
                   "metrics": metrics, "spans": totals.span_table()}, fh, indent=1)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Environment record.


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """OpenBLAS's own thread count, from the library numpy already loaded."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1 << 20),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    if not Path(rkdirac.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"rkdirac imported from {rkdirac.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    case = wl.WORKLOADS[args.workload](args.seed, work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        result = measure_traced(case, args.seconds, trace_file)
    else:
        result = measure(case, args.seconds)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
