"""The rkdirac benchmark: one seeded workload, measured end to end or traced per layer.

    python3 bench/run.py --workload verify-d8 --seed 0 --seconds 15 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
verify-d8, norm-d12, sweep-mult.  Every op goes through the
public CLI entry point ``rkdirac.cli.main`` in-process, with its inputs and
outputs in a scratch directory inside the checkout, and every op's outputs
are checked against closed forms computed with numpy.

One closed-loop client, one process, BLAS at its default thread count.
``setup_s`` is the median over 5 to 11 fresh processes of the time
from process start through imports and seeded input generation; one of them
goes on to run the ops, half the others start before it and half after.
With --trace 0 the last stdout line holds the bounded end-to-end metrics
(``op_p50_rel``, ``peak_rss_mb``, ``setup_s``), with --trace 1 the
per-layer ones (and a per-span table is written to .bench_out/).
``op_p50_s``, ``ops_per_s``, ``cpu_per_op_s``, ``ref_p50_s`` and
``fail_frac`` are printed by name above it but not bounded; the result's
``failed``/``attempted`` carry ``fail_frac`` too.

Exits with 2, printing no result, when the checkout has no ``src/rkdirac``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = (5, 11)  # fresh processes timed per run: at least, at most
SETUP_BUDGET_S = 8.0  # no set-up-only process is started past this much set-up time
DEADLINE_S = 170.0  # the whole run; a worker still alive then is killed

UNITS = {
    "setup_s": "s", "op_p50_rel": "ref", "peak_rss_mb": "MB",
    "op_p50_s": "s", "ops_per_s": "1/s", "cpu_per_op_s": "s", "ref_p50_s": "s",
}


def run_worker(args, work: Path, setup_only: bool, deadline: float):
    """Run one worker; returns (set-up seconds, last stdout line, exit code)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        setup_s, last = None, None
        for line in proc.stdout:
            if setup_s is None and line.strip() == "ready":
                setup_s = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return setup_s, last, code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rkdirac" / "__init__.py").is_file():
        print(f"error: no rkdirac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated run still kills and reaps its worker (see run_worker).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []

    def sample_setups(count: int) -> bool:
        """Time up to count set-up-only processes; False if one of them failed."""
        for _ in range(count):
            if len(setups) >= lo and sum(setups) > SETUP_BUDGET_S:
                break
            setup_s, _, code = run_worker(args, scratch / f"setup{len(setups)}", True, deadline)
            if code != 0 or setup_s is None:
                print(f"error: set-up worker exited with {code}", file=sys.stderr)
                return False
            setups.append(setup_s)
        return True

    try:
        lo, hi = SETUP_SAMPLES if not args.trace else (1, 1)  # a traced run reports no setup_s
        # Half the set-up samples come before the measuring worker and half
        # after it, so that their median spans the whole run, not one moment.
        if not sample_setups((hi - 1) // 2):
            return 2
        setup_s, last, code = run_worker(args, scratch / "run", False, deadline)
        if setup_s is not None:
            setups.append(setup_s)
        if code == 0 and not sample_setups(hi - len(setups)):
            return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run's scratch is still there
            pass
    if code != 0 or setup_s is None or last is None:
        print(f"error: measuring worker exited with {code}", file=sys.stderr)
        return 2
    result = json.loads(last)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    info = result.get("info", {})
    units = {name: UNITS.get(name) or unit_of(name) for name in [*metrics, *info]}
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units[name]}")
    for name in sorted(info):
        print(f"{name} {info[name]} {units[name]} (not bounded)")
    print(f"fail_frac {result['failed'] / result['attempted']} 1 ({result['failed']} of {result['attempted']} ops)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
