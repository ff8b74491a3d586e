"""Command-line interface.

Commands:

* ``verify``   run a named verification suite and emit a JSON report
* ``norm``     Dirac commutator norm of an operator at a depth (solved at
  no more than its core depth)
* ``sweep``    the same norm across a depth range, as CSV
* ``connes``   state-distance lower bound from a certified operator family
* ``boson verify``    ladder and (anti)commutation identities on a grid
* ``formulas report`` closed-form adjudication report for a projection vector

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
input errors.  Report-only entries never affect the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import dirac as di
from . import formulas as fo
from . import spectra as sp
from . import suites
from .dyadic import require_depth
from .io import load_function, load_operator, operator_to_json


def _parse_depth_range(text: str) -> List[int]:
    """Parse '2:6' or '2,3,5' into depths, each end or entry checked by require_depth first; none is an error."""
    is_range = ":" in text
    ends = [int(x) for x in text.split(":", 1)] if is_range else [int(x) for x in text.split(",") if x]
    for depth in ends:
        require_depth(depth)
    depths = list(range(ends[0], ends[1] + 1)) if is_range else ends
    if not depths:
        raise ValueError(f"empty depth range {text!r}")
    return depths


def _write(text: str, out: Optional[str]) -> None:
    """Write text and a newline to the file out, or print it when out is not given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj: dict, out: Optional[str]) -> None:
    _write(json.dumps(obj, indent=2), out)


def cmd_verify(args) -> int:
    report = suites.run_suite(args.suite, depth=args.depth, seed=args.seed)
    _emit(report.to_json(), args.out)
    for check in report.failures:
        print(
            f"FAIL {check.id} [{check.ref}]: value {check.value!r}, "
            f"expected {check.expected!r} (tolerance {check.tolerance!r})",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def load_operator_envelope(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_norm(args) -> int:
    op = load_operator(load_operator_envelope(args.operator))
    result = di.commutator_norm(op, args.depth, method=args.method)
    _emit(
        {
            "value": result.value,
            "block_upper": result.upper.value,
            "block_lower": result.lower.value,
            "depth": result.depth,
            "core_depth": result.core_depth,
            "computed_at": result.computed_at,
            "diagnostics": {"upper": result.upper.diagnostics(), "lower": result.lower.diagnostics()},
        },
        args.out,
    )
    return 0


def cmd_sweep(args) -> int:
    op = load_operator(load_operator_envelope(args.operator))
    points = di.depth_sweep(op, _parse_depth_range(args.depths), method=args.method)
    lines = ["depth,value,iterations,method,converged,plateau,residual"]
    for p in points:
        lines.append(f"{p.depth},{p.value:.15g},{p.iterations},{p.method},{p.converged},{p.plateau},{p.residual:.6g}")
    _write("\n".join(lines), args.csv)
    return 0


def cmd_connes(args) -> int:
    eta = di.VectorState(load_function(load_operator_envelope(args.eta)))
    xi = di.VectorState(load_function(load_operator_envelope(args.xi)))
    family_file = load_operator_envelope(args.family)
    if not isinstance(family_file, dict) or not isinstance(family_file.get("operators"), list):
        raise ValueError("a family file needs an 'operators' list")
    # each member is solved at its chunk's solve depth; a "depth" key is ignored
    family = [load_operator(o) for o in family_file["operators"]]
    bound, witness = di.connes_lower_bound(eta, xi, family)
    _emit(
        {
            "lower_bound": bound,
            "witness_operator": operator_to_json(witness) if witness is not None else None,
        },
        args.out,
    )
    return 0


def cmd_boson_verify(args) -> int:
    boson = functools.partial(suites.run_boson, n_max=args.n_max, w_max_len=args.w_max_len, tol=args.tol)
    report = suites.run_suites("boson+fermion", {"boson": boson, "fermion": suites.run_fermion}, args.depth, args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_formulas_report(args) -> int:
    psi = load_function(load_operator_envelope(args.psi))
    adj = fo.projection_norm_adjudicate(psi, depth=args.depth)
    bounds = fo.projection_norm_bounds(psi)
    scan = fo.surface_max_scan(adj["c"])
    _emit(
        {
            "c": adj["c"],
            "numeric_norm": adj["numeric"],
            "depth": adj["depth"],
            "computed_at": adj["computed_at"],
            "coefficient_lower_bounds": bounds,
            "closed_form_candidates": {
                "linear": adj["candidate_linear"],
                "sqrt": adj["candidate_sqrt"],
                "sqrt_one_minus_c_sq": adj["candidate_sqrt_one_minus_c_sq"],
            },
            "surface_scan_max": scan["max"],
            "verdict": adj["verdict"],
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkdirac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", help="one of: " + ", ".join(sorted(suites.SUITES)) + ", all")
    p.add_argument("--depth", type=int, default=suites.DEPTH_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("norm", help="Dirac commutator norm of an operator")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--method", default="auto", choices=sp.METHODS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("sweep", help="commutator norm across depths, as CSV")
    p.add_argument("--operator", required=True)
    p.add_argument("--depths", required=True, help="range 'lo:hi' or comma list")
    p.add_argument("--method", default="auto", choices=sp.METHODS)
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("connes", help="state-distance lower bound from a certified family")
    p.add_argument("--eta", required=True, help="unit-norm state function JSON")
    p.add_argument("--xi", required=True)
    p.add_argument("--family", required=True, help='JSON {"operators": [...]}')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_connes)

    p = sub.add_parser("boson", help="ladder-layer commands")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    b = bsub.add_parser("verify", help="ladder and (anti)commutation identities")
    b.add_argument("--n-max", type=int, default=suites.N_MAX)
    b.add_argument("--w-max-len", type=int, default=suites.W_MAX_LEN)
    b.add_argument("--depth", type=int, default=suites.DEPTH_CAP)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tol", type=float, default=suites.TOL_EXACT)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_boson_verify)

    p = sub.add_parser("formulas", help="closed-form adjudication commands")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    f = fsub.add_parser("report", help="closed forms vs numeric norm for a projection vector")
    f.add_argument("--psi", required=True, help="unit-norm function JSON")
    f.add_argument("--depth", type=int, default=None)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_formulas_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept for the process."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalize other exits
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
