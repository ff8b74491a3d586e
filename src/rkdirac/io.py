"""JSON formats for functions and operator specifications.

The loaders take parsed JSON values; the CLI reads the files.  A nested
function or operator is written inline: a string in its place is an error,
never a file name.  Function values are either cylinder-valued::

    {"depth": 2, "values": [1.0, 0.0, 0.0, 0.0]}

or Haar-valued::

    {"haar": {"eps0": 0.0, "eps1": 0.0, "words": {"01": 1.0}}}

Operator values carry a "kind" tag::

    {"kind": "ruelle"} | {"kind": "koopman"} | {"kind": "identity"}
    {"kind": "mult", "f": <function>} | {"kind": "proj", "psi": <function>}
    {"kind": "haar_proj", "w": "011"} | {"kind": "condexp", "n": 2}
    {"kind": "kernel_proj"} | {"kind": "adjoint", "op": <operator>}
    {"kind": "compose", "ops": [...]} | {"kind": "sum", "ops": [...], "weights": [...]}

"condexp" and "kernel_proj" load as the composition K^n L^n and the sum
I - K L, so ``operator_to_json`` writes them back as "compose" and "sum".
"""

from __future__ import annotations

import numpy as np

from .dyadic import DyadicFunction, from_haar, haar_function, haar_slot, require_depth
from .transfer import (
    Adjoint,
    CondExp,
    Compose,
    KernelProj,
    Koopman,
    Mult,
    OperatorSpec,
    Proj,
    Ruelle,
    Sum,
)
from .words import EPS0, EPS1, Word


def _integer(value, what: str) -> int:
    """int(value) for 3, 3.0 or "3"; a ValueError quoting value for 1.7 or true."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def load_function(obj) -> DyadicFunction:
    """The function a parsed JSON value describes; a wrong-typed field raises ValueError."""
    if not isinstance(obj, dict) or not ("haar" in obj or ("depth" in obj and "values" in obj)):
        raise ValueError("a function is an inline object with either 'haar' or 'depth'+'values'")
    try:
        if "haar" in obj:
            spec = obj["haar"]
            words = {Word.from_string(k): float(v) for k, v in spec.get("words", {}).items()}
            depth = max([1] + [w.length + 1 for w in words])
            require_depth(depth)  # before allocating 2**depth slots
            h = np.zeros(1 << depth)
            h[:2] = float(spec.get("eps0", 0.0)), float(spec.get("eps1", 0.0))
            for w, b in words.items():
                h[haar_slot(w)] = b
            return from_haar(h)
        return DyadicFunction(_integer(obj["depth"], "depth"), obj["values"])
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed function: {exc}") from None


def function_to_json(f: DyadicFunction) -> dict:
    return {"depth": f.depth, "values": [float(v) for v in f.values]}


def load_operator(obj) -> OperatorSpec:
    """The operator a parsed JSON value describes; a wrong-typed field raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"an operator is an inline object with a 'kind', got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "ruelle":
            return Ruelle()
        if kind == "koopman":
            return Koopman()
        if kind == "identity":
            return Compose(())
        if kind == "mult":
            return Mult(load_function(obj["f"]))
        if kind == "proj":
            return Proj(load_function(obj["psi"]))
        if kind == "haar_proj":
            w = obj["w"]
            return Proj(haar_function({"eps0": EPS0, "eps1": EPS1}.get(w) or Word.from_string(w)))
        if kind == "condexp":
            return CondExp(_integer(obj["n"], "condexp order n"))
        if kind == "kernel_proj":
            return KernelProj()
        if kind == "adjoint":
            return Adjoint(load_operator(obj["op"]))
        if kind == "compose":
            return Compose(tuple(load_operator(o) for o in obj["ops"]))
        if kind == "sum":
            return Sum(tuple(load_operator(o) for o in obj["ops"]), obj.get("weights", ()))
    except TypeError as exc:
        raise ValueError(f"malformed operator: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"operator kind {kind!r} is missing the field {exc.args[0]!r}") from None
    raise ValueError(f"unknown operator kind {kind!r}")


def operator_to_json(op: OperatorSpec) -> dict:
    if isinstance(op, Ruelle):
        return {"kind": "ruelle"}
    if isinstance(op, Koopman):
        return {"kind": "koopman"}
    if isinstance(op, Mult):
        return {"kind": "mult", "f": function_to_json(op.f)}
    if isinstance(op, Proj):
        return {"kind": "proj", "psi": function_to_json(op.psi)}
    if isinstance(op, Adjoint):
        return {"kind": "adjoint", "op": operator_to_json(op.inner_op)}
    if isinstance(op, Compose):
        if not op.ops:
            return {"kind": "identity"}
        return {"kind": "compose", "ops": [operator_to_json(o) for o in op.ops]}
    if isinstance(op, Sum):
        return {
            "kind": "sum",
            "ops": [operator_to_json(o) for o in op.ops],
            "weights": list(op.weights),
        }
    raise ValueError(f"cannot serialize operator {op!r}")
