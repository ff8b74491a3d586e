"""JSON file formats for functions and operator specifications.

Function files are either cylinder-valued::

    {"depth": 2, "values": [1.0, 0.0, 0.0, 0.0]}

or Haar-valued::

    {"haar": {"eps0": 0.0, "eps1": 0.0, "words": {"01": 1.0}}}

Operator files carry a "kind" tag::

    {"kind": "ruelle"} | {"kind": "koopman"} | {"kind": "identity"}
    {"kind": "mult", "f": <function>} | {"kind": "proj", "psi": <function>}
    {"kind": "haar_proj", "w": "011"} | {"kind": "condexp", "n": 2}
    {"kind": "kernel_proj"} | {"kind": "adjoint", "op": <operator>}
    {"kind": "compose", "ops": [...]} | {"kind": "sum", "ops": [...], "weights": [...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .dyadic import DyadicFunction, HaarCoeffs, from_haar, haar_function
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

JsonLike = Union[dict, str, Path]


def _as_obj(source: JsonLike) -> dict:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return source


def load_function(source: JsonLike) -> DyadicFunction:
    obj = _as_obj(source)
    if "haar" in obj:
        spec = obj["haar"]
        words = {Word.from_string(k): float(v) for k, v in spec.get("words", {}).items()}
        h = HaarCoeffs(
            eps0=float(spec.get("eps0", 0.0)),
            eps1=float(spec.get("eps1", 0.0)),
            coeffs=words,
        )
        return from_haar(h)
    if "depth" in obj and "values" in obj:
        return DyadicFunction(int(obj["depth"]), obj["values"])
    raise ValueError("function object needs either 'haar' or 'depth'+'values'")


def function_to_json(f: DyadicFunction) -> dict:
    return {"depth": f.depth, "values": [float(v) for v in f.values]}


def load_operator(source: JsonLike) -> OperatorSpec:
    obj = _as_obj(source)
    kind = obj.get("kind")
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
        text = obj["w"]
        if text == "eps0":
            return Proj(haar_function(EPS0))
        if text == "eps1":
            return Proj(haar_function(EPS1))
        w = Word.from_string(text)
        if w.length == 0:
            raise ValueError("haar_proj needs a nonempty word, or 'eps0'/'eps1'")
        return Proj(haar_function(w))
    if kind == "condexp":
        return CondExp(int(obj["n"]))
    if kind == "kernel_proj":
        return KernelProj()
    if kind == "adjoint":
        return Adjoint(load_operator(obj["op"]))
    if kind == "compose":
        return Compose(tuple(load_operator(o) for o in obj["ops"]))
    if kind == "sum":
        return Sum(tuple(load_operator(o) for o in obj["ops"]), obj.get("weights", ()))
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
    if isinstance(op, CondExp):
        return {"kind": "condexp", "n": op.n}
    if isinstance(op, KernelProj):
        return {"kind": "kernel_proj"}
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
