"""Ladder layer: creation/annihilation pair built from the Koopman/transfer pair.

The creation operator is 2**-0.5 times the Koopman operator and the
annihilation operator is 2**-0.5 times the transfer operator.  Their
commutator is half the projection onto the kernel of the transfer operator,
so the pair satisfies a generalized commutation relation in which the defect
acts only on the kernel (weight 1/2 there, zero on every lifted level) rather
than being the identity.

The companion anticommutator 0.5 * (L K + K L) restricts to the identity on
functions that do not depend on the first coordinate and preserves integrals
in general.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .dyadic import DyadicFunction, _col_dist, chain_batch
from .transfer import Compose, Koopman, Ruelle, Sum, scaled

SCALE = 2.0 ** -0.5

# The ladder pair and its commutator [B, B+] and anticommutator {B, B+}, as
# operator specs: ``apply`` acts on one function, ``apply_batch`` on a batch.
CREATION = scaled(Koopman(), SCALE)
ANNIHILATION = scaled(Ruelle(), SCALE)
_LADDER_PRODUCTS = (Compose((ANNIHILATION, CREATION)), Compose((CREATION, ANNIHILATION)))
CCR_DEFECT = Sum(_LADDER_PRODUCTS, (1.0, -1.0))
CAR_ANTICOMMUTATOR = Sum(_LADDER_PRODUCTS, (1.0, 1.0))


def creation(f: DyadicFunction) -> DyadicFunction:
    return CREATION.apply(f)


def annihilation(f: DyadicFunction) -> DyadicFunction:
    return ANNIHILATION.apply(f)


def number_apply(f: DyadicFunction) -> DyadicFunction:
    """The number operator: creation after annihilation (0.5 * K L)."""
    return creation(annihilation(f))


def ccr_defect(f: DyadicFunction) -> DyadicFunction:
    """The commutator [B, B+] applied to f, evaluated from the ladder pair itself."""
    return CCR_DEFECT.apply(f)


def car_anticommutator(f: DyadicFunction) -> DyadicFunction:
    """The anticommutator {B, B+} applied to f: 0.5 * (L K + K L) f."""
    return CAR_ANTICOMMUTATOR.apply(f)


def chain_ladder(first: int, last: int, length: Optional[int], cols: slice = slice(None)) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
    """For each level n = first .. last, ``(n, errors)``: each boson
    identity's l2 error on every chain state |n, w> of
    ``chain_batch(n, length, cols)``, the words w of one length (length None
    means the plain level state), one entry per column.

    Identities:
      raise: B+ |n, w> = 2**-0.5 |n+1, w>
      lower: B |n, w> = 2**-0.5 |n-1, w> for n >= 1; B |0, w> = 0 for w a word
      power: (B+)^n |0, w> = 2**(-n/2) |n, w>
      number: B+ B |n, w> = |n, w> / 2 for n >= 1
      kernel: B+ B |0, w> = 0
      ccr: [B, B+] |0, w> = |0, w> / 2
    For the plain level state and n = 0 the lowering identity is vacuous
    (nothing below the vacuum) and has no entry in ``errors``.

    The states are carried from level to level: level n + 1's states are
    level n's raising target, its lowering target is level n's states, the
    power chain takes one more creation per level, and the number operator
    raises the lowered states.  Only levels n - 1, n and n + 1 and the power
    chain are held, and level n - 1 and the last power chain are let go
    before level n + 1 is built.
    """
    below = chain_batch(first - 1, length, cols) if first >= 1 else None
    state, powered = chain_batch(first, length, cols), chain_batch(0, length, cols)
    for _ in range(first):
        powered = CREATION.apply_batch(powered)
    for n in range(first, last + 1):
        lowered = ANNIHILATION.apply_batch(state)
        errors = {}
        if n >= 1:
            errors["lower"] = _col_dist(lowered, SCALE * below)
            errors["number"] = _col_dist(CREATION.apply_batch(lowered), 0.5 * state)
        else:
            if length is not None:
                errors["lower"] = _col_dist(lowered, 0.0)
            errors["kernel"] = _col_dist(CREATION.apply_batch(lowered), 0.0)
            errors["ccr"] = _col_dist(CCR_DEFECT.apply_batch(state), 0.5 * state)
        errors["power"] = _col_dist(powered, 2.0 ** (-n / 2.0) * state)
        below = lowered = None
        powered = None if n == last else CREATION.apply_batch(powered)
        above = chain_batch(n + 1, length, cols)
        errors["raise"] = _col_dist(CREATION.apply_batch(state), SCALE * above)
        yield n, errors
        below, state = state, above


def chain_shift_check(n: int, length: Optional[int], cols: slice = slice(None)) -> dict:
    """The largest l2 error of each shift identity (raise, lower and power)
    on level n: the one-level case of ``chain_ladder``; the suites judge
    the errors."""
    ((_, errors),) = chain_ladder(n, n, length, cols)
    return {
        "n": n,
        "length": "*" if length is None else length,
        "errors": {key: float(errors[key].max(initial=0.0)) for key in ("raise", "lower", "power") if key in errors},
    }
