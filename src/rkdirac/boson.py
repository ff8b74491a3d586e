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

from typing import Optional

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


def chain_shift_check(n: int, length: Optional[int], cols: slice = slice(None)) -> dict:
    """The largest l2 error of each ladder identity over the chain states
    |n, w> of ``chain_batch(n, length, cols)``, the words w of one length
    (length None means the plain level state); the suites judge the errors.

    Identities:
      raise: B+ |n, w> = 2**-0.5 |n+1, w>
      lower: B |n, w> = 2**-0.5 |n-1, w> for n >= 1; B |0, w> = 0 for w a word
      power: (B+)^n |0, w> = 2**(-n/2) |n, w>
    For the plain level state and n = 0 the lowering identity is vacuous
    (nothing below the vacuum) and has no entry in ``errors``.
    """
    state = chain_batch(n, length, cols)
    errors = {"raise": _col_dist(CREATION.apply_batch(state), SCALE * chain_batch(n + 1, length, cols))}
    if n >= 1:
        errors["lower"] = _col_dist(ANNIHILATION.apply_batch(state), SCALE * chain_batch(n - 1, length, cols))
    elif length is not None:
        errors["lower"] = _col_dist(ANNIHILATION.apply_batch(state), 0.0)
    powered = chain_batch(0, length, cols)
    for _ in range(n):
        powered = CREATION.apply_batch(powered)
    errors["power"] = _col_dist(powered, 2.0 ** (-n / 2.0) * state)
    return {
        "n": n,
        "length": "*" if length is None else length,
        "errors": {key: float(err.max(initial=0.0)) for key, err in errors.items()},
    }
