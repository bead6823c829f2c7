"""Exception types shared across the package, and its one refusal rule:
a message names the public call and every number in it by `_name`, the
one signed namer, so it is one short line whatever the argument's size,
and is made only when a check refuses, as `_require` does.
Its one size rule, `_size`: a call that takes n or m checks it first, in
its own name, and accepts an int from its least value to sys.maxsize.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import _LAYERS

__all__ = [*_LAYERS["errors"]]


class DomainError(ValueError):
    """An argument violated a documented precondition."""


class PrecisionCapError(RuntimeError):
    """Adaptive refinement hit the precision cap before deciding."""


class InvariantViolation(RuntimeError):
    """A cross-route identity or ordering that must hold did not."""


# A numerator and denominator of at most this many bits (77 decimal
# digits) are written out in a message, wider ones by their size.
_NAME_BITS = 256


def _name(x) -> str:
    """x, an int, a Fraction or a (numerator, denominator) pair in lowest
    terms, as str(Fraction) writes it up to _NAME_BITS bits; past them an
    int of k + 1 bits reads "at least 2^k" or "at most -2^k", a rational
    "a [negative] rational with" its bit lengths.  Else str(x)."""
    if type(x) is tuple:
        num, den = x
    elif isinstance(x, (int, Fraction)):
        num, den = x.numerator, x.denominator
    else:
        return str(x)
    num_bits, den_bits = num.bit_length(), den.bit_length()
    if num_bits <= _NAME_BITS and den_bits <= _NAME_BITS:
        return str(num) if den == 1 else f"{num}/{den}"
    if den == 1:
        return f"at least 2^{num_bits - 1}" if num > 0 else f"at most -2^{num_bits - 1}"
    sign = "a negative" if num < 0 else "a"
    return f"{sign} rational with a {num_bits}-bit numerator and a {den_bits}-bit denominator"


def _require(cond: bool, template: str, *args: object) -> None:
    """DomainError(template with each of args put in by `_name`) unless
    cond; the message is made only when the check fails."""
    if not cond:
        raise DomainError(template.format(*map(_name, args)))


def _size(call: str, v: int, least: int, name: str = "n") -> None:
    """DomainError "<call> requires <name> >= <least>" or "<= sys.maxsize",
    with v named by `_name`, unless least <= v <= sys.maxsize; the
    message is made only when the check fails."""
    if not least <= v <= sys.maxsize:
        bound = f">= {least}" if v < least else f"<= {sys.maxsize}"
        raise DomainError(f"{call} requires {name} {bound} (got {_name(v)})")
