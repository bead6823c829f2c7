"""Exception types shared across the package, and its one refusal rule:
every layer names values in its messages by `_name`, so a refusal is
its typed error in one short line whatever the argument's size, and
checks its preconditions by `_require`, which formats only to refuse.
"""

from __future__ import annotations

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
# digits) are written out in a message, wider ones by their bit lengths.
_NAME_BITS = 256


def _name(x) -> str:
    """x, an int, a Fraction or a (numerator, denominator) pair in lowest
    terms, as str(Fraction) writes it, or by its bit lengths when either
    part is wider than _NAME_BITS.  Any other value is str(x)."""
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
        return f"a value of {num_bits} bits"
    return f"a rational with a {num_bits}-bit numerator and a {den_bits}-bit denominator"


def _require(cond: bool, template: str, *args: object) -> None:
    """DomainError(template with each of args put in by `_name`) unless
    cond; the message is made only when the check fails."""
    if not cond:
        raise DomainError(template.format(*map(_name, args)))
