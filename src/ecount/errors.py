"""Exception types shared across the package."""

from __future__ import annotations

from . import _LAYERS

__all__ = [*_LAYERS["errors"]]


class DomainError(ValueError):
    """An argument violated a documented precondition."""


class PrecisionCapError(RuntimeError):
    """Adaptive refinement hit the precision cap before deciding."""


class InvariantViolation(RuntimeError):
    """A cross-route identity or ordering that must hold did not."""
