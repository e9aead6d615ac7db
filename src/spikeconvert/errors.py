"""Exception types shared across the package."""
from __future__ import annotations


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class EmptyInputError(ValueError):
    """An operation that needs at least one element received none."""


class NonFiniteError(ValueError):
    """A value that must be finite is NaN or infinite."""


class StepMismatchError(ValueError):
    """Two spike trains that must share a step count do not."""


class FormatError(ValueError):
    """A serialized file is malformed: bad magic, version, or truncation."""


class CalibrationError(RuntimeError):
    """A threshold selection or kernel fit could not be completed."""


class SpikePathError(RuntimeError):
    """The spike-driven forward pass produced a non-finite value.

    Carries the name of the site where the failure was detected, so the CLI
    can report where things went wrong.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"non-finite value on the spike path: {site}")


class EnergyAccountingError(ValueError):
    """Energy bookkeeping was asked for something it cannot answer."""
