"""Dense 2-D float64 matrices and the activation statistics built on them.

All storage is row-major float64 and immutable after construction. numpy
carries the arithmetic; the wrappers add the shape and finiteness checks
that the spike machinery relies on. stats gives the two magnitudes that
threshold selection reads: quantiles of |x| and the largest |x|, both from
one sort of |x|. Percentiles use sorted linear interpolation so threshold
selection is reproducible down to the bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyInputError, NonFiniteError, ShapeError


class Matrix:
    """An immutable rows x cols matrix of float64 values."""

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        a = np.array(values, dtype=np.float64, order="C", copy=True)
        if a.ndim != 2:
            raise ShapeError(f"Matrix needs 2-D data, got ndim={a.ndim}")
        if a.size and not np.all(np.isfinite(a)):
            bad = np.argwhere(~np.isfinite(a))[0]
            raise NonFiniteError(
                f"non-finite entry at ({bad[0]}, {bad[1]}) in Matrix constructor"
            )
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Matrix":
        # Internal fast path: takes ownership of a C-contiguous float64 array.
        m = object.__new__(cls)
        arr = np.ascontiguousarray(a, dtype=np.float64)
        arr.setflags(write=False)
        m._a = arr
        return m

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape  # type: ignore[return-value]

    @property
    def data(self) -> np.ndarray:
        """Flat row-major read-only view of the entries."""
        return self._a.reshape(-1)

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D view of the entries."""
        return self._a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.all(self._a == other._a))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class ActivationStats:
    """The magnitudes of one batch of activation values.

    abs_percentiles maps each requested quantile in [0, 1] to the value at
    that rank of |values|; max_abs is the largest |value|.
    """

    abs_percentiles: Mapping[float, float]
    max_abs: float


def percentile(sorted_values: np.ndarray, q: float) -> float:
    """Sorted linear interpolation percentile, q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    n = sorted_values.size
    if n == 0:
        raise EmptyInputError("percentile of an empty sample")
    pos = q * (n - 1)
    i = int(np.floor(pos))
    if i >= n - 1:
        return float(sorted_values[-1])
    frac = pos - i
    return float(sorted_values[i] * (1.0 - frac) + sorted_values[i + 1] * frac)


def stats(x: Matrix, quantiles: Iterable[float] = ()) -> ActivationStats:
    """The quantiles of |x| at the requested ranks, and the largest |x|."""
    if x.data.size == 0:
        raise EmptyInputError("stats on an empty Matrix")
    absolute = np.sort(np.abs(x.data))
    return ActivationStats(
        abs_percentiles={q: percentile(absolute, q) for q in quantiles},
        max_abs=float(absolute[-1]),
    )
