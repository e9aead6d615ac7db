"""Spiking neuron kernels: temporal encoders that trade timesteps for precision.

Four kernels are implemented. Each emits a SpikeMatrixTrain, the package's
one train type: T steps of weighted spike values with matrix shape.

fs_encode    few-step kernel with free per-step parameters. Membrane starts
             at the input, fires whenever it reaches the step threshold,
             subtracts the step reset, and each firing contributes the step
             output weight to the decoded value.
mt_encode    multi-level threshold encoder on a dyadic schedule. At step t
             the threshold is tau * 2^-t and a firing emits one of H signed
             grid levels, so magnitudes halve per step while each event
             carries up to log2(2H) bits.
dual-range   outlier-aware wrapper: elements are routed by magnitude to one
             of two mt encoders, a fine one for the typical range and a
             coarse one for the rare large values, so outliers stop
             inflating everyone else's quantization step.
gated bank   bank of fitted fs kernels. The input range is split into
             sub-ranges; exactly one sub-kernel is active per element and
             approximates an arbitrary scalar function on its sub-range.
             The schedules are stacked once into (T, N) arrays, and every
             element runs one T-step recurrence on its bucket's gathered
             column; other step counts slice or pad the stacks exactly as
             truncate_schedule / hg_at_steps (the reference) resize them.

fs_encode and mt_encode encode one scalar and serve as reference kernels;
mt_encode runs the greedy step loop, _mt_loop. The dual-range encoder (one
mt pass with a per-element tau) and the gated bank run whole matrices
through spikeops.encode_matrix and apply_hg. The dual-range pass, _mt_run,
takes its steps P at a time from cached tables of the step loop's
emissions and matches _mt_loop bit for bit. It relies on every unit-space
integer being exact, so the configs refuse H > 1024 and any (H, T) with
(2H-1) * 2^T >= 2^53. hg_eval decodes the bank on a 1-D batch, which is
how a fitted bank's error is checked. _fs_steps is the one few-step
recurrence: _fs_bits collects its firing bits, to fit and to run, and
_fs_decode sums the weighted steps in step order, to validate a fit, so a
fit sees exactly the bits the runtime fires and reports exactly the error
its decode makes. All encoders are deterministic and produce bit-identical
trains for identical inputs and configurations.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonFiniteError, ShapeError
from .tensors import Matrix

# Scaled-unit snap tolerance for the multi-threshold encoder. Inputs within
# this many grid units of an exact grid point are treated as on-grid, which
# keeps fire-at-threshold semantics robust to float rounding and makes
# encode(decode(encode(x))) reproduce decode(encode(x)) exactly.
_SNAP_UNITS = 1e-6


def _check_type(name: str, value, kind: type) -> None:
    # JSON fields arrive untyped; bool subclasses int but is no count or number
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


def _check_finite_real(name: str, value) -> None:
    _check_type(name, value, numbers.Real)
    if not abs(value) <= sys.float_info.max:  # exact, so a huge int fails too
        raise ValueError(f"{name} must be finite, got {value}")


def _check_finite_reals(name: str, values: tuple) -> None:
    # A C-level pass settles the all-finite-float case. load_block checks about
    # 22k values on the default block; with the per-element loop alone,
    # cli_run_ms rose 54% (10 paired runs, 2-vCPU Xeon VM).
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return
    for i, v in enumerate(values):
        _check_finite_real(f"{name}[{i}]", v)


# Largest H the dual-range and multi-level encoders take; it keeps
# _mt_run's chunk tables small.
_MAX_H = 1024


def _check_exact_range(H: int, T: int, **scales: float) -> None:
    """Refuse H above _MAX_H, any (H, T) whose unit-space integers, up to
    (2H-1) * 2^T, would not all be exact in float64's 53-bit mantissa, and
    any named scale whose grid unit scale * 2^-T / H leaves float64's
    normal range at a T within that bound."""
    if H > _MAX_H:
        raise ValueError(f"H must be at most {_MAX_H}, got {H}")
    T_max = 53 - int(2 * H - 1).bit_length()
    if T > T_max:
        raise ValueError(
            f"T={T} is too many steps for H={H}: (2H-1) * 2^T must stay "
            f"below 2^53, so T <= {T_max}"
        )
    floor = H * 2.0**T_max * sys.float_info.min
    for name, tau in scales.items():
        if tau < floor:
            raise ValueError(
                f"{name}={tau} is too small: its grid unit {name} * 2^-T / H must "
                f"stay a normal float at every T <= {T_max}, so {name} >= {floor:.6g}"
            )


@dataclass(frozen=True)
class FSParams:
    """Per-step schedule of a few-step kernel: thresholds, resets, weights."""

    theta: tuple[float, ...]
    h: tuple[float, ...]
    d: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.theta) == len(self.h) == len(self.d)):
            raise ShapeError(
                f"schedule lengths differ: theta={len(self.theta)} "
                f"h={len(self.h)} d={len(self.d)}"
            )
        if len(self.theta) == 0:
            raise ValueError("schedule needs at least one step")
        for name in ("theta", "h", "d"):
            _check_finite_reals(name, getattr(self, name))
        if any(not t > 0.0 for t in self.theta):
            raise ValueError("every threshold must be positive")

    @property
    def steps(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class MTConfig:
    """Dyadic multi-level encoder: tau scale, H levels per step, T steps."""

    tau: float
    H: int
    T: int

    def __post_init__(self) -> None:
        _check_finite_real("tau", self.tau)
        for name in ("H", "T"):
            _check_type(name, getattr(self, name), numbers.Integral)
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.H < 1:
            raise ValueError(f"H must be at least 1, got {self.H}")
        if self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")
        _check_exact_range(self.H, self.T, tau=self.tau)


@dataclass(frozen=True)
class OATConfig:
    """Dual-range encoder thresholds: fine scale theta_nor, coarse theta_out."""

    theta_nor: float
    theta_out: float
    H: int
    T: int

    def __post_init__(self) -> None:
        for name in ("theta_nor", "theta_out"):
            _check_finite_real(name, getattr(self, name))
        for name in ("H", "T"):
            _check_type(name, getattr(self, name), numbers.Integral)
        if not 0.0 < self.theta_nor < self.theta_out:
            raise ValueError(
                f"need theta_out > theta_nor > 0, got "
                f"theta_nor={self.theta_nor} theta_out={self.theta_out}"
            )
        if self.H < 1 or self.T < 1:
            raise ValueError("H and T must be at least 1")
        _check_exact_range(self.H, self.T, theta_nor=self.theta_nor)


@dataclass(frozen=True)
class HGConfig:
    """Gated bank: N+1 sub-range boundaries and one fitted kernel per sub-range."""

    boundaries: tuple[float, ...]
    subneurons: tuple[FSParams, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.subneurons) + 1:
            raise ShapeError(
                f"{len(self.subneurons)} sub-kernels need "
                f"{len(self.subneurons) + 1} boundaries, got {len(self.boundaries)}"
            )
        if len(self.subneurons) == 0:
            raise ValueError("need at least one sub-range")
        bs = self.boundaries
        _check_finite_reals("boundaries", bs)
        if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
            raise ValueError("boundaries must be strictly increasing")
        if any(p.steps != self.subneurons[0].steps for p in self.subneurons):
            raise ShapeError("all sub-kernels must share one step count")

    @functools.cached_property
    def _stacked(self) -> tuple[np.ndarray, ...]:
        # boundaries, (T, N) thresholds/resets/weights and (N,) input guards.
        # A fitted schedule that starts with a zero-reset step uses that step
        # as an always-on intercept; its threshold doubles as the input guard
        # so the intercept fires for every in-range input including the floor.
        subs = self.subneurons
        theta, h, d = (np.array([getattr(p, k) for p in subs]).T.copy()
                       for k in ("theta", "h", "d"))
        guard = np.array([p.theta[0] if p.h[0] == 0.0 else 0.0 for p in subs])
        return np.array(self.boundaries), theta, h, d, guard


class SpikeMatrixTrain:
    """T timesteps of weighted spike values with matrix shape.

    values[t] is the (rows x cols) weighted emission at step t and is zero
    wherever the boolean firing mask events[t] is False. Without an explicit
    mask, every nonzero value counts as an event. Batch axes may follow the
    step axis, as in a (T, heads, rows, cols) stack of attention heads.
    """

    __slots__ = ("values", "events")

    def __init__(self, values: np.ndarray, events: np.ndarray | None = None) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim < 3:
            raise ShapeError(
                f"train values must be (steps, ..., rows, cols), got ndim={values.ndim}"
            )
        if values.shape[0] < 1:
            raise ValueError("a train needs at least one step")
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("spike train contains non-finite values")
        if events is None:
            events = values != 0.0
        else:
            events = np.ascontiguousarray(events, dtype=bool)
            if events.shape != values.shape:
                raise ShapeError(
                    f"values shape {values.shape} != events shape {events.shape}"
                )
            if np.any(values[~events] != 0.0):
                raise ValueError("values must be zero where no event fired")
        values.setflags(write=False)
        events.setflags(write=False)
        self.values = values
        self.events = events

    @classmethod
    def _wrap(cls, values: np.ndarray, events: np.ndarray | None = None):
        # Internal fast path for kernel outputs, consistent by construction:
        # no copy, no checks. Finiteness is checked where a decoded train
        # re-enters an encoder, a gate or a Matrix.
        train = object.__new__(cls)
        train.values = values
        train.events = values != 0.0 if events is None else events
        for arr in (train.values, train.events):
            arr.setflags(write=False)
        return train

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def rows(self) -> int:
        return self.values.shape[-2]

    @property
    def cols(self) -> int:
        return self.values.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]


def _sum_steps(values: np.ndarray) -> np.ndarray:
    # in step order for every shape: sum(axis=0) goes pairwise on one element
    out = values[0].copy()
    for step in values[1:]:
        out += step
    return out


def decode(s: SpikeMatrixTrain) -> Matrix:
    """Accumulated membrane view of a train: the per-element step sum."""
    return Matrix._wrap(_sum_steps(s.values))


# ---------------------------------------------------------------------------
# few-step kernel


def _fs_steps(x: np.ndarray, theta: tuple, h: tuple, rows) -> Iterator[np.ndarray]:
    """The few-step recurrence on a 1-D batch, one step per item: writes step
    t's firing bits (0.0/1.0) into the next buffer of rows and yields it.
    The membrane starts at x; step t fires where it is at or above theta[t]
    and subtracts h[t] there. theta[t] and h[t] are scalars, or (n,) rows
    when each element has its own schedule. rows holds float64 or bool (n,)
    buffers: the rows of a (T, n) array, or one buffer repeated when each
    step is consumed before the next is written. Every step's reset goes
    through one scratch buffer."""
    v = np.array(x, dtype=np.float64)
    reset = np.empty_like(v)
    for row, theta_t, h_t in zip(rows, theta, h):
        np.greater_equal(v, theta_t, out=row)
        v -= np.multiply(h_t, row, out=reset)
        yield row


def _fs_bits(x: np.ndarray, theta: tuple, h: tuple, dtype=np.float64) -> np.ndarray:
    """Firing bits of the few-step recurrence: a contiguous (T, n) array of
    0.0/1.0 (the fits' design matrix) or, with dtype=bool, firing masks."""
    bits = np.empty((len(theta), np.size(x)), dtype=dtype)
    collections.deque(_fs_steps(x, theta, h, bits), maxlen=0)  # run every step
    return bits


def _fs_decode(x: np.ndarray, theta: tuple, h: tuple, d) -> np.ndarray:
    """Decoded output of the few-step recurrence with step weights d, summed
    inside the recurrence: the same products and the same in-order additions
    as _sum_steps(_fs_bits(x, theta, h) * d[:, None]), so the result is
    bit-identical, without the (T, n) bit array."""
    steps = _fs_steps(x, theta, h, itertools.repeat(np.empty(np.size(x))))
    out = next(steps) * d[0]
    term = np.empty_like(out)
    for d_t, bits in zip(d[1:], steps):
        out += np.multiply(bits, d_t, out=term)
    return out


def fs_encode(x: float, p: FSParams) -> SpikeMatrixTrain:
    """Encode one scalar through a few-step kernel.

    The membrane starts at x; step t fires when it is at or above theta[t],
    emits weight d[t], and subtracts reset h[t]. Inputs below every
    threshold produce an all-silent train that decodes to zero. The train
    has shape (steps, 1, 1).
    """
    if not np.isfinite(x):
        raise NonFiniteError(f"fs_encode input must be finite, got {x}")
    events = _fs_bits(np.array([x]), p.theta, p.h, dtype=bool)[:, :, None]
    return SpikeMatrixTrain(np.where(events, np.reshape(p.d, (-1, 1, 1)), 0.0), events)


# ---------------------------------------------------------------------------
# multi-level threshold encoder


def _mt_units(x: np.ndarray, tau, H: int, T: int) -> tuple:
    """Sign, magnitude and grid unit of a 1-D batch in unit space.

    The unit is the finest grid step tau * 2^-T / H; inputs within _SNAP_UNITS
    of a grid point snap onto it. |x| is first clamped at 2 tau (tau capped
    so that stays finite): every step saturates above (2H-1)/H * tau, so no
    emission changes, and x / unit cannot overflow.
    """
    unit = tau * 2.0 ** (-T) / H
    lim = 2.0 * np.minimum(tau, sys.float_info.max / 2)
    W = np.minimum(np.maximum(x, -lim), lim) / unit
    Wr = np.rint(W)
    W = np.where(np.abs(W - Wr) <= _SNAP_UNITS, Wr, W)
    return np.sign(W), np.abs(W), unit


def _mt_steps(a: np.ndarray, H: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The greedy step loop on unit-space magnitudes a: (T, n) emissions in
    units, and firing masks. Every step size is an exact power of two."""
    emits = np.empty((T, a.size))
    events = np.empty((T, a.size), dtype=bool)
    for t in range(1, T + 1):
        step = 2.0 ** (T - t)
        fire = np.greater_equal(a, H * step, out=events[t - 1])
        m = np.minimum(np.floor(a / step), 2 * H - 1)
        a = a - np.multiply(m * step, fire, out=emits[t - 1])
    return emits, events


def _mt_loop(
    x: np.ndarray, tau: float | np.ndarray, H: int, T: int
) -> tuple[np.ndarray, np.ndarray]:
    """Signed greedy multi-level encoding of a 1-D batch (tau scalar or per
    element), one step at a time: the reference kernel behind mt_encode.

    Works in integer multiples of the finest grid unit tau * 2^-T / H so the
    greedy arithmetic is exact, then converts emissions back to float
    weights. Each step t fires when |v| >= tau * 2^-t and emits the largest
    grid level (H+k)/H * tau * 2^-t at or below |v|, saturating at level
    (2H-1)/H; the emission is subtracted from the membrane.
    """
    sign, a, unit = _mt_units(x, tau, H, T)
    emits, events = _mt_steps(a, H, T)
    return sign * emits * unit, events


# The largest table _mt_run looks chunks up in has about this many rows.
_MT_TABLE_ROWS = 4096


def _mt_chunk(H: int) -> int:
    """Steps per table chunk: the most that keep 2H * 2^P rows within
    _MT_TABLE_ROWS (8 for H = 5, 1 for H = 1024)."""
    return max(1, (_MT_TABLE_ROWS // (2 * H)).bit_length() - 1)


@functools.lru_cache(maxsize=16)
def _mt_table(H: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """The step loop run once over every chunk input R < 2H * 2^P, in units
    of the chunk's smallest step: (P, R) emissions and (R,) chunk totals."""
    emits, _ = _mt_steps(np.arange(2 * H * 2**P, dtype=np.float64), H, P)
    totals = emits.sum(axis=0)
    for arr in (emits, totals):
        arr.setflags(write=False)
    return emits, totals


def _mt_run(
    x: np.ndarray, tau: float | np.ndarray, H: int, T: int
) -> tuple[np.ndarray, np.ndarray]:
    """_mt_loop's encoding, bit for bit, from chunk tables instead of steps.

    The T steps are taken P at a time. Within a chunk whose smallest step is
    2^p units, every decision depends only on floor(a / 2^p), so that index
    picks the chunk's emissions from _mt_table and the chunk total is
    subtracted. The result is exact: every unit-space quantity is an integer
    below 2^53 (the configs refuse (2H-1) * 2^T >= 2^53), and the magnitude
    is first clamped at (2H-1)(2^T-1), the sum of all saturated emissions,
    above which every step saturates, so no emission changes and every index
    stays below (2H-1) * 2^P. A step fires exactly where it emits: a firing
    emits at least H of its step sizes.
    """
    sign, a, unit = _mt_units(x, tau, H, T)
    # fmin: a NaN magnitude (a grid unit that underflowed to zero) saturates
    # rather than indexing outside the tables; its values stay NaN
    a = np.fmin(a, (2 * H - 1) * (2.0**T - 1))
    emits = np.empty((T, a.size))
    P = _mt_chunk(H)
    t = 0
    while t < T:
        n = (T - t) % P or P  # a short chunk goes first
        p = T - t - n  # the chunk's smallest step is 2^p units
        tab_emits, tab_totals = _mt_table(H, n)
        idx = (a * 2.0**-p).astype(np.intp)  # floor: a is nonnegative
        np.take(tab_emits, idx, axis=1, out=emits[t:t + n])
        emits[t:t + n] *= 2.0**p
        a -= tab_totals[idx] * 2.0**p
        t += n
    # sign is +-1 or 0, so this rounds as _mt_loop's sign * emits * unit
    return emits * (sign * unit), emits != 0.0


def mt_encode(x: float, c: MTConfig) -> SpikeMatrixTrain:
    """Encode one scalar through the dyadic multi-level encoder.

    The train has shape (T, 1, 1).
    """
    if not np.isfinite(x):
        raise NonFiniteError(f"mt_encode input must be finite, got {x}")
    values, events = _mt_loop(np.array([x]), c.tau, c.H, c.T)
    return SpikeMatrixTrain(values[:, :, None], events[:, :, None])


# ---------------------------------------------------------------------------
# gated bank of fitted kernels


def _hg_run(flat: np.ndarray, c: HGConfig, T: int | None = None) -> tuple:
    """Returns (values, events, clamped_count) over a flat batch at T steps
    (default: the fitted depth)."""
    bs, theta, h, d, guard = c._stacked
    if T is not None and T != theta.shape[0]:
        # slice, or pad with steps that never fire, as truncate_schedule does
        pad = np.zeros((max(T - theta.shape[0], 0), theta.shape[1]))
        theta, h, d = (np.concatenate([a[:T], pad + fill])
                       for a, fill in ((theta, 1e300), (h, 0.0), (d, 0.0)))
    lo, hi = bs[0], bs[-1]
    clamped = int(np.count_nonzero((flat < lo) | (flat >= hi)))
    x = np.minimum(np.maximum(flat, lo), np.nextafter(hi, lo))
    # lo <= x < hi, so every bucket index is already within 0..N-1
    bucket = np.searchsorted(bs, x, side="right") - 1
    u = x - bs[bucket] + guard[bucket]
    events = _fs_bits(u, theta[:, bucket], h[:, bucket], dtype=bool)
    return np.where(events, d[:, bucket], 0.0), events, clamped


def hg_eval(c: HGConfig, x: np.ndarray) -> np.ndarray:
    """Decoded outputs of the gated bank on a 1-D batch, as apply_hg decodes them."""
    values, _, _ = _hg_run(np.asarray(x, dtype=np.float64).reshape(-1), c)
    return _sum_steps(values)


def truncate_schedule(p: FSParams, T: int) -> FSParams:
    """First T steps of a fitted schedule; silent padding when T is longer.

    Running a kernel below its fitted depth drops the finest refinement
    steps, which is how timestep sweeps degrade resolution.
    """
    if T == p.steps:
        return p
    pad = max(T - p.steps, 0)
    big = 1e300  # threshold no finite membrane reaches
    return FSParams(p.theta[:T] + (big,) * pad, p.h[:T] + (0.0,) * pad,
                    p.d[:T] + (0.0,) * pad)


def hg_at_steps(c: HGConfig, T: int) -> HGConfig:
    if c.subneurons[0].steps == T:
        return c
    return HGConfig(c.boundaries, tuple(truncate_schedule(p, T) for p in c.subneurons))

