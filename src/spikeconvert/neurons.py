"""Spiking neuron kernels: temporal encoders that trade timesteps for precision.

Three kernels are implemented. Each emits a SpikeMatrixTrain, the package's
one train type: T steps of weighted spike values with matrix shape. A
train's values are read-only, so it computes its event mask (the nonzero
values) and its event count once, when first read, and keeps them; every
kernel that charges events reads them from there.

mt_encode    multi-level threshold encoder on a dyadic schedule. At step t
             the threshold is tau * 2^-t and a firing emits one of H signed
             grid levels, so magnitudes halve per step while each event
             carries up to log2(2H) bits.
dual-range   outlier-aware wrapper: elements are routed by magnitude to one
             of two mt encoders, a fine one for the typical range and a
             coarse one for the rare large values, so outliers stop
             inflating everyone else's quantization step.
gated bank   bank of fitted few-spikes (FS) kernels. The input range is
             split into sub-ranges; exactly one sub-kernel is active per
             element and approximates an arbitrary scalar function on its
             sub-range. A sub-kernel's membrane starts at its input, fires
             at each step where it reaches the step threshold, subtracts
             the step reset there, and each firing adds the step output
             weight to the decoded value. A bank is its boundaries and its
             (T, N) step weights: every sub-kernel runs the one dyadic
             schedule below.

The dyadic schedule of a sub-range [b, b + w) at T steps: step 0 is an
always-on guard step, threshold g = w * 2^-(T+8) and reset 0, whose weight
acts as a constant term; step t >= 1 is a rung with threshold and reset
w * 2^-t, down to the finest rung q = w * 2^(1-T). An element x of the
sub-range enters as u = fl(fl(x - b) + g), so g <= u <= fl(w + g). There
the recurrence has a closed form, _dyadic_digits: the guard step fires, and
each rung subtracts exactly (Sterbenz, while u < w), so rung t fires on
bit T-1-t of K = floor(u / q), capped at 2^(T-1) - 1 (every rung fires
above w). It holds while K < 2^51 and every rung is a normal float, so a
bank refuses T above _MAX_GATE_STEPS and any sub-range whose guard, the
smallest rung, is not a finite normal float (_gate_guards).

mt_encode encodes one scalar through the greedy step loop, _mt_loop, and
serves as the reference kernel. The dual-range encoder (one mt pass with a
per-element tau) and the gated bank run whole matrices through
spikeops.encode_matrix and apply_hg.

The dual-range pass, _mt_run, takes its steps P at a time from cached
tables of the step loop's emissions and matches _mt_loop bit for bit. Each
chunk reads a table pre-scaled to its smallest step, cached with the
unscaled one, so a chunk is one gather and one subtraction. Its last chunk
is in unit steps, so it needs no membrane update. It also counts the
saturated elements, those above the top grid level. The configs refuse
H > 1024 and any T above a step ceiling (25 at H = 5), past which a
decoded grid value may not re-encode exactly; below it every unit-space
integer is exact, which _mt_run relies on.

The gated bank reads every element's firing bits off K's digits, shifted
and masked into one contiguous row per rung. A run at fewer steps than the
fitted T takes K's top digits, the first steps of the schedule; a run at
more steps adds silent steps. Its output is each element's gathered step
weights, with their bit patterns multiplied by the firing bits: a fired
step keeps its weight's bits, -0.0 included, and a silent step is +0.0, as
a select on the mask gives. decode sums a train's steps in step order with
one reduction over the step axis, started from -0.0, which adds nothing
even to a column of -0.0; a one-element step keeps the step loop, because
numpy sums that pairwise.

hg_eval decodes the bank on a 1-D batch, which is how a fitted bank's error
is checked; it refuses a non-finite input, as apply_hg does. All encoders
are deterministic and produce bit-identical trains for identical inputs and
configurations.
"""
from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass, field

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


# Largest H the dual-range and multi-level encoders take; it keeps
# _mt_run's chunk tables small.
_MAX_H = 1024


@functools.cache
def _max_steps(H: int) -> int:
    """The step ceiling at H: the most steps at which a decoded grid value
    re-encodes bit for bit.

    The value decodes to k units, k < (2H-1) * 2^T, through T rounded
    products summed in step order, and re-encoding divides by the unit once
    more: T + 1 roundings of 2^-53 each, so it lands within
    (T+1) * (2H-1) * 2^T * 2^-53 units of k. While that is at most
    _SNAP_UNITS it snaps back onto k. The ceiling (25 at H = 5) also keeps
    every unit-space integer below 2^53, which the chunked encoder needs.
    """
    T = 0
    while (T + 2) * (2 * H - 1) * 2.0 ** (T + 1 - 53) <= _SNAP_UNITS:
        T += 1
    return T


def _check_steps(T: int) -> None:
    # every step count in the package passes here: a float or a bool is
    # refused by name before numpy can misread it as a shape
    _check_type("T", T, numbers.Integral)
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")


def _check_exact_range(H: int, T: int, **scales: float) -> None:
    """Refuse an H that is no integer or lies outside 1.._MAX_H, any T below
    1 or above the step ceiling at H, and any named scale whose grid unit
    scale * 2^-T / H leaves float64's normal range at a T within that
    ceiling."""
    _check_type("H", H, numbers.Integral)
    if H < 1:
        raise ValueError(f"H must be at least 1, got {H}")
    if H > _MAX_H:
        raise ValueError(f"H must be at most {_MAX_H}, got {H}")
    _check_steps(T)
    T_max = _max_steps(H)
    if T > T_max:
        raise ValueError(
            f"T={T} is too many steps for H={H}: a decoded grid value re-encodes "
            f"exactly only while (T+1) * (2H-1) * 2^T * 2^-53 <= {_SNAP_UNITS:g} "
            f"grid units, so T <= {T_max}"
        )
    floor = H * 2.0**T_max * sys.float_info.min
    for name, tau in scales.items():
        if tau < floor:
            raise ValueError(
                f"{name}={tau} is too small: its grid unit {name} * 2^-T / H must "
                f"stay a normal float at every T <= {T_max}, so {name} >= {floor:.6g}"
            )


@dataclass(frozen=True)
class MTConfig:
    """Dyadic multi-level encoder: tau scale, H levels per step, T steps."""

    tau: float
    H: int
    T: int

    def __post_init__(self) -> None:
        _check_finite_real("tau", self.tau)
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
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
        if not 0.0 < self.theta_nor < self.theta_out:
            raise ValueError(
                f"need theta_out > theta_nor > 0, got "
                f"theta_nor={self.theta_nor} theta_out={self.theta_out}"
            )
        _check_exact_range(self.H, self.T, theta_nor=self.theta_nor)


def _refusal(name: str, a: np.ndarray, bad: np.ndarray, rule: str) -> ValueError:
    # names the first offending entry of a whole-array check
    at = tuple(np.argwhere(bad)[0])
    return ValueError(f"{name}[{', '.join(map(str, at))}] must be {rule}, "
                      f"got {float(a[at])}")


# The most steps a gate bank takes: _dyadic_digits floors u / q exactly only
# while K = floor(u / q) < 2^51, and K has T - 1 bits.
_MAX_GATE_STEPS = 52


def _gate_guards(bs: np.ndarray, T: int, steps: str = "T") -> np.ndarray:
    """The guard steps (b_{i+1} - b_i) * 2^-(T+8) of the sub-ranges between
    increasing boundaries bs at T steps. Refuses T outside
    1.._MAX_GATE_STEPS, named as steps, and a range whose guard is not a
    finite normal float: outside these the schedule's closed form may not
    hold."""
    if not 1 <= T <= _MAX_GATE_STEPS:
        raise ValueError(f"{steps} must be within 1..{_MAX_GATE_STEPS} steps, got {T}")
    with np.errstate(over="ignore"):
        guard = (bs[1:] - bs[:-1]) * 2.0 ** -(T + 8)
    normal = (guard >= sys.float_info.min) & (guard <= sys.float_info.max)
    if not normal.all():
        i = int(np.argmin(normal))
        raise ValueError(
            f"range [{bs[i]}, {bs[i + 1]}] does not fit at T={T}: its guard step "
            f"(hi - lo) * 2^-(T+8) = {guard[i]} must be a finite normal float"
        )
    return guard


@dataclass(frozen=True, eq=False)
class HGConfig:
    """Gated bank: N+1 sub-range boundaries and the (T, N) step weights d,
    column i sub-range i's, as read-only float64 arrays. Each sub-range runs
    the dyadic schedule of the module docstring, which its width and T fix,
    so the bank derives everything else, once: guard holds the (N,) guard
    steps, rung the (N,) finest rungs q and top the largest float below the
    last boundary, where the bank clamps its inputs. Two banks are equal when
    their boundaries and weights are."""

    boundaries: np.ndarray
    d: np.ndarray
    guard: np.ndarray = field(init=False, repr=False)
    rung: np.ndarray = field(init=False, repr=False)
    top: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("boundaries", "d"):
            a = np.array(getattr(self, name), dtype=np.float64, order="C")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        bs, d = self.boundaries, self.d
        if d.ndim != 2 or 0 in d.shape:
            raise ShapeError(f"d must be (T, N) with T, N >= 1, got {d.shape}")
        if bs.shape != (d.shape[1] + 1,):
            raise ShapeError(f"{d.shape[1]} sub-kernels need "
                             f"{d.shape[1] + 1} boundaries, got shape {bs.shape}")
        for name in ("boundaries", "d"):
            a = getattr(self, name)
            if not np.isfinite(a).all():
                raise _refusal(name, a, ~np.isfinite(a), "finite")
        rises = bs[1:] > bs[:-1]
        if not rises.all():
            i = int(np.argmin(rises)) + 1
            raise ValueError(f"boundaries must be strictly increasing, got "
                             f"boundaries[{i}]={float(bs[i])} after {float(bs[i - 1])}")
        guard = _gate_guards(bs, d.shape[0], steps="T, d's row count,")
        rung = (bs[1:] - bs[:-1]) * 2.0 ** (1 - d.shape[0])
        for a in (guard, rung):
            a.setflags(write=False)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "rung", rung)
        object.__setattr__(self, "top", np.nextafter(bs[-1], bs[0]))

    @property
    def steps(self) -> int:
        return self.d.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HGConfig):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in ("boundaries", "d"))


class SpikeMatrixTrain:
    """T timesteps of weighted spike values with matrix shape.

    values[t] is the (rows x cols) weighted emission at step t. An event is
    a nonzero value: a firing adds its step weight, so one of weight 0.0
    adds nothing and is no event. Batch axes may follow the step axis, as
    in a (T, heads, rows, cols) stack of attention heads.

    The values are read-only, so the event mask and the event count are
    computed once, when first read, and kept with the train; the mask is
    read-only too. The constructor copies its input, so a caller's later
    write cannot change a train or its cached mask.
    """

    __slots__ = ("values", "_events", "_count")

    def __init__(self, values: np.ndarray) -> None:
        values = np.array(values, dtype=np.float64, order="C")
        if values.ndim < 3:
            raise ShapeError(
                f"train values must be (steps, ..., rows, cols), got ndim={values.ndim}"
            )
        if values.shape[0] < 1:
            raise ValueError("a train needs at least one step")
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("spike train contains non-finite values")
        values.setflags(write=False)
        self.values = values
        self._events = self._count = None

    @classmethod
    def _wrap(cls, values: np.ndarray):
        # Internal fast path for kernel outputs: no copy, no checks.
        # Finiteness is checked where a decoded train re-enters an encoder,
        # a gate or a Matrix.
        train = object.__new__(cls)
        values.setflags(write=False)
        train.values = values
        train._events = train._count = None
        return train

    def _regroup(self, fn):
        # fn, one reshape or transpose, applied to the values; a cached mask
        # goes through fn with them, and the event count carries over
        train = SpikeMatrixTrain._wrap(fn(self.values))
        if self._events is not None:
            events = fn(self._events)  # a reshape may copy
            events.setflags(write=False)
            train._events, train._count = events, self._count
        return train

    @property
    def events(self) -> np.ndarray:
        """The read-only firing mask: where a value is nonzero."""
        if self._events is None:
            events = self.values != 0.0
            events.setflags(write=False)
            self._events = events
        return self._events

    @property
    def event_count(self) -> int:
        """How many values are nonzero; a count over the bool mask is
        several times faster than one over the floats."""
        if self._count is None:
            self._count = int(np.count_nonzero(self.events))
        return self._count

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
    # in step order for every shape. numpy reduces a step of several elements
    # one step at a time, but sums a lone element's steps pairwise, so that
    # takes the loop. The -0.0 start adds nothing, even to a -0.0 column,
    # where numpy's +0.0 start would flip its sign.
    if values[0].size > 1:
        return np.add.reduce(values, axis=0, initial=-0.0)
    out = values[0].copy()
    for step in values[1:]:
        out += step
    return out


def decode(s: SpikeMatrixTrain) -> Matrix:
    """Accumulated membrane view of a train: the per-element step sum."""
    return Matrix._wrap(_sum_steps(s.values))


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


def _mt_steps(a: np.ndarray, H: int, T: int) -> np.ndarray:
    """The greedy step loop on unit-space magnitudes a: (T, n) emissions in
    units. Every step size is an exact power of two."""
    emits = np.empty((T, a.size))
    for t in range(1, T + 1):
        step = 2.0 ** (T - t)
        fire = a >= H * step
        m = np.minimum(np.floor(a / step), 2 * H - 1)
        a = a - np.multiply(m * step, fire, out=emits[t - 1])
    return emits


def _mt_loop(x: np.ndarray, tau: float | np.ndarray, H: int, T: int) -> np.ndarray:
    """Signed greedy multi-level encoding of a 1-D batch (tau scalar or per
    element), one step at a time: the reference kernel behind mt_encode.

    Works in integer multiples of the finest grid unit tau * 2^-T / H so the
    greedy arithmetic is exact, then converts emissions back to float
    weights. Each step t fires when |v| >= tau * 2^-t and emits the largest
    grid level (H+k)/H * tau * 2^-t at or below |v|, saturating at level
    (2H-1)/H; the emission is subtracted from the membrane.
    """
    sign, a, unit = _mt_units(x, tau, H, T)
    return sign * _mt_steps(a, H, T) * unit


# The largest table _mt_run looks chunks up in has about this many rows.
_MT_TABLE_ROWS = 4096


def _mt_chunk(H: int) -> int:
    """Steps per table chunk: the most that keep 2H * 2^P rows within
    _MT_TABLE_ROWS (8 for H = 5, 1 for H = 1024)."""
    return max(1, (_MT_TABLE_ROWS // (2 * H)).bit_length() - 1)


@functools.lru_cache(maxsize=64)
def _mt_table(H: int, P: int, p: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The step loop run once over every chunk input R < 2H * 2^P, in units
    of the chunk's smallest step, then scaled by 2^p, the size of that step
    in grid units: (P, R) emissions and (R,) chunk totals. The scaling is
    exact, as every entry is an integer far below 2^53."""
    if p:
        emits, totals = (a * 2.0**p for a in _mt_table(H, P))
    else:
        emits = _mt_steps(np.arange(2 * H * 2**P, dtype=np.float64), H, P)
        totals = emits.sum(axis=0)
    for arr in (emits, totals):
        arr.setflags(write=False)
    return emits, totals


def _mt_run(x: np.ndarray, tau: float | np.ndarray, H: int, T: int) -> tuple:
    """Returns (values, saturated): _mt_loop's encoding, bit for bit, from
    chunk tables instead of steps, and how many elements lie above the top
    grid level and so decode short of their input.

    The T steps are taken P at a time. Within a chunk whose smallest step is
    2^p units, every decision depends only on floor(a / 2^p), so that index
    picks the chunk's emissions from _mt_table, pre-scaled by 2^p, and the
    chunk total is subtracted. The result is exact: every unit-space
    quantity is an integer below 2^53 (the configs' step ceiling keeps
    (2H-1) * 2^T far below it), and the magnitude is first clamped at
    (2H-1)(2^T-1), the sum of all saturated emissions, above which every
    step saturates, so no emission changes and every index stays below
    (2H-1) * 2^P. The elements that cap pulls down are the saturated ones.
    """
    sign, a, unit = _mt_units(x, tau, H, T)
    top = (2 * H - 1) * (2.0**T - 1)
    saturated = 0
    if a.size and not a.max() <= top:  # a NaN maximum takes this branch too
        saturated = int(np.count_nonzero(a > top))
        # fmin: a NaN magnitude (a grid unit that underflowed to zero)
        # saturates rather than indexing outside the tables; its values stay NaN
        a = np.fmin(a, top)
    emits = np.empty((T, a.size))
    P = _mt_chunk(H)
    t = 0
    while True:
        n = (T - t) % P or P  # a short chunk goes first
        p = T - t - n  # the chunk's smallest step is 2^p units
        tab_emits, tab_totals = _mt_table(H, n, p)
        if p == 0:  # the last chunk: unit steps, and a is not read again
            tab_emits.take(a.astype(np.intp), axis=1, out=emits[t:])
            break
        idx = (a * 2.0**-p).astype(np.intp)  # floor: a is nonnegative
        tab_emits.take(idx, axis=1, out=emits[t:t + n])
        a -= tab_totals.take(idx)
        t += n
    # sign is +-1 or 0, so this rounds as _mt_loop's sign * emits * unit
    emits *= sign * unit
    return emits, saturated


def mt_encode(x: float, c: MTConfig) -> SpikeMatrixTrain:
    """Encode one scalar through the dyadic multi-level encoder.

    The train has shape (T, 1, 1).
    """
    if not np.isfinite(x):
        raise NonFiniteError(f"mt_encode input must be finite, got {x}")
    return SpikeMatrixTrain(_mt_loop(np.array([x]), c.tau, c.H, c.T)[:, :, None])


# ---------------------------------------------------------------------------
# gated bank of fitted kernels


def _dyadic_digits(u: np.ndarray, q, T: int, out: tuple | None = None) -> np.ndarray:
    """K = floor(u / q) as int64, floored as a real quotient and capped at
    2^(T-1) - 1: bit T-1-t of K is the firing bit of rung t of the dyadic
    schedule with finest rung q (a scalar, or one per element of u) on
    inputs g <= u <= fl(w + g) (the module docstring has the argument).

    The rounded u / q floors to K except where it rounds onto an integer;
    there np.floor_divide recomputes K exactly, which holds while
    K < 2^51 (_MAX_GATE_STEPS). out, if given, is a pair of arrays shaped
    like u, int64 and float64, that K and the rounded u / q are written to.
    """
    K, r = (np.empty(u.shape, dtype=np.int64), None) if out is None else out
    r = np.divide(u, q, out=r)
    np.copyto(K, r, casting="unsafe")  # the floor, as r >= 0
    edge = np.flatnonzero(K == r)
    if edge.size:
        K[edge] = np.floor_divide(u[edge], np.broadcast_to(q, u.shape)[edge])
    np.minimum(K, 2 ** (T - 1) - 1, out=K)
    return K


@functools.cache
def _rung_shifts(T: int) -> np.ndarray:
    """The (T-1, 1) shifts that bring rungs 1..T-1 of the T-step schedule to
    bit 0 of K: rung t fires on bit T-1-t. They are of the narrowest
    unsigned type that holds K < 2^(T-1), as fewer bytes per digit go faster."""
    digit = np.min_scalar_type(2 ** (T - 1) - 1)
    shifts = np.arange(T - 2, -1, -1, dtype=digit)[:, None]
    shifts.setflags(write=False)
    return shifts


def _rung_bits(K: np.ndarray, T: int, rungs: int) -> np.ndarray:
    """(rungs, n) firing bits, 0 or 1, of the T-step dyadic schedule's first
    rungs rungs from K = _dyadic_digits(...): row t-1 is rung t's, bit
    T-1-t of K, shifted and masked into one contiguous row."""
    shifts = _rung_shifts(T)[:rungs]
    bits = np.right_shift(K.astype(shifts.dtype), shifts)
    bits &= 1
    return bits


def _hg_run(flat: np.ndarray, c: HGConfig, T: int | None, what: str) -> tuple:
    """Returns (values, clamped_count) over a flat batch at T steps
    (None: the fitted depth). A non-finite entry raises NonFiniteError,
    naming the input as what."""
    if not np.isfinite(flat).all():
        raise NonFiniteError(f"{what} contains non-finite values")
    bs, d = c.boundaries, c.d
    fitted = d.shape[0]
    T = fitted if T is None else T
    _check_steps(T)
    lo, hi = bs[0], bs[-1]
    clamped = int(np.count_nonzero((flat < lo) | (flat >= hi)))
    x = np.minimum(np.maximum(flat, lo), c.top)
    # lo <= x < hi, so every bucket index is already within 0..N-1
    bucket = np.searchsorted(bs, x, side="right") - 1
    u = x - bs[bucket] + c.guard[bucket]
    K = _dyadic_digits(u, c.rung[bucket], fitted)
    # the first n steps of the fitted schedule; any more are silent
    n = min(T, fitted)
    values = np.zeros((T, flat.size)) if T > n else np.empty((T, flat.size))
    d[:n].take(bucket, axis=1, out=values[:n])
    # a fired step keeps its weight's bits, -0.0 included; a silent one is +0.0
    bits = values[1:n].view(np.uint64)
    bits *= _rung_bits(K, fitted, n - 1)
    return values, clamped


def hg_eval(c: HGConfig, x: np.ndarray) -> np.ndarray:
    """Decoded outputs of the gated bank on a 1-D batch, as apply_hg decodes
    them; a non-finite entry raises NonFiniteError, as there."""
    values, _ = _hg_run(np.asarray(x, dtype=np.float64).reshape(-1), c, None,
                        "hg_eval input")
    return _sum_steps(values)
