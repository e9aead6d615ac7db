"""Threshold selection and kernel fitting from activation statistics.

Three concerns live here.

Threshold selection turns an activation sample into the two magnitude
thresholds of the dual-range encoder (a high quantile for the typical range,
the sample max for outliers). A gated kernel bank's sub-range boundaries are
the exact equal-mass quantiles of a curvature density of its target, not of
activations, so the target's bends get narrow sub-ranges (fit_target); no
random number places them.

Fitting tunes one few-step kernel per sub-range to a scalar target function,
a whole bank in one call of fit_fs (a bank of one sub-range is (lo, hi)).
Thresholds and resets follow the dyadic schedule that the gated bank runs
(defined in the neurons module docstring), so the firing bits are fixed,
the binary digits of K = floor(u / q) that the bank fires on. Over the
sub-range's 2^(T-1) cells of K, taken as equally likely, the rung bits are
independent fair coins, so the step weights that fit the target best in
L2 have a closed form and need no solver: rung t weighs
E[f | bit t set] - E[f | bit t clear], and the always-on first step, a
constant term that a plain dyadic ladder cannot express, takes the mean of
f less half the rung weights (_closed_form_weights). The weights come from
evaluations of the target on (_WEIGHT_ROWS, 2^_MEAN_RUNGS + 2) arrays of
points, reduced row by row in the order a bank of one sub-range is.

Errors are always reported on a validation grid of 10 M points per sub-range
(convert fits every gate at M = FIT_SAMPLES), one sub-range at a time, and
are decoded as the gated bank decodes at run time: one lookup of K's digits
in a table of the in-order partial sums of the step weights, built with the
recurrence's own products and additions, so it matches the recurrence bit
for bit (_dyadic_decode). Where a sub-range reads the shared digits below,
what remains per grid point is x, the target's value there, one gather and
the running max. A non-finite target value makes the max non-finite, and
only then are the block's target values checked, so the refusal names the
first such x.

The digits of K are the same on nearly every sub-range. Point j of the
n = 10 M point grid on [lo, hi], W = fl(hi - lo), enters the bank as
u_j = fl(fl(x_j - lo) + g) with x_j = fl(fl(j s) + lo), s = fl(W / (n - 1)),
and without rounding u_j / q is t_j = j 2^(T-1) / (n - 1) + 2^-9, as
q = W 2^(1-T) and g = W 2^-(T+8): the same on every sub-range. So
K_j = min(floor(t_j), 2^(T-1) - 1) is computed once per (M, T), exactly in
integers, with delta_min, the least distance from any t_j, j < n - 1, to
an integer (_grid_digits; 4.77e-8 at M = 4096, T = 16). The bound: each of
the five roundings moves its result by at most eps = 2^-53 of it, and for
j < n - 1, |fl(j s)| <= W (1 + 3 eps) and |x_j| <= |lo| + W (1 + 3 eps). So
u_j is within eps (5.004 W + |lo|) + O(eps^2) of j W / (n - 1) + g, and
u_j / q within 2^(T-54) (5.02 + 1.0001 |lo| / W) cells of t_j. A result in
the subnormal range errs by up to 2^-1075 absolutely instead, under 2^-58
cells for all five, as q = g 2^9 >= 2^-1013. Both together stay below
nu = 2^(T-50) (1 + max(|lo|, |hi|) / W) (_rounding_bound). Where
nu < delta_min no u_j / q leaves the cell of t_j, so floor(u_j / q), the
digits _dyadic_digits gives, is floor(t_j); the last point, hi, enters as
fl(W + g) >= W, so both cap it at 2^(T-1) - 1. There a sub-range reads its
grid's digits from the table. Elsewhere, on a sub-range far from 0 for its
width or at T above about 25 (M = 4096), it computes u and its digits per
point. Either way the digits, and so every error, are the same.

fit_target places a bank's boundaries and calls fit_fs once; it returns a
bank's errors, one per sub-range, as its CalibrationReport, and nothing
more: the target and the sample count are the fit's own arguments. The fit
refuses the parameters the bank refuses, more than _MAX_GATE_STEPS steps or
a sub-range whose guard step is not a finite normal float, and an M above
_MAX_SAMPLES, naming the first sub-range that fails; fit_target refuses
more than _MAX_SUBRANGES sub-ranges before it places a boundary.

A fit allocates no array of the grid's size: it works in a set of arrays
(_FitWork) that its thread keeps for the next fit at the same M and T,
unless they take more than _KEEP_WORK_BYTES. They hold one block of one
sub-range's validation grid at a time, its decode's table and the grid's
digits. The closed-form weights take the target _WEIGHT_ROWS sub-ranges at
a time, and the digits are built _DIGIT_CHUNK at a time, so no temporary
reaches glibc's default 128 KiB mmap threshold at M = 4096. The targets of
TARGETS write their values into them in place (out=), silu its numerator
too. So convert, which makes every fit at one M and T, maps these pages
once, not once per bank. The arrays are per thread, so fits may run in
threads at once; a target must not itself call fit_fs, and no bank or error
a fit returns shares their memory.
"""
from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CalibrationError, ShapeError
from .neurons import HGConfig, _dyadic_digits, _gate_guards
from .tensors import ActivationStats, Matrix

# Importance-density shape for boundary placement: weight ~ |f''|^_CURVE_EXP
# blended with a uniform floor so flat regions keep some boundary mass.
# Exponents near 1/2 roughly equalize per-range worst-case error of the
# dyadic fits; pure equal-width and the MSE-optimal 1/3 both leave one
# steep range over the error budget.
_CURVE_EXP = 0.52
_UNIFORM_MIX = 0.05
_GRID_CELLS = 2048
# the fraction of the observed span a gate's fitted range adds on each side
_RANGE_PAD = 0.1
# The most samples M a fit takes: fit_fs validates on 10 * M grid points, a
# block at a time in five arrays, 100 MiB at this ceiling, and reads their
# digits from a table of 8 * 10 M bytes, 80 MiB more; from T = 24 its decode
# table takes 2^23 entries, 64 MiB (_FitWork).
_MAX_SAMPLES = 2**20
# The samples M at which convert fits every gate site, and the default of
# `calibrate --samples`: M sizes only the 10 * M-point grid a fit's error is
# reported on, as no boundary or weight depends on it.
FIT_SAMPLES = 4096
# The most sub-ranges N a bank is fitted with: a fit's time and memory grow
# linearly with N, and convert fits every gate site at the config's N.
_MAX_SUBRANGES = 1000
# The closed-form weights take the conditional means of the first this many
# rungs from the target at the midpoints of the 2^_MEAN_RUNGS equal cells of
# a sub-range; finer rungs take the target's mean slope.
_MEAN_RUNGS = 8
# The most sub-ranges whose weights are taken from one array of target
# values: a block of (32, 2^_MEAN_RUNGS + 2) float64 takes 66 KiB, within
# glibc's default 128 KiB mmap threshold, so no bank maps and frees it anew.
_WEIGHT_ROWS = 32
# The most grid digits _grid_digits builds in one numpy pass: its int64
# temporaries then take 32 KiB each, also within that threshold.
_DIGIT_CHUNK = 4096
# A fit decodes its validation grid in this many blocks: fewer keep more
# memory, more make more numpy calls. At M = 4096 on a 2-vCPU Xeon, 2 to 4
# blocks fitted equally fast and 10 blocks 17 % slower.
_VAL_BLOCKS = 4
# The most bytes of work arrays a thread keeps from one fit to the next (a
# fit at M = 4096, T = 16 takes 0.95 MiB: five arrays of 10240 float64 or
# int64 entries, a 2^15-entry table and the grid's 40960 digits,
# 999 424 B); larger ones are made per fit.
_KEEP_WORK_BYTES = 2**24


def _out(x: np.ndarray, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    # a target's input as float64, and the array its values go to
    x = np.asarray(x, dtype=np.float64)
    return x, np.empty_like(x) if out is None else out


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    x, y = _out(x, out)
    np.multiply(x, x, out=y)
    y *= x
    y *= 0.044715
    y += x
    y *= np.sqrt(2.0 / np.pi)
    np.tanh(y, out=y)
    y += 1.0
    # x * (0.5 * t) is (0.5 * x) * t, t = 1 + tanh(...): 0.5 * t is exact, t
    # being 0 or at least 2^-53, and 0.5 * x is exact unless |x| < 2^-1021,
    # where t is 1
    y *= 0.5
    y *= x
    return y


def silu(x: np.ndarray, out: np.ndarray | None = None,
         work: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), the sigmoid as 1 / (1 + e) where x >= 0 and as
    e / (1 + e) elsewhere, e = exp(-|x|), so that e never overflows. Its
    numerator, 1 or e, is exp(min(x, 0)), so no mask picks a branch. work,
    if given, is a float64 array shaped like x that the numerator goes to."""
    x, y = _out(x, out)
    n = np.minimum(x, 0.0, out=np.empty_like(x) if work is None else work)
    np.exp(n, out=n)
    np.abs(x, out=y)
    np.negative(y, out=y)
    np.exp(y, out=y)
    y += 1.0
    np.divide(n, y, out=y)
    y *= x
    return y


def _reciprocal(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    x, y = _out(x, out)
    return np.divide(1.0, x, out=y)


def _square(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    x, y = _out(x, out)
    return np.multiply(x, x, out=y)


# The LayerNorm epsilon: the float LayerNorm (model) scales by _invsqrt, the
# invsqrt target, 1 / sqrt(var + _LN_EPS).
_LN_EPS = 1e-5


def _invsqrt(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    x, y = _out(x, out)
    np.add(x, _LN_EPS, out=y)
    np.sqrt(y, out=y)
    return np.divide(1.0, y, out=y)


@dataclass(frozen=True)
class Target:
    """A fittable scalar function with its default range and domain floor."""

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    floor: float | None  # hard lower bound for data-driven ranges, if any


TARGETS: dict[str, Target] = {
    "gelu": Target(gelu, -5.0, 5.0, None),
    "silu": Target(silu, -5.0, 5.0, None),
    "exp": Target(np.exp, -4.0, 2.0, None),
    "reciprocal": Target(_reciprocal, 0.5, 16.0, 1e-3),
    "square": Target(_square, -5.0, 5.0, None),
    "invsqrt": Target(_invsqrt, 0.0, 4.0, 0.0),
}
# the target functions that take out= and write their values there, by
# identity, as any callable may be a target, hashable or not
_IN_PLACE = frozenset(id(spec.fn) for spec in TARGETS.values())


def target_fn(name: str) -> Target:
    try:
        return TARGETS[name]
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise CalibrationError(f"unknown target {name!r}; known targets: {known}")


# ---------------------------------------------------------------------------
# threshold and boundary selection


def select_oat_thresholds(
    stats: ActivationStats, normal_quantile: float
) -> tuple[float, float]:
    """Pick (theta_nor, theta_out) from an activation sample's statistics.

    theta_nor is the normal_quantile of |activation|, theta_out the sample's
    largest |activation| (stats.max_abs). Degenerate samples (constant, or
    almost all zero) get nudged apart so the strict ordering
    theta_out > theta_nor > 0 holds.
    """
    if not 0.0 < normal_quantile < 1.0:
        raise ValueError(f"normal_quantile must be in (0, 1), got {normal_quantile}")
    if normal_quantile not in stats.abs_percentiles:
        raise CalibrationError(
            f"stats were built without the {normal_quantile} magnitude quantile"
        )
    nor = stats.abs_percentiles[normal_quantile]
    out = stats.max_abs
    if nor <= 0.0:
        # almost everything is exactly zero; any tiny positive threshold
        # keeps the fine path alive without touching the outlier path
        nor = out * 2.0**-20 if out > 0.0 else 2.0**-20
    if out <= nor:
        warnings.warn(
            "degenerate activation sample: outlier threshold adjusted above "
            "the normal threshold",
            stacklevel=2,
        )
        out = nor * (1.0 + 2.0**-20)
    return nor, out


def _curvature_density(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The edges of _GRID_CELLS equal cells of [lo, hi] and each cell's
    probability under a density weighted toward high second derivative,
    uniform within each cell.

    The dyadic kernels are affine in their firing bits and cannot express
    curvature, so their error scales with |f''| times the squared sub-range
    width. A cell's weight is |f''|^_CURVE_EXP at its centre, blended with a
    uniform floor of _UNIFORM_MIX, so equal-mass sub-ranges narrow exactly
    where the target bends.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    edges = np.linspace(lo, hi, _GRID_CELLS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    e = (hi - lo) / 8192.0
    xc = np.clip(centers, lo + e, hi - e)
    with np.errstate(all="ignore"):
        # divided by e twice: e**2 underflows to 0 on a narrow range
        f2 = np.abs(fn(xc + e) - 2.0 * fn(xc) + fn(xc - e)) / e / e
    if not np.all(np.isfinite(f2)):
        bad = xc[~np.isfinite(f2)][0]
        raise CalibrationError(f"target curvature is not finite near x={bad}")
    w = f2**_CURVE_EXP
    total = float(w.sum())
    if total <= 0.0 or not np.isfinite(total):
        w = np.ones_like(w)
        total = float(w.sum())
    return edges, (1.0 - _UNIFORM_MIX) * w / total + _UNIFORM_MIX / _GRID_CELLS


def curvature_quantiles(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, N: int,
) -> np.ndarray:
    """The N - 1 inner k/N quantiles on [lo, hi] of fn's curvature density
    (_curvature_density): exact, as that density's CDF is linear within
    each cell, so no sample and no seed place them."""
    edges, p = _curvature_density(fn, lo, hi)
    cdf = np.concatenate(([0.0], np.cumsum(p)))
    cdf[-1] = 1.0
    return np.interp(np.arange(1, N) / N, cdf, edges)


def observed_range(
    observed: np.ndarray, floor: float | None = None
) -> tuple[float, float]:
    """Padded [lo, hi] covering a batch of observed activations.

    Padding by _RANGE_PAD of the span on each side keeps mildly larger
    runtime values inside the fitted hierarchy instead of on its clamp. A
    floor bounds lo for targets whose domain must not cross it (reciprocal
    and inverse root near zero): toward it lo moves by at most _RANGE_PAD
    of the distance to it, so sub-ranges are not spent near a floor where
    the target is steep but no activation lives, and never below it.
    """
    observed = np.asarray(observed, dtype=np.float64).reshape(-1)
    if observed.size == 0:
        raise CalibrationError("cannot derive a fitting range from no activations")
    lo = float(observed.min())
    hi = float(observed.max())
    span = max(hi - lo, 1e-6 * max(1.0, abs(hi)), 1e-9)
    hi += _RANGE_PAD * span
    if floor is None:
        lo -= _RANGE_PAD * span
    else:
        lo = max(lo - _RANGE_PAD * min(span, lo - floor), floor)
        hi = max(hi, lo + 1e-6)
    return lo, hi


# ---------------------------------------------------------------------------
# kernel fitting


def _step_sums(d: np.ndarray, P: int, sums: np.ndarray) -> np.ndarray:
    """The 2^P in-order partial sums d[0] + b_1 d[1] + ... + b_P d[P] over
    the first P rungs' bits, built in sums, an array of 2^P entries: entry
    j's bits are j's P binary digits, rung 1's the top one.

    Built with the recurrence's own products and its left-to-right
    additions, so signed zeros come out as the recurrence's. A silent step
    adds d[t] * 0.0, a signed zero, which changes only a sum of -0.0; for
    finite d a sum is -0.0 only if all its terms are, so those additions
    are made only when d[0] is -0.0.
    """
    sums[0] = d[0] * 1.0
    silent = sums[0] == 0.0 and np.signbit(sums[0])
    for t in range(1, P + 1):
        # the sums over rungs 1..t-1 sit at entries j * 2^(P-t+1); each is
        # extended by rung t's bit 1 at 2^(P-t) past it, then by bit 0 in place
        levels = sums.reshape(2 ** (t - 1), 2, 2 ** (P - t))
        np.add(levels[:, 0, 0], d[t] * 1.0, out=levels[:, 1, 0])
        if silent:
            levels[:, 0, 0] += d[t] * 0.0
    return sums


def _dyadic_decode(K: np.ndarray, d: np.ndarray, sums: np.ndarray,
                   dec: np.ndarray) -> np.ndarray:
    """The dyadic schedule with step weights d decoded from the digits of
    K = floor(u / q) (_dyadic_digits), into dec, a float64 array shaped like
    K: bit for bit the in-order step sum of the recurrence's weighted firing
    bits.

    The decode is gathered from sums, the table _step_sums(d, P) of the
    first P <= T - 1 rungs, and any rungs past P are added one at a time,
    in order, from K's digits.
    """
    T = d.size
    P = sums.size.bit_length() - 1
    # every index is within the table, so "clip" only spares a buffered copy
    dec = np.take(sums, K if P == T - 1 else K >> (T - 1 - P), out=dec, mode="clip")
    for t in range(P + 1, T):
        dec += ((K >> (T - 1 - t)) & 1) * d[t]
    return dec


def _grid_digits(n: int, T: int) -> tuple[np.ndarray, float]:
    """The digits K_j = min(floor(t_j), 2^(T-1) - 1) of an n-point
    validation grid at T steps, t_j = j 2^(T-1) / (n - 1) + 2^-9, as int64,
    and delta_min, the least distance from any t_j, j < n - 1, to an
    integer (the module docstring has why they are the grid's digits).

    Exact in int64: with 2^(T-1) = a (n - 1) + r, t_j is
    j a + (512 j r + n - 1) / D, D = 512 (n - 1), and 512 j r < 2^56 for
    n <= 10 _MAX_SAMPLES. Built _DIGIT_CHUNK entries at a time.
    """
    a, r = divmod(2 ** (T - 1), n - 1)
    D = 512 * (n - 1)
    K = np.empty(n, dtype=np.int64)
    near = D
    for start in range(0, n, _DIGIT_CHUNK):
        j = np.arange(start, min(start + _DIGIT_CHUNK, n), dtype=np.int64)
        k = K[start:start + j.size]
        num = j * (512 * r)
        num += n - 1
        np.divmod(num, D, out=(k, num))
        j *= a
        k += j
        rem = num[:n - 1 - start]  # t_(n-1) = 2^(T-1) + 2^-9 is always capped
        if rem.size:
            near = min(near, int(rem.min()), D - int(rem.max()))
    np.minimum(K, 2 ** (T - 1) - 1, out=K)
    return K, near / D


def _rounding_bound(lo: float, hi: float, T: int) -> float:
    """nu = 2^(T-50) (1 + max(|lo|, |hi|) / (hi - lo)): more than the
    cells by which rounding may move the validation grid's u / q off t_j on
    the sub-range [lo, hi] at T steps (the module docstring has the bound)."""
    return 2.0 ** (T - 50) * (1.0 + max(abs(lo), abs(hi)) / (hi - lo))


def _evaluate(target: Callable, x: np.ndarray, out: np.ndarray,
              work: np.ndarray | None = None) -> np.ndarray:
    """target(x) in out, a float64 array shaped like x, unchecked: a target
    of TARGETS writes its values there in place, any other callable's are
    copied there. work, an array shaped like x, is silu's scratch."""
    with np.errstate(all="ignore"):
        if target is silu:
            silu(x, out=out, work=work)
        elif id(target) in _IN_PLACE:
            target(x, out=out)
        else:
            out[...] = target(x)
    return out


def _target_values(target: Callable, x: np.ndarray, out: np.ndarray,
                   work: np.ndarray | None = None) -> np.ndarray:
    """_evaluate's values of target at x in out, refused where they are not
    finite, naming the first such x."""
    _evaluate(target, x, out, work)
    if not np.isfinite(out).all():
        bad = float(x[~np.isfinite(out)][0])
        raise CalibrationError(f"target produced a non-finite value at x={bad}")
    return out


# the midpoints of the 2^_MEAN_RUNGS equal cells of [0, 1], then its two ends
_MEAN_POINTS = np.append((np.arange(2**_MEAN_RUNGS) + 0.5) / 2**_MEAN_RUNGS, (0.0, 1.0))


def _mean_points(bs: np.ndarray) -> np.ndarray:
    """The (N, 2^_MEAN_RUNGS + 2) points the closed-form weights take the
    target at, row i on the sub-range between bs[i] and bs[i + 1]: the
    midpoints of its 2^_MEAN_RUNGS equal cells, then its two ends."""
    x = np.multiply.outer(bs[1:] - bs[:-1], _MEAN_POINTS)
    x += bs[:-1, None]
    x[:, -2], x[:, -1] = bs[:-1], bs[1:]
    return x


def _closed_form_weights(target: Callable, bs: np.ndarray,
                         T: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N, T) step weights, row i sub-range i's, of the dyadic schedule
    on each sub-range between the boundaries bs that fit target best in L2
    over the sub-range's 2^(T-1) cells of K, taken as equally likely; and
    whether each row's target values at its _mean_points and its weights
    are all finite.

    There the rung bits b_t are independent fair coins, so the centred bits
    b_t - 1/2 are orthogonal: rung t weighs
    d_t = E[f | b_t = 1] - E[f | b_t = 0], and the always-on step
    d_0 = E[f] - (d_1 + ... + d_(T-1)) / 2. The means are taken over f at the
    midpoints of 2^_MEAN_RUNGS equal cells, one reshape per rung; a finer
    rung takes (f(hi) - f(lo)) * 2^-t, its d_t for the line through the
    ends, which is exact for an affine target. The target is taken
    _WEIGHT_ROWS sub-ranges at a time, and every row is reduced, and its
    weights summed, as a bank of one sub-range's would be.
    """
    coarse = min(T - 1, _MEAN_RUNGS)
    d = np.empty((bs.size - 1, T))
    ok = np.empty(bs.size - 1, dtype=bool)
    for r in range(0, bs.size - 1, _WEIGHT_ROWS):
        x = _mean_points(bs[r:r + _WEIGHT_ROWS + 1])
        rows = d[r:r + len(x)]
        with np.errstate(all="ignore"):
            f = np.asarray(target(x), dtype=np.float64)
            mids = f[:, :-2]
            for t in range(1, coarse + 1):
                # rung t fires on the upper half of each cell of the rungs above it
                halves = mids.reshape(len(x), 2 ** (t - 1), 2, -1).mean(axis=(1, 3))
                rows[:, t] = halves[:, 1] - halves[:, 0]
            rows[:, coarse + 1:] = (f[:, -1:] - f[:, -2:-1]) * 2.0 ** -np.arange(coarse + 1, T)
            rows[:, 0] = mids.mean(axis=1) - 0.5 * rows[:, 1:].sum(axis=1)
        ok[r:r + len(x)] = np.isfinite(f).all(axis=1) & np.isfinite(rows).all(axis=1)
        del x, f, mids  # so no two blocks' points and values live at once
    return d, ok


class _FitWork:
    """The arrays fit_fs validates a bank in at M samples and T steps, one
    sub-range after another.

    Four float64 arrays and one int64 array of L = 10 M / _VAL_BLOCKS
    entries hold, in turn, each block of a sub-range's validation grid; u
    is silu's scratch while the target is evaluated, before it takes the
    block's inputs where the sub-range computes its digits per point.
    sums holds the sub-range's decode table of partial sums over the P
    rungs _dyadic_decode would take on its whole grid:
    2^P <= min(2^(T-1), 10 M) entries. digits holds the 10 M digits that
    every sub-range whose rounding bound is below delta reads its grid's
    decode from (_grid_digits).
    """

    def __init__(self, M: int, T: int) -> None:
        L = -(-10 * M // _VAL_BLOCKS)
        self.key = (M, T)
        self.index = np.arange(L, dtype=np.float64)
        self.u, self.x, self.y = np.empty(L), np.empty(L), np.empty(L)
        self.K = np.empty(L, dtype=np.int64)
        self.P = min(T - 1, (10 * M).bit_length() - 1)
        self.sums = np.empty(2**self.P)
        self.digits, self.delta = _grid_digits(10 * M, T)
        self.nbytes = 5 * self.u.nbytes + self.sums.nbytes + self.digits.nbytes


_FIT_WORK = threading.local()


def _fit_work(M: int, T: int) -> _FitWork:
    """This thread's work arrays for fits at (M, T), kept for the next fit
    unless they take more than _KEEP_WORK_BYTES."""
    work = getattr(_FIT_WORK, "work", None)
    if work is None or work.key != (M, T):
        work = _FitWork(M, T)
        if work.nbytes <= _KEEP_WORK_BYTES:
            _FIT_WORK.work = work
    return work


def _grid_block(xb: np.ndarray, index: np.ndarray, start: int, step: float,
                lo: float, hi: float, n: int) -> None:
    """Points start.. of the n-point validation grid on [lo, hi] with the
    given step, into xb: np.linspace's arithmetic, its last point hi."""
    np.add(index, start, out=xb)
    xb *= step
    xb += lo
    if start + xb.size == n:
        xb[-1] = hi


def fit_fs(target: Callable[[np.ndarray], np.ndarray], boundaries: Sequence[float],
           T: int, M: int) -> tuple[HGConfig, CalibrationReport]:
    """Fit a gated bank of few-step kernels to target, one on each
    sub-range between the increasing boundaries; a bank of one sub-range
    is (lo, hi). Returns the bank and its error on each sub-range.

    The step weights of every sub-range's dyadic schedule are its L2 fit
    in closed form, taken from target _WEIGHT_ROWS sub-ranges at a time
    (_closed_form_weights); each sub-range's error is the max abs error
    over an inclusive validation grid of 10 M points on it. Inputs are
    taken relative to the sub-range's lo, which is how the gated bank seeds
    sub-range members.

    Each validation grid is decoded from the digits of K = floor(u / q)
    that the bank fires on by _dyadic_decode, bit for bit as the bank
    decodes at run time. So the error is the one the bank makes. The
    digits are read from the grid's shared table where _rounding_bound is
    below its delta_min, and computed per point elsewhere (the module
    docstring has the proof that the two agree there). M outside
    64.._MAX_SAMPLES and what the bank refuses (T above _MAX_GATE_STEPS, a
    sub-range whose guard step is not a finite normal float) are refused,
    and so are non-finite target values and weights. A refusal names the
    first sub-range that fails, in boundary order, as "sub-range [a, b]: ";
    boundaries that are not one row of at least two are refused first.

    The fit works in its thread's _FitWork, so a target must not fit in
    turn; nothing it returns shares memory with those arrays.
    """
    bs = np.array(boundaries, dtype=np.float64)
    if bs.ndim != 1 or bs.size < 2:
        raise ShapeError(f"a bank needs a row of at least two boundaries, got shape {bs.shape}")
    i = 0  # the sub-range a refusal names
    try:
        if not 64 <= M <= _MAX_SAMPLES:
            raise ValueError(f"M must be within 64..{_MAX_SAMPLES} samples, got M={M}")
        _gate_guards(bs[:2], T)  # T, which the weights need, and the first guard
        d, ok = _closed_form_weights(target, bs, T)
        work = _fit_work(M, T)
        n_val = 10 * M
        errs = np.zeros(bs.size - 1)
        for i, (lo, hi) in enumerate(zip(bs[:-1].tolist(), bs[1:].tolist())):
            # a lo >= hi has no normal guard step either
            guard = float(_gate_guards(bs[i:i + 2], T)[0])
            if not ok[i]:
                # refuses a non-finite target value, naming x, then a weight
                x_mean = _mean_points(bs[i:i + 2])[0]
                _target_values(target, x_mean, np.empty_like(x_mean))
                HGConfig(bs[i:i + 2], d[i, :, None])
            # the validation grid np.linspace(lo, hi, 10 * M), by its own
            # arithmetic, a block at a time, decoded as the bank decodes at
            # run time (a BLAS d @ bits would reorder the sum), so err is the
            # error the bank makes
            sums = _step_sums(d[i], work.P, work.sums)
            shared = _rounding_bound(lo, hi, T) < work.delta
            step = (hi - lo) / (n_val - 1)
            for start in range(0, n_val, work.u.size):
                m = min(work.u.size, n_val - start)
                xb, yb, ub = work.x[:m], work.y[:m], work.u[:m]
                _grid_block(xb, work.index[:m], start, step, lo, hi, n_val)
                _evaluate(target, xb, yb, ub)
                if shared:
                    K = work.digits[start:start + m]
                else:
                    np.subtract(xb, lo, out=ub)
                    ub += guard
                    # the quotient u / q goes to xb, which the decode overwrites
                    K = _dyadic_digits(ub, (hi - lo) * 2.0 ** (1 - T), T,
                                       out=(work.K[:m], xb))
                dev = _dyadic_decode(K, d[i], sums, xb)
                dev -= yb
                err = np.abs(dev, out=dev).max()
                if not np.isfinite(err):
                    # a non-finite target value is refused, naming its x
                    _grid_block(xb, work.index[:m], start, step, lo, hi, n_val)
                    _target_values(target, xb, yb, ub)
                errs[i] = np.maximum(errs[i], err)
    except (CalibrationError, ValueError) as exc:
        raise type(exc)(f"sub-range [{bs[i]}, {bs[i + 1]}]: {exc}")
    return HGConfig(bs, d.T), CalibrationReport(tuple(errs.tolist()))


@dataclass(frozen=True)
class CalibrationReport:
    """The audit figures of one gated-bank fit: its error on each sub-range.
    The bank itself is its HGConfig, and the target and sample count are
    the fit's arguments (convert's sample count is the constant
    FIT_SAMPLES), so the report does not repeat them."""

    per_subrange_max_abs_err: tuple[float, ...]

    def __post_init__(self) -> None:
        errs = np.asarray(self.per_subrange_max_abs_err)
        if not errs.size or not np.all(np.isfinite(errs)) or np.any(errs < 0.0):
            raise CalibrationError(
                "per-range errors must be nonempty, finite and nonnegative"
            )

    @property
    def max_abs_err(self) -> float:
        return max(self.per_subrange_max_abs_err)


def hg_to_dict(cfg: HGConfig) -> dict:
    """The bank as JSON: its boundaries and its (T, N) step weights, one row
    per step, as a block's sidecar stores them."""
    return {"boundaries": cfg.boundaries.tolist(), "d": cfg.d.tolist()}


def fit_target(
    name: str,
    N: int,
    T: int,
    M: int,
    lo: float | None = None,
    hi: float | None = None,
    *,
    seed: int | None = None,
) -> tuple[HGConfig, CalibrationReport]:
    """Fit a named target's bank of N sub-ranges on [lo, hi] (default: the
    target's own range).

    The inner boundaries are the exact k/N quantiles of the target's
    curvature density (curvature_quantiles), so sub-ranges narrow where it
    bends; no fit draws a random number, and seed is accepted and unused. A
    boundary within 1e-12 of the span of the last one kept is dropped, with
    a warning, leaving fewer sub-ranges. The bank is fitted by one call of
    fit_fs, so N=1 is exactly fit_fs on (lo, hi); a fit that fails names the
    target and its first failing sub-range. A range that starts below the
    target's domain floor is refused, and so is one the bank refuses as a
    whole (_gate_guards) and an N above _MAX_SUBRANGES, before a boundary
    is placed.
    """
    if N < 1:
        raise ValueError(f"need at least one sub-range, got N={N}")
    if N > _MAX_SUBRANGES:
        raise ValueError(f"need at most {_MAX_SUBRANGES} sub-ranges, got N={N}")
    spec = target_fn(name)
    lo = spec.lo if lo is None else lo
    hi = spec.hi if hi is None else hi
    if spec.floor is not None and lo < spec.floor:
        raise CalibrationError(
            f"range [{lo}, {hi}] starts below the {name!r} target's domain "
            f"floor {spec.floor}"
        )
    _gate_guards(np.array([lo, hi]), T)
    kept = [lo]
    for b in curvature_quantiles(spec.fn, lo, hi, N).tolist() + [hi]:
        if b - kept[-1] > 1e-12 * (hi - lo):
            kept.append(b)
    kept[-1] = hi
    if len(kept) < N + 1:
        warnings.warn(
            f"range supports only {len(kept) - 1} distinct sub-ranges, not {N}",
            stacklevel=2,
        )
    try:
        # looked up at each call: perfbench ticks its clock at calibration.fit_fs
        return fit_fs(spec.fn, kept, T, M)
    except (CalibrationError, ValueError) as exc:
        raise type(exc)(f"fit of {name!r} failed on {exc}")


# ---------------------------------------------------------------------------
# synthetic calibration inputs

_DISTRIBUTIONS = ("normal", "uniform", "normal_outliers", "uniform_outliers")


def sample_distribution(
    name: str, rows: int, cols: int, rng: np.random.Generator
) -> Matrix:
    """Synthetic activation matrix for calibration experiments.

    The *_outliers variants replant 1% of the entries at magnitude 20,
    the stress shape used for the dual-range ablation.
    """
    if name not in _DISTRIBUTIONS:
        known = ", ".join(_DISTRIBUTIONS)
        raise ValueError(f"unknown distribution {name!r}; known: {known}")
    vals = (rng.standard_normal((rows, cols)) if name.startswith("normal")
            else rng.uniform(-1.0, 1.0, (rows, cols)))
    if name.endswith("_outliers"):
        # exactly 1% of entries, so the 99th percentile stays anchored in
        # the bulk instead of drifting into the outlier mass
        n_out = max(1, round(0.01 * rows * cols))
        idx = rng.choice(rows * cols, size=n_out, replace=False)
        vals.reshape(-1)[idx] = 20.0 * np.where(rng.random(n_out) < 0.5, -1.0, 1.0)
    return Matrix(vals)
