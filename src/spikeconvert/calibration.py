"""Threshold selection and kernel fitting from activation statistics.

Three concerns live here.

Threshold selection turns an activation sample into the two magnitude
thresholds of the dual-range encoder (a high quantile for the typical range,
the sample max for outliers). A gated kernel bank's sub-range boundaries are
the exact equal-mass quantiles of a curvature density of its target, not of
activations, so the target's bends get narrow sub-ranges (fit_target); no
random number places them.

Fitting tunes one few-step kernel per sub-range to a scalar target function.
Thresholds and resets follow the dyadic schedule that the gated bank runs
(defined in the neurons module docstring), so the firing bits are fixed,
the binary digits of K = floor(u / q) that the bank fires on. Over the
sub-range's 2^(T-1) cells of K, taken as equally likely, the rung bits are
independent fair coins, so the step weights that fit the target best in
L2 have a closed form and need no solver: rung t weighs
E[f | bit t set] - E[f | bit t clear], and the always-on first step, a
constant term that a plain dyadic ladder cannot express, takes the mean of
f less half the rung weights (_closed_form_weights).

Errors are always reported on a validation grid of 10 M points, and are
decoded as the gated bank decodes at run time: one lookup of K's digits in
a table of the in-order partial sums of the step weights, built with the
recurrence's own products and additions, so it matches the recurrence bit
for bit (_dyadic_decode). fit_target returns a bank's errors, one per
sub-range, as its CalibrationReport, and nothing more: the target and the
sample count are the fit's own arguments. The fit refuses the parameters
the bank refuses, more than _MAX_GATE_STEPS steps or a sub-range whose
guard step is not a finite normal float, and an M above _MAX_SAMPLES;
fit_target refuses more than _MAX_SUBRANGES sub-ranges before it places a
boundary.

A fit allocates no array of the grid's size: it works in a set of arrays
(_FitWork) that its thread keeps for the next fit at the same M and T,
unless they take more than _KEEP_WORK_BYTES. They hold one block of the
validation grid at a time and the decode's table. The targets of TARGETS
write their values into them in place (out=). So convert, which makes
every fit at one M and T, maps these pages once, not once per fit. The
arrays are per thread, so fits may run in threads at once; a target must
not itself call fit_fs, and no bank or error a fit returns shares their
memory.
"""
from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError, FormatError
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
# block at a time in five arrays, 100 MiB at this ceiling.
_MAX_SAMPLES = 2**20
# The most sub-ranges N a bank is fitted with: a fit's time and memory grow
# linearly with N, and convert fits every gate site at the config's N.
_MAX_SUBRANGES = 1000
# The closed-form weights take the conditional means of the first this many
# rungs from the target at the midpoints of the 2^_MEAN_RUNGS equal cells of
# a sub-range; finer rungs take the target's mean slope.
_MEAN_RUNGS = 8
# A fit decodes its validation grid in this many blocks: fewer keep more
# memory, more make more numpy calls. At M = 4096 on a 2-vCPU Xeon, 2 to 4
# blocks fitted equally fast and 10 blocks 17 % slower.
_VAL_BLOCKS = 4
# The most bytes of work arrays a thread keeps from one fit to the next (a
# fit at M = 4096, T = 16 takes 0.64 MiB: five arrays of 10240 float64 or
# int64 entries and a 2^15-entry table, 671 744 B); larger ones are made
# per fit.
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


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), the sigmoid as 1 / (1 + e) where x >= 0 and as
    e / (1 + e) elsewhere, e = exp(-|x|), so that e never overflows."""
    x, y = _out(x, out)
    np.abs(x, out=y)
    np.negative(y, out=y)
    np.exp(y, out=y)
    one_plus = y + 1.0
    y /= one_plus
    np.divide(1.0, one_plus, out=y, where=x >= 0.0)
    y *= x
    return y


def _reciprocal(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    x, y = _out(x, out)
    return np.divide(1.0, x, out=y)


def _square(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    x, y = _out(x, out)
    return np.multiply(x, x, out=y)


# The LayerNorm epsilon: the float LayerNorm (model) divides by
# sqrt(var + _LN_EPS), and the invsqrt target is the same function.
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


def _step_sums(d: np.ndarray, P: int, out: np.ndarray | None = None) -> np.ndarray:
    """The 2^P in-order partial sums d[0] + b_1 d[1] + ... + b_P d[P] over
    the first P rungs' bits: entry j's bits are j's P binary digits, rung
    1's the top one. out, if given, is the array of 2^P entries they are
    built in.

    Built with the recurrence's own products (d[t] * 0.0 for a silent step)
    and its left-to-right additions, so signed zeros come out as the
    recurrence's.
    """
    sums = np.empty(2**P) if out is None else out
    sums[0] = d[0] * 1.0
    for t in range(1, P + 1):
        # the sums over rungs 1..t-1 sit at entries j * 2^(P-t+1); each is
        # extended by rung t's bit 1 at 2^(P-t) past it, then by bit 0 in place
        levels = sums.reshape(2 ** (t - 1), 2, 2 ** (P - t))
        np.add(levels[:, 0, 0], d[t] * 1.0, out=levels[:, 1, 0])
        levels[:, 0, 0] += d[t] * 0.0
    return sums


def _dyadic_decode(u: np.ndarray, w: float, d: np.ndarray,
                   sums: np.ndarray | None = None, out: tuple | None = None) -> np.ndarray:
    """The dyadic schedule of width w decoded with step weights d on inputs
    guard <= u <= fl(w + guard): bit for bit the in-order step sum of the
    recurrence's weighted firing bits, read off the digits of
    K = floor(u / q) (_dyadic_digits).

    The decode is gathered from sums, the table _step_sums(d, P) of the
    first P rungs (by default P = T - 1, or less so that the table has at
    most u.size entries), and any rungs past P are added one at a time, in
    order, from K's digits. out, if given, is a pair of arrays shaped like
    u, float64 and int64: the decode is written to the first, and K to the
    second.
    """
    T = d.size
    if sums is None:
        sums = _step_sums(d, min(T - 1, u.size.bit_length() - 1))
    P = sums.size.bit_length() - 1
    dec, K = (None, None) if out is None else out
    # the quotient u / q goes to the decode's array, which the gather overwrites
    K = _dyadic_digits(u, w * 2.0 ** (1 - T), T, out=None if out is None else (K, dec))
    # every index is within the table, so "clip" only spares a buffered copy
    dec = np.take(sums, K if P == T - 1 else K >> (T - 1 - P), out=dec, mode="clip")
    for t in range(P + 1, T):
        dec += ((K >> (T - 1 - t)) & 1) * d[t]
    return dec


def _target_values(target: Callable, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """target(x) as float64, refused where it is not finite. out, if given,
    is the array the values go to: a target of TARGETS writes them there in
    place, any other callable's are copied there."""
    with np.errstate(all="ignore"):
        if out is None:
            y = np.asarray(target(x), dtype=np.float64)
        elif id(target) in _IN_PLACE:
            y = target(x, out=out)
        else:
            y = out
            y[...] = target(x)
    if not np.isfinite(y).all():
        bad = float(x[~np.isfinite(y)][0])
        raise CalibrationError(f"target produced a non-finite value at x={bad}")
    return y


# the midpoints of the 2^_MEAN_RUNGS equal cells of [0, 1], then its two ends
_MEAN_POINTS = np.append((np.arange(2**_MEAN_RUNGS) + 0.5) / 2**_MEAN_RUNGS, (0.0, 1.0))


def _closed_form_weights(target: Callable, lo: float, hi: float, T: int) -> np.ndarray:
    """The T step weights of the dyadic schedule on [lo, hi] that fit target
    best in L2 over the sub-range's 2^(T-1) cells of K, taken as equally
    likely.

    There the rung bits b_t are independent fair coins, so the centred bits
    b_t - 1/2 are orthogonal: rung t weighs
    d_t = E[f | b_t = 1] - E[f | b_t = 0], and the always-on step
    d_0 = E[f] - (d_1 + ... + d_(T-1)) / 2. The means are taken over f at the
    midpoints of 2^_MEAN_RUNGS equal cells, one reshape per rung; a finer
    rung takes (f(hi) - f(lo)) * 2^-t, its d_t for the line through the
    ends, which is exact for an affine target.
    """
    x = _MEAN_POINTS * (hi - lo)
    x += lo
    x[-2:] = lo, hi
    f = _target_values(target, x)
    mids = f[:-2]
    coarse = min(T - 1, _MEAN_RUNGS)
    d = np.empty(T)
    for t in range(1, coarse + 1):
        # rung t fires on the upper half of each cell of the rungs above it
        clear, fired = mids.reshape(2 ** (t - 1), 2, -1).mean(axis=(0, 2))
        d[t] = fired - clear
    d[coarse + 1:] = (f[-1] - f[-2]) * 2.0 ** -np.arange(coarse + 1, T)
    d[0] = mids.mean() - 0.5 * d[1:].sum()
    return d


class _FitWork:
    """The arrays fit_fs validates in at M samples and T steps.

    Four float64 arrays and one int64 array of L = 10 M / _VAL_BLOCKS
    entries hold, in turn, each block of the validation grid. sums holds
    the decode's table of partial sums over the P rungs _dyadic_decode
    would take on the whole grid: 2^P <= min(2^(T-1), 10 M) entries.
    """

    def __init__(self, M: int, T: int) -> None:
        L = -(-10 * M // _VAL_BLOCKS)
        self.key = (M, T)
        self.index = np.arange(L, dtype=np.float64)
        self.u, self.x, self.y = np.empty(L), np.empty(L), np.empty(L)
        self.K = np.empty(L, dtype=np.int64)
        self.P = min(T - 1, (10 * M).bit_length() - 1)
        self.sums = np.empty(2**self.P)
        self.nbytes = 5 * self.u.nbytes + self.sums.nbytes


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


def fit_fs(
    target: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    T: int,
    M: int,
) -> tuple[HGConfig, float]:
    """Fit one few-step kernel to target on [lo, hi]: a bank of one sub-range.

    The step weights of the dyadic schedule are its L2 fit in closed form
    (_closed_form_weights); the fit reports the max abs error over an
    inclusive validation grid of 10 M points. Inputs are taken relative to
    lo, which is how the gated bank seeds sub-range members.

    The validation grid is decoded from the digits of K = floor(u / q) that
    the bank fires on by _dyadic_decode, bit for bit as the bank decodes at
    run time. So the error is the one the bank makes. M outside
    64.._MAX_SAMPLES and what the bank refuses (T above _MAX_GATE_STEPS, a
    range whose guard step is not a finite normal float) are refused.

    The fit works in its thread's _FitWork, so a target must not fit in
    turn; nothing it returns shares memory with those arrays.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not 64 <= M <= _MAX_SAMPLES:
        raise ValueError(f"M must be within 64..{_MAX_SAMPLES} samples, got M={M}")
    guard = float(_gate_guards(np.array([lo, hi]), T)[0])
    w = hi - lo
    d = _closed_form_weights(target, lo, hi, T)
    work = _fit_work(M, T)
    u, x, y, K = work.u, work.x, work.y, work.K

    # the validation grid np.linspace(lo, hi, 10 * M), by its own arithmetic,
    # a block at a time, decoded as the bank decodes at run time (a BLAS
    # d @ bits would reorder the sum), so err is the error the bank makes
    sums = _step_sums(d, work.P, out=work.sums)
    n_val = 10 * M
    step = w / (n_val - 1)
    err = np.float64(0.0)
    for start in range(0, n_val, u.size):
        m = min(u.size, n_val - start)
        xb, yb, ub = x[:m], y[:m], u[:m]
        np.add(work.index[:m], start, out=xb)
        xb *= step
        xb += lo
        if start + m == n_val:
            xb[-1] = hi
        _target_values(target, xb, out=yb)
        np.subtract(xb, lo, out=ub)
        ub += guard
        dev = _dyadic_decode(ub, w, d, sums, out=(xb, K[:m]))
        dev -= yb
        err = np.maximum(err, np.abs(dev, out=dev).max())
    return HGConfig((lo, hi), d[:, None]), float(err)


@dataclass(frozen=True)
class CalibrationReport:
    """The audit figures of one gated-bank fit: its error on each sub-range.
    The bank itself is its HGConfig, and the target and sample count are
    the fit's arguments, so the report does not repeat them."""

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


def _check_keys(where: str, node: dict, keys: set[str]) -> None:
    """A JSON object node holds exactly keys; the error names each one missing
    or unknown."""
    if set(node) != keys:
        raise FormatError(
            f"{where} must be an object with exactly the keys {sorted(keys)}; "
            f"missing {sorted(keys - set(node))}, unknown {sorted(set(node) - keys)}"
        )


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
    a warning, leaving fewer sub-ranges. Each sub-range is fitted by fit_fs,
    so N=1 is exactly fit_fs on [lo, hi]; a fit that fails names the target
    and its sub-range. A range that starts below the target's domain floor
    is refused, and so is one the bank refuses as a whole (_gate_guards) and
    an N above _MAX_SUBRANGES, before a boundary is placed.
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
    banks, errs = [], []
    for a, b in zip(kept, kept[1:]):
        try:
            # looked up at each call: perfbench ticks its clock at calibration.fit_fs
            bank, err = fit_fs(spec.fn, a, b, T, M)
        except (CalibrationError, ValueError) as exc:
            raise type(exc)(f"fit of {name!r} failed on sub-range [{a}, {b}]: {exc}")
        banks.append(bank)
        errs.append(err)
    cfg = HGConfig(kept, np.hstack([bank.d for bank in banks]))
    return cfg, CalibrationReport(tuple(errs))


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
    if name == "normal":
        vals = rng.standard_normal((rows, cols))
    elif name == "uniform":
        vals = rng.uniform(-1.0, 1.0, (rows, cols))
    elif name in ("normal_outliers", "uniform_outliers"):
        if name.startswith("normal"):
            vals = rng.standard_normal((rows, cols))
        else:
            vals = rng.uniform(-1.0, 1.0, (rows, cols))
        # exactly 1% of entries, so the 99th percentile stays anchored in
        # the bulk instead of drifting into the outlier mass
        n_out = max(1, round(0.01 * rows * cols))
        idx = rng.choice(rows * cols, size=n_out, replace=False)
        signs = np.where(rng.random(n_out) < 0.5, -1.0, 1.0)
        vals.reshape(-1)[idx] = 20.0 * signs
    else:
        known = ", ".join(_DISTRIBUTIONS)
        raise ValueError(f"unknown distribution {name!r}; known: {known}")
    return Matrix(vals)
