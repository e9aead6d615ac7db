"""Threshold selection and kernel fitting from activation statistics.

Three concerns live here.

Threshold selection turns an activation sample into the two magnitude
thresholds of the dual-range encoder (a high quantile for the typical range,
the sample max for outliers) and into sub-range boundaries for the gated
kernel bank (equal-probability-mass quantiles, so dense regions get narrow
sub-ranges).

Fitting tunes one few-step kernel per sub-range to a scalar target function.
Thresholds and resets are pinned to a dyadic schedule scaled to the
sub-range width, so the firing bits (from the runtime's own recurrence) are
fixed and the per-step output weights solve one linear least-squares problem
directly. The schedule spends its first step on an always-on spike, a
constant term that a plain dyadic ladder cannot express, needed wherever
the target is far from zero at a sub-range floor; the other steps form the
ladder.

Errors are always reported on a validation grid 10x denser than the
training sample, never on the training sample itself, and are decoded as
the gated bank decodes at run time. The validation decode runs in closed
form instead of stepping the recurrence T times over the grid. On its inputs
the schedule's rung subtractions are exact, so the rungs fire on the binary
digits of K = floor(u / q), with q the finest rung. The decode is then one
lookup in a table of the in-order partial sums of the step weights, built
with the recurrence's own products and additions, so it matches the
recurrence bit for bit (_dyadic_decode has the argument). The fit refuses
parameters outside the range where that holds: more than _MAX_FIT_STEPS
steps, or a sub-range too narrow for its guard step to be a normal float.
It also refuses more than _MAX_SAMPLES training samples.
"""
from __future__ import annotations

import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError, FormatError
from .neurons import HGConfig, _fs_bits
from .neurons import _check_finite_reals, _check_type
from .tensors import ActivationStats, Matrix, percentile

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
# The most steps a fit takes: _dyadic_decode floors u / q exactly only while
# K = floor(u / q) < 2^51, and K has T - 1 bits.
_MAX_FIT_STEPS = 52
# The most training samples M a fit takes: its validation grid holds 10 * M
# float64 values, 80 MiB at this ceiling.
_MAX_SAMPLES = 2**20


def gelu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) * _sigmoid(x)


def _reciprocal(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.asarray(x, dtype=np.float64)


def _square(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) ** 2


def _invsqrt(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(np.asarray(x, dtype=np.float64) + 1e-5)


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
    max magnitude. Degenerate samples (constant, or almost all zero) get
    nudged apart so the strict ordering theta_out > theta_nor > 0 holds.
    """
    if not 0.0 < normal_quantile < 1.0:
        raise ValueError(f"normal_quantile must be in (0, 1), got {normal_quantile}")
    if normal_quantile not in stats.abs_percentiles:
        raise CalibrationError(
            f"stats were built without the {normal_quantile} magnitude quantile"
        )
    nor = stats.abs_percentiles[normal_quantile]
    out = max(abs(stats.minimum), abs(stats.maximum))
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


def select_hierarchy(
    sample: np.ndarray | Matrix,
    N: int,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[float, ...]:
    """Sub-range boundaries at equal-probability-mass quantiles of a sample.

    Returns N+1 strictly increasing floats. The outer boundaries default to
    the sample min and max (padded by a hair so the extremes stay in range)
    and can be pinned with lo/hi. Duplicate quantiles collapse, reducing the
    number of sub-ranges with a warning.
    """
    if N < 1:
        raise ValueError(f"need at least one sub-range, got N={N}")
    vals = sample.data if isinstance(sample, Matrix) else np.asarray(sample)
    vals = np.sort(vals.astype(np.float64).reshape(-1))
    if vals.size == 0:
        raise CalibrationError("cannot place boundaries on an empty sample")
    eps = 1e-9 * max(1.0, float(vals[-1] - vals[0]))
    left = float(vals[0]) - eps if lo is None else lo
    right = float(vals[-1]) + eps if hi is None else hi
    if not left < right:
        raise CalibrationError(
            f"degenerate sample range [{left}, {right}] cannot be partitioned"
        )
    inner = [percentile(vals, k / N) for k in range(1, N)]
    bounds = [left] + inner + [right]
    span = right - left
    kept = [bounds[0]]
    for b in bounds[1:]:
        if b - kept[-1] > 1e-12 * span:
            kept.append(b)
    kept[-1] = right
    if len(kept) < len(bounds):
        warnings.warn(
            f"sample supports only {len(kept) - 1} distinct sub-ranges, not {N}",
            stacklevel=2,
        )
    return tuple(kept)


def curvature_sample(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n points on [lo, hi] weighted toward high second-derivative.

    Used to place boundaries for pure function fits: the dyadic kernels are
    affine in their firing bits and cannot express curvature, so their error
    scales with |f''| times the squared sub-range width. Sampling density
    |f''|^_CURVE_EXP (plus a uniform floor) hands the quantile splitter narrow
    sub-ranges exactly where the target bends.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    edges = np.linspace(lo, hi, _GRID_CELLS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    e = (hi - lo) / 8192.0
    xc = np.clip(centers, lo + e, hi - e)
    f2 = np.abs(fn(xc + e) - 2.0 * fn(xc) + fn(xc - e)) / e**2
    if not np.all(np.isfinite(f2)):
        bad = xc[~np.isfinite(f2)][0]
        raise CalibrationError(f"target curvature is not finite near x={bad}")
    w = f2**_CURVE_EXP
    total = float(w.sum())
    if total <= 0.0 or not np.isfinite(total):
        w = np.ones_like(w)
        total = float(w.sum())
    p = (1.0 - _UNIFORM_MIX) * w / total + _UNIFORM_MIX / _GRID_CELLS
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    idx = np.clip(idx, 0, _GRID_CELLS - 1)
    width = edges[1] - edges[0]
    return edges[idx] + rng.random(n) * width


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


def _dyadic_schedule(w: float, T: int) -> tuple[tuple, tuple]:
    """Thresholds and resets for a sub-range of width w.

    Step one is an always-on, no-reset spike (threshold small enough that
    every in-range input fires it) whose weight acts as a constant term;
    the remaining T-1 steps form a ladder halving from w/2 down to
    w*2^-(T-1).
    """
    guard = w * 2.0 ** -(T + 8)
    rungs = tuple(w * 2.0**-t for t in range(1, T))
    return (guard,) + rungs, (0.0,) + rungs


def _dyadic_decode(u: np.ndarray, w: float, d: np.ndarray) -> np.ndarray:
    """The schedule _dyadic_schedule(w, T) decoded with step weights d on
    inputs guard <= u <= fl(w + guard), without stepping the recurrence:
    bit for bit _sum_steps(_fs_bits(u, theta, h) * d[:, None]).

    The guard step fires on every such u and resets nothing. While u < w,
    each rung t fires on a membrane below twice its threshold, so its
    subtraction is exact (Sterbenz). The rungs then fire on the binary digits
    of K = floor(u / q), q = w * 2^-(T-1), floored as a real quotient. Above
    w every rung fires, and the cap K <= 2^(T-1) - 1 gives that too. The
    rounded u / q floors to K except where it rounds onto an integer. There
    np.floor_divide recomputes K exactly, which holds while K < 2^51
    (_MAX_FIT_STEPS). Every rung is w scaled by a power of two, so all of
    this needs the guard, the smallest of them, to be a normal float.

    The decode is gathered from a table of the in-order partial sums
    d[0] + b_1 d[1] + ... + b_P d[P] over the first P rungs' bits. The table
    is built with the recurrence's own products (d[t] * 0.0 for a silent
    step) and its left-to-right additions, so signed zeros come out as the
    recurrence's. It has at most u.size entries; any rungs past P are added
    one at a time, in order, from K's digits.
    """
    T = d.size
    q = w * 2.0 ** (1 - T)
    r = u / q
    K = r.astype(np.int64)  # the floor, as r >= 0
    edge = np.flatnonzero(K == r)
    K[edge] = np.floor_divide(u[edge], q)
    np.minimum(K, 2 ** (T - 1) - 1, out=K)
    P = min(T - 1, u.size.bit_length() - 1)
    # two buffers in turn: entry 2j + b of the next level extends prefix j
    # with step t's bit b
    sums, longer = np.empty(2**P), np.empty(2**P)
    sums[0] = d[0] * 1.0
    for t in range(1, P + 1):
        n = 2 ** (t - 1)
        np.add(sums[:n], d[t] * 0.0, out=longer[0:2 * n:2])
        np.add(sums[:n], d[t] * 1.0, out=longer[1:2 * n:2])
        sums, longer = longer, sums
    out = sums.take(K if P == T - 1 else K >> (T - 1 - P), out=r)
    for t in range(P + 1, T):
        out += ((K >> (T - 1 - t)) & 1) * d[t]
    return out


def _solve_weights(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares output weights for the (n, T) firing-bit design B.

    Solves the normal equations of the steps that fire in training; a step
    that never fires keeps weight 0.0. lstsq on the reduced Gram system
    gives a rank-deficient design (a duplicated or constant column) its
    minimum-norm least-squares solution instead of an error.
    """
    G = B.T @ B
    fired = np.diag(G) > 0.0
    d = np.zeros(B.shape[1])
    c = (B.T @ y)[fired]
    d[fired] = np.linalg.lstsq(G[np.ix_(fired, fired)], c, rcond=None)[0]
    return d


def _target_values(target: Callable, x: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        y = np.asarray(target(x), dtype=np.float64)
    if not np.all(np.isfinite(y)):
        bad = float(x[~np.isfinite(y)][0])
        raise CalibrationError(f"target produced a non-finite value at x={bad}")
    return y


def fit_fs(
    target: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    T: int,
    M: int,
    seed: int,
) -> tuple[HGConfig, float]:
    """Fit one few-step kernel to target on [lo, hi]: a bank of one sub-range.

    Solves the output weights of the one always-on dyadic schedule on M
    uniform training samples plus the endpoints; reports the max abs error
    over an inclusive validation grid with 10x the training density.
    Deterministic for a given seed. Inputs are taken relative to lo, which
    is how the gated bank seeds sub-range members.

    The validation grid is decoded in closed form by _dyadic_decode: the
    rungs' exact subtractions make their bits the digits of floor(u / q), and
    a table of in-order partial sums of the weights turns those digits into
    the recurrence's output, bit for bit. So the error is the one the bank
    makes at run time. T above _MAX_FIT_STEPS, M above _MAX_SAMPLES and a
    range whose guard step (hi - lo) * 2^-(T+8) is not a normal float are
    refused.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not 64 <= M <= _MAX_SAMPLES:
        raise ValueError(f"M must be within 64..{_MAX_SAMPLES} training samples, "
                         f"got M={M}")
    if not 1 <= T <= _MAX_FIT_STEPS:
        raise ValueError(f"T must be within 1..{_MAX_FIT_STEPS} steps, got T={T}")
    w = hi - lo
    theta, h = _dyadic_schedule(w, T)
    guard = theta[0]
    if not sys.float_info.min <= guard <= sys.float_info.max:
        raise ValueError(
            f"range [{lo}, {hi}] does not fit at T={T}: its guard step "
            f"(hi - lo) * 2^-(T+8) = {guard} must be a finite normal float"
        )
    rng = np.random.default_rng(seed)
    u_train = np.concatenate([rng.uniform(0.0, w, M), [0.0, w]])
    y_train = _target_values(target, u_train + lo)
    x_val = np.linspace(lo, hi, 10 * M)
    y_val = _target_values(target, x_val)

    d = _solve_weights(_fs_bits(u_train + guard, theta, h).T, y_train)
    # the bank's own input mapping and in-order decode (a BLAS d @ bits would
    # reorder the sum), so err is the error the bank makes at run time. In
    # place, and x_val dropped: each grid-sized array alive at once costs its
    # page faults on every fit.
    u_val = x_val - lo
    del x_val
    u_val += guard
    dev = _dyadic_decode(u_val, w, d)
    dev -= y_val
    err = float(np.abs(dev, out=dev).max())
    return HGConfig((lo, hi), *(np.reshape(a, (-1, 1)) for a in (theta, h, d))), err


@dataclass(frozen=True)
class CalibrationReport:
    """The audit figures of one gated-bank fit; the bank itself is its HGConfig."""

    target: str
    per_subrange_max_abs_err: tuple[float, ...]
    samples_per_range: int
    seed: int

    def __post_init__(self) -> None:
        errs = np.asarray(self.per_subrange_max_abs_err)
        if not errs.size or not np.all(np.isfinite(errs)) or np.any(errs < 0.0):
            raise CalibrationError(
                "per-range errors must be nonempty, finite and nonnegative"
            )
        if self.samples_per_range < 64:  # the fit_fs floor
            raise ValueError(
                f"samples_per_range must be at least 64, got {self.samples_per_range}"
            )
        if self.seed < 0:  # np.random.default_rng refuses it: no fit has one
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def max_abs_err(self) -> float:
        return max(self.per_subrange_max_abs_err)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "per_subrange_max_abs_err": list(self.per_subrange_max_abs_err),
            "samples_per_range": self.samples_per_range,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationReport":
        # checked, not coerced: int(5.7) would load a corrupt count as 5
        for name in ("samples_per_range", "seed"):
            _check_type(name, d[name], numbers.Integral)
        errs = _tuple("per_subrange_max_abs_err", d["per_subrange_max_abs_err"])
        _check_finite_reals("per_subrange_max_abs_err", errs)
        return cls(d["target"], errs, d["samples_per_range"], d["seed"])


def hg_to_dict(cfg: HGConfig) -> dict:
    """The bank as JSON: its boundaries and each sub-range's schedule."""
    return {
        "boundaries": cfg.boundaries.tolist(),
        "subneurons": [
            {"theta": theta, "h": h, "d": d}
            for theta, h, d in zip(*(a.T.tolist() for a in (cfg.theta, cfg.h, cfg.d)))
        ],
    }


def _tuple(name: str, node) -> tuple:
    # a JSON list node, checked before its entries are read
    _check_type(name, node, list)
    return tuple(node)


def _check_keys(where: str, node: dict, keys: set[str]) -> None:
    """A JSON object node holds exactly keys; the error names each one missing
    or unknown."""
    if set(node) != keys:
        raise FormatError(
            f"{where} must be an object with exactly the keys {sorted(keys)}; "
            f"missing {sorted(keys - set(node))}, unknown {sorted(set(node) - keys)}"
        )


def fit_hg(
    target: str,
    sample: np.ndarray | Matrix,
    N: int,
    T: int,
    M: int,
    seed: int,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[HGConfig, CalibrationReport]:
    """Partition the sample's range into N sub-ranges and fit each one.

    Sub-range i is fitted with seed + i, so the N=1 case is exactly
    fit_fs(seed) on the full range.
    """
    spec = target_fn(target)
    boundaries = select_hierarchy(sample, N, lo=lo, hi=hi)
    banks = []
    errs = []
    for i in range(len(boundaries) - 1):
        try:
            bank, err = fit_fs(spec.fn, boundaries[i], boundaries[i + 1], T, M, seed + i)
        except CalibrationError as exc:
            raise CalibrationError(
                f"fit of {target!r} failed on sub-range "
                f"[{boundaries[i]}, {boundaries[i + 1]}]: {exc}"
            )
        banks.append(bank)
        errs.append(err)
    cfg = HGConfig(boundaries, *(np.hstack([getattr(b, k) for b in banks])
                                 for k in ("theta", "h", "d")))
    report = CalibrationReport(target, tuple(errs), M, seed)
    return cfg, report


def fit_target(
    name: str,
    N: int,
    T: int,
    M: int,
    seed: int,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[HGConfig, CalibrationReport]:
    """Fit a named target on an explicit range using curvature sampling.

    A range that starts below the target's domain floor is refused.
    """
    spec = target_fn(name)
    lo = spec.lo if lo is None else lo
    hi = spec.hi if hi is None else hi
    if spec.floor is not None and lo < spec.floor:
        raise CalibrationError(
            f"range [{lo}, {hi}] starts below the {name!r} target's domain "
            f"floor {spec.floor}"
        )
    rng = np.random.default_rng(seed)
    sample = curvature_sample(spec.fn, lo, hi, 4 * M, rng)
    return fit_hg(name, sample, N, T, M, seed, lo=lo, hi=hi)


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
