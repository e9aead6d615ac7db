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
directly. Two schedule variants are tried, with and without a leading
always-on step (a constant term the pure dyadic ladder cannot express,
needed wherever the target is far from zero at a sub-range floor), and the
one with the lower validation error wins.

Errors are always reported on a validation grid 10x denser than the
training sample, never on the training sample itself, and are decoded as
the gated bank decodes at run time.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError
from .neurons import FSParams, HGConfig, _fs_bits, _sum_steps
from .neurons import _check_finite_real, _check_finite_reals, _check_type
from .tensors import ActivationStats, Matrix, percentile

# Importance-density shape for boundary placement: weight ~ |f''|^_CURVE_EXP
# blended with a uniform floor so flat regions keep some boundary mass.
# Exponents near 1/2 roughly equalize per-range worst-case error of the
# dyadic fits; pure equal-width and the MSE-optimal 1/3 both leave one
# steep range over the error budget.
_CURVE_EXP = 0.52
_UNIFORM_MIX = 0.05
_GRID_CELLS = 2048


def gelu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


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
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    n: int,
    rng: np.random.Generator,
    exponent: float = _CURVE_EXP,
    uniform_mix: float = _UNIFORM_MIX,
) -> np.ndarray:
    """Draw n points on [lo, hi] weighted toward high second-derivative.

    Used to place boundaries for pure function fits: the dyadic kernels are
    affine in their firing bits and cannot express curvature, so their error
    scales with |f''| times the squared sub-range width. Sampling density
    |f''|^exponent (plus a uniform floor) hands the quantile splitter narrow
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
    w = f2**exponent
    total = float(w.sum())
    if total <= 0.0 or not np.isfinite(total):
        w = np.ones_like(w)
        total = float(w.sum())
    p = (1.0 - uniform_mix) * w / total + uniform_mix / _GRID_CELLS
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    idx = np.clip(idx, 0, _GRID_CELLS - 1)
    width = edges[1] - edges[0]
    return edges[idx] + rng.random(n) * width


def observed_range(
    observed: np.ndarray,
    pad: float = 0.1,
    floor: float | None = None,
) -> tuple[float, float]:
    """Padded [lo, hi] covering a batch of observed activations.

    Padding by a fraction of the span keeps mildly larger runtime values
    inside the fitted hierarchy instead of on its clamp. A floor pins lo
    for targets whose domain must not cross it (reciprocal near zero).
    """
    observed = np.asarray(observed, dtype=np.float64).reshape(-1)
    if observed.size == 0:
        raise CalibrationError("cannot derive a fitting range from no activations")
    lo = float(observed.min())
    hi = float(observed.max())
    span = max(hi - lo, 1e-6 * max(1.0, abs(hi)), 1e-9)
    lo -= pad * span
    hi += pad * span
    if floor is not None:
        lo = max(lo, floor)
        hi = max(hi, lo + 1e-6)
    return lo, hi


# ---------------------------------------------------------------------------
# kernel fitting


def _dyadic_schedule(w: float, T: int, intercept: bool) -> tuple[tuple, tuple]:
    """Thresholds and resets for a sub-range of width w.

    The plain ladder halves from w/2 down to w*2^-T. The intercept variant
    spends step one on an always-on, no-reset spike (threshold small enough
    that every in-range input fires it) whose weight acts as a constant
    term; the remaining steps form the ladder one rung shorter.
    """
    if intercept:
        guard = w * 2.0 ** -(T + 8)
        rungs = tuple(w * 2.0**-t for t in range(1, T))
        return (guard,) + rungs, (0.0,) + rungs
    rungs = tuple(w * 2.0**-t for t in range(1, T + 1))
    return rungs, rungs


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
) -> tuple[FSParams, float]:
    """Fit one few-step kernel to target on [lo, hi].

    Trains on M uniform samples plus the endpoints; reports the max abs
    error over an inclusive validation grid with 10x the training density.
    Deterministic for a given seed. Inputs are taken relative to lo, which
    is how the gated bank seeds sub-range members.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if M < 64:
        raise ValueError(f"need at least 64 training samples, got M={M}")
    if T < 1:
        raise ValueError(f"need at least one step, got T={T}")
    w = hi - lo
    rng = np.random.default_rng(seed)
    u_train = np.concatenate([rng.uniform(0.0, w, M), [0.0, w]])
    y_train = _target_values(target, u_train + lo)
    x_val = np.linspace(lo, hi, 10 * M)
    y_val = _target_values(target, x_val)

    fits = []
    for intercept in (True, False):
        theta, h = _dyadic_schedule(w, T, intercept)
        guard = theta[0] if intercept else 0.0
        d = _solve_weights(_fs_bits(u_train + guard, theta, h).T, y_train)
        # the bank's own input mapping and in-order decode (a BLAS d @ bits
        # would reorder the sum), so err is the error the bank makes at run time
        weighted = _fs_bits(x_val - lo + guard, theta, h)
        weighted *= d[:, None]
        err = float(np.abs(_sum_steps(weighted) - y_val).max())
        del weighted  # the next variant reuses its pages; keeping it faults in new ones
        fits.append((err, FSParams(theta, h, tuple(float(v) for v in d))))
    # min keeps the first of a tie: the intercept variant, which handles
    # nonzero sub-range floors
    err, params = min(fits, key=lambda fit: fit[0])
    return params, err


@dataclass(frozen=True)
class CalibrationReport:
    """Everything needed to audit or reproduce one gated-bank fit."""

    target: str
    boundaries: tuple[float, ...]
    per_subrange_max_abs_err: tuple[float, ...]
    samples_per_range: int
    seed: int
    fitted: HGConfig
    steps: int
    max_abs_err: float

    def __post_init__(self) -> None:
        errs = np.asarray(self.per_subrange_max_abs_err)
        if errs.size and (not np.all(np.isfinite(errs)) or np.any(errs < 0.0)):
            raise CalibrationError("per-range errors must be finite and nonnegative")

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "boundaries": list(self.boundaries),
            "per_subrange_max_abs_err": list(self.per_subrange_max_abs_err),
            "samples_per_range": self.samples_per_range,
            "seed": self.seed,
            "fitted": hg_to_dict(self.fitted),
            "steps": self.steps,
            "max_abs_err": self.max_abs_err,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationReport":
        # checked, not coerced: int(5.7) would load a corrupt step count as 5
        for name in ("samples_per_range", "seed", "steps"):
            _check_type(name, d[name], numbers.Integral)
        for name in ("boundaries", "per_subrange_max_abs_err"):
            _check_finite_reals(name, _tuple(name, d[name]))
        _check_finite_real("max_abs_err", d["max_abs_err"])
        return cls(
            target=d["target"],
            boundaries=tuple(d["boundaries"]),
            per_subrange_max_abs_err=tuple(d["per_subrange_max_abs_err"]),
            samples_per_range=d["samples_per_range"],
            seed=d["seed"],
            fitted=hg_from_dict(d["fitted"]),
            steps=d["steps"],
            max_abs_err=float(d["max_abs_err"]),
        )


def hg_to_dict(cfg: HGConfig) -> dict:
    return {
        "boundaries": list(cfg.boundaries),
        "subneurons": [
            {"theta": list(p.theta), "h": list(p.h), "d": list(p.d)}
            for p in cfg.subneurons
        ],
    }


def _tuple(name: str, node) -> tuple:
    # a JSON list node, checked before its entries are read
    _check_type(name, node, list)
    return tuple(node)


def hg_from_dict(d: dict) -> HGConfig:
    _check_type("gate", d, dict)
    subs = []
    for i, s in enumerate(_tuple("subneurons", d["subneurons"])):
        _check_type(f"subneurons[{i}]", s, dict)
        subs.append(FSParams(_tuple("theta", s["theta"]), _tuple("h", s["h"]),
                             _tuple("d", s["d"])))
    return HGConfig(_tuple("boundaries", d["boundaries"]), tuple(subs))


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
    params = []
    errs = []
    for i in range(len(boundaries) - 1):
        try:
            p, err = fit_fs(spec.fn, boundaries[i], boundaries[i + 1], T, M, seed + i)
        except CalibrationError as exc:
            raise CalibrationError(
                f"fit of {target!r} failed on sub-range "
                f"[{boundaries[i]}, {boundaries[i + 1]}]: {exc}"
            )
        params.append(p)
        errs.append(err)
    cfg = HGConfig(boundaries, tuple(params))
    report = CalibrationReport(
        target=target,
        boundaries=boundaries,
        per_subrange_max_abs_err=tuple(errs),
        samples_per_range=M,
        seed=seed,
        fitted=cfg,
        steps=T,
        max_abs_err=max(errs),
    )
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
    """Fit a named target on an explicit range using curvature sampling."""
    spec = target_fn(name)
    lo = spec.lo if lo is None else lo
    hi = spec.hi if hi is None else hi
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
