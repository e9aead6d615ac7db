"""Threshold selection and kernel fitting from activation statistics.

Three concerns live here.

Threshold selection turns an activation sample into the two magnitude
thresholds of the dual-range encoder (a high quantile for the typical range,
the sample max for outliers). A gated kernel bank's sub-range boundaries are
equal-probability-mass quantiles of a curvature sample of its target, not of
activations, so the target's bends get narrow sub-ranges (fit_target).

Fitting tunes one few-step kernel per sub-range to a scalar target function.
Thresholds and resets follow the dyadic schedule that the gated bank runs
(defined in the neurons module docstring), so the firing bits are fixed,
the binary digits of K = floor(u / q) that the bank fires on, and the
per-step output weights solve one linear least-squares problem directly.
The schedule's first step is an always-on spike, a constant term that a
plain dyadic ladder cannot express, needed wherever the target is far from
zero at a sub-range floor.

Errors are always reported on a validation grid 10x denser than the
training sample, never on the training sample itself, and are decoded as
the gated bank decodes at run time: one lookup of K's digits in a table of
the in-order partial sums of the step weights, built with the recurrence's
own products and additions, so it matches the recurrence bit for bit
(_dyadic_decode). The fit refuses the parameters the bank refuses, more
than _MAX_GATE_STEPS steps or a sub-range whose guard step is not a finite
normal float, and more than _MAX_SAMPLES training samples.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError, FormatError
from .neurons import HGConfig, _dyadic_digits, _gate_guards, _rung_bits
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


# The LayerNorm epsilon: the float LayerNorm (model) divides by
# sqrt(var + _LN_EPS), and the invsqrt target is the same function.
_LN_EPS = 1e-5


def _invsqrt(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(np.asarray(x, dtype=np.float64) + _LN_EPS)


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


def _dyadic_bits(u: np.ndarray, w: float, T: int) -> np.ndarray:
    """The (T, n) firing bits, as 0.0/1.0, of the dyadic schedule of width w
    on inputs guard <= u <= fl(w + guard): the always-on step's bit on top
    of the rungs' digits of K = floor(u / q) (_dyadic_digits)."""
    bits = np.ones((T, u.size))
    bits[1:] = _rung_bits(_dyadic_digits(u, w * 2.0 ** (1 - T), T), T)
    return bits


def _dyadic_decode(u: np.ndarray, w: float, d: np.ndarray) -> np.ndarray:
    """The dyadic schedule of width w decoded with step weights d on inputs
    guard <= u <= fl(w + guard): bit for bit the in-order step sum of the
    recurrence's weighted firing bits, read off the digits of
    K = floor(u / q) (_dyadic_digits).

    The decode is gathered from a table of the in-order partial sums
    d[0] + b_1 d[1] + ... + b_P d[P] over the first P rungs' bits. The table
    is built with the recurrence's own products (d[t] * 0.0 for a silent
    step) and its left-to-right additions, so signed zeros come out as the
    recurrence's. It has at most u.size entries; any rungs past P are added
    one at a time, in order, from K's digits.
    """
    T = d.size
    K = _dyadic_digits(u, w * 2.0 ** (1 - T), T)
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
    out = sums.take(K if P == T - 1 else K >> (T - 1 - P))
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

    Solves the output weights of the dyadic schedule on M uniform training
    samples plus the endpoints; reports the max abs error over an inclusive
    validation grid with 10x the training density. Deterministic for a
    given seed. Inputs are taken relative to lo, which is how the gated bank
    seeds sub-range members.

    The training bits are the digits of K = floor(u / q) that the bank fires
    on, and the validation grid is decoded from them by _dyadic_decode, bit
    for bit as the bank decodes at run time. So the error is the one the
    bank makes. M above _MAX_SAMPLES and what the bank refuses (T above
    _MAX_GATE_STEPS, a range whose guard step is not a finite normal float)
    are refused.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not 64 <= M <= _MAX_SAMPLES:
        raise ValueError(f"M must be within 64..{_MAX_SAMPLES} training samples, "
                         f"got M={M}")
    guard = float(_gate_guards(np.array([lo, hi]), T)[0])
    w = hi - lo
    rng = np.random.default_rng(seed)
    u_train = np.concatenate([rng.uniform(0.0, w, M), [0.0, w]])
    y_train = _target_values(target, u_train + lo)
    x_val = np.linspace(lo, hi, 10 * M)
    y_val = _target_values(target, x_val)

    d = _solve_weights(_dyadic_bits(u_train + guard, w, T).T, y_train)
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
    return HGConfig((lo, hi), d[:, None]), err


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
    """The bank as JSON: its boundaries and its (T, N) step weights, one row
    per step, as a block's sidecar stores them."""
    return {"boundaries": cfg.boundaries.tolist(), "d": cfg.d.tolist()}


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


def fit_target(
    name: str,
    N: int,
    T: int,
    M: int,
    seed: int,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[HGConfig, CalibrationReport]:
    """Fit a named target's bank of N sub-ranges on [lo, hi] (default: the
    target's own range).

    The inner boundaries are the k/N quantiles of a curvature sample of the
    target (curvature_sample), so sub-ranges narrow where it bends. A
    boundary within 1e-12 of the span of the last one kept is dropped, with
    a warning, leaving fewer sub-ranges. Sub-range i is fitted with seed + i,
    so N=1 is exactly fit_fs(seed) on [lo, hi]; a fit that fails names the
    target and its sub-range. A range that starts below the target's domain
    floor is refused, and so is one the bank refuses as a whole
    (_gate_guards), before it is sampled.
    """
    if N < 1:
        raise ValueError(f"need at least one sub-range, got N={N}")
    spec = target_fn(name)
    lo = spec.lo if lo is None else lo
    hi = spec.hi if hi is None else hi
    if spec.floor is not None and lo < spec.floor:
        raise CalibrationError(
            f"range [{lo}, {hi}] starts below the {name!r} target's domain "
            f"floor {spec.floor}"
        )
    _gate_guards(np.array([lo, hi]), T)
    rng = np.random.default_rng(seed)
    sample = curvature_sample(spec.fn, lo, hi, 4 * M, rng)
    sample.sort()
    bounds = [lo] + [percentile(sample, k / N) for k in range(1, N)] + [hi]
    kept = [lo]
    for b in bounds[1:]:
        if b - kept[-1] > 1e-12 * (hi - lo):
            kept.append(b)
    kept[-1] = hi
    if len(kept) < len(bounds):
        warnings.warn(
            f"sample supports only {len(kept) - 1} distinct sub-ranges, not {N}",
            stacklevel=2,
        )
    banks, errs = [], []
    for i, (a, b) in enumerate(zip(kept, kept[1:])):
        try:
            # looked up at each call: perfbench ticks its clock at calibration.fit_fs
            bank, err = fit_fs(spec.fn, a, b, T, M, seed + i)
        except (CalibrationError, ValueError) as exc:
            raise type(exc)(f"fit of {name!r} failed on sub-range [{a}, {b}]: {exc}")
        banks.append(bank)
        errs.append(err)
    cfg = HGConfig(kept, np.hstack([bank.d for bank in banks]))
    return cfg, CalibrationReport(name, tuple(errs), M, seed)


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
