"""Reference transformer block, its spike conversion, and artifact IO.

The float block is a standard pre-norm encoder layer stack (LayerNorm into
multi-head attention, residual, LayerNorm into FFN, residual) and serves as
the oracle every spike run is measured against. Conversion replays a
calibration batch through the float block, collects per-site activation
statistics, and turns each matrix-op input into a dual-range encoder config
and each scalar nonlinearity into a fitted gated kernel bank. Spike
execution then drives the whole block through the spike kernels at any
timestep budget and reports deviations plus an operation ledger. Both paths
run attention on all heads at once, as (heads, rows, d_head) stacks.

Weights travel in a little-endian binary container (magic LASW) and configs
in deterministic JSON. A converted block is a JSON file that names its
config and its LASW sidecar, which holds every number of the block once. A
gate's calibration report is its per-sub-range fit errors: its target is
the site's (hg_sites) and its sample count the config's, so neither is
stored or held twice.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import (
    _DISTRIBUTIONS,
    _LN_EPS,
    _MAX_SAMPLES,
    _MAX_SUBRANGES,
    TARGETS,
    CalibrationReport,
    _check_keys,
    fit_target,
    gelu,
    observed_range,
    select_oat_thresholds,
    silu,
)
from .energy import UNCHARGED, EnergyLedger
from .errors import (
    CalibrationError,
    EmptyInputError,
    FormatError,
    NonFiniteError,
    ShapeError,
    SpikePathError,
)
from .neurons import HGConfig, OATConfig, _check_exact_range, _check_type
from .spikeops import (
    SpikeMatrixTrain,
    constant_train,
    decode_train,
    encode_matrix,
    project,
    reencode,
    saa_mul,
    spike_ffn,
    spike_gated_ffn,
    spike_layernorm,
    spike_softmax,
)
from .tensors import Matrix, stats

_FFN_KINDS = ("standard", "gated")
# the quantile of an encoder site's |activation| that convert takes as its theta_nor
NORMAL_QUANTILE = 0.99


@functools.cache
def _field_types(cls: type) -> dict[str, type]:
    # resolving the string annotations costs about 0.26 ms; do it once per class
    return typing.get_type_hints(cls)


@dataclass(frozen=True)
class ModelConfig:
    """Block dimensions plus every knob a conversion experiment needs. None
    touches the energy model: a run charges each spike event one SOP. The
    encoders' normal quantile is no knob but the constant NORMAL_QUANTILE."""

    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 128
    seq_len: int = 8
    ffn_kind: str = "standard"
    T: int = 16
    H: int = 5
    N_per_nonlinearity: int = 32
    seeds: dict = field(
        default_factory=lambda: {"weights": 11, "calibration": 22, "input": 33}
    )
    calib_distribution: str = "normal"
    n_layers: int = 1
    samples_per_range: int = 4096

    def __post_init__(self) -> None:
        # JSON configs arrive untyped: check every field before comparing it
        for name, kind in _field_types(type(self)).items():
            _check_type(name, getattr(self, name), kind)
        for name in ("d_model", "n_heads", "d_ff", "seq_len", "T", "H"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        _check_exact_range(self.H, self.T)
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.ffn_kind not in _FFN_KINDS:
            raise ValueError(
                f"ffn_kind must be one of {_FFN_KINDS}, got {self.ffn_kind!r}"
            )
        if self.calib_distribution not in _DISTRIBUTIONS:
            raise ValueError(f"calib_distribution must be one of {_DISTRIBUTIONS}, "
                             f"got {self.calib_distribution!r}")
        if not 1 <= self.n_layers <= 4:
            raise ValueError(f"n_layers must be within 1..4, got {self.n_layers}")
        for name, lo, hi in (("N_per_nonlinearity", 1, _MAX_SUBRANGES),
                             ("samples_per_range", 64, _MAX_SAMPLES)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must be within {lo}..{hi}, "
                                 f"got {getattr(self, name)}")
        _check_keys("seeds", self.seeds, {"weights", "calibration", "input"})
        for key, seed in self.seeds.items():
            _check_type(f"seeds[{key!r}]", seed, int)
            if seed < 0:
                raise ValueError(f"seeds[{key!r}] must be nonnegative, got {seed}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        _check_type("config", d, dict)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def _layer_sites(cfg: ModelConfig) -> dict[str, dict]:
    """Every site of one layer, keyed below layers.<i>., by kind: weights with
    their shapes, dual-range encoders, and gates with their fitted targets.
    The spike path charges each encoder and gate (and its clamps) there."""
    d, f = cfg.d_model, cfg.d_ff
    w = {"attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d), "attn.wo": (d, d)}
    oat = ["ln1.center", "attn.in", "attn.q", "attn.k", "attn.v", "attn.probs",
           "attn.out", "ln2.center", "ffn.in"]
    hg = {"attn.exp": "exp", "attn.recip": "reciprocal"}
    for ln in ("ln1", "ln2"):
        w |= {ln + ".gamma": (1, d), ln + ".beta": (1, d)}
        hg[ln + ".invsqrt"] = "invsqrt"
    if cfg.ffn_kind == "standard":
        w |= {"ffn.w1": (d, f), "ffn.b1": (1, f), "ffn.w2": (f, d), "ffn.b2": (1, d)}
        hg["ffn.act"] = "gelu"
    else:
        w |= {"ffn.wg": (d, f), "ffn.bg": (1, f), "ffn.wu": (d, f), "ffn.bu": (1, f),
              "ffn.wd": (f, d), "ffn.bd": (1, d)}
        oat += ["ffn.mid", "ffn.z"]
        hg["ffn.act"] = "silu"
    return {"weights": w, "oat": dict.fromkeys(oat), "hg": hg}


def _block_sites(cfg: ModelConfig, kind: str) -> dict:
    return {f"layers.{i}.{key}": v for i in range(cfg.n_layers)
            for key, v in _layer_sites(cfg)[kind].items()}


def oat_sites(cfg: ModelConfig) -> list[str]:
    """Every matrix-op input that is re-encoded through a dual-range encoder."""
    return ["input", *_block_sites(cfg, "oat")]


def hg_sites(cfg: ModelConfig) -> dict[str, str]:
    """Every scalar nonlinearity on the spike path, mapped to its target."""
    return _block_sites(cfg, "hg")


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    return _block_sites(cfg, "weights")


def _check_sites(what: str, have, want, error: type) -> None:
    """Raise error naming missing and extra sites unless have's are want's."""
    have, want = set(have), set(want)
    if have != want:
        raise error(f"{what}: missing={sorted(want - have)} extra={sorted(have - want)}")


class WeightSet:
    """Named weight matrices for one block stack."""

    def __init__(self, tensors: dict[str, Matrix]) -> None:
        for name, m in tensors.items():
            if not isinstance(m, Matrix):
                raise ShapeError(f"tensor {name!r} is not a Matrix")
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Matrix:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    @property
    def names(self) -> list[str]:
        return sorted(self._tensors)

    def validate(self, cfg: ModelConfig) -> None:
        exp = expected_shapes(cfg)
        _check_sites("weight set does not match config", self._tensors, exp, ShapeError)
        for name, shape in exp.items():
            if self._tensors[name].shape != shape:
                raise ShapeError(
                    f"tensor {name!r} has shape {self._tensors[name].shape}, "
                    f"expected {shape}"
                )

    @classmethod
    def random(cls, cfg: ModelConfig, seed: int) -> "WeightSet":
        """Scaled-normal initialization, deterministic in name order."""
        rng = np.random.default_rng(seed)
        tensors: dict[str, Matrix] = {}
        for name, shape in sorted(expected_shapes(cfg).items()):
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "gamma":
                vals = 1.0 + 0.05 * rng.standard_normal(shape)
            elif leaf == "beta" or leaf.startswith("b"):
                vals = 0.02 * rng.standard_normal(shape)
            else:
                vals = rng.standard_normal(shape) / math.sqrt(shape[0])
            tensors[name] = Matrix(vals)
        return cls(tensors)


# ---------------------------------------------------------------------------
# float reference path


def _record(recorder: dict | None, site: str, arr: np.ndarray) -> None:
    if recorder is not None:
        # kept, not copied: float_forward never writes into an array it records
        recorder.setdefault(site, []).append(arr)


def _float_layernorm(a, gamma, beta, site, recorder, ledger=UNCHARGED):
    r, d = a.shape
    mu = a.mean(axis=1, keepdims=True)
    c = a - mu
    _record(recorder, site + ".center", c)
    var = (c * c).mean(axis=1, keepdims=True)
    _record(recorder, site + ".invsqrt", var)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    ledger.record_flop(site, 4 * r * d + r)  # mean, center, square-sum
    ledger.charge(site, "sqrt", r)
    ledger.record_flop(site, 3 * r * d)  # scale by inv, gamma, beta
    return c * inv * gamma + beta


def float_forward(
    cfg: ModelConfig,
    w: WeightSet,
    x: Matrix,
    ledger: EnergyLedger = UNCHARGED,
    recorder: dict | None = None,
) -> Matrix:
    """Pure float encoder stack; the oracle for every spike comparison.

    Charges float-path FLOPs to the ledger and optionally records per-site
    activations: each encoder and gate input for calibration, and the
    residual stream after each sublayer at that sublayer's key
    (layers.<i>.attn, layers.<i>.ffn) for the spike path's per-layer errors.
    """
    if x.cols != cfg.d_model:
        raise ShapeError(f"input has {x.cols} features, config wants {cfg.d_model}")
    if x.rows < 1:
        raise EmptyInputError("input must have at least one row")
    r = x.rows
    d, f, nh, dh = cfg.d_model, cfg.d_ff, cfg.n_heads, cfg.d_head
    scale = 1.0 / math.sqrt(dh)
    cur = x.array.copy()
    _record(recorder, "input", cur)

    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        ln1 = _float_layernorm(cur, w[L + "ln1.gamma"].array, w[L + "ln1.beta"].array,
                               L + "ln1", recorder, ledger)
        _record(recorder, L + "attn.in", ln1)
        q = (ln1 @ w[L + "attn.wq"].array) * scale
        k = ln1 @ w[L + "attn.wk"].array
        v = ln1 @ w[L + "attn.wv"].array
        ledger.record_flop(L + "attn.qkv", 3 * r * d * d + r * d)
        _record(recorder, L + "attn.q", q)
        _record(recorder, L + "attn.k", k)
        _record(recorder, L + "attn.v", v)
        # every head at once, as (heads, rows, d_head) stacks: the recorded
        # (heads, ...) arrays ravel head by head
        qh, kh, vh = (a.reshape(r, nh, dh).swapaxes(0, 1) for a in (q, k, v))
        logits = qh @ kh.swapaxes(1, 2)
        zhat = logits - logits.max(axis=-1, keepdims=True)
        _record(recorder, L + "attn.exp", zhat)
        e = np.exp(zhat)
        denom = e.sum(axis=-1, keepdims=True)
        _record(recorder, L + "attn.recip", denom)
        probs = e / denom
        _record(recorder, L + "attn.probs", probs)
        ctx = (probs @ vh).swapaxes(0, 1).reshape(r, d)
        ledger.record_flop(L + "attn.scores", nh * (2 * r * r * dh + 3 * r * r))
        ledger.charge(L + "attn.scores", "exp", nh * r * r)
        _record(recorder, L + "attn.out", ctx)
        attn = ctx @ w[L + "attn.wo"].array
        ledger.record_flop(L + "attn.wo", r * d * d)
        cur = cur + attn
        ledger.record_flop(L + "attn.residual", r * d)
        _record(recorder, L + "attn", cur)

        ln2 = _float_layernorm(cur, w[L + "ln2.gamma"].array, w[L + "ln2.beta"].array,
                               L + "ln2", recorder, ledger)
        _record(recorder, L + "ffn.in", ln2)
        if cfg.ffn_kind == "standard":
            pre = ln2 @ w[L + "ffn.w1"].array + w[L + "ffn.b1"].array
            _record(recorder, L + "ffn.act", pre)
            hid = gelu(pre)
            out = hid @ w[L + "ffn.w2"].array + w[L + "ffn.b2"].array
            ledger.record_flop(L + "ffn", r * d * f + r * f + r * f * d + r * d)
            ledger.charge(L + "ffn", "gelu", r * f)
        else:
            g_pre = ln2 @ w[L + "ffn.wg"].array + w[L + "ffn.bg"].array
            _record(recorder, L + "ffn.act", g_pre)
            g = silu(g_pre)
            u = ln2 @ w[L + "ffn.wu"].array + w[L + "ffn.bu"].array
            _record(recorder, L + "ffn.mid", u)
            z = u * g
            _record(recorder, L + "ffn.z", z)
            out = z @ w[L + "ffn.wd"].array + w[L + "ffn.bd"].array
            ledger.record_flop(L + "ffn",
                               2 * (r * d * f + r * f) + r * f + r * f * d + r * d)
            # silu = x * sigmoid(x): one exp plus three elementwise ops
            ledger.charge(L + "ffn", "exp", r * f)
            ledger.record_flop(L + "ffn", 3 * r * f)
        cur = cur + out
        ledger.record_flop(L + "ffn.residual", r * d)
        _record(recorder, L + "ffn", cur)
    return Matrix(cur)


# ---------------------------------------------------------------------------
# conversion


@dataclass(frozen=True)
class ConvertedBlock:
    """Weights plus every fitted encoder and gate the spike path needs."""

    config: ModelConfig
    weights: WeightSet
    oat: dict[str, OATConfig]
    hg: dict[str, HGConfig]
    reports: dict[str, CalibrationReport]
    # spike_forward's float oracle of the last input it ran on this block
    # (_oracle); not saved, and a new block starts empty
    _oracle_slot: tuple | None = field(default=None, init=False, compare=False,
                                       repr=False)

    def check_complete(self) -> None:
        cfg = self.config
        self.weights.validate(cfg)
        _check_sites("encoder sites mismatch", self.oat, oat_sites(cfg), CalibrationError)
        _check_sites("gate sites mismatch", self.hg, hg_sites(cfg), CalibrationError)
        _check_sites("report sites mismatch", self.reports, self.hg, CalibrationError)
        # a saved encoder keeps only its thresholds: H and T are the config's
        for site, c in self.oat.items():
            if (c.H, c.T) != (cfg.H, cfg.T):
                raise CalibrationError(f"encoder site {site!r}: H, T must be the "
                                       f"config's {cfg.H}, {cfg.T}, got {c.H}, {c.T}")
        for site, bank in self.hg.items():
            steps, n = bank.d.shape
            # a bank carries its own step count: a shorter one would run
            # padded with silent steps
            if steps != cfg.T:
                raise CalibrationError(f"hg site {site!r}: d must be {cfg.T} "
                                       f"rows, one per step of the config's T, "
                                       f"got {steps}")
            # convert fits at most N; fewer stay legal, since fit_target
            # drops collapsed boundaries
            if n > cfg.N_per_nonlinearity:
                raise CalibrationError(f"hg site {site!r}: {n} sub-ranges must be at most "
                                       f"the config's N_per_nonlinearity "
                                       f"{cfg.N_per_nonlinearity}")
            if len(self.reports[site].per_subrange_max_abs_err) != n:
                raise CalibrationError(f"reports site {site!r}: per_subrange_max_abs_err "
                                       f"must be {n} errors, one per gate sub-range")


def convert(cfg: ModelConfig, w: WeightSet, calib_sample: Matrix) -> ConvertedBlock:
    """Calibrate every encoder and gate from a float replay of the sample.

    The sample holds stacked inputs: its row count must be a multiple of
    seq_len, and each seq_len slice is replayed as one block input. Each
    encoder's theta_nor is the NORMAL_QUANTILE of its site's |activation|,
    and each gate is fitted on its site's observed range. A replay
    that overflows is refused with a NonFiniteError naming the first site,
    in replay order, that holds a non-finite value.
    """
    w.validate(cfg)
    if calib_sample.rows == 0:
        raise EmptyInputError("calibration sample must be nonempty")
    if calib_sample.cols != cfg.d_model:
        raise ShapeError(
            f"calibration sample has {calib_sample.cols} features, "
            f"config wants {cfg.d_model}"
        )
    if calib_sample.rows % cfg.seq_len != 0:
        raise ShapeError(
            f"calibration rows ({calib_sample.rows}) must stack whole "
            f"sequences of length {cfg.seq_len}"
        )
    recorder: dict[str, list[np.ndarray]] = {}
    a = calib_sample.array
    # numpy's warnings are off: an overflow is refused below, by site
    with np.errstate(all="ignore"):
        try:
            for b in range(calib_sample.rows // cfg.seq_len):
                float_forward(cfg, w, Matrix(a[b * cfg.seq_len:(b + 1) * cfg.seq_len]),
                              recorder=recorder)
        except NonFiniteError:
            pass  # a non-finite output, whose stream the recorder holds
    for site, arrs in recorder.items():  # in replay order
        if not all(np.isfinite(arr).all() for arr in arrs):
            raise NonFiniteError(f"calibration failed at site {site!r}: the float "
                                 f"replay of the calibration sample overflowed to a "
                                 f"non-finite value")

    def pooled(site: str) -> np.ndarray:
        return np.concatenate([arr.ravel() for arr in recorder[site]])

    oat: dict[str, OATConfig] = {}
    for site in oat_sites(cfg):
        vals = pooled(site)
        st = stats(Matrix(vals.reshape(1, -1)), quantiles=(NORMAL_QUANTILE,))
        t_nor, t_out = select_oat_thresholds(st, NORMAL_QUANTILE)
        oat[site] = OATConfig(t_nor, t_out, cfg.H, cfg.T)

    targets = hg_sites(cfg)
    hg: dict[str, HGConfig] = {}
    reports: dict[str, CalibrationReport] = {}
    for site, target in targets.items():
        lo, hi = observed_range(pooled(site), floor=TARGETS[target].floor)
        try:
            fitted, report = fit_target(target, cfg.N_per_nonlinearity,
                                        cfg.T, cfg.samples_per_range, lo=lo, hi=hi)
        except CalibrationError as exc:
            raise CalibrationError(f"calibration failed at site {site!r}: {exc}")
        hg[site] = fitted
        reports[site] = report
    block = ConvertedBlock(cfg, w, oat, hg, reports)
    block.check_complete()
    return block


def ablate_dual_range(block: ConvertedBlock) -> ConvertedBlock:
    """Route everything through the coarse encoder path (single-threshold).

    The ablation keeps theta_out and pushes theta_nor effectively to zero,
    so every element rides the outlier scale; gates and weights are shared
    with the original block.
    """
    oat = {
        site: replace(c, theta_nor=c.theta_out * 1e-12)
        for site, c in block.oat.items()
    }
    return ConvertedBlock(block.config, block.weights, oat, block.hg, block.reports)


# ---------------------------------------------------------------------------
# spike execution


@dataclass
class RunTrace:
    """Everything measured during one spike run, oracle values included.

    per_layer maps each sublayer key (layers.<i>.attn, layers.<i>.ffn) to the
    mean absolute deviation of the residual stream after that sublayer.
    The ledger holds the run's SOPs and FLOPs by site, and its counters map
    "<gate site>.clamped" and "<encoder site>.saturated" to how many inputs
    fell outside the gate's range or above the encoder's top grid level; a
    site with none has no entry. to_dict writes those counters as
    `counters`.
    """

    steps: int
    output_rel_err: float
    per_layer: dict[str, float]
    ledger: EnergyLedger

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "output_rel_err": self.output_rel_err,
            "per_layer": dict(sorted(self.per_layer.items())),
            "counters": dict(sorted(self.ledger.counters.items())),
            "ledger": self.ledger.to_dict(),
        }


def relative_error(approx: Matrix, ref: Matrix) -> float:
    """Mean absolute deviation normalized by the oracle's mean magnitude."""
    if approx.shape != ref.shape:
        raise ShapeError(f"shape mismatch: {approx.shape} vs {ref.shape}")
    denom = float(np.abs(ref.array).mean())
    num = float(np.abs(approx.array - ref.array).mean())
    return num / max(denom, 1e-300)


def _oracle(block: ConvertedBlock, x: Matrix) -> tuple:
    """(output, residuals, charges) of the float oracle on x: its output, the
    residual stream after each sublayer by that sublayer's key, and its FLOP
    charges as (site, count) pairs in charge order. None depends on T, so
    the block keeps them for the last input in one slot, keyed by the
    input's shape and bytes, and a call that repeats that input reuses them."""
    key = (x.shape, x.array.tobytes())
    slot = block._oracle_slot
    if slot is not None and slot[0] == key:
        return slot[1:]
    ledger = EnergyLedger()
    refs: dict[str, list[np.ndarray]] = {}
    y_ref = float_forward(block.config, block.weights, x, ledger=ledger, recorder=refs)
    residuals = {f"layers.{i}.{sub}": refs[f"layers.{i}.{sub}"][0]
                 for i in range(block.config.n_layers) for sub in ("attn", "ffn")}
    charges = tuple((site, c["flops"]) for site, c in ledger.by_site.items())
    # replaced whole, so a concurrent call reads an old slot or a new one
    object.__setattr__(block, "_oracle_slot", (key, y_ref, residuals, charges))
    return y_ref, residuals, charges


def spike_forward(
    block: ConvertedBlock, x: Matrix, T: int | None = None
) -> tuple[Matrix, RunTrace]:
    """Run the converted block on spike dynamics for T steps.

    The trace reports per-layer deviations against the paired float forward
    and the output error, alongside the SOP/FLOP ledger covering both paths.
    The float forward is computed once per input: while consecutive calls on
    the block repeat an input, at any T, they reuse its output, residuals
    and FLOP charges, with the same outputs, traces and ledgers.
    """
    cfg = block.config
    if T is None:
        T = cfg.T
    _check_exact_range(cfg.H, T)
    w = block.weights
    ledger = EnergyLedger()
    y_ref, refs, charges = _oracle(block, x)
    for site, flops in charges:
        ledger.record_flop(site, flops)

    # every site's weight, encoder or gate by its block key; every encoder
    # and gate runs at T, whatever depth it was fitted at
    p = {name: w[name] for name in w.names} | block.oat | block.hg
    per_layer: dict[str, float] = {}
    scale = 1.0 / math.sqrt(cfg.d_head)
    r, nh = x.rows, cfg.n_heads
    ffn = spike_ffn if cfg.ffn_kind == "standard" else spike_gated_ffn

    def heads(a):  # (T, rows, d_model) -> (T, heads, rows, d_head)
        return a.reshape(T, r, nh, cfg.d_head).swapaxes(1, 2)

    def attention(L: str, stream: SpikeMatrixTrain) -> Matrix:
        A = L + "attn."
        ln1 = spike_layernorm(stream, p, L + "ln1", ledger)
        attn_in = reencode(ln1, p[A + "in"], ledger, A + "in")
        q = project(attn_in, p[A + "wq"], None, ledger, A + "wq")
        # unchecked: its encoder refuses a non-finite entry
        q = encode_matrix(Matrix._wrap(q.array * scale), p[A + "q"], T, ledger, A + "q")
        k, v = (encode_matrix(project(attn_in, p[A + "w" + n], None, ledger, A + "w" + n),
                              p[A + n], T, ledger, A + n) for n in "kv")
        # every head at once: (T, heads, rows, rows) logits, whose rows
        # the softmax and the probs encoder take as (T, heads * rows, rows)
        logits = saa_mul(q._regroup(heads),
                         k._regroup(lambda a: heads(a).swapaxes(2, 3)),
                         ledger, A + "qk")
        probs = spike_softmax(logits._regroup(lambda a: a.reshape(T, nh * r, r)),
                              p, L + "attn", ledger)
        probs = reencode(probs, p[A + "probs"], ledger, A + "probs")
        pv = saa_mul(probs._regroup(lambda a: a.reshape(T, nh, r, r)),
                     v._regroup(heads), ledger, A + "pv")
        merged = pv._regroup(lambda a: a.swapaxes(1, 2).reshape(T, r, -1))
        ctx = reencode(merged, p[A + "out"], ledger, A + "out")
        return project(ctx, p[A + "wo"], None, ledger, A + "wo")

    def feed_forward(L: str, stream: SpikeMatrixTrain) -> Matrix:
        ln2 = spike_layernorm(stream, p, L + "ln2", ledger)
        out = ffn(ln2, p, L + "ffn", ledger)
        return decode_train(out, ledger, L + "ffn.out_decode")

    cur = x.array.copy()
    stream = encode_matrix(Matrix(cur), p["input"], T, ledger, "input")
    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        for sub, run in (("attn", attention), ("ffn", feed_forward)):
            try:
                cur = cur + run(L, stream).array
                stream = constant_train(Matrix(cur), T)
            except NonFiniteError as exc:
                raise SpikePathError(L + sub) from exc
            per_layer[L + sub] = float(np.abs(cur - refs[L + sub]).mean())

    out = Matrix(cur)
    trace = RunTrace(
        steps=T,
        output_rel_err=relative_error(out, y_ref),
        per_layer=per_layer,
        ledger=ledger,
    )
    return out, trace


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"LASW"
_WEIGHT_VERSION = 1
_BLOCK_FORMAT = "spikeconvert-block"
_BLOCK_VERSION = 8
_BLOCK_KEYS = {"format", "version", "config", "weights_file"}
# a gate site's tensors in the block's LASW sidecar, <site>.<name> for each
# name: its bank's boundaries as a (1, N+1) row and step weights d as a (T, N)
# stack, and its fit's per-sub-range errors err as a (1, N) row. An encoder
# site's is <site>.theta, its [theta_nor, theta_out] as a (1, 2) row.
_GATE_TENSORS = ("boundaries", "d", "err")


def dump_json(obj: dict, path: str) -> None:
    """Deterministic JSON: sorted keys, stable floats, trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path: str):
    """A UTF-8 JSON file's document; a syntax or encoding error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path!r} is not UTF-8 JSON: {exc}") from None


def save_config(cfg: ModelConfig, path: str) -> None:
    dump_json(cfg.to_dict(), path)


def load_config(path: str) -> ModelConfig:
    return ModelConfig.from_dict(read_json(path))


def _write_lasw(tensors: dict[str, np.ndarray], path: str) -> None:
    """Named 2-D float64 arrays, in name order, as a LASW file."""
    blob = bytearray(struct.pack("<4sII", _MAGIC, _WEIGHT_VERSION, len(tensors)))
    for name in sorted(tensors):
        nb = name.encode("utf-8")
        a = tensors[name]
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<II", *a.shape)
        blob += a.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(blob)


def _weight_arrays(ws: WeightSet) -> dict[str, np.ndarray]:
    return {name: ws[name].array for name in ws.names}


def save_weights(ws: WeightSet, path: str) -> None:
    _write_lasw(_weight_arrays(ws), path)


class _Reader:
    def __init__(self, data: bytes, path: str) -> None:
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated weight file {self.path!r}: wanted {n} bytes at "
                f"offset {self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


def _read_lasw(path: str) -> dict[str, np.ndarray]:
    """A LASW file's named arrays: read-only (rows, cols) float64, all finite."""
    with open(path, "rb") as fh:
        rd = _Reader(fh.read(), path)
    magic, version, count = struct.unpack("<4sII", rd.take(12))
    if magic != _MAGIC:
        raise FormatError(f"{path!r}: bad magic: expected {_MAGIC!r}, found {magic!r}")
    if version != _WEIGHT_VERSION:
        raise FormatError(
            f"{path!r}: unsupported weight version: expected {_WEIGHT_VERSION}, "
            f"found {version}"
        )
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", rd.take(4))
        try:
            name = rd.take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path!r}: tensor name at offset {rd.pos - nlen} "
                              f"is not UTF-8: {exc}") from None
        rows, cols = struct.unpack("<II", rd.take(8))
        payload = rd.take(8 * rows * cols)
        if name in tensors:
            raise FormatError(f"{path!r}: duplicate tensor name {name!r}")
        vals = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
        if not np.isfinite(vals).all():
            r, c = np.argwhere(~np.isfinite(vals))[0]
            raise NonFiniteError(f"{path!r}: tensor {name!r} must be finite, "
                                 f"got {vals[r, c]} at ({r}, {c})")
        tensors[name] = vals
    if rd.pos != len(rd.data):
        raise FormatError(
            f"{path!r}: {len(rd.data) - rd.pos} trailing bytes after the last tensor"
        )
    return tensors


def _weight_set(tensors: dict[str, np.ndarray]) -> WeightSet:
    # _read_lasw checked the arrays and made them read-only: no copy needed
    return WeightSet({name: Matrix._wrap(a) for name, a in tensors.items()})


def load_weights(path: str) -> WeightSet:
    return _weight_set(_read_lasw(path))


def _take(where: str, site: str, names, tensors: dict[str, np.ndarray],
          path: str) -> list[np.ndarray]:
    """Take a site's tensors, <site>.<name> for each name, out of a sidecar's."""
    keys = [f"{site}.{name}" for name in names]
    missing = [key for key in keys if key not in tensors]
    if missing:
        raise FormatError(f"{where}: tensors {missing} missing from {path!r}")
    return [tensors.pop(key) for key in keys]


def _row(where: str, name: str, a: np.ndarray, n: int) -> np.ndarray:
    """The entries of a tensor that must be a (1, n) row."""
    if a.shape != (1, n):
        raise ShapeError(f"{where}: {name} must be (1, {n}), got {a.shape}")
    return a[0]


def _encoder(site: str, cfg: ModelConfig, tensors: dict[str, np.ndarray],
             path: str) -> OATConfig:
    """Take an encoder site's thresholds out of a sidecar's tensors and build
    its encoder at the config's H and T; errors name the site and the tensor."""
    where = f"encoder site {site!r}"
    (theta,) = _take(where, site, ("theta",), tensors, path)
    theta = _row(where, "theta", theta, 2)
    try:
        return OATConfig(*theta.tolist(), cfg.H, cfg.T)
    except ValueError as exc:
        raise ValueError(f"{where}: theta: {exc}") from exc


def _gate(site: str, tensors: dict[str, np.ndarray],
          path: str) -> tuple[HGConfig, CalibrationReport]:
    """Take a gate site's tensors out of a sidecar's and build its bank and
    its fit's report; errors name the site and the tensor."""
    where = f"hg site {site!r}"
    b, d, err = _take(where, site, _GATE_TENSORS, tensors, path)
    n = d.shape[1]
    b = _row(where, "boundaries", b, n + 1)
    err = _row(where, "err", err, n)
    try:
        bank = HGConfig(b, d)
    except ValueError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    try:
        return bank, CalibrationReport(tuple(err.tolist()))
    except CalibrationError as exc:
        raise CalibrationError(f"{where}: err: {exc}") from exc


def save_block(block: ConvertedBlock, path: str) -> None:
    """Write the block's JSON to path, and its weights, encoder thresholds,
    gate banks and fit errors to the LASW sidecar beside it (path with a
    .lasw suffix). The JSON names the format, the config and the sidecar."""
    block.check_complete()  # what the file leaves out must be derivable on load
    weights_path = os.path.splitext(path)[0] + ".lasw"
    tensors = _weight_arrays(block.weights)
    for site, c in block.oat.items():
        tensors[site + ".theta"] = np.array([[c.theta_nor, c.theta_out]])
    for site, c in block.hg.items():
        err = np.array([block.reports[site].per_subrange_max_abs_err])
        tensors |= {f"{site}.{name}": a for name, a in
                    zip(_GATE_TENSORS, (c.boundaries[None], c.d, err))}
    _write_lasw(tensors, weights_path)
    dump_json({"format": _BLOCK_FORMAT, "version": _BLOCK_VERSION,
               "config": block.config.to_dict(),
               "weights_file": os.path.basename(weights_path)}, path)


def load_block(path: str) -> ConvertedBlock:
    """Read a block file and the sidecar its weights_file names, which lies
    in the block file's directory. The sidecar holds every number: the
    weights, each encoder's thresholds, and each gate's bank and fit
    errors."""
    doc = read_json(path)
    _check_type("block", doc, dict)
    if doc.get("format") != _BLOCK_FORMAT:
        raise FormatError(
            f"bad block format: expected {_BLOCK_FORMAT!r}, found {doc.get('format')!r}"
        )
    if doc.get("version") != _BLOCK_VERSION:
        raise FormatError(
            f"unsupported block version: expected {_BLOCK_VERSION}, "
            f"found {doc.get('version')!r}; reconvert the block with "
            f"`spikeconvert convert`"
        )
    _check_keys("block", doc, _BLOCK_KEYS)
    cfg = ModelConfig.from_dict(doc["config"])
    name = doc["weights_file"]
    _check_type("weights_file", name, str)
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ValueError(f"weights_file must be a bare file name in the block's "
                         f"directory, got {name!r}")
    weights_path = os.path.join(os.path.dirname(path) or ".", name)
    tensors = _read_lasw(weights_path)
    oat = {site: _encoder(site, cfg, tensors, weights_path) for site in oat_sites(cfg)}
    hg, reports = {}, {}
    for site in hg_sites(cfg):
        hg[site], reports[site] = _gate(site, tensors, weights_path)
    # the weights are what the encoders and gates leave
    block = ConvertedBlock(cfg, _weight_set(tensors), oat, hg, reports)
    block.check_complete()
    return block
