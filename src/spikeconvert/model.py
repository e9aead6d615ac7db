"""Reference transformer block, its spike conversion, and artifact IO.

The float block is a standard pre-norm encoder layer stack (LayerNorm into
multi-head attention, residual, LayerNorm into FFN, residual) and serves as
the oracle every spike run is measured against. Conversion replays a
calibration batch through the float block, collects per-site activation
statistics, and turns each matrix-op input into a dual-range encoder config
and each scalar nonlinearity into a fitted gated kernel bank. Spike
execution then drives the whole block through the spike kernels at any
timestep budget and reports deviations plus an operation ledger.

Weights travel in a little-endian binary container (magic LASW), configs
and converted blocks in deterministic JSON.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import struct
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import (
    TARGETS,
    CalibrationReport,
    fit_target,
    gelu,
    hg_from_dict,
    hg_to_dict,
    observed_range,
    select_oat_thresholds,
    silu,
)
from .errors import CalibrationError
from .energy import EnergyLedger
from .errors import (
    EmptyInputError,
    FormatError,
    NonFiniteError,
    ShapeError,
    SpikePathError,
)
from .neurons import HGConfig, OATConfig, _check_type
from .spikeops import (
    SpikeMatrixTrain,
    apply_hg,
    concat_cols,
    constant_train,
    decode_train,
    encode_matrix,
    saa_mul,
    saw_mul_right,
    slice_cols,
    spike_ffn,
    spike_gated_ffn,
    spike_layernorm,
    spike_softmax,
    transpose_train,
)
from .tensors import Matrix, stats

_FFN_KINDS = ("standard", "gated")
_LN_EPS = 1e-5  # matches the fitted inverse-root target 1/sqrt(x + 1e-5)


@dataclass(frozen=True)
class ModelConfig:
    """Block dimensions plus every knob a conversion experiment needs."""

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
    normal_quantile: float = 0.99
    samples_per_range: int = 4096
    sop_bits: bool = False

    def __post_init__(self) -> None:
        # JSON configs arrive untyped: check every field before comparing it
        for name, kind in typing.get_type_hints(type(self)).items():
            _check_type(name, getattr(self, name), kind)
        for name in ("d_model", "n_heads", "d_ff", "seq_len", "T", "H",
                     "N_per_nonlinearity", "samples_per_range"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.ffn_kind not in _FFN_KINDS:
            raise ValueError(
                f"ffn_kind must be one of {_FFN_KINDS}, got {self.ffn_kind!r}"
            )
        if not 1 <= self.n_layers <= 4:
            raise ValueError(f"n_layers must be within 1..4, got {self.n_layers}")
        if not 0.0 < self.normal_quantile < 1.0:
            raise ValueError("normal_quantile must be in (0, 1)")
        if self.samples_per_range < 64:
            raise ValueError("samples_per_range must be at least 64")
        for key in ("weights", "calibration", "input"):
            if key not in self.seeds:
                raise ValueError(f"seeds must include {key!r}")
            _check_type(f"seeds[{key!r}]", self.seeds[key], int)

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def oat_sites(cfg: ModelConfig) -> list[str]:
    """Every matrix-op input that is re-encoded through a dual-range encoder."""
    names = ["input"]
    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        names += [
            L + "ln1.center", L + "attn.in", L + "attn.q", L + "attn.k",
            L + "attn.v", L + "attn.probs", L + "attn.out", L + "ln2.center",
            L + "ffn.in",
        ]
        if cfg.ffn_kind == "gated":
            names += [L + "ffn.mid", L + "ffn.z"]
    return names


def hg_sites(cfg: ModelConfig) -> dict[str, str]:
    """Every scalar nonlinearity on the spike path, mapped to its target."""
    act = "gelu" if cfg.ffn_kind == "standard" else "silu"
    sites: dict[str, str] = {}
    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        sites[L + "ln1.square"] = "square"
        sites[L + "ln1.invsqrt"] = "invsqrt"
        sites[L + "attn.exp"] = "exp"
        sites[L + "attn.recip"] = "reciprocal"
        sites[L + "ln2.square"] = "square"
        sites[L + "ln2.invsqrt"] = "invsqrt"
        sites[L + "ffn.act"] = act
    return sites


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    d, f = cfg.d_model, cfg.d_ff
    shapes: dict[str, tuple[int, int]] = {}
    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        for ln in ("ln1", "ln2"):
            shapes[L + ln + ".gamma"] = (1, d)
            shapes[L + ln + ".beta"] = (1, d)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[L + "attn." + name] = (d, d)
        if cfg.ffn_kind == "standard":
            shapes[L + "ffn.w1"] = (d, f)
            shapes[L + "ffn.b1"] = (1, f)
            shapes[L + "ffn.w2"] = (f, d)
            shapes[L + "ffn.b2"] = (1, d)
        else:
            for name in ("wg", "wu"):
                shapes[L + "ffn." + name] = (d, f)
                shapes[L + "ffn.b" + name[1]] = (1, f)
            shapes[L + "ffn.wd"] = (f, d)
            shapes[L + "ffn.bd"] = (1, d)
    return shapes


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
        missing = sorted(set(exp) - set(self._tensors))
        extra = sorted(set(self._tensors) - set(exp))
        if missing or extra:
            raise ShapeError(
                f"weight set does not match config: missing={missing} extra={extra}"
            )
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
        recorder.setdefault(site, []).append(np.array(arr, copy=True))


def _float_layernorm(a, gamma, beta, ledger, site, recorder):
    r, d = a.shape
    mu = a.mean(axis=1, keepdims=True)
    c = a - mu
    _record(recorder, site + ".center", c)
    _record(recorder, site + ".square", c)
    var = (c * c).mean(axis=1, keepdims=True)
    _record(recorder, site + ".invsqrt", var)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    if ledger is not None:
        ledger.record_flop(site, 4 * r * d + r)  # mean, center, square-sum
        ledger.charge(site, "sqrt", r)
        ledger.record_flop(site, 3 * r * d)  # scale by inv, gamma, beta
    return c * inv * gamma + beta


def float_forward(
    cfg: ModelConfig,
    w: WeightSet,
    x: Matrix,
    ledger: EnergyLedger | None = None,
    recorder: dict | None = None,
    layer_outs: list | None = None,
) -> Matrix:
    """Pure float encoder stack; the oracle for every spike comparison.

    Optionally charges float-path FLOPs to a ledger, records per-site
    activations for calibration, and captures the residual stream after
    each sublayer.
    """
    if x.cols != cfg.d_model:
        raise ShapeError(f"input has {x.cols} features, config wants {cfg.d_model}")
    if x.rows < 1:
        raise EmptyInputError("input must have at least one row")
    r = x.rows
    d, f, dh = cfg.d_model, cfg.d_ff, cfg.d_head
    scale = 1.0 / math.sqrt(dh)
    cur = x.array.copy()
    _record(recorder, "input", cur)

    def mac(site: str, n: int) -> None:
        if ledger is not None:
            ledger.record_flop(site, n)

    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        ln1 = _float_layernorm(cur, w[L + "ln1.gamma"].array, w[L + "ln1.beta"].array,
                               ledger, L + "ln1", recorder)
        _record(recorder, L + "attn.in", ln1)
        q = (ln1 @ w[L + "attn.wq"].array) * scale
        k = ln1 @ w[L + "attn.wk"].array
        v = ln1 @ w[L + "attn.wv"].array
        mac(L + "attn.qkv", 3 * r * d * d + r * d)
        _record(recorder, L + "attn.q", q)
        _record(recorder, L + "attn.k", k)
        _record(recorder, L + "attn.v", v)
        ctx = np.empty((r, d))
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            logits = q[:, sl] @ k[:, sl].T
            zhat = logits - logits.max(axis=1, keepdims=True)
            _record(recorder, L + "attn.exp", zhat)
            e = np.exp(zhat)
            denom = e.sum(axis=1, keepdims=True)
            _record(recorder, L + "attn.recip", denom)
            probs = e / denom
            _record(recorder, L + "attn.probs", probs)
            ctx[:, sl] = probs @ v[:, sl]
            mac(L + "attn.scores", 2 * r * r * dh + 3 * r * r)
            if ledger is not None:
                ledger.charge(L + "attn.scores", "exp", r * r)
        _record(recorder, L + "attn.out", ctx)
        attn = ctx @ w[L + "attn.wo"].array
        mac(L + "attn.wo", r * d * d)
        cur = cur + attn
        mac(L + "residual", r * d)
        if layer_outs is not None:
            layer_outs.append((L + "attn_residual", cur.copy()))

        ln2 = _float_layernorm(cur, w[L + "ln2.gamma"].array, w[L + "ln2.beta"].array,
                               ledger, L + "ln2", recorder)
        _record(recorder, L + "ffn.in", ln2)
        if cfg.ffn_kind == "standard":
            pre = ln2 @ w[L + "ffn.w1"].array + w[L + "ffn.b1"].array
            _record(recorder, L + "ffn.act", pre)
            hid = gelu(pre)
            out = hid @ w[L + "ffn.w2"].array + w[L + "ffn.b2"].array
            mac(L + "ffn", r * d * f + r * f + r * f * d + r * d)
            if ledger is not None:
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
            mac(L + "ffn", 2 * (r * d * f + r * f) + r * f + r * f * d + r * d)
            if ledger is not None:
                # silu = x * sigmoid(x): one exp plus three elementwise ops
                ledger.charge(L + "ffn", "exp", r * f)
                ledger.record_flop(L + "ffn", 3 * r * f)
        cur = cur + out
        mac(L + "residual", r * d)
        if layer_outs is not None:
            layer_outs.append((L + "ffn_residual", cur.copy()))
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

    def check_complete(self) -> None:
        want_oat = set(oat_sites(self.config))
        want_hg = set(hg_sites(self.config))
        if set(self.oat) != want_oat:
            raise CalibrationError(
                f"encoder sites mismatch: missing={sorted(want_oat - set(self.oat))} "
                f"extra={sorted(set(self.oat) - want_oat)}"
            )
        if set(self.hg) != want_hg or set(self.reports) != want_hg:
            raise CalibrationError(
                f"gate sites mismatch: missing={sorted(want_hg - set(self.hg))} "
                f"extra={sorted(set(self.hg) - want_hg)}"
            )


def convert(cfg: ModelConfig, w: WeightSet, calib_sample: Matrix) -> ConvertedBlock:
    """Calibrate every encoder and gate from a float replay of the sample.

    The sample holds stacked inputs: its row count must be a multiple of
    seq_len, and each seq_len slice is replayed as one block input.
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
    for b in range(calib_sample.rows // cfg.seq_len):
        float_forward(cfg, w, Matrix(a[b * cfg.seq_len:(b + 1) * cfg.seq_len]),
                      recorder=recorder)

    def pooled(site: str) -> np.ndarray:
        return np.concatenate([arr.ravel() for arr in recorder[site]])

    oat: dict[str, OATConfig] = {}
    for site in oat_sites(cfg):
        vals = pooled(site)
        st = stats(Matrix(vals.reshape(1, -1)), quantiles=(cfg.normal_quantile,))
        t_nor, t_out = select_oat_thresholds(st, cfg.normal_quantile)
        oat[site] = OATConfig(t_nor, t_out, cfg.H, cfg.T)

    calib_seed = int(cfg.seeds["calibration"])
    hg: dict[str, HGConfig] = {}
    reports: dict[str, CalibrationReport] = {}
    for idx, (site, target) in enumerate(sorted(hg_sites(cfg).items())):
        seed = calib_seed + 1000 * (idx + 1)
        lo, hi = observed_range(pooled(site), floor=TARGETS[target].floor)
        try:
            fitted, report = fit_target(target, cfg.N_per_nonlinearity,
                                        cfg.T, cfg.samples_per_range, seed,
                                        lo=lo, hi=hi)
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
    """Everything measured during one spike run, oracle values included."""

    steps: int
    output_rel_err: float
    per_layer: dict[str, float]
    counters: dict[str, int]
    ledger: EnergyLedger

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "output_rel_err": self.output_rel_err,
            "per_layer": dict(sorted(self.per_layer.items())),
            "counters": dict(sorted(self.counters.items())),
            "ledger": self.ledger.to_dict(),
        }


def relative_error(approx: Matrix, ref: Matrix) -> float:
    """Mean absolute deviation normalized by the oracle's mean magnitude."""
    if approx.shape != ref.shape:
        raise ShapeError(f"shape mismatch: {approx.shape} vs {ref.shape}")
    denom = float(np.abs(ref.array).mean())
    num = float(np.abs(approx.array - ref.array).mean())
    return num / max(denom, 1e-300)


def spike_forward(
    block: ConvertedBlock, x: Matrix, T: int | None = None
) -> tuple[Matrix, RunTrace]:
    """Run the converted block on spike dynamics for T steps.

    The paired float forward always runs too: the trace reports per-layer
    deviations against it and the output error, alongside the SOP/FLOP
    ledger covering both paths.
    """
    cfg = block.config
    if T is None:
        T = cfg.T
    _check_type("T", T, numbers.Integral)
    if T < 1:
        raise ValueError(f"need at least one timestep, got T={T}")
    w = block.weights
    ledger = EnergyLedger(
        sop_weight=math.ceil(math.log2(2 * cfg.H)) if cfg.sop_bits else 1
    )
    layer_refs: list[tuple[str, np.ndarray]] = []
    y_ref = float_forward(cfg, w, x, ledger=ledger, layer_outs=layer_refs)
    refs = dict(layer_refs)

    # every encoder and gate runs at T, whatever depth it was fitted at
    oat, hg = block.oat, block.hg
    counters: dict[str, int] = {}
    per_layer: dict[str, float] = {}
    scale = 1.0 / math.sqrt(cfg.d_head)

    cur = x.array.copy()
    stream = encode_matrix(Matrix(cur), oat["input"], T, ledger, "input")
    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        try:
            ln1 = spike_layernorm(
                stream, w[L + "ln1.gamma"], w[L + "ln1.beta"],
                hg[L + "ln1.invsqrt"], hg[L + "ln1.square"],
                oat[L + "ln1.center"], ledger, L + "ln1", counters,
            )
            attn_in = encode_matrix(
                decode_train(ln1, ledger, L + "attn.in_decode"),
                oat[L + "attn.in"], T, ledger, L + "attn.in",
            )
            q_f = decode_train(saw_mul_right(attn_in, w[L + "attn.wq"], ledger,
                                             L + "attn.wq"),
                               ledger, L + "attn.q_decode")
            q = encode_matrix(Matrix(q_f.array * scale), oat[L + "attn.q"], T,
                              ledger, L + "attn.q")
            k = encode_matrix(
                decode_train(saw_mul_right(attn_in, w[L + "attn.wk"], ledger,
                                           L + "attn.wk"),
                             ledger, L + "attn.k_decode"),
                oat[L + "attn.k"], T, ledger, L + "attn.k",
            )
            v = encode_matrix(
                decode_train(saw_mul_right(attn_in, w[L + "attn.wv"], ledger,
                                           L + "attn.wv"),
                             ledger, L + "attn.v_decode"),
                oat[L + "attn.v"], T, ledger, L + "attn.v",
            )
            heads = []
            for h in range(cfg.n_heads):
                lo, hi = h * cfg.d_head, (h + 1) * cfg.d_head
                logits = saa_mul(slice_cols(q, lo, hi),
                                 transpose_train(slice_cols(k, lo, hi)),
                                 ledger, L + "attn.qk")
                probs = spike_softmax(logits, hg[L + "attn.exp"],
                                      hg[L + "attn.recip"], ledger,
                                      L + "attn.softmax", counters)
                probs_enc = encode_matrix(
                    decode_train(probs, ledger, L + "attn.probs_decode"),
                    oat[L + "attn.probs"], T, ledger, L + "attn.probs",
                )
                heads.append(saa_mul(probs_enc, slice_cols(v, lo, hi),
                                     ledger, L + "attn.pv"))
            ctx = encode_matrix(
                decode_train(concat_cols(heads), ledger, L + "attn.out_decode"),
                oat[L + "attn.out"], T, ledger, L + "attn.out",
            )
            attn_out = decode_train(saw_mul_right(ctx, w[L + "attn.wo"], ledger,
                                                  L + "attn.wo"),
                                    ledger, L + "attn.wo_decode")
            cur = cur + attn_out.array
            stream = constant_train(Matrix(cur), T)
        except NonFiniteError as exc:
            raise SpikePathError(L + "attn") from exc
        per_layer[L + "attn_residual"] = float(
            np.abs(cur - refs[L + "attn_residual"]).mean()
        )

        try:
            ln2 = spike_layernorm(
                stream, w[L + "ln2.gamma"], w[L + "ln2.beta"],
                hg[L + "ln2.invsqrt"], hg[L + "ln2.square"],
                oat[L + "ln2.center"], ledger, L + "ln2", counters,
            )
            if cfg.ffn_kind == "standard":
                ffn_out = spike_ffn(
                    ln2, w[L + "ffn.w1"], w[L + "ffn.b1"],
                    w[L + "ffn.w2"], w[L + "ffn.b2"],
                    hg[L + "ffn.act"], oat[L + "ffn.in"],
                    ledger, L + "ffn", counters,
                )
            else:
                ffn_out = spike_gated_ffn(
                    ln2, w[L + "ffn.wg"], w[L + "ffn.bg"],
                    w[L + "ffn.wu"], w[L + "ffn.bu"],
                    w[L + "ffn.wd"], w[L + "ffn.bd"],
                    hg[L + "ffn.act"], oat[L + "ffn.in"],
                    ledger, L + "ffn", counters,
                    oat_mid=oat[L + "ffn.mid"], oat_out=oat[L + "ffn.z"],
                )
            ffn_dec = decode_train(ffn_out, ledger, L + "ffn.out_decode")
            cur = cur + ffn_dec.array
            stream = constant_train(Matrix(cur), T)
        except NonFiniteError as exc:
            raise SpikePathError(L + "ffn") from exc
        per_layer[L + "ffn_residual"] = float(
            np.abs(cur - refs[L + "ffn_residual"]).mean()
        )

    out = Matrix(cur)
    trace = RunTrace(
        steps=T,
        output_rel_err=relative_error(out, y_ref),
        per_layer=per_layer,
        counters=counters,
        ledger=ledger,
    )
    return out, trace


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"LASW"
_WEIGHT_VERSION = 1
_BLOCK_FORMAT = "spikeconvert-block"
_BLOCK_VERSION = 1


def dump_json(obj: dict, path: str) -> None:
    """Deterministic JSON: sorted keys, stable floats, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_config(cfg: ModelConfig, path: str) -> None:
    dump_json(cfg.to_dict(), path)


def load_config(path: str) -> ModelConfig:
    with open(path, encoding="utf-8") as fh:
        return ModelConfig.from_dict(json.load(fh))


def save_weights(ws: WeightSet, path: str) -> None:
    names = ws.names
    blob = bytearray(struct.pack("<4sII", _MAGIC, _WEIGHT_VERSION, len(names)))
    for name in names:
        nb = name.encode("utf-8")
        m = ws[name]
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<II", m.rows, m.cols)
        blob += m.array.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(blob)


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


def load_weights(path: str) -> WeightSet:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read(), path)
    magic, version, count = struct.unpack("<4sII", rd.take(12))
    if magic != _MAGIC:
        raise FormatError(f"bad magic: expected {_MAGIC!r}, found {magic!r}")
    if version != _WEIGHT_VERSION:
        raise FormatError(
            f"unsupported weight version: expected {_WEIGHT_VERSION}, found {version}"
        )
    tensors: dict[str, Matrix] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", rd.take(4))
        name = rd.take(nlen).decode("utf-8")
        rows, cols = struct.unpack("<II", rd.take(8))
        payload = rd.take(8 * rows * cols)
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        vals = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
        tensors[name] = Matrix(vals)
    if rd.pos != len(rd.data):
        raise FormatError(
            f"{len(rd.data) - rd.pos} trailing bytes after the last tensor"
        )
    return WeightSet(tensors)


def _oat_to_dict(c: OATConfig) -> dict:
    return {"theta_nor": c.theta_nor, "theta_out": c.theta_out, "H": c.H, "T": c.T}


def _oat_from_dict(d: dict) -> OATConfig:
    return OATConfig(d["theta_nor"], d["theta_out"], d["H"], d["T"])


def save_block(block: ConvertedBlock, path: str, weights_path: str | None = None) -> None:
    if weights_path is None:
        weights_path = os.path.splitext(path)[0] + ".lasw"
    save_weights(block.weights, weights_path)
    doc = {
        "format": _BLOCK_FORMAT,
        "version": _BLOCK_VERSION,
        "config": block.config.to_dict(),
        "weights_file": os.path.basename(weights_path),
        "oat": {site: _oat_to_dict(c) for site, c in block.oat.items()},
        "hg": {site: hg_to_dict(c) for site, c in block.hg.items()},
        "reports": {site: r.to_dict() for site, r in block.reports.items()},
    }
    dump_json(doc, path)


def load_block(path: str, weights_path: str | None = None) -> ConvertedBlock:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_type("block", doc, dict)
    if doc.get("format") != _BLOCK_FORMAT:
        raise FormatError(
            f"bad block format: expected {_BLOCK_FORMAT!r}, found {doc.get('format')!r}"
        )
    if doc.get("version") != _BLOCK_VERSION:
        raise FormatError(
            f"unsupported block version: expected {_BLOCK_VERSION}, "
            f"found {doc.get('version')!r}"
        )
    for section in ("config", "oat", "hg", "reports"):
        _check_type(section, doc[section], dict)
    for section in ("oat", "hg", "reports"):
        for site, node in doc[section].items():
            _check_type(f"{section} site {site!r}", node, dict)
    if weights_path is None:
        weights_path = os.path.join(os.path.dirname(path) or ".", doc["weights_file"])
    block = ConvertedBlock(
        config=ModelConfig.from_dict(doc["config"]),
        weights=load_weights(weights_path),
        oat={site: _oat_from_dict(d) for site, d in doc["oat"].items()},
        hg={site: hg_from_dict(d) for site, d in doc["hg"].items()},
        reports={site: CalibrationReport.from_dict(d)
                 for site, d in doc["reports"].items()},
    )
    block.check_complete()
    return block
