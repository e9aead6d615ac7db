"""Stacked attention heads against the per-head loops they replaced.

spike_forward and float_forward run every attention head as one stacked
tensor. The per-head loops they had before are kept below, copied as they
were, as the oracles: outputs, traces and the converted block must match
them bit for bit, for any head count.
"""
import collections
import functools
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_block

from spikeconvert import model, spikeops
from spikeconvert.calibration import gelu, silu
from spikeconvert.energy import UNCHARGED, EnergyLedger
from spikeconvert.errors import (
    EmptyInputError,
    NonFiniteError,
    ShapeError,
    SpikePathError,
    StepMismatchError,
)
from spikeconvert.model import (
    ConvertedBlock,
    ModelConfig,
    RunTrace,
    WeightSet,
    _float_layernorm,
    _record,
    convert,
    float_forward,
    relative_error,
    spike_forward,
)
from spikeconvert.neurons import _check_type
from spikeconvert.spikeops import (
    SpikeMatrixTrain,
    constant_train,
    decode_train,
    encode_matrix,
    saa_mul,
    saw_mul_right,
    spike_ffn,
    spike_gated_ffn,
    spike_layernorm,
    spike_softmax,
)
from spikeconvert.tensors import Matrix

# ---------------------------------------------------------------------------
# the per-head oracles: the column helpers and both forwards, as they were


def transpose_train(ts: SpikeMatrixTrain) -> SpikeMatrixTrain:
    return SpikeMatrixTrain._wrap(ts.values.transpose(0, 2, 1))


def slice_cols(ts: SpikeMatrixTrain, lo: int, hi: int) -> SpikeMatrixTrain:
    return SpikeMatrixTrain._wrap(ts.values[:, :, lo:hi])


def concat_cols(parts: list[SpikeMatrixTrain]) -> SpikeMatrixTrain:
    if any(p.steps != parts[0].steps for p in parts):
        raise StepMismatchError("cannot concatenate trains with different step counts")
    return SpikeMatrixTrain._wrap(np.concatenate([p.values for p in parts], axis=2))


def per_head_float_forward(
    cfg: ModelConfig,
    w: WeightSet,
    x: Matrix,
    ledger: EnergyLedger = UNCHARGED,
    recorder: dict | None = None,
) -> Matrix:
    """float_forward with its per-head attention loop, as it was before
    the heads were stacked; it records each sublayer's residual stream at
    the sublayer's key, as float_forward does."""
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
                               L + "ln1", recorder, ledger)
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
        mac(L + "attn.residual", r * d)
        _record(recorder, L + "attn", cur)

        ln2 = _float_layernorm(cur, w[L + "ln2.gamma"].array, w[L + "ln2.beta"].array,
                               L + "ln2", recorder, ledger)
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
        mac(L + "ffn.residual", r * d)
        _record(recorder, L + "ffn", cur)
    return Matrix(cur)



def per_head_spike_forward(
    block: ConvertedBlock, x: Matrix, T: int | None = None
) -> tuple[Matrix, RunTrace]:
    """spike_forward with its per-head attention loop, as it was before
    the heads were stacked."""
    cfg = block.config
    if T is None:
        T = cfg.T
    _check_type("T", T, numbers.Integral)
    if T < 1:
        raise ValueError(f"need at least one timestep, got T={T}")
    w = block.weights
    ledger = EnergyLedger()
    refs: dict[str, list[np.ndarray]] = {}
    y_ref = per_head_float_forward(cfg, w, x, ledger=ledger, recorder=refs)

    # every encoder and gate runs at T, whatever depth it was fitted at
    oat, hg = block.oat, block.hg
    # the sublayers read their weights, encoders and gates by block key
    p = {name: w[name] for name in w.names} | oat | hg
    per_layer: dict[str, float] = {}
    scale = 1.0 / math.sqrt(cfg.d_head)

    cur = x.array.copy()
    stream = encode_matrix(Matrix(cur), oat["input"], T, ledger, "input")
    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        try:
            ln1 = spike_layernorm(stream, p, L + "ln1", ledger)
            attn_in = encode_matrix(
                decode_train(ln1, ledger, L + "attn.in_decode"),
                oat[L + "attn.in"], T, ledger, L + "attn.in",
            )
            q_f = decode_train(saw_mul_right(attn_in, w[L + "attn.wq"], ledger,
                                             L + "attn.wq"),
                               ledger, L + "attn.wq_decode")
            q = encode_matrix(Matrix(q_f.array * scale), oat[L + "attn.q"], T,
                              ledger, L + "attn.q")
            k = encode_matrix(
                decode_train(saw_mul_right(attn_in, w[L + "attn.wk"], ledger,
                                           L + "attn.wk"),
                             ledger, L + "attn.wk_decode"),
                oat[L + "attn.k"], T, ledger, L + "attn.k",
            )
            v = encode_matrix(
                decode_train(saw_mul_right(attn_in, w[L + "attn.wv"], ledger,
                                           L + "attn.wv"),
                             ledger, L + "attn.wv_decode"),
                oat[L + "attn.v"], T, ledger, L + "attn.v",
            )
            heads = []
            for h in range(cfg.n_heads):
                lo, hi = h * cfg.d_head, (h + 1) * cfg.d_head
                logits = saa_mul(slice_cols(q, lo, hi),
                                 transpose_train(slice_cols(k, lo, hi)),
                                 ledger, L + "attn.qk")
                probs = spike_softmax(logits, p, L + "attn", ledger)
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
        per_layer[L + "attn"] = float(np.abs(cur - refs[L + "attn"][0]).mean())

        try:
            ln2 = spike_layernorm(stream, p, L + "ln2", ledger)
            if cfg.ffn_kind == "standard":
                ffn_out = spike_ffn(ln2, p, L + "ffn", ledger)
            else:
                ffn_out = spike_gated_ffn(ln2, p, L + "ffn", ledger)
            ffn_dec = decode_train(ffn_out, ledger, L + "ffn.out_decode")
            cur = cur + ffn_dec.array
            stream = constant_train(Matrix(cur), T)
        except NonFiniteError as exc:
            raise SpikePathError(L + "ffn") from exc
        per_layer[L + "ffn"] = float(np.abs(cur - refs[L + "ffn"][0]).mean())

    out = Matrix(cur)
    trace = RunTrace(
        steps=T,
        output_rel_err=relative_error(out, y_ref),
        per_layer=per_layer,
        ledger=ledger,
    )
    return out, trace



# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _block(n_heads: int, ffn_kind: str, n_layers: int):
    """A d_model 32 block on a light calibration: bit identity holds for any
    fitted gates, so the fits need not be good."""
    cfg = ModelConfig(n_heads=n_heads, ffn_kind=ffn_kind, n_layers=n_layers,
                      N_per_nonlinearity=4, samples_per_range=128)
    calib = Matrix(np.random.default_rng(6).standard_normal((32, cfg.d_model)))
    return convert(cfg, WeightSet.random(cfg, 5), calib)


def assert_same_forward(block, x, T):
    out, trace = spike_forward(block, x, T)
    ref, ref_trace = per_head_spike_forward(block, x, T)
    assert out.array.tobytes() == ref.array.tobytes()
    assert trace.to_dict() == ref_trace.to_dict()


class TestStackedSpikeForward:
    @settings(max_examples=60, deadline=None)
    @given(n_heads=st.sampled_from([1, 2, 4, 8, 32]),
           ffn_kind=st.sampled_from(["standard", "gated"]),
           n_layers=st.integers(1, 2), rows=st.integers(1, 9),
           T=st.integers(1, 20), scale=st.sampled_from([1.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_head_loop(self, n_heads, ffn_kind, n_layers, rows, T,
                                   scale, seed):
        x = np.random.default_rng(seed).standard_normal((rows, 32)) * scale
        assert_same_forward(_block(n_heads, ffn_kind, n_layers), Matrix(x), T)

    @pytest.mark.parametrize("T", [1, 4, 8, 10, 13, 16, 20])
    def test_desk_blocks_match_per_head_loop(self, default_block, gated_block, T):
        rng = np.random.default_rng(T)
        for block in (default_block, gated_block):
            x = rng.standard_normal((block.config.seq_len, block.config.d_model))
            for scale in (1.0, 3.0):
                assert_same_forward(block, Matrix(x * scale), T)

    @pytest.mark.parametrize("n_heads", [1, 4, 32])
    def test_call_counts_do_not_grow_with_heads(self, n_heads, monkeypatch):
        calls = collections.Counter()
        for name in ("apply_hg", "encode_matrix", "saa_mul"):
            orig = getattr(spikeops, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            for module in (model, spikeops):
                if getattr(module, name, None) is orig:
                    monkeypatch.setattr(module, name, counted)
        x = Matrix(np.random.default_rng(0).standard_normal((8, 32)))
        spike_forward(_block(n_heads, "standard", 1), x)
        assert calls == {"apply_hg": 5, "encode_matrix": 10, "saa_mul": 2}


class TestStackedFloatForward:
    @pytest.mark.parametrize("n_heads", [1, 2, 4, 8, 32])
    def test_matches_per_head_loop(self, n_heads):
        cfg = ModelConfig(n_heads=n_heads)
        w = WeightSet.random(cfg, 5)
        x = Matrix(np.random.default_rng(n_heads).standard_normal((8, 32)))
        got, ref = {}, {}
        got_ledger, ref_ledger = EnergyLedger(), EnergyLedger()
        y = float_forward(cfg, w, x, got_ledger, got)
        y_ref = per_head_float_forward(cfg, w, x, ref_ledger, ref)
        assert y.array.tobytes() == y_ref.array.tobytes()
        assert got_ledger.to_dict() == ref_ledger.to_dict()
        # one (heads, ...) array per replay, raveled as the per-head appends
        assert got.keys() == ref.keys()
        for site in ref:
            pooled = np.concatenate([a.ravel() for a in got[site]])
            want = np.concatenate([a.ravel() for a in ref[site]])
            assert pooled.tobytes() == want.tobytes(), site

    def test_default_block_converts_as_with_per_head_loop(self, default_block,
                                                          monkeypatch):
        monkeypatch.setattr(model, "float_forward", per_head_float_forward)
        ref = desk_block("normal")
        assert ref.hg == default_block.hg
        assert ref.oat == default_block.oat
        assert ref.reports == default_block.reports
