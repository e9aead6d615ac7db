"""Block configuration, float oracle, conversion, spike run, serialization.

A deliberately tiny block (8 features, 2 heads, T=8) keeps every test under
a second while exercising the full pipeline; the independent forward oracle
below re-derives the float path from scratch so the production code cannot
agree with itself by construction.
"""
import dataclasses
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spikeconvert.calibration import gelu, sample_distribution, silu
from spikeconvert.energy import EnergyLedger
from spikeconvert.errors import (
    CalibrationError,
    FormatError,
    NonFiniteError,
    ShapeError,
    SpikePathError,
)
from spikeconvert.model import (
    ConvertedBlock,
    ModelConfig,
    RunTrace,
    WeightSet,
    _layer_sites,
    ablate_dual_range,
    convert,
    expected_shapes,
    float_forward,
    hg_sites,
    load_block,
    load_config,
    load_weights,
    oat_sites,
    relative_error,
    save_block,
    save_config,
    save_weights,
    spike_forward,
)
from spikeconvert.model import _write_lasw
from spikeconvert.neurons import HGConfig, _max_steps
from spikeconvert.spikeops import (
    constant_train,
    spike_ffn,
    spike_gated_ffn,
    spike_layernorm,
    spike_softmax,
)
from spikeconvert.tensors import Matrix

TINY = dict(d_model=8, n_heads=2, d_ff=16, seq_len=4, T=8, H=3,
            N_per_nonlinearity=4, samples_per_range=128,
            seeds={"weights": 5, "calibration": 6, "input": 7})


@pytest.fixture(scope="module")
def tiny_cfg():
    return ModelConfig(**TINY)


@pytest.fixture(scope="module")
def tiny_weights(tiny_cfg):
    return WeightSet.random(tiny_cfg, 5)


@pytest.fixture(scope="module")
def calib_sample():
    return Matrix(np.random.default_rng(6).standard_normal((16, 8)))


@pytest.fixture(scope="module")
def tiny_block(tiny_cfg, tiny_weights, calib_sample):
    return convert(tiny_cfg, tiny_weights, calib_sample)


@pytest.fixture(scope="module")
def tiny_input():
    return Matrix(np.random.default_rng(7).standard_normal((4, 8)))


class TestModelConfig:
    def test_defaults_are_valid(self):
        cfg = ModelConfig()
        assert cfg.d_model == 32 and cfg.n_heads == 4 and cfg.seq_len == 8
        assert cfg.T == 16 and cfg.H == 5
        assert cfg.d_head == 8

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_model=10, n_heads=4)

    def test_ffn_kind_checked(self):
        with pytest.raises(ValueError, match="ffn_kind"):
            ModelConfig(ffn_kind="swish")

    def test_layer_count_limits(self):
        with pytest.raises(ValueError):
            ModelConfig(n_layers=0)
        with pytest.raises(ValueError):
            ModelConfig(n_layers=5)

    def test_exact_range_bounds_named(self):
        ModelConfig(H=1024, T=17)
        with pytest.raises(ValueError, match="H must be at most 1024"):
            ModelConfig(H=1025)
        with pytest.raises(ValueError, match=r"grid units, so T <= 25"):
            ModelConfig(T=26)

    def test_sub_range_ceiling_named(self):
        ModelConfig(N_per_nonlinearity=1000)
        with pytest.raises(ValueError, match=r"N_per_nonlinearity must be within "
                                             r"1\.\.1000, got 1001"):
            ModelConfig(N_per_nonlinearity=1001)

    def test_sample_count_ceiling_named(self):
        ModelConfig(samples_per_range=2**20)
        for m in (63, 2**20 + 1):
            with pytest.raises(ValueError, match=r"samples_per_range must be within "
                                                 r"64\.\.1048576, got"):
                ModelConfig(samples_per_range=m)

    def test_seed_keys_required(self):
        with pytest.raises(ValueError, match="seeds"):
            ModelConfig(seeds={"weights": 1})

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match=r"seeds\['input'\] must be nonnegative"):
            ModelConfig(seeds={"weights": 1, "calibration": 2, "input": -1})

    def test_dict_round_trip(self, tiny_cfg):
        assert ModelConfig.from_dict(tiny_cfg.to_dict()) == tiny_cfg

    def test_unknown_field_rejected(self, tiny_cfg):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"d_model": 8, "bogus": 1})
        # the bit-width SOP charge is a SOP count times ceil(log2(2H)), no field
        with pytest.raises(ValueError, match=r"unknown config fields: \['sop_bits'\]"):
            ModelConfig.from_dict(tiny_cfg.to_dict() | {"sop_bits": True})
        # the encoders' normal quantile is the constant NORMAL_QUANTILE
        with pytest.raises(ValueError,
                           match=r"unknown config fields: \['normal_quantile'\]"):
            ModelConfig.from_dict(tiny_cfg.to_dict() | {"normal_quantile": 0.99})


class TestSites:
    def test_standard_oat_sites(self, tiny_cfg):
        names = oat_sites(tiny_cfg)
        assert names[0] == "input"
        assert len(names) == 1 + 9
        assert "layers.0.attn.probs" in names
        assert "layers.0.ffn.mid" not in names

    def test_gated_adds_interaction_encoders(self):
        cfg = ModelConfig(**{**TINY, "ffn_kind": "gated"})
        names = oat_sites(cfg)
        assert "layers.0.ffn.mid" in names and "layers.0.ffn.z" in names

    def test_hg_sites_standard(self, tiny_cfg):
        sites = hg_sites(tiny_cfg)
        assert sites["layers.0.ffn.act"] == "gelu"
        assert sites["layers.0.attn.exp"] == "exp"
        assert sites["layers.0.attn.recip"] == "reciprocal"
        assert len(sites) == 5

    def test_hg_sites_gated_uses_silu(self):
        cfg = ModelConfig(**{**TINY, "ffn_kind": "gated"})
        assert hg_sites(cfg)["layers.0.ffn.act"] == "silu"

    def test_multi_layer_sites_scale(self):
        cfg = ModelConfig(**{**TINY, "n_layers": 2})
        assert len(oat_sites(cfg)) == 1 + 2 * 9
        assert len(hg_sites(cfg)) == 10
        assert "layers.1.ln2.invsqrt" in hg_sites(cfg)

    def test_expected_shapes(self, tiny_cfg):
        shapes = expected_shapes(tiny_cfg)
        assert shapes["layers.0.attn.wq"] == (8, 8)
        assert shapes["layers.0.ffn.w1"] == (8, 16)
        assert shapes["layers.0.ffn.b2"] == (1, 8)
        assert shapes["layers.0.ln1.gamma"] == (1, 8)


@pytest.fixture(scope="module")
def desk_blocks(default_block, gated_block):
    """The default block and the 2-layer gated block on outlier data."""
    return [default_block, gated_block]


_SUBLAYER_SITE = re.compile(r"layers\.\d+\.(ln1|attn|ln2|ffn)(\..+)?")


class TestSiteTree:
    """Block keys, ledger sites and counter keys name one tree."""

    @pytest.mark.parametrize("T", [4, 16])
    def test_block_keys_are_ledger_sites(self, desk_blocks, T):
        rng = np.random.default_rng(T)
        for block in desk_blocks:
            cfg = block.config
            # scaled inputs, so some gates clamp and the counters are not empty
            x = sample_distribution(cfg.calib_distribution, cfg.seq_len,
                                    cfg.d_model, rng)
            x = Matrix(3.0 * x.array)
            _, trace = spike_forward(block, x, T)
            sites = set(trace.ledger.by_site)
            assert set(block.oat) | set(block.hg) <= sites
            assert trace.ledger.counters
            for key in trace.ledger.counters:
                site, kind = key.rsplit(".", 1)
                assert site in {"clamped": block.hg, "saturated": block.oat}[kind], key
            for site in sites:
                assert site == "input" or _SUBLAYER_SITE.fullmatch(site), site

    def test_composites_read_the_sites_declared_under_their_sublayer(
            self, desk_blocks):
        rng = np.random.default_rng(0)
        for block in desk_blocks:
            cfg, w = block.config, block.weights
            declared = [key for kind in _layer_sites(cfg).values() for key in kind]
            x = constant_train(
                Matrix(rng.standard_normal((cfg.seq_len, cfg.d_model))), cfg.T)
            logits = constant_train(
                Matrix(rng.standard_normal((cfg.seq_len, cfg.seq_len))), cfg.T)
            ffn = spike_ffn if cfg.ffn_kind == "standard" else spike_gated_ffn
            for i in range(cfg.n_layers):
                L = f"layers.{i}."
                for composite, sub, xs, want in (
                        (spike_layernorm, "ln1", x, None),
                        (spike_layernorm, "ln2", x, None),
                        (ffn, "ffn", x, None),
                        (spike_softmax, "attn", logits, {"attn.exp", "attn.recip"})):
                    if want is None:
                        want = {k for k in declared if k.startswith(sub + ".")}
                    p = _RecordingParams(
                        {name: w[name] for name in w.names} | block.oat | block.hg)
                    composite(xs, p, L + sub)
                    assert p.read == {L + k for k in want}, (composite, L + sub)


class _RecordingParams(dict):
    """A parameter mapping that notes every key read from it."""

    def __init__(self, params: dict) -> None:
        super().__init__(params)
        self.read: set[str] = set()

    def __getitem__(self, key: str):
        self.read.add(key)
        return super().__getitem__(key)


class TestWeightSet:
    def test_random_is_deterministic(self, tiny_cfg):
        a = WeightSet.random(tiny_cfg, 5)
        b = WeightSet.random(tiny_cfg, 5)
        assert a.names == b.names
        for name in a.names:
            assert np.array_equal(a[name].array, b[name].array)
        c = WeightSet.random(tiny_cfg, 6)
        assert not np.array_equal(a["layers.0.attn.wq"].array,
                                  c["layers.0.attn.wq"].array)

    def test_validate_passes(self, tiny_cfg, tiny_weights):
        tiny_weights.validate(tiny_cfg)

    def test_validate_missing_and_extra(self, tiny_cfg, tiny_weights):
        tensors = {n: tiny_weights[n] for n in tiny_weights.names[1:]}
        with pytest.raises(ShapeError, match="missing"):
            WeightSet(tensors).validate(tiny_cfg)
        tensors = {n: tiny_weights[n] for n in tiny_weights.names}
        tensors["rogue"] = Matrix(np.ones((1, 1)))
        with pytest.raises(ShapeError, match="extra"):
            WeightSet(tensors).validate(tiny_cfg)

    def test_validate_wrong_shape(self, tiny_cfg, tiny_weights):
        tensors = {n: tiny_weights[n] for n in tiny_weights.names}
        tensors["layers.0.attn.wq"] = Matrix(np.ones((8, 4)))
        with pytest.raises(ShapeError, match="wq"):
            WeightSet(tensors).validate(tiny_cfg)

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeError):
            WeightSet({"w": np.ones((2, 2))})


def independent_forward(cfg, w, x):
    """A from-scratch float oracle for the pre-LN encoder block."""
    def ln(a, g, b):
        mu = a.mean(axis=1, keepdims=True)
        c = a - mu
        var = (c * c).mean(axis=1, keepdims=True)
        return g * c / np.sqrt(var + 1e-5) + b

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    cur = x.array.copy()
    dh = cfg.d_head
    for i in range(cfg.n_layers):
        L = f"layers.{i}."
        a = ln(cur, w[L + "ln1.gamma"].array, w[L + "ln1.beta"].array)
        q = (a @ w[L + "attn.wq"].array) / np.sqrt(dh)
        k = a @ w[L + "attn.wk"].array
        v = a @ w[L + "attn.wv"].array
        ctx = np.zeros_like(a)
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            ctx[:, sl] = softmax(q[:, sl] @ k[:, sl].T) @ v[:, sl]
        cur = cur + ctx @ w[L + "attn.wo"].array
        a = ln(cur, w[L + "ln2.gamma"].array, w[L + "ln2.beta"].array)
        if cfg.ffn_kind == "standard":
            hid = gelu(a @ w[L + "ffn.w1"].array + w[L + "ffn.b1"].array)
            out = hid @ w[L + "ffn.w2"].array + w[L + "ffn.b2"].array
        else:
            g = silu(a @ w[L + "ffn.wg"].array + w[L + "ffn.bg"].array)
            u = a @ w[L + "ffn.wu"].array + w[L + "ffn.bu"].array
            out = (u * g) @ w[L + "ffn.wd"].array + w[L + "ffn.bd"].array
        cur = cur + out
    return cur


class TestFloatForward:
    def test_zero_weights_pass_input_through(self, tiny_cfg):
        tensors = {}
        for name, shape in expected_shapes(tiny_cfg).items():
            leaf = name.rsplit(".", 1)[-1]
            vals = np.ones(shape) if leaf == "gamma" else np.zeros(shape)
            tensors[name] = Matrix(vals)
        w = WeightSet(tensors)
        x = Matrix(np.random.default_rng(0).standard_normal((4, 8)))
        out = float_forward(tiny_cfg, w, x)
        assert np.array_equal(out.array, x.array)

    def test_matches_independent_oracle(self, tiny_cfg, tiny_weights,
                                        tiny_input):
        got = float_forward(tiny_cfg, tiny_weights, tiny_input).array
        want = independent_forward(tiny_cfg, tiny_weights, tiny_input)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_gated_matches_independent_oracle(self, tiny_input):
        cfg = ModelConfig(**{**TINY, "ffn_kind": "gated"})
        w = WeightSet.random(cfg, 5)
        got = float_forward(cfg, w, tiny_input).array
        want = independent_forward(cfg, w, tiny_input)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_two_layer_matches_independent_oracle(self, tiny_input):
        cfg = ModelConfig(**{**TINY, "n_layers": 2})
        w = WeightSet.random(cfg, 9)
        got = float_forward(cfg, w, tiny_input).array
        want = independent_forward(cfg, w, tiny_input)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_feature_mismatch(self, tiny_cfg, tiny_weights):
        with pytest.raises(ShapeError):
            float_forward(tiny_cfg, tiny_weights, Matrix(np.ones((4, 5))))

    def test_recorder_covers_all_calibration_sites(self, tiny_cfg,
                                                   tiny_weights, tiny_input):
        recorder = {}
        float_forward(tiny_cfg, tiny_weights, tiny_input, recorder=recorder)
        need = set(oat_sites(tiny_cfg)) | set(hg_sites(tiny_cfg))
        assert need <= set(recorder)
        # one entry per call; the attention sites hold every head at once
        assert [a.shape for a in recorder["layers.0.attn.exp"]] == [
            (tiny_cfg.n_heads, tiny_input.rows, tiny_input.rows)]

    def test_recorder_holds_each_sublayer_residual_stream(self, tiny_cfg,
                                                          tiny_weights, tiny_input):
        # at the sublayer's own key: the stream after the ffn is the output
        recorder = {}
        y = float_forward(tiny_cfg, tiny_weights, tiny_input, recorder=recorder)
        assert [a.shape for a in recorder["layers.0.attn"]] == [y.shape]
        assert [a.tobytes() for a in recorder["layers.0.ffn"]] == [y.array.tobytes()]

    def test_recorded_arrays_keep_their_bytes(self, tiny_block, tiny_input,
                                              monkeypatch):
        # a recorder keeps the arrays float_forward builds, not copies: no
        # later step of that run, and no later run on the same block, may
        # write into them or into the residuals the block's oracle slot keeps
        import spikeconvert.model as model

        record, recorder, at_record = model._record, {}, {}

        def snapshot(rec, site, arr):
            if rec is recorder:
                at_record.setdefault(site, []).append(arr.tobytes())
            record(rec, site, arr)

        monkeypatch.setattr(model, "_record", snapshot)
        cfg, w, x2 = tiny_block.config, tiny_block.weights, Matrix(tiny_input.array * 2)
        float_forward(cfg, w, tiny_input, recorder=recorder)
        block = ConvertedBlock(cfg, w, tiny_block.oat, tiny_block.hg, tiny_block.reports)
        spike_forward(block, tiny_input, T=4)
        residuals = {k: (a, a.tobytes()) for k, a in block._oracle_slot[2].items()}
        spike_forward(block, tiny_input, T=8)
        float_forward(cfg, w, x2, recorder={})
        spike_forward(block, x2)
        assert at_record == {
            k: [a.tobytes() for a in v] for k, v in recorder.items()}
        assert all(a.tobytes() == b for a, b in residuals.values())

    def test_flop_charges(self, tiny_cfg, tiny_weights, tiny_input):
        led = EnergyLedger()
        float_forward(tiny_cfg, tiny_weights, tiny_input, ledger=led)
        r, f = tiny_input.rows, tiny_cfg.d_ff
        # the gelu charge (70 each) is folded into the ffn site
        assert led.by_site["layers.0.ffn"]["flops"] >= 70 * r * f
        assert led.sops == 0 and led.flops > 0

    @pytest.mark.parametrize("ffn_kind", ["standard", "gated"])
    def test_flop_charge_of_every_site(self, ffn_kind):
        # each site's FLOPs as a formula in (rows, d_model, d_ff, heads), with
        # sqrt, exp and gelu at 12, 20 and 70 FLOPs each; the sizes differ
        # pairwise, so a swapped factor changes a charge
        r, d, f, nh = 3, 8, 12, 2
        dh = d // nh
        cfg = ModelConfig(**{**TINY, "d_model": d, "d_ff": f, "n_heads": nh,
                             "ffn_kind": ffn_kind})
        led = EnergyLedger()
        x = Matrix(np.random.default_rng(8).standard_normal((r, d)))
        float_forward(cfg, WeightSet.random(cfg, 5), x, ledger=led)
        layernorm = (4 * r * d + r) + 12 * r + 3 * r * d
        if ffn_kind == "standard":
            ffn = r * d * f + r * f + 70 * r * f + r * f * d + r * d
        else:
            # gate and up projections, the product, silu as exp plus three ops
            ffn = 2 * (r * d * f + r * f) + r * f + (20 + 3) * r * f + r * f * d + r * d
        assert {site: c["flops"] for site, c in led.by_site.items()} == {
            "layers.0.ln1": layernorm,
            "layers.0.attn.qkv": 3 * r * d * d + r * d,
            "layers.0.attn.scores": nh * (2 * r * r * dh + 3 * r * r) + 20 * nh * r * r,
            "layers.0.attn.wo": r * d * d,
            "layers.0.attn.residual": r * d,
            "layers.0.ln2": layernorm,
            "layers.0.ffn": ffn,
            "layers.0.ffn.residual": r * d,
        }
        assert led.sops == 0


class TestConvert:
    def test_complete_and_deterministic(self, tiny_cfg, tiny_weights,
                                        calib_sample, tiny_block):
        tiny_block.check_complete()
        again = convert(tiny_cfg, tiny_weights, calib_sample)
        assert again.oat == tiny_block.oat
        assert again.hg == tiny_block.hg
        assert again.reports == tiny_block.reports

    def test_validates_sample_shape(self, tiny_cfg, tiny_weights):
        with pytest.raises(ShapeError, match="features"):
            convert(tiny_cfg, tiny_weights, Matrix(np.ones((4, 5))))
        with pytest.raises(ShapeError, match="sequences"):
            convert(tiny_cfg, tiny_weights, Matrix(np.ones((5, 8))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_replay_named(self, tiny_cfg, tiny_weights, calib_sample):
        # finite weights whose replay overflows: q k^T reaches inf, and the
        # softmax's shifted logits inf - inf at the exp gate, the first site
        # in replay order that the overflow reaches
        ws = {name: tiny_weights[name] for name in tiny_weights.names}
        for name in ("layers.0.attn.wq", "layers.0.attn.wk"):
            ws[name] = Matrix(ws[name].array * 1e160)
        with pytest.raises(NonFiniteError, match=r"^calibration failed at site "
                                                 r"'layers\.0\.attn\.exp': the float "
                                                 r"replay of the calibration sample "
                                                 r"overflowed"):
            convert(tiny_cfg, WeightSet(ws), calib_sample)

    def test_outlier_sample_separates_thresholds(self, tiny_cfg, tiny_weights):
        sample = sample_distribution("uniform_outliers", 16, 8,
                                     np.random.default_rng(40))
        block = convert(tiny_cfg, tiny_weights, sample)
        oat = block.oat["input"]
        assert oat.theta_out / oat.theta_nor > 5.0

    def test_check_complete_catches_missing_site(self, tiny_block):
        oat = dict(tiny_block.oat)
        oat.pop("layers.0.attn.probs")
        broken = ConvertedBlock(tiny_block.config, tiny_block.weights, oat,
                                tiny_block.hg, tiny_block.reports)
        with pytest.raises(CalibrationError, match="attn.probs"):
            broken.check_complete()

    def test_check_complete_names_missing_report(self, tiny_block):
        reports = dict(tiny_block.reports)
        reports.pop("layers.0.attn.exp")
        broken = ConvertedBlock(tiny_block.config, tiny_block.weights,
                                tiny_block.oat, tiny_block.hg, reports)
        with pytest.raises(CalibrationError, match=r"report sites mismatch: "
                           r"missing=\['layers.0.attn.exp'\] extra=\[\]"):
            broken.check_complete()

    def test_ablation_collapses_to_coarse_path(self, tiny_block):
        abl = ablate_dual_range(tiny_block)
        for site, c in abl.oat.items():
            orig = tiny_block.oat[site]
            assert c.theta_out == orig.theta_out
            assert c.theta_nor <= orig.theta_out * 1e-11
        assert abl.hg is tiny_block.hg
        assert abl.config == tiny_block.config


class TestSpikeForward:
    def test_error_shrinks_with_timesteps(self, tiny_block, tiny_input):
        _, tr1 = spike_forward(tiny_block, tiny_input, T=1)
        out8, tr8 = spike_forward(tiny_block, tiny_input, T=8)
        assert tr8.output_rel_err < 0.15
        assert tr1.output_rel_err > 3 * tr8.output_rel_err

    def test_deterministic(self, tiny_block, tiny_input):
        a, tra = spike_forward(tiny_block, tiny_input)
        b, trb = spike_forward(tiny_block, tiny_input)
        assert np.array_equal(a.array, b.array)
        assert tra.ledger.sops == trb.ledger.sops

    def test_trace_contents(self, tiny_block, tiny_input):
        out, tr = spike_forward(tiny_block, tiny_input, T=4)
        assert tr.steps == 4
        assert set(tr.per_layer) == {"layers.0.attn", "layers.0.ffn"}
        assert tr.ledger.sops > 0 and tr.ledger.flops > 0
        d = tr.to_dict()
        assert set(d) == {"steps", "output_rel_err", "per_layer", "counters",
                          "ledger"}
        json.dumps(d)  # must be serializable as-is

    def test_gated_block_runs(self, calib_sample, tiny_input):
        cfg = ModelConfig(**{**TINY, "ffn_kind": "gated"})
        w = WeightSet.random(cfg, 5)
        block = convert(cfg, w, calib_sample)
        out, tr = spike_forward(block, tiny_input)
        assert np.all(np.isfinite(out.array))
        assert tr.output_rel_err < 0.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("gate, sublayer, encoder", [
        ("ln1.invsqrt", "attn", "attn.in"),
        ("ln2.invsqrt", "ffn", "ffn.in"),
    ])
    def test_overflow_caught_at_next_encoder(self, tiny_block, tiny_input,
                                             gate, sublayer, encoder):
        # gate weights of 1e308 overflow the normalized train, which kernels
        # pass on unchecked; its decode feeds the next encoder, which refuses
        # it inside the same sublayer instead of saturating it
        site = "layers.0." + gate
        old = tiny_block.hg[site]
        hg = dict(tiny_block.hg)
        hg[site] = HGConfig(old.boundaries, np.full_like(old.d, 1e308))
        bad = ConvertedBlock(tiny_block.config, tiny_block.weights,
                             tiny_block.oat, hg, tiny_block.reports)
        with pytest.raises(SpikePathError) as info:
            spike_forward(bad, tiny_input)
        assert info.value.site == "layers.0." + sublayer
        assert f"'layers.0.{encoder}'" in str(info.value.__cause__)

    def test_encoder_saturation_counted(self, default_block):
        cfg = default_block.config
        x = sample_distribution("normal", cfg.seq_len, cfg.d_model,
                                np.random.default_rng(3))
        _, trace = spike_forward(default_block, x)
        assert not any(k.endswith(".saturated") for k in trace.ledger.counters)
        # inputs scaled by 3 overrun the encoders fitted on unscaled data
        _, trace = spike_forward(default_block, Matrix(3.0 * x.array))
        assert trace.ledger.counters.get("layers.0.attn.out.saturated", 0) > 0
        # the trace keeps the counters on its ledger alone; its dict writes them
        assert [f.name for f in dataclasses.fields(trace)] == [
            "steps", "output_rel_err", "per_layer", "ledger"]
        assert trace.to_dict()["counters"] == dict(sorted(trace.ledger.counters.items()))

    def test_bad_step_count(self, tiny_block, tiny_input):
        with pytest.raises(ValueError):
            spike_forward(tiny_block, tiny_input, T=0)
        with pytest.raises(ValueError, match="T must be Integral"):
            spike_forward(tiny_block, tiny_input, T=4.0)
        T_max = _max_steps(tiny_block.config.H)  # the step ceiling
        spike_forward(tiny_block, tiny_input, T=T_max)
        with pytest.raises(ValueError, match=f"so T <= {T_max}"):
            spike_forward(tiny_block, tiny_input, T=T_max + 1)

    def test_more_steps_cost_more_sops(self, tiny_block, tiny_input):
        _, tr2 = spike_forward(tiny_block, tiny_input, T=2)
        _, tr8 = spike_forward(tiny_block, tiny_input, T=8)
        assert tr8.ledger.sops > tr2.ledger.sops


def fresh_run(block, x, T):
    """spike_forward on a new block of block's fields, which keeps no
    oracle yet, so the float oracle is computed for this call."""
    copy = ConvertedBlock(block.config, block.weights, block.oat, block.hg,
                          block.reports)
    return spike_forward(copy, x, T)


def assert_same_run(got, want):
    (out, trace), (want_out, want_trace) = got, want
    assert out.array.tobytes() == want_out.array.tobytes()
    assert trace.to_dict() == want_trace.to_dict()
    # the oracle's sites come first in the ledger, as when it runs
    assert list(trace.ledger.by_site) == list(want_trace.ledger.by_site)


@pytest.fixture
def oracle_calls(monkeypatch):
    """The inputs spike_forward has run the float oracle on, in call order."""
    import spikeconvert.model as model

    calls = []

    def counted(cfg, w, x, **kwargs):
        calls.append(x)
        return float_forward(cfg, w, x, **kwargs)

    monkeypatch.setattr(model, "float_forward", counted)
    return calls


class TestOracleReuse:
    """spike_forward keeps the float oracle of the last input it ran on a
    block; a repeated input reuses it with every result unchanged."""

    @staticmethod
    def inputs(block, n):
        rng = np.random.default_rng(17)
        return [sample_distribution("normal", block.config.seq_len,
                                    block.config.d_model, rng) for _ in range(n)]

    def test_repeated_input_matches_fresh_runs(self, gated_block, oracle_calls):
        block = dataclasses.replace(gated_block)  # an empty slot of its own
        (x,) = self.inputs(block, 1)
        for T in (4, 16, 16):
            assert_same_run(spike_forward(block, x, T), fresh_run(block, x, T))
        # one oracle on the shared block and one per fresh run
        assert len(oracle_calls) == 1 + 3

    def test_other_input_misses(self, default_block, oracle_calls):
        block = dataclasses.replace(default_block)
        x, y = self.inputs(block, 2)
        for z in (x, y, x):
            assert_same_run(spike_forward(block, z, 4), fresh_run(block, z, 4))
        # each input on the block and again on its fresh copy: with one
        # slot, x is computed again after y
        assert oracle_calls == [x, x, y, y, x, x]

    def test_same_bytes_in_another_shape_are_refused(self, default_block):
        block = dataclasses.replace(default_block)
        (x,) = self.inputs(block, 1)
        spike_forward(block, x, 4)
        with pytest.raises(ShapeError, match="16 features"):
            spike_forward(block, Matrix(x.array.reshape(16, 16)), 4)

    def test_loaded_and_ablated_blocks_keep_their_own(self, default_block,
                                                       tmp_path, oracle_calls):
        block = dataclasses.replace(default_block)
        p = str(tmp_path / "block.json")
        save_block(block, p)
        (x,) = self.inputs(block, 1)
        spike_forward(block, x, 16)
        # the ablation shares the weights; its encoders differ
        for other in (load_block(p), ablate_dual_range(block)):
            for T in (4, 16):
                assert_same_run(spike_forward(other, x, T), fresh_run(other, x, T))
        assert block._oracle_slot is not None
        assert ablate_dual_range(block)._oracle_slot is None
        assert dataclasses.replace(block)._oracle_slot is None

    def test_slot_is_neither_compared_nor_saved(self, default_block, tmp_path):
        block = dataclasses.replace(default_block)
        spike_forward(block, self.inputs(block, 1)[0], 4)
        assert block == default_block == dataclasses.replace(block)
        assert "_oracle_slot" not in repr(block)
        p = str(tmp_path / "block.json")
        save_block(block, p)
        with open(p) as fh:
            assert "oracle" not in fh.read()


class TestRelativeError:
    def test_hand_value(self):
        approx = Matrix(np.array([[1.0, 2.0]]))
        ref = Matrix(np.array([[2.0, 2.0]]))
        assert relative_error(approx, ref) == pytest.approx(0.25, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            relative_error(Matrix(np.ones((1, 2))), Matrix(np.ones((2, 1))))

    def test_zero_reference_is_finite(self):
        err = relative_error(Matrix(np.ones((1, 1))), Matrix(np.zeros((1, 1))))
        assert np.isfinite(err) and err > 0


class TestConfigSerialization:
    def test_round_trip(self, tiny_cfg, tmp_path):
        p = str(tmp_path / "cfg.json")
        save_config(tiny_cfg, p)
        assert load_config(p) == tiny_cfg


class TestWeightSerialization:
    def test_round_trip_bitwise(self, tiny_weights, tmp_path):
        p = str(tmp_path / "w.lasw")
        save_weights(tiny_weights, p)
        back = load_weights(p)
        assert back.names == tiny_weights.names
        for name in back.names:
            assert np.array_equal(back[name].array, tiny_weights[name].array)

    def test_file_size_arithmetic(self, tmp_path):
        ws = WeightSet({"ab": Matrix(np.ones((2, 3)))})
        p = str(tmp_path / "one.lasw")
        save_weights(ws, p)
        with open(p, "rb") as fh:
            data = fh.read()
        # header 12 + (name-length 4 + name 2 + dims 8 + payload 8*2*3)
        assert len(data) == 12 + 4 + 2 + 8 + 48

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "bad.lasw")
        with open(p, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="LASW"):
            load_weights(p)

    def test_bad_version(self, tiny_weights, tmp_path):
        p = str(tmp_path / "v9.lasw")
        save_weights(tiny_weights, p)
        with open(p, "rb") as fh:
            data = bytearray(fh.read())
        data[4:8] = struct.pack("<I", 9)
        with open(p, "wb") as fh:
            fh.write(data)
        with pytest.raises(FormatError, match="expected 1.*found 9"):
            load_weights(p)

    def test_truncation(self, tiny_weights, tmp_path):
        p = str(tmp_path / "cut.lasw")
        save_weights(tiny_weights, p)
        with open(p, "rb") as fh:
            data = fh.read()
        with open(p, "wb") as fh:
            fh.write(data[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_weights(p)

    def test_trailing_bytes(self, tmp_path):
        ws = WeightSet({"a": Matrix(np.ones((1, 1)))})
        p = str(tmp_path / "tail.lasw")
        save_weights(ws, p)
        with open(p, "ab") as fh:
            fh.write(b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_weights(p)

    def test_duplicate_name(self, tmp_path):
        blob = bytearray(struct.pack("<4sII", b"LASW", 1, 2))
        for _ in range(2):
            blob += struct.pack("<I", 1) + b"a"
            blob += struct.pack("<II", 1, 1)
            blob += np.ones(1).astype("<f8").tobytes()
        p = str(tmp_path / "dup.lasw")
        with open(p, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(FormatError, match="duplicate"):
            load_weights(p)


class TestBlockSerialization:
    def test_same_path_round_trip_is_byte_identical(self, tiny_block,
                                                    tmp_path):
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        with open(p, "rb") as fh:
            first = fh.read()
        back = load_block(p)
        save_block(back, p)
        with open(p, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_loaded_block_runs_identically(self, tiny_block, tiny_input,
                                           tmp_path):
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        back = load_block(p)
        a, _ = spike_forward(tiny_block, tiny_input, T=4)
        b, _ = spike_forward(back, tiny_input, T=4)
        assert np.array_equal(a.array, b.array)

    @pytest.mark.parametrize("name", ["tiny_block", "default_block", "gated_block"])
    def test_round_trip_stores_each_bank_once(self, name, request, tmp_path):
        block = request.getfixturevalue(name)
        p = str(tmp_path / "block.json")
        save_block(block, p)
        with open(p) as fh:
            doc = json.load(fh)
        # the JSON names the block; every number lies in the sidecar, once
        assert set(doc) == {"format", "version", "config", "weights_file"}
        sidecar = load_weights(str(tmp_path / doc["weights_file"]))
        for site, c in block.oat.items():
            assert sidecar[site + ".theta"].array.tolist() == [[c.theta_nor,
                                                                c.theta_out]]
        for site, c in block.hg.items():
            T, N = c.d.shape
            assert T == block.config.T
            assert sidecar[site + ".boundaries"].shape == (1, N + 1)
            assert sidecar[site + ".d"].shape == (T, N)
            assert sidecar[site + ".err"].array.tolist() == [
                list(block.reports[site].per_subrange_max_abs_err)]
        n_weights = len(expected_shapes(block.config))
        assert len(sidecar.names) == n_weights + len(block.oat) + 3 * len(block.hg)
        back = load_block(p)
        assert back.config == block.config
        assert back.oat == block.oat
        assert back.hg == block.hg
        assert back.reports == block.reports
        x = Matrix(np.random.default_rng(7).standard_normal(
            (block.config.seq_len, block.config.d_model)))
        a, ta = spike_forward(block, x, T=4)
        b, tb = spike_forward(back, x, T=4)
        assert np.array_equal(a.array, b.array)
        assert ta.to_dict() == tb.to_dict()

    def test_version_1_file_refused(self, tiny_block, tmp_path):
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        with open(p) as fh:
            doc = json.load(fh)
        with open(p, "w") as fh:
            json.dump(dict(doc, version=1), fh)
        with pytest.raises(FormatError, match="version: expected 8, found 1; reconvert"):
            load_block(p)

    def test_version_2_file_refused(self, tiny_block, tmp_path):
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        with open(p) as fh:
            doc = json.load(fh)
        with open(p, "w") as fh:
            json.dump(dict(doc, version=2), fh)
        with pytest.raises(FormatError, match="expected 8, found 2; reconvert the block "
                                              "with `spikeconvert convert`"):
            load_block(p)

    def test_version_6_file_refused(self, tiny_block, tmp_path):
        # format 6 carried sop_bits in every block's config
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        with open(p) as fh:
            doc = json.load(fh)
        doc["config"]["sop_bits"] = False
        with open(p, "w") as fh:
            json.dump(dict(doc, version=6), fh)
        with pytest.raises(FormatError, match="expected 8, found 6; reconvert the block "
                                              "with `spikeconvert convert`"):
            load_block(p)

    def test_version_7_file_refused(self, tiny_block, tmp_path):
        # format 7 carried normal_quantile in every block's config
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        with open(p) as fh:
            doc = json.load(fh)
        doc["config"]["normal_quantile"] = 0.99
        with open(p, "w") as fh:
            json.dump(dict(doc, version=7), fh)
        with pytest.raises(FormatError, match="expected 8, found 7; reconvert the block "
                                              "with `spikeconvert convert`"):
            load_block(p)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gate_banks_round_trip_bit_for_bit(self, tiny_block, data):
        # any bank at any N and T <= 20 comes back from the sidecar with the
        # same bits, signed zeros and subnormal weights included
        N = data.draw(st.integers(1, 6), label="N")
        T = data.draw(st.integers(1, 20), label="T")
        finite = st.floats(allow_nan=False, allow_infinity=False)
        edges = sorted(data.draw(st.lists(finite, min_size=N + 1, max_size=N + 1,
                                          unique=True)))
        # the widths whose guard step w * 2^-(T+8) is a finite normal float
        with np.errstate(over="ignore"):
            guards = np.diff(edges) * 2.0 ** -(T + 8)
        assume(np.all((guards >= np.finfo(np.float64).tiny) & np.isfinite(guards)))
        weights = data.draw(st.lists(finite, min_size=T * N, max_size=T * N))
        bank = HGConfig(edges, np.reshape(weights, (T, N)))
        # the config must allow the bank's N sub-ranges
        cfg = dataclasses.replace(tiny_block.config, T=T, N_per_nonlinearity=N)
        block = ConvertedBlock(
            cfg, tiny_block.weights,
            {site: dataclasses.replace(c, T=T) for site, c in tiny_block.oat.items()},
            dict.fromkeys(tiny_block.hg, bank),
            {site: dataclasses.replace(r, per_subrange_max_abs_err=(0.0,) * N)
             for site, r in tiny_block.reports.items()})
        with tempfile.TemporaryDirectory() as tmp:
            save_block(block, os.path.join(tmp, "block.json"))
            back = load_block(os.path.join(tmp, "block.json"))
        for site in block.hg:
            for k in ("boundaries", "d"):
                assert getattr(back.hg[site], k).tobytes() == getattr(bank, k).tobytes()

    def test_encoder_depth_other_than_config_refused(self, tiny_block,
                                                      tmp_path):
        # a saved encoder takes H and T from the config, so an encoder that
        # disagrees with it cannot be written faithfully
        oat = dict(tiny_block.oat)
        oat["input"] = dataclasses.replace(oat["input"], H=tiny_block.config.H + 1)
        bad = ConvertedBlock(tiny_block.config, tiny_block.weights, oat,
                             tiny_block.hg, tiny_block.reports)
        with pytest.raises(CalibrationError, match="'input'.*H, T"):
            save_block(bad, str(tmp_path / "block.json"))

    def test_bad_format_and_version(self, tiny_block, tmp_path):
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        with open(p) as fh:
            doc = json.load(fh)
        doc_bad = dict(doc, format="other-format")
        with open(p, "w") as fh:
            json.dump(doc_bad, fh)
        with pytest.raises(FormatError, match="format"):
            load_block(p)
        doc_bad = dict(doc, version=99)
        with open(p, "w") as fh:
            json.dump(doc_bad, fh)
        with pytest.raises(FormatError, match="version"):
            load_block(p)

    def test_missing_site_rejected_on_load(self, tiny_block, tmp_path):
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        sidecar = str(tmp_path / "block.lasw")
        ws = load_weights(sidecar)
        _write_lasw({name: ws[name].array for name in ws.names
                     if name != "layers.0.attn.q.theta"}, sidecar)
        with pytest.raises(FormatError, match=r"encoder site 'layers.0.attn.q': tensors "
                                              r"\['layers.0.attn.q.theta'\] missing"):
            load_block(p)

    def test_bank_wider_than_config_refused(self, tiny_block, tmp_path):
        # convert fits at most N_per_nonlinearity sub-ranges: a sidecar bank
        # of N + 1, its boundaries, d and err all widened to match, is refused
        p = str(tmp_path / "block.json")
        save_block(tiny_block, p)
        sidecar = str(tmp_path / "block.lasw")
        ws = load_weights(sidecar)
        tensors = {name: ws[name].array for name in ws.names}
        site = "layers.0.ffn.act"
        # one more sub-range, a copy of the last, past the upper boundary
        b = tensors[site + ".boundaries"]
        tensors[site + ".boundaries"] = np.hstack([b, 2 * b[:, -1:] - b[:, -2:-1]])
        for leaf in ("d", "err"):
            a = tensors[f"{site}.{leaf}"]
            tensors[f"{site}.{leaf}"] = np.hstack([a, a[:, -1:]])
        assert tensors[site + ".d"].shape[1] == tiny_block.config.N_per_nonlinearity + 1
        _write_lasw(tensors, sidecar)
        with pytest.raises(CalibrationError,
                           match=f"hg site '{site}': 5 sub-ranges must be at most "
                                 f"the config's N_per_nonlinearity 4"):
            load_block(p)

    @settings(max_examples=25, deadline=None)
    @given(ffn_kind=st.sampled_from(["standard", "gated"]),
           n_layers=st.integers(1, 2), N=st.integers(1, 4), T=st.integers(4, 16),
           seeds=st.tuples(*[st.integers(0, 2**32)] * 3))
    def test_small_blocks_round_trip(self, ffn_kind, n_layers, N, T, seeds):
        cfg = ModelConfig(**{**TINY, "ffn_kind": ffn_kind, "n_layers": n_layers,
                             "N_per_nonlinearity": N, "T": T, "samples_per_range": 64,
                             "seeds": dict(zip(("weights", "calibration", "input"),
                                               seeds))})
        sample = sample_distribution("normal", 2 * cfg.seq_len, cfg.d_model,
                                     np.random.default_rng(seeds[1]))
        block = convert(cfg, WeightSet.random(cfg, seeds[0]), sample)
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "block.json")
            save_block(block, p)
            sidecar = load_weights(os.path.join(tmp, "block.lasw"))
            back = load_block(p)
        weights = expected_shapes(cfg)
        assert set(sidecar.names) == set(weights) | {
            f"{site}.theta" for site in oat_sites(cfg)} | {
            f"{site}.{name}" for site in hg_sites(cfg) for name in ("boundaries", "d", "err")}
        assert back.config == block.config
        assert all(np.array_equal(back.weights[name].array, block.weights[name].array)
                   for name in weights)
        assert back.oat == block.oat and back.hg == block.hg
        assert back.reports == block.reports
