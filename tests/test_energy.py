"""Energy ledger accounting: hand-counted ledgers and exact quotients."""
import inspect

import numpy as np
import pytest

from spikeconvert import model, spikeops
from spikeconvert.energy import (
    DEFAULT_FLOP_COSTS,
    E_AC,
    E_MAC,
    UNCHARGED,
    EnergyLedger,
    energy_ratio,
)
from spikeconvert.errors import EnergyAccountingError
from spikeconvert.model import ModelConfig, WeightSet, float_forward
from spikeconvert.neurons import HGConfig, OATConfig
from spikeconvert.spikeops import (
    SpikeMatrixTrain,
    decode_train,
    encode_matrix,
    hadamard_mul,
    saa_mul,
    saw_mul,
)
from spikeconvert.tensors import Matrix


class TestQuotient:
    def test_constants(self):
        assert E_AC == 0.9 and E_MAC == 4.6
        assert DEFAULT_FLOP_COSTS == {"mac": 1, "gelu": 70, "exp": 20,
                                      "sqrt": 12}

    def test_hand_ledger_exact(self):
        led = EnergyLedger()
        led.record_sop("a", 1000)
        led.record_flop("b", 200)
        assert energy_ratio(led) == (1000 * 0.9) / (200 * 4.6)

    def test_equal_counts_quotient(self):
        led = EnergyLedger()
        led.record_sop("x", 12345)
        led.record_flop("x", 12345)
        assert energy_ratio(led) == pytest.approx(0.9 / 4.6, rel=1e-15)
        assert energy_ratio(led) == pytest.approx(0.19565, abs=1e-5)

    def test_no_flops_is_undefined(self):
        led = EnergyLedger()
        led.record_sop("x", 5)
        with pytest.raises(EnergyAccountingError):
            energy_ratio(led)
        assert led.to_dict()["ratio"] is None


class TestCharges:
    def test_native_operator_charges(self):
        led = EnergyLedger()
        led.charge("ffn", "gelu", 3)
        led.charge("softmax", "exp", 2)
        led.charge("ln", "sqrt", 1)
        led.charge("proj", "mac", 7)
        assert led.flops == 3 * 70 + 2 * 20 + 12 + 7
        assert led.by_site["ffn"]["flops"] == 210

    def test_unknown_kind_lists_known(self):
        led = EnergyLedger()
        with pytest.raises(EnergyAccountingError, match="gelu"):
            led.charge("x", "tanh", 1)

    def test_negative_counts_rejected(self):
        led = EnergyLedger()
        with pytest.raises(EnergyAccountingError):
            led.record_sop("x", -1)
        with pytest.raises(EnergyAccountingError):
            led.record_flop("x", -1)

    def test_counter_appears_once_it_counts(self):
        led = EnergyLedger()
        led.count("g.clamped", 0)
        assert led.counters == {}
        led.count("g.clamped", 2)
        led.count("g.clamped", 3)
        led.count("e.saturated", 0)
        assert led.counters == {"g.clamped": 5}
        assert "counters" not in led.to_dict()  # reports carry them beside it


# Inputs on which every kernel charges events, the gates clamp (|x| > 1)
# and the encoders saturate (5.0 is past the coarse range's top level).
_X = Matrix(np.array([[-2.0, -0.3, 0.0], [0.4, 1.2, 5.0]]))
_OAT = OATConfig(0.5, 1.0, 3, 4)
_BANK = HGConfig((-1.0, 0.0, 1.0), np.ones((4, 2)))
_TRAIN = spikeops.constant_train(_X, 4)
_TRAIN_T = SpikeMatrixTrain(_TRAIN.values.transpose(0, 2, 1))
_W, _B = Matrix(np.full((3, 3), 0.5)), Matrix(np.full((1, 3), 0.1))
_P = ({f"s.{k}": _BANK for k in ("exp", "recip", "invsqrt", "act")}
      | {f"s.{k}": _OAT for k in ("center", "in", "mid", "z")}
      | {f"s.{k}": _W for k in ("w1", "w2", "wg", "wu", "wd")}
      | {f"s.{k}": _B for k in ("gamma", "beta", "b1", "b2", "bg", "bu", "bd")})
# each public spikeops function that takes a ledger, called with **kw
KERNEL_CALLS = {
    "decode_train": lambda **kw: decode_train(_TRAIN, **kw),
    "encode_matrix": lambda **kw: encode_matrix(_X, _OAT, **kw),
    "apply_hg": lambda **kw: spikeops.apply_hg(_X, _BANK, **kw),
    "reencode": lambda **kw: spikeops.reencode(_TRAIN, _OAT, **kw),
    "saw_mul": lambda **kw: saw_mul(Matrix(np.ones((4, 2))), _TRAIN, **kw),
    "saw_mul_right": lambda **kw: spikeops.saw_mul_right(_TRAIN, _W, **kw),
    "project": lambda **kw: spikeops.project(_TRAIN, _W, _B, **kw),
    "saa_mul": lambda **kw: saa_mul(_TRAIN, _TRAIN_T, **kw),
    "hadamard_mul": lambda **kw: (hadamard_mul(_TRAIN, _TRAIN, **kw),
                                  hadamard_mul(_TRAIN, encode_matrix(_X, _OAT), **kw)),
    "softmax_offset": lambda **kw: spikeops.softmax_offset(_TRAIN, **kw),
    "spike_softmax": lambda **kw: spikeops.spike_softmax(_TRAIN, _P, "s", **kw),
    "spike_layernorm": lambda **kw: spikeops.spike_layernorm(_TRAIN, _P, "s", **kw),
    "spike_ffn": lambda **kw: spikeops.spike_ffn(_TRAIN, _P, "s", **kw),
    "spike_gated_ffn": lambda **kw: spikeops.spike_gated_ffn(_TRAIN, _P, "s", **kw),
}


def _float_forwards(**kw):
    for kind in ("standard", "gated"):
        cfg = ModelConfig(d_model=8, d_ff=16, n_heads=2, ffn_kind=kind)
        x = Matrix(np.random.default_rng(0).standard_normal((3, 8)))
        float_forward(cfg, WeightSet.random(cfg, 1), x, **kw)


class TestUncharged:
    """A call given no ledger charges UNCHARGED, which records nothing."""

    def test_every_kernel_defaults_to_it(self):
        charged = {name for name, f in vars(spikeops).items()
                   if inspect.isfunction(f) and f.__module__ == spikeops.__name__
                   and not name.startswith("_")
                   and "ledger" in inspect.signature(f).parameters}
        assert charged == set(KERNEL_CALLS)
        for f in [getattr(spikeops, name) for name in charged] + [
                float_forward, model._float_layernorm]:
            assert inspect.signature(f).parameters["ledger"].default is UNCHARGED, f

    @pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
    def test_kernel_charges_a_given_ledger(self, name):
        led = EnergyLedger()
        KERNEL_CALLS[name](ledger=led)
        assert led.sops > 0
        if name in ("encode_matrix", "apply_hg", "reencode"):
            assert led.counters

    def test_calls_without_a_ledger_run_and_record_nothing(self):
        for call in KERNEL_CALLS.values():
            call()
        _float_forwards()
        led = EnergyLedger()
        _float_forwards(ledger=led)
        assert led.flops > 0
        for record in (UNCHARGED.record_sop, UNCHARGED.record_flop, UNCHARGED.count):
            record("s", 1)
        UNCHARGED.charge("s", "exp", 1)
        # no field moved, whichever recording method a call reached
        assert vars(UNCHARGED) == vars(EnergyLedger())


class TestSerialization:
    def test_round_trip(self):
        led = EnergyLedger()
        led.record_sop("a", 3)
        led.record_flop("a", 10)
        led.record_sop("b", 1)
        back = EnergyLedger.from_dict(led.to_dict())
        assert back.sops == led.sops
        assert back.flops == led.flops
        assert back.by_site == led.by_site

    def test_dict_holds_the_counts_and_the_constants(self):
        led = EnergyLedger()
        led.record_sop("a", 3)
        led.record_flop("a", 10)
        assert led.to_dict() == {"e_ac": 0.9, "e_mac": 4.6, "sops": 3, "flops": 10,
                                 "ratio": (3 * 0.9) / (10 * 4.6),
                                 "by_site": {"a": {"sops": 3, "flops": 10}}}
        # an older ledger's per-event charge is ignored: its counts stand
        back = EnergyLedger.from_dict(led.to_dict() | {"sop_weight": 4})
        assert (back.sops, back.by_site) == (3, led.by_site)

    def test_tampered_totals_rejected(self):
        led = EnergyLedger()
        led.record_sop("a", 3)
        d = led.to_dict()
        d["sops"] = 99
        with pytest.raises(EnergyAccountingError, match="totals"):
            EnergyLedger.from_dict(d)


class TestSpikeOpCounts:
    """Hand-counted SOP charges for each product kernel."""

    def test_decode_counts_events(self):
        v = np.zeros((2, 2, 2))
        v[0, 0, 0] = v[0, 1, 1] = v[1, 0, 1] = 1.0
        led = EnergyLedger()
        decode_train(SpikeMatrixTrain(v), led, "d")
        assert led.by_site["d"]["sops"] == 3

    def test_saw_counts_events_times_rows(self):
        v = np.zeros((1, 2, 3))
        v[0, 0, 0] = v[0, 1, 2] = 1.0  # 2 events
        led = EnergyLedger()
        saw_mul(Matrix(np.ones((4, 2))), SpikeMatrixTrain(v), led, "w")
        assert led.by_site["w"]["sops"] == 2 * 4

    def test_saa_hand_count(self):
        # single step; q events at (0,0),(1,1); k events at (0,0),(0,1)
        vq = np.zeros((1, 2, 2))
        vq[0, 0, 0] = vq[0, 1, 1] = 1.0
        vk = np.zeros((1, 2, 2))
        vk[0, 0, 0] = vk[0, 0, 1] = 1.0
        led = EnergyLedger()
        saa_mul(SpikeMatrixTrain(vq), SpikeMatrixTrain(vk), led, "qk")
        # pairs: col sums of q events [1,1] dot row sums of k events [2,0]
        # give 2; current-vs-sum terms add 2*cols(2) and 2*rows(2)
        assert led.by_site["qk"]["sops"] == 2 + 4 + 4

    def test_hadamard_hand_count(self):
        va = np.zeros((1, 1, 2))
        va[0, 0, 0] = 1.0  # 1 event
        vb = np.ones((1, 1, 2))  # 2 events
        led = EnergyLedger()
        hadamard_mul(SpikeMatrixTrain(va), SpikeMatrixTrain(vb), led, "h")
        assert led.by_site["h"]["sops"] == 1 + 1 + 2

    def test_sparser_input_strictly_fewer_sops(self):
        rng = np.random.default_rng(30)
        oat = OATConfig(1.0, 4.0, 5, 16)
        x = rng.uniform(0.2, 0.9, (4, 8))
        dense = Matrix(x)
        half = x.copy()
        half[:, ::2] = 0.0
        led_dense, led_half = EnergyLedger(), EnergyLedger()
        td = encode_matrix(dense, oat, 16, led_dense, "enc")
        th = encode_matrix(Matrix(half), oat, 16, led_half, "enc")
        saw_mul(Matrix(np.ones((4, 4))), td, led_dense, "w")
        saw_mul(Matrix(np.ones((4, 4))), th, led_half, "w")
        assert led_half.sops < led_dense.sops
