"""Energy ledger accounting: hand-counted ledgers and exact quotients."""
import numpy as np
import pytest

from spikeconvert.energy import (
    DEFAULT_FLOP_COSTS,
    E_AC,
    E_MAC,
    EnergyLedger,
    energy_ratio,
)
from spikeconvert.errors import EnergyAccountingError
from spikeconvert.neurons import OATConfig
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

    def test_custom_flop_costs(self):
        led = EnergyLedger(flop_costs={"mac": 1, "div": 5})
        led.charge("x", "div", 2)
        assert led.flops == 10

    def test_sop_weight_scales_events(self):
        led = EnergyLedger(sop_weight=4)
        led.record_sop("x", 5)
        assert led.sops == 20
        with pytest.raises(EnergyAccountingError):
            EnergyLedger(sop_weight=0)


class TestSerialization:
    def test_round_trip(self):
        led = EnergyLedger(sop_weight=2)
        led.record_sop("a", 3)
        led.record_flop("a", 10)
        led.record_sop("b", 1)
        back = EnergyLedger.from_dict(led.to_dict())
        assert back.sops == led.sops
        assert back.flops == led.flops
        assert back.by_site == led.by_site

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
