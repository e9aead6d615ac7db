"""Neuron dynamics: hand-simulated schedules, round-trips, enumeration.

The reference kernels, mt_encode and the tests' few-step recurrence
(conftest.fs_run_reference), are checked by hand; the matrix entry points
(encode_matrix, apply_hg) are checked against them on generated inputs.
"""
import dataclasses
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dyadic_schedule, fs_run_reference
from spikeconvert import neurons
from spikeconvert.energy import EnergyLedger
from spikeconvert.errors import NonFiniteError, ShapeError
from spikeconvert.neurons import (
    HGConfig,
    MTConfig,
    OATConfig,
    SpikeMatrixTrain,
    _check_steps,
    _hg_run,
    _mt_chunk,
    _mt_loop,
    _mt_run,
    _mt_table,
    _sum_steps,
    decode,
    hg_eval,
    mt_encode,
)
from spikeconvert.spikeops import apply_hg, decode_train, encode_matrix
from spikeconvert.tensors import Matrix


def dec1(train: SpikeMatrixTrain) -> float:
    return float(decode(train).array[0, 0])


def step_loop(values):
    """The step sum one step at a time, in step order: _sum_steps's oracle."""
    out = values[0].copy()
    for step in values[1:]:
        out += step
    return out


@st.composite
def step_stacks(draw):
    """(T, ...) step values in a decode's shapes: one element, a column, a
    row, or a head stack; the last column may be all signed zeros."""
    T, n = draw(st.integers(1, 25)), draw(st.integers(2, 6))
    dims = st.integers(1, 4)
    shape = draw(st.sampled_from([(1, 1), (n, 1), (1, n),
                                  (draw(dims), draw(dims), draw(dims))]))
    zero = st.sampled_from([0.0, -0.0])
    values = draw(hnp.arrays(np.float64, (T,) + shape, elements=st.one_of(
        zero, st.floats(-1e6, 1e6, allow_subnormal=False))))
    if draw(st.booleans()):
        values[..., -1] = draw(hnp.arrays(np.float64, values[..., -1].shape,
                                          elements=zero))
    return values


class TestSpikeTrain:
    @settings(max_examples=300, deadline=None)
    @given(values=step_stacks())
    @example(values=np.full((4, 3, 1), -0.0))
    @example(values=np.array([[[-0.0, 1e16]], [[-0.0, 1.0]], [[0.0, -1e16]]]))
    def test_sum_steps_is_the_step_loop(self, values):
        # bit for bit, signed zeros included: numpy's +0.0 reduce start
        # would turn an all -0.0 column into +0.0
        assert _sum_steps(values).tobytes() == step_loop(values).tobytes()
        assert _sum_steps(values).shape == values.shape[1:]

    def test_decode_single_spike(self):
        values = np.zeros((4, 1, 1))
        values[2, 0, 0] = 0.5
        t = SpikeMatrixTrain(values)
        assert dec1(t) == 0.5

    def test_all_silent_decodes_zero(self):
        t = SpikeMatrixTrain(np.zeros((3, 1, 2)))
        assert np.array_equal(decode(t).array, np.zeros((1, 2)))


class TestFSNeuron:
    """The few-step oracle, fs_run_reference, by hand; and a fitted few-step
    kernel as a bank of one sub-range."""

    P2 = ((0.5, 0.25), (0.5, 0.25), (0.5, 0.25))  # theta, h, d

    def test_hand_example_two_spikes(self):
        # v=0.75 >= 0.5 fire (emit 0.5, v -> 0.25); 0.25 >= 0.25 fire again
        values, fired = fs_run_reference([0.75], *self.P2)
        assert fired[:, 0].tolist() == [True, True]
        assert _sum_steps(values)[0] == 0.75

    def test_zero_input_silent(self):
        values, fired = fs_run_reference([0.0], *self.P2)
        assert not fired.any()
        assert _sum_steps(values)[0] == 0.0

    def test_negative_input_silent(self):
        _, fired = fs_run_reference([-1.0], *self.P2)
        assert not fired.any()

    def test_fires_at_exact_threshold(self):
        values, fired = fs_run_reference([0.5], *self.P2)
        assert fired[0, 0]
        assert _sum_steps(values)[0] == 0.5

    def test_subset_sum_round_trip_exact(self):
        # every subset sum of a dyadic {d(t)} is reproduced exactly
        T = 10
        d = tuple(2.0 ** -(t + 1) for t in range(T))
        masks = np.random.default_rng(11).random((200, T)) < 0.5
        xs = np.where(masks, d, 0.0).sum(axis=1)
        values, _ = fs_run_reference(xs, d, d, d)
        assert np.array_equal(_sum_steps(values), xs)

    # HGConfig's whole-array checks refuse bad weights, naming their entry.
    def test_param_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"2 sub-kernels need 3 boundaries, "
                                             r"got shape \(2,\)"):
            HGConfig((0.0, 1.0), [[0.5, 0.25]])

    @pytest.mark.parametrize("d", [float("nan"), -float("inf")])
    def test_non_finite_weight_rejected(self, d):
        with pytest.raises(ValueError, match=rf"d\[0, 0\] must be finite, got {d}"):
            HGConfig((0.0, 1.0), [[d]])


class TestMTNeuron:
    def test_zero_silent(self):
        t = mt_encode(0.0, MTConfig(1.0, 2, 4))
        assert not t.events.any()

    def test_hand_example_saturating_level(self):
        # tau=1, H=2, T=1: theta(1)=0.5, levels {0.5, 0.75}; |1.25| >= 2*theta
        # saturates at ((2H-1)/H)*theta(1) = 0.75
        t = mt_encode(1.25, MTConfig(1.0, 2, 1))
        assert dec1(t) == 0.75

    def test_negative_mirror(self):
        t = mt_encode(-1.25, MTConfig(1.0, 2, 1))
        assert dec1(t) == -0.75

    def test_exact_level_emission(self):
        # 0.6 = (H+1)/H * theta(1) for H=5: a single snapped spike
        t = mt_encode(0.6, MTConfig(1.0, 5, 16))
        assert t.events.sum() == 1
        assert dec1(t) == pytest.approx(0.6, abs=1e-15)

    def test_h1_equals_fs_binary_schedule(self):
        # H=1 collapses to an FS neuron with the dyadic schedule; negative
        # inputs mirror through the sign since FS itself never fires below 0
        T = 12
        cfg = MTConfig(1.0, 1, T)
        sched = tuple(2.0 ** -(t + 1) for t in range(T))
        xs = np.random.default_rng(23).uniform(-2.0, 2.0, 1000)
        fs_values, fs_fired = fs_run_reference(np.abs(xs), sched, sched, sched)
        for j, x in enumerate(xs):
            mt = mt_encode(float(x), cfg)
            assert np.array_equal(mt.values[:, 0, 0], np.sign(x) * fs_values[:, j])
            assert np.array_equal(mt.events[:, 0, 0], fs_fired[:, j])

    def test_round_trip_idempotent(self):
        # whatever the encoder produces is itself exactly representable
        cfg = MTConfig(1.0, 5, 16)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-2.0, 2.0, 500):
            y = dec1(mt_encode(float(x), cfg))
            assert dec1(mt_encode(y, cfg)) == y

    def test_quantization_bound_h5_t16(self):
        # frozen from a 1e5-point oracle sweep: max error 9.0 units of
        # (tau/H)*2^-T; assert with headroom 10
        cfg = MTConfig(1.0, 5, 16)
        unit = 1.0 * 2.0**-16 / 5
        lim = (2 * 5 - 1) / 5
        worst = 0.0
        for x in np.linspace(-lim, lim, 20001):
            worst = max(worst, abs(dec1(mt_encode(float(x), cfg)) - x))
        assert worst <= 10 * unit

    def test_decodable_count_growth(self):
        # distinct decodable values: monotone in H and T, exponential in T,
        # and bounded by the (2H+1)^T emission-tuple count
        def count(H, T):
            cfg = MTConfig(1.0, H, T)
            lim = (2 * H - 1) / H
            seen = {dec1(mt_encode(float(x), cfg))
                    for x in np.linspace(-lim, lim, 4001)}
            return len(seen)

        counts = {(H, T): count(H, T) for H in (1, 2, 3) for T in (1, 2, 3, 4)}
        for (H, T), n in counts.items():
            assert n <= (2 * H + 1) ** T
            if T > 1:
                assert n > counts[(H, T - 1)]
                assert n >= 1.5 * counts[(H, T - 1)]
            if H > 1:
                assert n > counts[(H - 1, T)]

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            mt_encode(float("inf"), MTConfig(1.0, 2, 4))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MTConfig(0.0, 2, 4)
        with pytest.raises(ValueError):
            MTConfig(1.0, 0, 4)


@st.composite
def mt_batches(draw):
    """An (H, T), a tau per element, and inputs of every kind the encoder
    meets: on and off the grid, signed zeros, subnormals, +-1e308,
    saturating magnitudes, and unit-space magnitude R = 2H * 2^P - 1 (the
    last row of the chunk table) with the first chunk's index at R too."""
    H = draw(st.integers(1, 1024))
    T = draw(st.integers(1, 28))
    n = draw(st.integers(1, 12))
    tau = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    unit = tau * 2.0**-T / H
    top = (2 * H - 1) * 2**T  # grid points reach (2H-1)/H * tau
    R = 2 * H * 2 ** _mt_chunk(H) - 1
    kinds = {
        "grid": lambda i: draw(st.integers(-top, top)) * unit[i],
        "off": lambda i: draw(st.floats(-3.0, 3.0)) * tau[i],
        "zero": lambda i: draw(st.sampled_from([0.0, -0.0])),
        "subnormal": lambda i: draw(st.sampled_from([5e-324, -5e-324, 2.2e-310])),
        "huge": lambda i: draw(st.sampled_from([1e308, -1e308])),
        "saturating": lambda i: draw(st.floats(1.0, 1e6)) * top * unit[i],
        "R": lambda i: draw(st.sampled_from([1, -1])) * R * unit[i],
        "R_first_chunk": lambda i: R * 2.0 ** max(T - _mt_chunk(H), 0) * unit[i],
    }
    x = np.array([kinds[draw(st.sampled_from(sorted(kinds)))](i) for i in range(n)])
    return x, tau, H, T


class TestChunkedEncoder:
    """_mt_run reads chunk tables in place of _mt_loop's steps, bit for bit."""

    # inputs beyond the top grid level saturate silently: 1e308 / unit
    # must neither overflow nor warn
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(case=mt_batches())
    @example(case=(np.array([0.0, -0.0, 1e308, -1.5]), np.ones(4), 5, 16))
    def test_matches_step_loop(self, case):
        x, tau, H, T = case
        values = _mt_run(x, tau, H, T)[0]
        assert values.tobytes() == _mt_loop(x, tau, H, T).tobytes()  # signed zeros too

    def test_chunk_size(self):
        # the table has at most 4096 rows
        assert [_mt_chunk(H) for H in (1, 5, 1024)] == [11, 8, 1]
        for H in (1, 2, 3, 5, 100, 1024):
            emits, totals = _mt_table(H, _mt_chunk(H))
            assert emits.shape[1] == totals.size <= 4096

    def test_mt_encode_stays_on_the_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mt_encode must not use the chunk tables")

        monkeypatch.setattr(neurons, "_mt_run", refuse)
        train = mt_encode(0.6, MTConfig(1.0, 5, 16))
        values = _mt_loop(np.array([0.6]), 1.0, 5, 16)
        assert train.values[:, :, 0].tobytes() == values.tobytes()

    @pytest.mark.parametrize("make", [
        lambda H, T: MTConfig(1.0, H, T),
        lambda H, T: OATConfig(1.0, 2.0, H, T),
    ])
    def test_exact_range_bounds(self, make):
        # the step ceiling: (T+1) * (2H-1) * 2^T * 2^-53 <= 1e-6 grid units
        make(1024, 17)
        make(1, 28)
        with pytest.raises(ValueError, match="at most 1024"):
            make(1025, 4)
        with pytest.raises(ValueError, match=r"2\^-53 <= 1e-06 grid units, so T <= 25"):
            make(5, 26)
        with pytest.raises(ValueError, match=r"T <= 17"):
            make(1024, 18)


class TestUnitSpace:
    @settings(max_examples=200, deadline=None)
    @given(case=mt_batches())
    @example(case=(np.array([1e308, -1e308, 1.9, 2.5]), np.ones(4), 1, 3))
    def test_saturation_clamp_changes_no_emission(self, case):
        # _mt_units clamps |x| at 2 tau; the plain division it replaced, which
        # overflows to inf on +-1e308, saturates every step just the same
        x, tau, H, T = case
        values = _mt_loop(x, tau, H, T)
        unit = tau * 2.0**-T / H
        with np.errstate(over="ignore", invalid="ignore"):
            W = x / unit
            Wr = np.rint(W)
            W = np.where(np.abs(W - Wr) <= neurons._SNAP_UNITS, Wr, W)
            emits = neurons._mt_steps(np.abs(W), H, T)
        assert values.tobytes() == (np.sign(W) * emits * unit).tobytes()

    @pytest.mark.parametrize("make, field", [
        (lambda tau: MTConfig(tau, 5, 4), "tau"),
        (lambda tau: OATConfig(tau, 1.0, 5, 4), "theta_nor"),
    ])
    def test_unit_must_stay_normal_at_every_runnable_T(self, make, field):
        # H=5 runs up to T=25, where the unit is tau * 2^-25 / 5
        floor = 5 * 2.0**25 * np.finfo(np.float64).tiny
        make(floor)
        for tau in (np.nextafter(floor, 0.0), 1e-300, 1e-320):
            with pytest.raises(ValueError, match=rf"every T <= 25, so {field} >= 3\.7"):
                make(tau)


class TestStepCeiling:
    """At the step ceiling, the most T the configs take at H, every decoded
    value re-encodes exactly: decode -> encode gives the same train."""

    @settings(max_examples=200, deadline=None)
    @given(H=st.integers(1, 1024), tau=st.floats(1e-3, 1e3), data=st.data())
    @example(H=5, tau=1.0, data=None)
    def test_decoded_values_re_encode_at_the_ceiling(self, H, tau, data):
        T = neurons._max_steps(H)
        MTConfig(tau, H, T)  # accepted at the ceiling
        top = (2 * H - 1) * 2**T  # grid points reach (2H-1)/H * tau
        if data is None:  # the largest grid values, where rounding is worst
            k, off = [top, 1 - top, top // 3], [1.999, -1.2345]
        else:
            k = data.draw(st.lists(st.integers(-top, top), min_size=1, max_size=32))
            off = data.draw(st.lists(st.floats(-2.0, 2.0), max_size=32))
        x = np.concatenate([np.array(k) * (tau * 2.0**-T / H), np.array(off) * tau])
        train = _mt_run(x, tau, H, T)[0]
        # equal values; a silent step of a value that decoded to zero may
        # flip the sign of its zero
        assert np.array_equal(_mt_run(_sum_steps(train), tau, H, T)[0], train)


class TestOATNeuron:
    CFG = OATConfig(theta_nor=1.0, theta_out=4.0, H=5, T=16)

    def test_normal_path_below_threshold(self):
        t = encode_matrix(Matrix(np.array([[0.5]])), self.CFG)
        ref = mt_encode(0.5, MTConfig(1.0, 5, 16))
        assert np.array_equal(t.values, ref.values)

    def test_outlier_path_at_or_above_threshold(self):
        t = encode_matrix(Matrix(np.array([[-3.0]])), self.CFG)
        ref = mt_encode(-3.0, MTConfig(4.0, 5, 16))
        assert np.array_equal(t.values, ref.values)

    def test_elements_route_independently(self):
        x = Matrix(np.array([[0.5, -3.0, 0.2]]))
        t = encode_matrix(x, self.CFG)
        d = decode(t).array[0]
        assert abs(d[0] - 0.5) < 1e-4 and abs(d[2] - 0.2) < 1e-4
        assert abs(d[1] + 3.0) < 4e-4  # coarse path, wider unit

    def test_saturation_counted_above_the_top_grid_level(self):
        # the coarse range's top level at H=5, T=8 is 9/5 * theta_out *
        # (1 - 2^-8) = 2295 units of 5 * 2^-8 / 5 (a dyadic unit, so decodes
        # are exact); the input one unit above saturates and decodes a unit
        # short, the input on it does not
        cfg = OATConfig(1.0, 5.0, 5, 8)
        unit = 2.0**-8
        top = 2295 * unit
        on, above = np.array([[top, -top]]), np.array([[top + unit, -top - unit, 0.5]])
        ledger = EnergyLedger()
        assert np.array_equal(decode(encode_matrix(Matrix(on), cfg, ledger=ledger,
                                                   site="e")).array, on)
        assert ledger.counters == {}
        train = encode_matrix(Matrix(above), cfg, ledger=ledger, site="e")
        assert decode(train).array[0, :2].tolist() == [top, -top]
        assert ledger.counters == {"e.saturated": 2}
        assert _mt_run(above[0], 5.0, 5, 8)[1] == 2

    def test_decode_mse_beats_single_coarse_neuron(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.0, 1.0, 10000)
        out_idx = rng.choice(x.size, size=100, replace=False)
        x[out_idx] = 20.0 * np.where(rng.random(100) < 0.5, -1.0, 1.0)
        oat = OATConfig(1.0, 20.0, 5, 16)
        coarse = MTConfig(20.0, 5, 16)
        d_oat = decode(encode_matrix(Matrix(x.reshape(1, -1)), oat)).array[0]
        d_mt = np.array([dec1(mt_encode(float(v), coarse)) for v in x])
        assert np.mean((d_oat - x) ** 2) < np.mean((d_mt - x) ** 2)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            OATConfig(theta_nor=2.0, theta_out=1.0, H=5, T=16)
        with pytest.raises(ValueError, match="finite"):
            OATConfig(theta_nor=1.0, theta_out=float("inf"), H=5, T=16)

    def test_runtime_steps_override(self):
        t = encode_matrix(Matrix(np.array([[0.7]])), self.CFG, T=8)
        assert t.steps == 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        # an unchecked Matrix._wrap input must not saturate to the top level
        x = Matrix._wrap(np.array([[bad, 0.3]]))
        with pytest.raises(NonFiniteError, match="'layers.0.attn.q'"):
            encode_matrix(x, OATConfig(0.5, 4.0, 5, 8), site="layers.0.attn.q")

    def test_overflowing_decode_rejected(self):
        # every step is finite, their sum is not: the decode must not
        # re-enter the spike path as a saturated encoding
        train = SpikeMatrixTrain(np.full((2, 1, 2), 1e308))
        with np.errstate(over="ignore"):
            x = decode_train(train)
        with pytest.raises(NonFiniteError):
            encode_matrix(x, self.CFG)


def step_fn_config() -> HGConfig:
    """Two-range hierarchy decoding a step function exactly.

    Range [0,1) decodes 2.0, range [1,2) decodes 5.0, through the always-on
    step 0; the one rung weighs 0.0.
    """
    return HGConfig(boundaries=(0.0, 1.0, 2.0), d=[[2.0, 5.0], [0.0, 0.0]])


class TestHGNeuron:
    def test_zero_function(self):
        c = HGConfig(boundaries=(0.0, 1.0), d=[[0.0], [0.0]])
        t = apply_hg(Matrix(np.array([[0.3, 0.9]])), c)
        assert np.array_equal(decode(t).array, np.zeros((1, 2)))

    def test_bucket_routing(self):
        c = step_fn_config()
        x = Matrix(np.array([[0.5, 1.5]]))
        assert np.array_equal(decode(apply_hg(x, c)).array, [[2.0, 5.0]])

    def test_clamp_below_and_above(self):
        c = step_fn_config()
        x = Matrix(np.array([[-3.0, 99.0]]))
        # below lambda_0 -> first bucket; at/above lambda_N -> last bucket
        assert np.array_equal(decode(apply_hg(x, c)).array, [[2.0, 5.0]])

    def test_partition_exactly_one_bucket(self):
        c = step_fn_config()
        for x in (0.0, 0.5, 0.999, 1.0, 1.5):
            t = apply_hg(Matrix(np.array([[x]])), c)
            # step 0 is the always-on intercept of exactly one sub-neuron
            assert t.events[0, 0, 0]
            assert dec1(t) in (2.0, 5.0)

    def test_boundary_goes_right(self):
        # lambda_1 = 1.0 belongs to the second range (left-closed buckets)
        c = step_fn_config()
        assert dec1(apply_hg(Matrix(np.array([[1.0]])), c)) == 5.0

    def test_non_finite_rejected_at_construction(self):
        # the Matrix wrapper is the chokepoint: no NaN reaches the gate
        with pytest.raises(NonFiniteError):
            Matrix(np.array([[np.nan]]))

    def test_determinism_bit_identical(self):
        c = step_fn_config()
        x = Matrix(np.linspace(0, 2, 64).reshape(8, 8))
        a, b = apply_hg(x, c), apply_hg(x, c)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.events, b.events)

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            HGConfig((0.0, 0.0), [[0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_boundary_rejected(self, bad):
        # a NaN compares false both ways, so the ordering check alone lets it in
        with pytest.raises(ValueError, match=r"boundaries\[1\]"):
            HGConfig((0.0, bad), [[0.5]])

    def test_stacks_checked_as_whole_arrays(self):
        c = step_fn_config()
        with pytest.raises(ShapeError, match=r"d must be \(T, N\) with T, N >= 1, "
                                             r"got \(2,\)"):
            HGConfig(c.boundaries[:2], c.d[0])
        with pytest.raises(ShapeError, match="2 sub-kernels need 3 boundaries"):
            HGConfig(c.boundaries[:2], c.d)
        with pytest.raises(ShapeError, match="T, N >= 1"):
            HGConfig((0.0,), np.zeros((2, 0)))
        with pytest.raises(ValueError, match=r"boundaries\[2\]=1.0 after 1.0"):
            HGConfig((0.0, 1.0, 1.0), c.d)

    def test_stacks_hold_the_subneuron_schedules(self):
        c = step_fn_config()
        # column i is sub-range i's step weights; its guard step
        # w * 2^-(T+8) follows from its width w = 1 and T = 2
        for i, d in enumerate((2.0, 5.0)):
            assert c.d[:, i].tolist() == [d, 0.0]
        assert c.steps == 2 and c.guard.tolist() == [2.0**-10, 2.0**-10]
        assert HGConfig(c.boundaries, c.d) == c
        assert HGConfig(c.boundaries, 2 * c.d) != c
        assert HGConfig(2 * c.boundaries, c.d) != c
        arrays = (c.boundaries, c.d, c.guard)
        assert not any(a.flags.writeable for a in arrays)

    def test_steps_outside_the_closed_form_refused(self):
        # K = floor(u / q) has T - 1 bits and floors exactly below 2^51
        HGConfig((0.0, 1.0), np.zeros((52, 1)))
        with pytest.raises(ValueError, match=r"T, d's row count, must be within "
                                             r"1\.\.52 steps, got 53"):
            HGConfig((0.0, 1.0), np.zeros((53, 1)))

    @pytest.mark.parametrize("edges, bad, guard", [
        ((0.0, 1e-300, 1.1e-300), 1, r"\d\.\d+e-309"),  # below the normal range
        ((-1e308, 1e308, 1.5e308), 0, "inf"),  # a width that overflows
    ])
    def test_range_outside_the_closed_form_refused(self, edges, bad, guard):
        # every rung is a power-of-two multiple of the guard, the smallest
        lo, hi = (re.escape(str(b)) for b in edges[bad:bad + 2])
        with pytest.raises(ValueError, match=rf"range \[{lo}, {hi}\] does not fit at "
                                             rf"T=16: its guard step \(hi - lo\) \* "
                                             rf"2\^-\(T\+8\) = {guard} must be a "
                                             rf"finite normal float"):
            HGConfig(edges, np.zeros((16, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        # Matrix._wrap skips the constructor's finiteness check, as the
        # softmax denominator does; the gate itself must refuse the value
        x = Matrix._wrap(np.array([[bad, 0.6]]))
        with pytest.raises(NonFiniteError):
            apply_hg(x, step_fn_config())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hg_eval_refuses_non_finite_input(self, bad):
        # a 4-sub-range bank, as an exp gate's on [-8, 0]: unchecked, NaN
        # gathered a guard past the last sub-range and +-inf decoded as the
        # edge sub-ranges' outputs
        bank = HGConfig((-8.0, -4.0, -2.0, -1.0, 0.0), np.ones((6, 4)))
        with pytest.raises(NonFiniteError, match="^hg_eval input contains"):
            hg_eval(bank, np.array([0.0, bad]))


def truncate_schedule(theta, h, d, T: int) -> tuple[tuple, tuple, tuple]:
    """First T steps of a schedule's theta, h and d; silent padding when T
    is longer: the oracle of a gate run at another step count.

    Running a kernel below its fitted depth drops the finest refinement
    steps, which is how timestep sweeps degrade resolution.
    """
    _check_steps(T)
    pad = max(T - len(theta), 0)
    big = 1e300  # threshold no finite membrane reaches
    return (tuple(theta[:T]) + (big,) * pad, tuple(h[:T]) + (0.0,) * pad,
            tuple(d[:T]) + (0.0,) * pad)


def hg_at_steps(c: HGConfig, T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bank's (T, N) theta, h and d stacks at T steps: each column is
    its sub-range's dyadic schedule at the fitted depth, resized through
    truncate_schedule."""
    widths = np.diff(c.boundaries)
    columns = (truncate_schedule(*dyadic_schedule(w, c.steps), d, T)
               for w, d in zip(widths, c.d.T))
    return tuple(np.array(s).T for s in zip(*columns))


class TestScheduleResizing:
    def test_truncate(self):
        s = (8.0, 4.0, 2.0, 1.0)
        theta, h, d = truncate_schedule(s, s, s, 2)
        assert theta == h == d == (8.0, 4.0)

    def test_pad_never_fires(self):
        q = truncate_schedule((0.5,), (0.5,), (0.5,), 3)
        assert q == ((0.5, 1e300, 1e300), (0.5, 0.0, 0.0), (0.5, 0.0, 0.0))
        _, fired = fs_run_reference([0.75], *q)
        assert not fired[1:].any()

    @pytest.mark.parametrize("T", [0, -1])
    def test_step_count_below_one_named(self, T):
        # the gate itself refuses it, naming T, before it sizes a train
        with pytest.raises(ValueError, match=f"T must be at least 1, got {T}"):
            _hg_run(np.array([0.5]), step_fn_config(), T, "x")

    def test_hg_at_steps_same_t_is_identity(self):
        # at the fitted depth: each column's dyadic schedule and weights
        c = step_fn_config()
        theta, h, d = hg_at_steps(c, 2)
        assert theta.T.tolist() == [[2.0**-10, 0.5]] * 2
        assert h.T.tolist() == [[0.0, 0.5]] * 2
        assert d.tobytes() == c.d.tobytes()

    @pytest.mark.parametrize("T", [1, 3])
    def test_hg_at_steps_resizes_each_column(self, T):
        c = step_fn_config()
        r = hg_at_steps(c, T)
        for i in range(2):
            col = truncate_schedule(*dyadic_schedule(1.0, 2), c.d[:, i], T)
            assert [a[:, i].tolist() for a in r] == list(map(list, col))


finite = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def banks(draw, widths=st.floats(0.01, 5.0), max_steps=8):
    """Gated banks of 1..5 sub-kernels at 1..max_steps steps, with step
    weights of either sign, signed zeros included."""
    n = draw(st.integers(1, 5))
    T = draw(st.integers(1, max_steps))
    lo = draw(st.floats(-10.0, 10.0))
    ws = draw(st.lists(widths, min_size=n, max_size=n))
    boundaries = tuple(float(b) for b in np.cumsum([lo] + ws))
    weights = finite | st.sampled_from([0.0, -0.0])
    return HGConfig(boundaries, draw(hnp.arrays(np.float64, (T, n), elements=weights)))


@st.composite
def dual_range_configs(draw):
    theta_nor = draw(st.floats(0.01, 5.0))
    theta_out = theta_nor * draw(st.floats(1.01, 20.0))
    return OATConfig(theta_nor, theta_out, draw(st.integers(1, 6)),
                     draw(st.integers(1, 16)))


class TestMatrixEntryPoints:
    """encode_matrix and apply_hg agree with the scalar reference paths."""

    @settings(max_examples=200, deadline=None)
    @given(c=banks(), xs=hnp.arrays(np.float64, st.integers(1, 24),
                                    elements=st.floats(-30.0, 30.0)))
    def test_hg_eval_matches_apply_hg(self, c, xs):
        got = decode(apply_hg(Matrix(xs[None]), c)).array[0]
        assert np.array_equal(hg_eval(c, xs), got)

    @settings(max_examples=200, deadline=None)
    @given(oat=dual_range_configs(),
           x=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                        elements=st.floats(-50.0, 50.0)))
    def test_encode_matrix_routes_by_magnitude(self, oat, x):
        train = encode_matrix(Matrix(x), oat)
        got = decode(train).array
        for (i, j), v in np.ndenumerate(x):
            tau = oat.theta_nor if abs(v) < oat.theta_nor else oat.theta_out
            ref = mt_encode(float(v), MTConfig(tau, oat.H, oat.T))
            assert np.array_equal(train.values[:, i, j], ref.values[:, 0, 0])
            assert np.array_equal(train.events[:, i, j], ref.events[:, 0, 0])
            assert got[i, j] == dec1(ref)


def fs_decode_reference(x, theta, h, d):
    """The few-step recurrence with each step's weighted bits added as the
    step fires, in step order: the streamed decode that validated gate fits
    before their closed form, kept as the oracle of the in-order step sum."""
    v = np.array(x, dtype=np.float64)
    out = None
    for theta_t, h_t, d_t in zip(theta, h, d):
        bits = (v >= theta_t).astype(np.float64)
        v = v - h_t * bits
        term = bits * d_t
        out = term if out is None else out + term
    return out


@st.composite
def schedules_with_edge_inputs(draw):
    """A (theta, h, d) schedule plus inputs that include its exact firing edges.

    Thresholds and resets are multiples of 1/16, so x = theta[t] + h[0] +
    ... + h[t-1] is exact: after steps 0..t-1 fire and reset, the membrane
    sits exactly on threshold t.
    """
    T = draw(st.integers(1, 8))
    sixteenths = st.lists(st.integers(1, 64), min_size=T, max_size=T)
    theta = [k / 16.0 for k in draw(sixteenths)]
    h = [k / 16.0 for k in draw(st.lists(st.integers(-64, 64), min_size=T,
                                         max_size=T))]
    d = draw(st.lists(finite, min_size=T, max_size=T))
    edges = [theta[t] + sum(h[:t]) for t in range(T)]
    specials = edges + [float(np.nextafter(e, -np.inf)) for e in edges]
    xs = draw(st.lists(st.one_of(st.sampled_from(specials), st.floats(-20.0, 20.0)),
                       min_size=1, max_size=24))
    return (tuple(theta), tuple(h), tuple(d)), np.array(xs)


def hg_run_reference(flat, c, T):
    """The per-sub-kernel loop that _hg_run replaced, kept as its oracle.

    Each sub-range runs its own few-step kernel (fs_run_reference) on the
    elements routed to it, through its dyadic schedule resized to T steps
    (hg_at_steps); step 0 is the guard step, whose threshold seeds the
    membrane.
    """
    bs = np.asarray(c.boundaries)
    lo, hi = bs[0], bs[-1]
    clamped = int(np.count_nonzero((flat < lo) | (flat >= hi)))
    x = np.clip(flat, lo, np.nextafter(hi, lo))
    bucket = np.searchsorted(bs, x, side="right") - 1
    bucket = np.clip(bucket, 0, c.d.shape[1] - 1)
    values = np.zeros((T, flat.size))
    for i, (theta, h, d) in enumerate(zip(*(a.T for a in hg_at_steps(c, T)))):
        idx = np.nonzero(bucket == i)[0]
        if idx.size == 0:
            continue
        u = x[idx] - bs[i] + theta[0]
        values[:, idx], _ = fs_run_reference(u, theta, h, d)
    return values, clamped


@st.composite
def bank_runs(draw):
    """A bank of 1..5 sub-ranges of widths 1e-6..1e3 at 1..12 steps, a step
    count from 1 to 4 past its fitted depth, and inputs that include every
    boundary and rung edges b + k * q - guard, each with its one-ulp
    neighbours, and out-of-range values."""
    c = draw(banks(widths=st.floats(1e-6, 1e3), max_steps=12))
    bs, T = c.boundaries, c.steps
    edges = [bs]
    for b, w, g in zip(bs, np.diff(bs), c.guard):
        k = np.array(draw(st.lists(st.integers(0, 2 ** (T - 1)), max_size=8)))
        edges.append(b + k * (w * 2.0 ** (1 - T)) - g)
    edges = np.concatenate(edges)
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
    out = draw(st.lists(st.floats(-1e308, 1e308) | st.sampled_from([-1e308, 1e308]),
                        max_size=8))
    return c, np.concatenate([edges, out]), draw(st.integers(1, T + 4))


class TestGateBank:
    @settings(max_examples=300, deadline=None)
    @given(case=bank_runs())
    # 0.3 fires step 0's -0.0 weight, which keeps its sign, and not step 1's
    # -2.0, which gives +0.0; 1.7 (u = 0.7) fires both of its weights, the
    # -0.0 rung keeping its sign
    @example(case=(HGConfig((0.0, 1.0, 2.0), [[-0.0, -1.5], [-2.0, -0.0]]),
                   np.array([0.3, 1.7]), 2))
    def test_matches_per_sub_kernel_reference(self, case):
        c, xs, T = case
        values, clamped = _hg_run(xs, c, T, "xs")
        ref_values, ref_clamped = hg_run_reference(xs, c, T)
        assert values.tobytes() == ref_values.tobytes()
        assert clamped == ref_clamped
        ledger = EnergyLedger()
        train = apply_hg(Matrix(xs[None]), c, T, ledger=ledger, site="g")
        assert train.values.tobytes() == ref_values.tobytes()
        assert ledger.counters.get("g.clamped", 0) == ref_clamped


class TestFSRecurrence:
    @settings(max_examples=300, deadline=None)
    @given(case=schedules_with_edge_inputs(), silent=st.sets(st.integers(0, 7)))
    @example(case=(((0.5,), (0.5,), (-1.5,)), np.array([0.0, 0.5, 2.0])),
             silent=set())
    @example(case=(((0.5, 0.25, 0.125), (0.5, 0.25, 0.125), (-2.0, 1.0, -0.5)),
                   np.array([-1.0, 0.0, 0.3, 0.875])), silent={1})
    def test_fused_decode_matches_weighted_step_sum(self, case, silent):
        # weights of either sign (T from 1), and steps whose threshold no
        # finite membrane reaches, so they never fire
        (theta, h, d), xs = case
        theta = tuple(1e300 if t in silent else v for t, v in enumerate(theta))
        d = np.array(d)
        ref = _sum_steps(fs_run_reference(xs, theta, h, d)[1] * d[:, None])
        got = fs_decode_reference(xs, theta, h, d)
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # the same additions, so even signed zeros
