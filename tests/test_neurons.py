"""Neuron dynamics: hand-simulated schedules, round-trips, enumeration.

The scalar reference kernels (fs_encode, mt_encode) are checked by hand;
the matrix entry points (encode_matrix, apply_hg) are checked against them
on generated inputs.
"""
import dataclasses

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeconvert import neurons
from spikeconvert.errors import NonFiniteError, ShapeError
from spikeconvert.neurons import (
    FSParams,
    HGConfig,
    MTConfig,
    OATConfig,
    SpikeMatrixTrain,
    _fs_bits,
    _fs_decode,
    _hg_run,
    _mt_chunk,
    _mt_loop,
    _mt_run,
    _mt_table,
    _sum_steps,
    decode,
    fs_encode,
    hg_at_steps,
    hg_eval,
    mt_encode,
    truncate_schedule,
)
from spikeconvert.spikeops import apply_hg, decode_train, encode_matrix
from spikeconvert.tensors import Matrix


def dec1(train: SpikeMatrixTrain) -> float:
    return float(decode(train).array[0, 0])


class TestSpikeTrain:
    def test_values_must_be_zero_when_silent(self):
        values = np.array([[[1.0]]])
        events = np.array([[[False]]])
        with pytest.raises(ValueError):
            SpikeMatrixTrain(values, events)

    def test_decode_single_spike(self):
        values = np.zeros((4, 1, 1))
        values[2, 0, 0] = 0.5
        t = SpikeMatrixTrain(values, values != 0)
        assert dec1(t) == 0.5

    def test_all_silent_decodes_zero(self):
        t = SpikeMatrixTrain(np.zeros((3, 1, 2)), np.zeros((3, 1, 2), dtype=bool))
        assert np.array_equal(decode(t).array, np.zeros((1, 2)))


class TestFSNeuron:
    P2 = FSParams(theta=(0.5, 0.25), h=(0.5, 0.25), d=(0.5, 0.25))

    def test_hand_example_two_spikes(self):
        # v=0.75 >= 0.5 fire (emit 0.5, v -> 0.25); 0.25 >= 0.25 fire again
        t = fs_encode(0.75, self.P2)
        assert t.events[:, 0, 0].tolist() == [True, True]
        assert dec1(t) == 0.75

    def test_zero_input_silent(self):
        t = fs_encode(0.0, self.P2)
        assert not t.events.any()
        assert dec1(t) == 0.0

    def test_negative_input_silent(self):
        t = fs_encode(-1.0, self.P2)
        assert not t.events.any()

    def test_fires_at_exact_threshold(self):
        t = fs_encode(0.5, self.P2)
        assert t.events[0, 0, 0]
        assert dec1(t) == 0.5

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            fs_encode(float("nan"), self.P2)

    def test_subset_sum_round_trip_exact(self):
        # every subset sum of a dyadic {d(t)} is reproduced exactly
        T = 10
        d = tuple(2.0 ** -(t + 1) for t in range(T))
        p = FSParams(theta=d, h=d, d=d)
        rng = np.random.default_rng(11)
        for _ in range(200):
            mask = rng.random(T) < 0.5
            x = float(np.sum(np.array(d)[mask]))
            assert dec1(fs_encode(x, p)) == x

    def test_param_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FSParams(theta=(0.5,), h=(0.5, 0.25), d=(0.5, 0.25))

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ValueError):
            FSParams(theta=(0.0,), h=(0.1,), d=(0.1,))

    @pytest.mark.parametrize("h, d", [(float("nan"), 0.1), (0.1, float("nan")),
                                      (float("inf"), 0.1), (0.1, -float("inf"))])
    def test_non_finite_reset_or_weight_rejected(self, h, d):
        with pytest.raises(ValueError, match="finite"):
            FSParams(theta=(1.0,), h=(h,), d=(d,))


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
        p = FSParams(theta=sched, h=sched, d=sched)
        rng = np.random.default_rng(23)
        for x in rng.uniform(-2.0, 2.0, 1000):
            mt = mt_encode(float(x), cfg)
            fs = fs_encode(abs(float(x)), p)
            assert np.array_equal(mt.values, np.sign(x) * fs.values)
            assert np.array_equal(mt.events, fs.events)

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
        values, events = _mt_run(x, tau, H, T)
        ref_values, ref_events = _mt_loop(x, tau, H, T)
        assert values.tobytes() == ref_values.tobytes()  # signed zeros too
        assert np.array_equal(events, ref_events)

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
        values, events = _mt_loop(np.array([0.6]), 1.0, 5, 16)
        assert train.values[:, :, 0].tobytes() == values.tobytes()
        assert np.array_equal(train.events[:, :, 0], events)

    @pytest.mark.parametrize("make", [
        lambda H, T: MTConfig(1.0, H, T),
        lambda H, T: OATConfig(1.0, 2.0, H, T),
    ])
    def test_exact_range_bounds(self, make):
        make(1024, 42)  # (2H-1) * 2^T = 2047 * 2^42 < 2^53
        make(1, 52)
        with pytest.raises(ValueError, match="at most 1024"):
            make(1025, 4)
        with pytest.raises(ValueError, match=r"2\^53, so T <= 49"):
            make(5, 50)
        with pytest.raises(ValueError, match=r"T <= 42"):
            make(1024, 43)


class TestUnitSpace:
    @settings(max_examples=200, deadline=None)
    @given(case=mt_batches())
    @example(case=(np.array([1e308, -1e308, 1.9, 2.5]), np.ones(4), 1, 3))
    def test_saturation_clamp_changes_no_emission(self, case):
        # _mt_units clamps |x| at 2 tau; the plain division it replaced, which
        # overflows to inf on +-1e308, saturates every step just the same
        x, tau, H, T = case
        values, events = _mt_loop(x, tau, H, T)
        unit = tau * 2.0**-T / H
        with np.errstate(over="ignore", invalid="ignore"):
            W = x / unit
            Wr = np.rint(W)
            W = np.where(np.abs(W - Wr) <= neurons._SNAP_UNITS, Wr, W)
            emits, ref_events = neurons._mt_steps(np.abs(W), H, T)
        assert values.tobytes() == (np.sign(W) * emits * unit).tobytes()
        assert np.array_equal(events, ref_events)

    @pytest.mark.parametrize("make, field", [
        (lambda tau: MTConfig(tau, 5, 4), "tau"),
        (lambda tau: OATConfig(tau, 1.0, 5, 4), "theta_nor"),
    ])
    def test_unit_must_stay_normal_at_every_runnable_T(self, make, field):
        # H=5 runs up to T=49, where the unit is tau * 2^-49 / 5
        floor = 5 * 2.0**49 * np.finfo(np.float64).tiny
        make(floor)
        for tau in (np.nextafter(floor, 0.0), 1e-300, 1e-320):
            with pytest.raises(ValueError, match=rf"every T <= 49, so {field} >= 6\.2"):
                make(tau)


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

    Range [0,1) decodes 2.0, range [1,2) decodes 5.0, via a single
    always-fires step (guard handled by the intercept construction).
    """
    mk = lambda val: FSParams(theta=(1e-9, 1.0), h=(0.0, 1.0),
                              d=(val, 0.0))
    return HGConfig(boundaries=(0.0, 1.0, 2.0), subneurons=(mk(2.0), mk(5.0)))


class TestHGNeuron:
    def test_zero_function(self):
        zero = FSParams(theta=(0.5, 0.25), h=(0.5, 0.25), d=(0.0, 0.0))
        c = HGConfig(boundaries=(0.0, 1.0), subneurons=(zero,))
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
        mk = FSParams(theta=(0.5,), h=(0.5,), d=(0.5,))
        with pytest.raises(ValueError):
            HGConfig(boundaries=(0.0, 0.0), subneurons=(mk,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_boundary_rejected(self, bad):
        # a NaN compares false both ways, so the ordering check alone lets it in
        mk = FSParams(theta=(0.5,), h=(0.5,), d=(0.5,))
        with pytest.raises(ValueError, match=r"boundaries\[1\]"):
            HGConfig(boundaries=(0.0, bad), subneurons=(mk,))

    def test_mixed_depth_bank_rejected_at_construction(self):
        one = FSParams(theta=(0.5,), h=(0.5,), d=(0.5,))
        two = FSParams(theta=(0.5, 0.25), h=(0.5, 0.25), d=(0.5, 0.25))
        with pytest.raises(ShapeError, match="step count"):
            HGConfig(boundaries=(0.0, 1.0, 2.0), subneurons=(one, two))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        # Matrix._wrap skips the constructor's finiteness check, as the
        # softmax denominator does; the gate itself must refuse the value
        x = Matrix._wrap(np.array([[bad, 0.6]]))
        with pytest.raises(NonFiniteError):
            apply_hg(x, step_fn_config())


class TestScheduleResizing:
    def test_truncate(self):
        p = FSParams(theta=(8.0, 4.0, 2.0, 1.0), h=(8.0, 4.0, 2.0, 1.0),
                     d=(8.0, 4.0, 2.0, 1.0))
        q = truncate_schedule(p, 2)
        assert q.steps == 2 and q.theta == (8.0, 4.0)

    def test_pad_never_fires(self):
        p = FSParams(theta=(0.5,), h=(0.5,), d=(0.5,))
        q = truncate_schedule(p, 3)
        assert q.steps == 3
        t = fs_encode(0.75, q)
        assert not t.events[1:, 0].any()

    def test_hg_at_steps_same_t_is_identity(self):
        c = step_fn_config()
        assert hg_at_steps(c, 2) is c


finite = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def banks(draw):
    """Gated banks of 1..5 sub-kernels sharing a 1..8-step schedule."""
    n = draw(st.integers(1, 5))
    T = draw(st.integers(1, 8))
    lo = draw(st.floats(-10.0, 10.0))
    widths = draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n))
    boundaries = tuple(float(b) for b in np.cumsum([lo] + widths))
    steps = st.lists(finite, min_size=T, max_size=T)
    subs = tuple(
        FSParams(
            theta=tuple(draw(st.lists(st.floats(1e-3, 4.0), min_size=T, max_size=T))),
            h=tuple(draw(steps)),
            d=tuple(draw(steps)),
        )
        for _ in range(n)
    )
    return HGConfig(boundaries, subs)


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


def fs_run_reference(x, p):
    """The per-step few-step loop, kept as the oracle of _fs_bits."""
    x = np.asarray(x, dtype=np.float64)
    T = p.steps
    values = np.zeros((T, x.size))
    events = np.zeros((T, x.size), dtype=bool)
    v = x.copy()
    for t in range(T):
        fire = v >= p.theta[t]
        events[t] = fire
        values[t] = np.where(fire, p.d[t], 0.0)
        v = v - p.h[t] * fire
    return values, events


@st.composite
def schedules_with_edge_inputs(draw):
    """A schedule plus inputs that include its exact firing edges.

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
    return FSParams(tuple(theta), tuple(h), tuple(d)), np.array(xs)


def hg_run_reference(flat, c):
    """The per-sub-kernel loop that _hg_run replaced, kept as its oracle.

    Each sub-range runs its own few-step kernel (fs_run_reference, the
    per-step oracle of _fs_bits) on the elements routed to it.
    """
    bs = np.asarray(c.boundaries)
    lo, hi = bs[0], bs[-1]
    clamped = int(np.count_nonzero((flat < lo) | (flat >= hi)))
    x = np.clip(flat, lo, np.nextafter(hi, lo))
    bucket = np.searchsorted(bs, x, side="right") - 1
    bucket = np.clip(bucket, 0, len(c.subneurons) - 1)
    T = c.subneurons[0].steps
    values = np.zeros((T, flat.size))
    events = np.zeros((T, flat.size), dtype=bool)
    for i, p in enumerate(c.subneurons):
        idx = np.nonzero(bucket == i)[0]
        if idx.size == 0:
            continue
        u = x[idx] - bs[i] + (p.theta[0] if p.h[0] == 0.0 else 0.0)
        v, e = fs_run_reference(u, p)
        values[:, idx] = v
        events[:, idx] = e
    return values, events, clamped


@st.composite
def bank_runs(draw):
    """A bank, a step count below, at or above its fitted depth (1..8), and
    inputs that include every boundary, the float just below each, and
    out-of-range values."""
    c = draw(banks())
    if draw(st.booleans()):
        # a zero first reset makes step 0 the intercept and its threshold the guard
        c = HGConfig(c.boundaries, tuple(
            FSParams(p.theta, (0.0,) + p.h[1:], p.d) for p in c.subneurons))
    bs = list(c.boundaries)
    edges = bs + [float(np.nextafter(b, -np.inf)) for b in bs]
    xs = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(-30.0, 30.0)),
                       min_size=1, max_size=24))
    return c, np.array(xs), draw(st.integers(1, 12))


class TestGateBank:
    @settings(max_examples=300, deadline=None)
    @given(case=bank_runs())
    def test_matches_per_sub_kernel_reference(self, case):
        c, xs, T = case
        values, events, clamped = _hg_run(xs, c, T)
        ref_values, ref_events, ref_clamped = hg_run_reference(xs, hg_at_steps(c, T))
        assert values.tobytes() == ref_values.tobytes()
        assert np.array_equal(events, ref_events)
        assert clamped == ref_clamped
        counters = {}
        train = apply_hg(Matrix(xs[None]), c, T, counters=counters, site="g")
        assert train.values.tobytes() == ref_values.tobytes()
        assert np.array_equal(train.events[:, 0], ref_events)
        assert counters.get("g.clamped", 0) == ref_clamped


class TestFSRecurrence:
    @settings(max_examples=300, deadline=None)
    @given(case=schedules_with_edge_inputs())
    def test_matches_per_step_reference(self, case):
        p, xs = case
        ref_values, ref_events = fs_run_reference(xs, p)
        assert np.array_equal(_fs_bits(xs, p.theta, p.h), ref_events)
        for j, x in enumerate(xs):
            train = fs_encode(float(x), p)
            assert train.values[:, 0, 0].tobytes() == ref_values[:, j].tobytes()
            assert np.array_equal(train.events[:, 0, 0], ref_events[:, j])

    @settings(max_examples=300, deadline=None)
    @given(case=schedules_with_edge_inputs(), silent=st.sets(st.integers(0, 7)))
    @example(case=(FSParams((0.5,), (0.5,), (-1.5,)), np.array([0.0, 0.5, 2.0])),
             silent=set())
    @example(case=(FSParams((0.5, 0.25, 0.125), (0.5, 0.25, 0.125), (-2.0, 1.0, -0.5)),
                   np.array([-1.0, 0.0, 0.3, 0.875])), silent={1})
    def test_fused_decode_matches_weighted_step_sum(self, case, silent):
        # weights of either sign (T from 1), and steps whose threshold no
        # finite membrane reaches, so they never fire
        p, xs = case
        theta = tuple(1e300 if t in silent else v for t, v in enumerate(p.theta))
        d = np.array(p.d)
        ref = _sum_steps(_fs_bits(xs, theta, p.h) * d[:, None])
        got = _fs_decode(xs, theta, p.h, d)
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # the same additions, so even signed zeros
