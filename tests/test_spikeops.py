"""Spike-domain linear algebra and sub-layers vs float oracles.

The exact kernels (SAW, SAA, Hadamard, max-offset) are held to 1e-12.
The gated sub-layers (softmax, LayerNorm, FFN) are held to error bounds
composed from their CalibrationReport constants plus base quantities
measured inside the test; no tolerance below is a guessed number.

The recomputed intermediates (exp train, centered train, variance) are
bitwise identical to the internal ones: the same float arrays pass through
the same deterministic encoders and gates.

The whole-tensor product kernels are held bit for bit, SOP counts
included, to the per-step loops they replaced, which are kept below as
their oracles.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeconvert.calibration import fit_target, gelu
from spikeconvert.energy import EnergyLedger
from spikeconvert.errors import ShapeError, StepMismatchError
from spikeconvert.neurons import HGConfig, OATConfig
from spikeconvert.spikeops import (
    SpikeMatrixTrain,
    apply_hg,
    constant_train,
    decode_train,
    encode_matrix,
    hadamard_mul,
    project,
    reencode,
    saa_mul,
    saw_mul,
    saw_mul_right,
    softmax_offset,
    spike_ffn,
    spike_gated_ffn,
    spike_layernorm,
    spike_softmax,
)
from spikeconvert.tensors import Matrix

T16 = 16
OAT_UNIT = OATConfig(1.0, 4.0, 5, T16)


def random_train(rng, T, rows, cols, density=0.5, scale=1.0):
    values = rng.standard_normal((T, rows, cols)) * scale
    silent = rng.random((T, rows, cols)) >= density
    values[silent] = 0.0
    return SpikeMatrixTrain(values)


def dec(ts):
    return decode_train(ts).array


class TestTrainPlumbing:
    def test_events_follow_values(self):
        v = np.zeros((2, 1, 3))
        v[0, 0, 1] = 2.0
        ts = SpikeMatrixTrain(v)
        assert ts.events[0, 0, 1] and not ts.events[1, 0, 1]

    def test_rejects_non_3d(self):
        with pytest.raises(ShapeError):
            SpikeMatrixTrain(np.zeros((2, 3)))

    def test_constructor_copies_its_input(self):
        # the train holds a copy: a later write to the caller's array,
        # here a slice of it, must not reach the train or its cached mask
        base = np.zeros((3, 2, 2))
        t = SpikeMatrixTrain(base[1:])
        assert t.event_count == 0 and not t.events.any()
        base[1, 0, 0] = 5.0
        assert base.flags.writeable
        assert dec(t)[0, 0] == 0.0
        # nor can an inf be planted past the finiteness check
        base[2, 1, 1] = np.inf
        assert np.isfinite(t.values).all()
        assert t.event_count == 0 and not t.events.any()
        assert dec(t).tobytes() == np.zeros((2, 2)).tobytes()

    @pytest.mark.parametrize("T", [2.5, 4.0, True, np.float64(4.0)])
    def test_step_count_must_be_an_integer(self, T):
        # named, as spike_forward names it, not numpy's shape TypeError
        x = Matrix(np.array([[-0.5, 0.25]]))
        bank = HGConfig((-1.0, 1.0), np.ones((8, 1)))
        with pytest.raises(ValueError, match=r"^T must be Integral, got "):
            apply_hg(x, bank, T)
        with pytest.raises(ValueError, match=r"^T must be Integral, got "):
            encode_matrix(x, OAT_UNIT, T)

    def test_constant_train_delivers_once(self):
        x = Matrix(np.array([[1.5, -2.0]]))
        ts = constant_train(x, 4)
        assert np.array_equal(dec(ts), x.array)
        assert not ts.events[1:].any()

    def test_batch_axes_sit_before_the_matrix_axes(self):
        ts = SpikeMatrixTrain(np.zeros((2, 3, 4, 5)))
        assert (ts.steps, ts.rows, ts.cols, ts.shape) == (2, 4, 5, (3, 4, 5))

    def test_encode_decode_round_trip_error_small(self):
        rng = np.random.default_rng(2)
        x = Matrix(rng.uniform(-0.9, 0.9, (4, 8)))
        got = dec(encode_matrix(x, OAT_UNIT))
        # all-fine-path inputs: 10 units of (theta_nor/H) 2^-T
        assert np.max(np.abs(got - x.array)) <= 10 * (1.0 / 5) * 2.0**-16

    @pytest.mark.parametrize("T", [0, -1, -2])
    def test_step_count_below_one_named(self, T):
        # a negative T would slice the bank's schedules from the end, and T=0
        # would give an empty train
        x = Matrix(np.array([[-0.5, 0.25]]))
        bank = HGConfig((-1.0, 1.0), np.ones((8, 1)))
        with pytest.raises(ValueError, match=f"T must be at least 1, got {T}"):
            apply_hg(x, bank, T)
        with pytest.raises(ValueError, match=f"T must be at least 1, got {T}"):
            encode_matrix(x, OAT_UNIT, T)


class TestSAW:
    def test_identity_weight(self):
        rng = np.random.default_rng(3)
        xs = random_train(rng, 4, 5, 5)
        out = saw_mul(Matrix(np.eye(5)), xs)
        assert np.array_equal(dec(out), dec(xs))

    def test_single_step_is_plain_matmul(self):
        rng = np.random.default_rng(4)
        W = Matrix(rng.standard_normal((3, 5)))
        xs = random_train(rng, 1, 5, 2)
        assert np.allclose(dec(saw_mul(W, xs)), W.array @ dec(xs),
                           rtol=1e-14, atol=1e-14)

    def test_linearity_100_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            T = int(rng.integers(1, 6))
            W = Matrix(rng.standard_normal((4, 4)))
            xs = random_train(rng, T, 4, 4)
            got = dec(saw_mul(W, xs))
            want = W.array @ dec(xs)
            denom = max(float(np.max(np.abs(want))), 1e-300)
            assert np.max(np.abs(got - want)) / denom <= 1e-12

    def test_right_multiplication(self):
        rng = np.random.default_rng(6)
        W = Matrix(rng.standard_normal((4, 7)))
        xs = random_train(rng, 3, 2, 4)
        got = dec(saw_mul_right(xs, W))
        assert np.allclose(got, dec(xs) @ W.array, rtol=1e-13, atol=1e-13)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ShapeError):
            saw_mul(Matrix(np.ones((2, 3))), random_train(rng, 2, 4, 4))
        with pytest.raises(ShapeError, match=r"^train \(4, 4\) cannot multiply "
                                             r"weight \(3, 2\) from the right$"):
            saw_mul_right(random_train(rng, 2, 4, 4), Matrix(np.ones((3, 2))))


class TestSAA:
    def test_single_step_product(self):
        rng = np.random.default_rng(8)
        qs = random_train(rng, 1, 3, 4)
        ks = random_train(rng, 1, 4, 3)
        got = dec(saa_mul(qs, ks))
        assert np.allclose(got, dec(qs) @ dec(ks), rtol=1e-14, atol=1e-14)

    def test_all_silent_is_zero(self):
        qs = SpikeMatrixTrain(np.zeros((4, 3, 3)))
        ks = SpikeMatrixTrain(np.zeros((4, 3, 3)))
        out = saa_mul(qs, ks)
        assert not out.events.any()
        assert np.array_equal(dec(out), np.zeros((3, 3)))

    def test_prefix_telescoping(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            T = int(rng.choice([1, 2, 4, 8]))
            qs = random_train(rng, T, 4, 4)
            ks = random_train(rng, T, 4, 4)
            out = saa_mul(qs, ks)
            for t in range(1, T + 1):
                got = out.values[:t].sum(axis=0)
                want = qs.values[:t].sum(axis=0) @ ks.values[:t].sum(axis=0)
                denom = max(float(np.max(np.abs(want))), 1e-300)
                assert np.max(np.abs(got - want)) / denom <= 1e-12

    def test_step_mismatch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(StepMismatchError):
            saa_mul(random_train(rng, 2, 2, 2), random_train(rng, 3, 2, 2))


class TestHadamard:
    def test_prefix_property(self):
        rng = np.random.default_rng(11)
        a = random_train(rng, 5, 3, 4)
        b = random_train(rng, 5, 3, 4)
        out = hadamard_mul(a, b)
        for t in range(1, 6):
            got = out.values[:t].sum(axis=0)
            want = a.values[:t].sum(axis=0) * b.values[:t].sum(axis=0)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(want))))

    def test_broadcast_column(self):
        rng = np.random.default_rng(12)
        a = random_train(rng, 4, 3, 5)
        r = random_train(rng, 4, 3, 1)
        out = hadamard_mul(a, r)
        assert np.allclose(dec(out), dec(a) * dec(r), rtol=1e-13, atol=1e-13)

    def test_non_broadcastable_shapes(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ShapeError):
            hadamard_mul(random_train(rng, 2, 3, 5), random_train(rng, 2, 3, 4))

    def test_step_mismatch(self):
        rng = np.random.default_rng(13)
        with pytest.raises(StepMismatchError, match=r"^step counts differ: 2 != 3$"):
            hadamard_mul(random_train(rng, 2, 3, 4), random_train(rng, 3, 3, 4))


class TestSoftmaxOffset:
    def test_single_step_row(self):
        zs = SpikeMatrixTrain(np.array([[[1.0, 3.0]]]))
        out = softmax_offset(zs)
        assert np.array_equal(out.values[0], [[-2.0, 0.0]])

    def test_constant_row_zeros(self):
        zs = constant_train(Matrix(np.full((2, 4), 3.3)), 1)
        out = softmax_offset(zs)
        assert np.allclose(dec(out), 0.0, atol=1e-15)

    def test_cumulative_equals_z_minus_max(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            T = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 17))
            zs = random_train(rng, T, 2, cols, density=0.7)
            out = softmax_offset(zs)
            z = dec(zs)
            want = z - z.max(axis=1, keepdims=True)
            assert np.max(np.abs(dec(out) - want)) <= 1e-12

    @pytest.mark.parametrize("cols", [1, 16, 17, 64])
    @pytest.mark.parametrize("last", [False, True])
    def test_row_max_in_an_end_column(self, cols, last):
        # both row-max forms, the running maximum up to 16 columns and the
        # reduction past them, must reach the first and the last column
        rng = np.random.default_rng(cols)
        ramp = np.arange(cols, dtype=np.float64)
        zs = SpikeMatrixTrain(rng.random((4, 3, cols)) + (ramp if last else ramp[::-1]))
        assert_same_run(softmax_offset, softmax_offset_reference, zs)

    def test_empty_row_rejected(self):
        with pytest.raises(ShapeError):
            softmax_offset(SpikeMatrixTrain(np.zeros((2, 3, 0))))


def saa_mul_reference(qs, ks, ledger=None, site="saa"):
    """The per-step saa_mul loop, kept as the oracle of the prefix-sum form."""
    if qs.steps != ks.steps:
        raise StepMismatchError(f"step counts differ: {qs.steps} != {ks.steps}")
    if qs.cols != ks.rows:
        raise ShapeError(f"inner dimensions differ: {qs.shape} x {ks.shape}")
    T = qs.steps
    out = np.zeros((T, qs.rows, ks.cols))
    S_q = np.zeros((qs.rows, qs.cols))
    S_k = np.zeros((ks.rows, ks.cols))
    sops = 0
    for t in range(T):
        vq = qs.values[t]
        vk = ks.values[t]
        out[t] = vq @ vk + vq @ S_k + S_q @ vk
        if ledger is not None:
            eq = qs.events[t]
            ek = ks.events[t]
            pairs = int(eq.sum(axis=0) @ ek.sum(axis=1))
            sops += pairs + int(eq.sum()) * ks.cols + int(ek.sum()) * qs.rows
        S_q = S_q + vq
        S_k = S_k + vk
    if ledger is not None:
        ledger.record_sop(site, sops)
    return SpikeMatrixTrain(out)


def hadamard_mul_reference(a, b, ledger=None, site="hadamard"):
    """The per-step hadamard_mul loop, kept as the oracle of the prefix-sum form."""
    if a.steps != b.steps:
        raise StepMismatchError(f"step counts differ: {a.steps} != {b.steps}")
    try:
        rshape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"train shapes do not broadcast: {a.shape} x {b.shape}")
    T = a.steps
    out = np.zeros((T,) + rshape)
    S_a = np.zeros(a.shape)
    S_b = np.zeros(b.shape)
    sops = 0
    for t in range(T):
        va = a.values[t]
        vb = b.values[t]
        out[t] = va * vb + va * S_b + S_a * vb
        if ledger is not None:
            ea = a.events[t]
            eb = b.events[t]
            sops += int(np.broadcast_to(ea & eb, rshape).sum())
            sops += int(np.broadcast_to(ea, rshape).sum())
            sops += int(np.broadcast_to(eb, rshape).sum())
        S_a = S_a + va
        S_b = S_b + vb
    if ledger is not None:
        ledger.record_sop(site, sops)
    return SpikeMatrixTrain(out)


def softmax_offset_reference(zs, ledger=None, site="offset"):
    """The per-step softmax_offset loop, kept as the oracle of the prefix form."""
    if zs.cols < 1:
        raise ShapeError("softmax offset needs at least one column per row")
    T = zs.steps
    out = np.empty_like(zs.values)
    prefix = np.zeros(zs.shape)
    prev_max = np.zeros((zs.rows, 1))
    for t in range(T):
        prefix = prefix + zs.values[t]
        cur_max = prefix.max(axis=1, keepdims=True)
        out[t] = zs.values[t] + (prev_max - cur_max)
        prev_max = cur_max
    train = SpikeMatrixTrain(out)
    if ledger is not None:
        ledger.record_sop(site, int(train.events.sum()))
    return train


def event_train(rng, T, shape, density):
    """A train whose entries fire at about the given density: a firing draws
    a weight that is zero one time in ten (a zero-weight firing is silent, as
    a gate step with d = 0 is), and silent entries are +0.0 or -0.0 (as the
    encoder emits for negative inputs)."""
    fired = rng.random((T,) + shape) < density
    weights = rng.standard_normal((T,) + shape) * (rng.random((T,) + shape) > 0.1)
    zeros = np.where(rng.random((T,) + shape) < 0.5, -0.0, 0.0)
    return SpikeMatrixTrain(np.where(fired, weights, zeros))


def view(ts, take):
    """The train seen through one numpy view of its values, kept uncopied as
    the kernels' own reshapes and transposes are."""
    return SpikeMatrixTrain._wrap(take(ts.values))


def assert_same_run(kernel, reference, *trains):
    got_ledger, ref_ledger = EnergyLedger(), EnergyLedger()
    got = kernel(*trains, got_ledger, "k")
    ref = reference(*trains, ref_ledger, "k")
    assert got.values.tobytes() == ref.values.tobytes()
    assert got.values.shape == ref.values.shape
    assert got_ledger.to_dict() == ref_ledger.to_dict()
    return got


def assert_decodes_to(ts, want, magnitude):
    """Criteria 1-3 as identities: the decoded train equals the float result
    of the decoded operands within 1e-12 x (1 + magnitude), where magnitude
    is the same operation on their absolute values, the scale of the
    rounding of either order of summation."""
    assert np.all(np.abs(dec(ts) - want) <= 1e-12 * (1.0 + magnitude))


dims = st.integers(1, 6)
# a step's (rows, cols): small ones, and up to 8 x 128 values, the gated
# FFN's Hadamard step; past 16 columns softmax_offset takes its reduction
steps = st.one_of(st.tuples(dims, dims), st.tuples(st.integers(1, 8),
                                                   st.integers(1, 128)))
# T up to 25, the step ceiling of a dual-range encoder at H = 5
run_params = dict(T=st.integers(1, 25), density=st.floats(0.0, 1.0),
                  seed=st.integers(0, 2**32 - 1))
WIDE = dict(step=(8, 128), T=25, density=0.5, seed=7)
# one step: the exclusive prefix sums are the one +0.0 row
ONE_STEP = dict(step=(3, 5), T=1, density=0.5, seed=3)


class TestWholeTensorKernels:
    """The prefix-sum kernels equal the per-step loops bit for bit, and
    decode to the float product (or offset) of their decoded operands."""

    @settings(max_examples=150, deadline=None)
    @given(step=steps, cols=dims, **run_params)
    @example(cols=6, **WIDE)
    @example(cols=4, **ONE_STEP)
    def test_saa_mul_matches_per_step(self, step, cols, T, density, seed):
        rows, inner = step
        rng = np.random.default_rng(seed)
        q = event_train(rng, T, (rows, inner), density)
        k = event_train(rng, T, (inner, cols), density)
        got = assert_same_run(saa_mul, saa_mul_reference, q, k)
        assert_decodes_to(got, dec(q) @ dec(k), np.abs(dec(q)) @ np.abs(dec(k)))

    @settings(max_examples=150, deadline=None)
    @given(step=steps, mode=st.sampled_from(
               ["same", "b_column", "a_column", "b_row", "b_scalar", "self"]),
           **run_params)
    @example(mode="b_column", **WIDE)
    @example(mode="self", **WIDE)
    @example(mode="b_column", **ONE_STEP)
    @example(mode="self", **ONE_STEP)
    def test_hadamard_mul_matches_per_step(self, step, mode, T, density, seed):
        rows, cols = step
        rng = np.random.default_rng(seed)
        if mode == "self":  # one train object as both operands, as a square
            a = b = event_train(rng, T, (rows, cols), density)
        else:
            a_shape, b_shape = {
                "same": ((rows, cols), (rows, cols)),
                "b_column": ((rows, cols), (rows, 1)),
                "a_column": ((rows, 1), (rows, cols)),
                "b_row": ((rows, cols), (1, cols)),
                "b_scalar": ((rows, cols), (1, 1)),
            }[mode]
            a = event_train(rng, T, a_shape, density)
            b = event_train(rng, T, b_shape, density)
        got = assert_same_run(hadamard_mul, hadamard_mul_reference, a, b)
        assert_decodes_to(got, dec(a) * dec(b), np.abs(dec(a)) * np.abs(dec(b)))

    @settings(max_examples=150, deadline=None)
    @given(step=steps, **run_params)
    @example(**WIDE)
    @example(**ONE_STEP)
    def test_softmax_offset_matches_per_step(self, step, T, density, seed):
        rows, cols = step
        rng = np.random.default_rng(seed)
        z = event_train(rng, T, (rows, cols), density)
        got = assert_same_run(softmax_offset, softmax_offset_reference, z)
        row_max = dec(z).max(axis=1, keepdims=True)
        assert_decodes_to(got, dec(z) - row_max, np.abs(dec(z)) + np.abs(row_max))

    @settings(max_examples=50, deadline=None)
    @given(rows=dims, cols=dims, **run_params)
    def test_sliced_and_transposed_operands(self, rows, cols, T, density, seed):
        # views that are not contiguous, as the attention head split makes
        rng = np.random.default_rng(seed)
        q = event_train(rng, T, (rows, cols + 2), density)
        k = event_train(rng, T, (rows, cols + 2), density)
        assert_same_run(saa_mul, saa_mul_reference,
                        view(q, lambda a: a[:, :, 1:cols + 1]),
                        view(k, lambda a: a[:, :, 1:cols + 1].transpose(0, 2, 1)))

    @settings(max_examples=100, deadline=None)
    @given(heads=st.integers(1, 5), rows=dims, inner=dims, cols=dims, **run_params)
    def test_stacked_saa_mul_matches_per_head(self, heads, rows, inner, cols, T,
                                              density, seed):
        # a (T, heads, ...) stack split from the columns as attention splits
        # q and k, against one call per head on that head's column slice
        rng = np.random.default_rng(seed)
        q = event_train(rng, T, (rows, heads * inner), density)
        k = event_train(rng, T, (cols, heads * inner), density)
        ledger, ref_ledger = EnergyLedger(), EnergyLedger()
        got = saa_mul(
            view(q, lambda a: a.reshape(T, rows, heads, inner).transpose(0, 2, 1, 3)),
            view(k, lambda a: a.reshape(T, cols, heads, inner).transpose(0, 2, 3, 1)),
            ledger, "k")
        per_head = [
            saa_mul(view(q, lambda a: a[:, :, h * inner:(h + 1) * inner]),
                    view(k, lambda a: a[:, :, h * inner:(h + 1) * inner]
                         .transpose(0, 2, 1)), ref_ledger, "k")
            for h in range(heads)]
        want = np.stack([p.values for p in per_head], axis=1)
        assert got.values.shape == (T, heads, rows, cols)
        assert got.values.tobytes() == want.tobytes()
        assert ledger.to_dict() == ref_ledger.to_dict()

    def test_stacked_saa_mul_needs_equal_batch_axes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            saa_mul(event_train(rng, 2, (2, 3, 4), 0.5),
                    event_train(rng, 2, (3, 4, 3), 0.5))


class TestBLASWeightProducts:
    """saw_mul and saw_mul_right multiply through BLAS. They match the
    in-order einsum they replaced, kept here as their oracle, and charge the
    same SOPs. Each output entry is a dot product of n = inner terms, summed
    in another order. The textbook forward-error bound puts either sum within
    about n * eps/2 times the sum of the absolute terms of the exact value,
    so the two differ by at most n * eps times it; the check allows twice
    that. The bound is relative to the absolute terms, not to the result,
    which may cancel to far below them."""

    @settings(max_examples=100, deadline=None)
    @given(left=st.booleans(), rows=st.integers(1, 12), inner=st.integers(1, 12),
           cols=st.integers(1, 12), **run_params)
    @example(left=False, rows=1, inner=5, cols=1, T=1, density=1.0, seed=1)
    def test_matches_in_order_einsum(self, left, rows, inner, cols, T, density, seed):
        rng = np.random.default_rng(seed)
        ledger = EnergyLedger()
        if left:
            W = Matrix(rng.standard_normal((rows, inner)))
            xs = event_train(rng, T, (inner, cols), density)
            got = saw_mul(W, xs, ledger, "w")
            ref, terms = (np.einsum("pr,trc->tpc", a, b)
                          for a, b in ((W.array, xs.values),
                                       (np.abs(W.array), np.abs(xs.values))))
            sops = int(np.count_nonzero(xs.events)) * rows
            assert_decodes_to(got, W.array @ dec(xs), np.abs(W.array) @ np.abs(dec(xs)))
        else:
            W = Matrix(rng.standard_normal((inner, cols)))
            xs = event_train(rng, T, (rows, inner), density)
            got = saw_mul_right(xs, W, ledger, "w")
            ref, terms = (np.einsum("trc,cq->trq", a, b)
                          for a, b in ((xs.values, W.array),
                                       (np.abs(xs.values), np.abs(W.array))))
            sops = int(np.count_nonzero(xs.events)) * cols
            assert_decodes_to(got, dec(xs) @ W.array, np.abs(dec(xs)) @ np.abs(W.array))
        assert got.values.shape == ref.shape
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(got.values - ref) <= 2 * inner * eps * terms)
        assert ledger.sops == sops


_X = Matrix(np.array([[-2.0, -0.3, 0.0], [0.4, 1.2, 5.0]]))
_OAT = OATConfig(0.5, 4.0, 3, 4)
_BANK = HGConfig((-1.0, 0.0, 1.0), np.ones((4, 2)))
_ENC = encode_matrix(_X, _OAT)
PUBLIC_KERNELS = {
    "apply_hg": lambda: apply_hg(_X, _BANK, 4),
    "encode_matrix": lambda: encode_matrix(_X, _OAT),
    "saw_mul": lambda: saw_mul(Matrix(np.ones((4, 2))), _ENC),
    "saw_mul_right": lambda: saw_mul_right(_ENC, Matrix(np.ones((3, 2)))),
    "saa_mul": lambda: saa_mul(_ENC, view(_ENC, lambda a: a.transpose(0, 2, 1))),
    "hadamard_mul": lambda: hadamard_mul(_ENC, view(_ENC, lambda a: a[:, :, :1])),
    "softmax_offset": lambda: softmax_offset(_ENC),
    "constant_train": lambda: constant_train(_X, 4),
    "reencode": lambda: reencode(_ENC, _OAT),
}


class TestChainHelpers:
    """reencode and project are the decode -> encode and product -> decode
    chains the sublayers used to spell out, call for call."""

    def test_reencode_is_decode_then_encode(self):
        ts = random_train(np.random.default_rng(3), 6, 3, 4)
        ledger, ref_ledger = EnergyLedger(), EnergyLedger()
        got = reencode(ts, _OAT, ledger, "s")
        ref = encode_matrix(decode_train(ts, ref_ledger, "s_decode"), _OAT, 6,
                            ref_ledger, "s")
        assert got.values.tobytes() == ref.values.tobytes()
        assert ledger.to_dict() == ref_ledger.to_dict()
        assert set(ledger.by_site) == {"s", "s_decode"}

    @pytest.mark.parametrize("bias", [False, True])
    def test_project_is_product_decode_and_bias(self, bias):
        rng = np.random.default_rng(4)
        ts = random_train(rng, 5, 3, 4)
        W = Matrix(rng.standard_normal((4, 2)))
        b = Matrix(rng.standard_normal((1, 2))) if bias else None
        ledger, ref_ledger = EnergyLedger(), EnergyLedger()
        got = project(ts, W, b, ledger, "w")
        ref = decode_train(saw_mul_right(ts, W, ref_ledger, "w"), ref_ledger,
                           "w_decode").array
        if bias:
            ref = ref + b.array
        assert got.array.tobytes() == ref.tobytes()
        assert ledger.to_dict() == ref_ledger.to_dict()
        assert set(ledger.by_site) == {"w", "w_decode"}


def _charged_kernel_trains(name, rng, T, rows, cols, density):
    """Run one kernel with a ledger, so that it charges from the trains'
    caches; returns every train it read or made."""
    x = Matrix(rng.standard_normal((rows, cols)))
    a = event_train(rng, T, (rows, cols), density)
    b = event_train(rng, T, (cols, 3), density)
    ledger = EnergyLedger()
    if name == "saa_mul":
        return [a, b, saa_mul(a, b, ledger)]
    if name == "hadamard_mul":
        c = event_train(rng, T, (rows, 1), density)
        return [a, c, hadamard_mul(a, c, ledger), hadamard_mul(a, a, ledger)]
    if name == "saw_mul":
        return [b, saw_mul(Matrix(rng.standard_normal((2, cols))), b, ledger)]
    if name == "saw_mul_right":
        return [a, saw_mul_right(a, Matrix(rng.standard_normal((cols, 2))), ledger)]
    if name == "regroup":  # regroups of a train whose mask is cached
        a.event_count
        # the last reshape copies, as attention's head regroup does
        return [a, a._regroup(lambda v: v.swapaxes(1, 2)),
                a._regroup(lambda v: v.reshape(T, -1, 1)),
                a._regroup(lambda v: v.swapaxes(1, 2).reshape(T, -1, 1))]
    if name == "decode_train":
        decode_train(a, ledger)
        return [a]
    return {
        "encode_matrix": lambda: [encode_matrix(x, _OAT, T, ledger)],
        "apply_hg": lambda: [apply_hg(x, _BANK, T, ledger)],
        "softmax_offset": lambda: [a, softmax_offset(a, ledger)],
        "reencode": lambda: [a, reencode(a, _OAT, ledger)],
        "constant_train": lambda: [constant_train(x, T)],
    }[name]()


class TestEventCache:
    """Every train's cached event mask and count are its values' own."""

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(
               ["saa_mul", "hadamard_mul", "saw_mul", "saw_mul_right", "regroup",
                "encode_matrix", "apply_hg", "softmax_offset", "reencode",
                "decode_train", "constant_train"]),
           step=steps, **run_params)
    def test_cached_mask_and_count_are_the_values(self, name, step, T, density,
                                                   seed):
        rng = np.random.default_rng(seed)
        for train in _charged_kernel_trains(name, rng, T, *step, density):
            mask = train.events
            assert mask.shape == train.values.shape
            assert mask.tobytes() == (train.values != 0.0).tobytes()
            assert train.event_count == np.count_nonzero(train.values)
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[(0,) * mask.ndim] = True
            for attr in ("events", "event_count"):
                with pytest.raises(AttributeError):
                    setattr(train, attr, None)
            assert train.events is mask


class TestImmutability:
    @pytest.mark.parametrize("name", sorted(PUBLIC_KERNELS))
    def test_returned_train_is_read_only(self, name):
        train = PUBLIC_KERNELS[name]()
        assert not train.values.flags.writeable
        with pytest.raises(ValueError):
            train.values[0, 0, 0] = 1.0


@pytest.fixture(scope="module")
def exp_gate():
    return fit_target("exp", 8, T16, 1024, seed=101, lo=-9.0, hi=0.5)


@pytest.fixture(scope="module")
def recip_gate():
    return fit_target("reciprocal", 8, T16, 1024, seed=102, lo=0.5, hi=17.0)


@pytest.fixture(scope="module")
def invsqrt_gate():
    return fit_target("invsqrt", 8, T16, 1024, seed=104, lo=0.2, hi=4.5)


@pytest.fixture(scope="module")
def gelu_gate():
    return fit_target("gelu", 8, T16, 1024, seed=105, lo=-6.0, hi=6.0)


def softmax_params(exp_cfg, inv_cfg):
    """The gates a softmax at site "softmax" reads, by their block keys."""
    return {"softmax.exp": exp_cfg, "softmax.recip": inv_cfg}


class TestSpikeSoftmax:
    def test_uniform_row(self, exp_gate, recip_gate):
        zs = constant_train(Matrix(np.full((1, 8), 1.7)), T16)
        out = dec(spike_softmax(zs, softmax_params(exp_gate[0], recip_gate[0]),
                                "softmax"))
        # sigma_hat = e_hat * r_hat with r_hat = 1/(8 e_hat) +- E_i, so the
        # deviation from 1/8 is at most e_hat E_i <= (1+E_e) E_i <= E_e + E_i
        tol = exp_gate[1].max_abs_err + recip_gate[1].max_abs_err
        assert np.max(np.abs(out - 1.0 / 8)) <= tol

    def test_dominant_logit(self, exp_gate, recip_gate):
        z = np.array([[10.0, 0.0, 0.0, 0.0]])
        zs = constant_train(Matrix(z), T16)
        out = dec(spike_softmax(zs, softmax_params(exp_gate[0], recip_gate[0]),
                                "softmax"))
        assert out[0, 0] == pytest.approx(1.0, abs=0.05)
        assert np.max(np.abs(out[0, 1:])) <= 0.05

    def test_random_rows_within_composed_bound(self, exp_gate, recip_gate):
        exp_cfg, exp_rep = exp_gate
        inv_cfg, inv_rep = recip_gate
        E_e, E_i = exp_rep.max_abs_err, inv_rep.max_abs_err
        rng = np.random.default_rng(14)
        z = rng.uniform(-4.0, 4.0, (6, 8))
        zs = constant_train(Matrix(z), T16)
        out = dec(spike_softmax(zs, softmax_params(exp_cfg, inv_cfg), "softmax"))
        zhat = z - z.max(axis=1, keepdims=True)
        e = np.exp(zhat)
        D = e.sum(axis=1, keepdims=True)
        # the internal gate outputs, recomputed bitwise via public ops
        e_hat = dec(apply_hg(Matrix(zhat), exp_cfg, T16))
        D_hat = e_hat.sum(axis=1, keepdims=True)
        r_hat = dec(apply_hg(Matrix(D_hat), inv_cfg, T16))
        # the report bounds only hold on the fitted ranges
        assert np.all((zhat >= -9.0) & (zhat <= 0.5))
        assert np.all((D_hat >= 0.5) & (D_hat <= 17.0))
        n = z.shape[1]
        bound = E_e * np.abs(r_hat) + e * (E_i + n * E_e / (D * np.abs(D_hat)))
        sigma = e / D
        assert np.all(np.abs(out - sigma) <= bound + 1e-12)
        # row sums: |D_hat r_hat - 1| <= D_hat E_i
        row_tol = float(np.max(D_hat)) * E_i
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= row_tol + 1e-12

    def test_out_of_range_denominator_counted(self, exp_gate, recip_gate):
        ledger = EnergyLedger()
        # 40 columns of equal logits: the denominator 40 exceeds hi=17
        zs = constant_train(Matrix(np.zeros((1, 40))), T16)
        spike_softmax(zs, softmax_params(exp_gate[0], recip_gate[0]), "softmax",
                      ledger=ledger)
        assert ledger.counters.get("softmax.recip.clamped", 0) >= 1


def layernorm_params(gamma, beta, invsqrt_cfg, oat):
    """What a LayerNorm at site "ln" reads, by its block keys."""
    return {"ln.gamma": gamma, "ln.beta": beta, "ln.invsqrt": invsqrt_cfg,
            "ln.center": oat}


class TestSpikeLayerNorm:
    @staticmethod
    def float_ln(x, gamma, beta):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return gamma * (x - mu) / np.sqrt(var + 1e-5) + beta

    def test_constant_row_gives_beta(self, invsqrt_gate):
        # identical decodes across a row center to exactly zero, the zero
        # train stays silent, and the Hadamard output is exactly beta
        cols = 8
        gamma = Matrix(np.ones((1, cols)))
        beta = Matrix(np.full((1, cols), 0.3))
        oat = OATConfig(2.0, 4.0004, 5, T16)
        xs = encode_matrix(Matrix(np.full((2, cols), 4.0)), oat, T16)
        out = dec(spike_layernorm(xs, layernorm_params(gamma, beta, invsqrt_gate[0],
                                                       oat), "ln"))
        assert np.allclose(out, 0.3, atol=1e-12)

    def test_random_rows_within_composed_bound(self, invsqrt_gate):
        iv_cfg, iv_rep = invsqrt_gate
        rng = np.random.default_rng(16)
        x = Matrix(rng.standard_normal((6, 8)) * 1.2)
        gamma = Matrix(1.0 + 0.1 * rng.standard_normal((1, 8)))
        beta = Matrix(0.1 * rng.standard_normal((1, 8)))
        amax = float(np.max(np.abs(x.array)))
        oat = OATConfig(0.5 * amax, amax * 1.0001, 5, T16)
        xs = encode_matrix(x, oat, T16)
        out = dec(spike_layernorm(xs, layernorm_params(gamma, beta, iv_cfg, oat),
                                  "ln"))
        want = self.float_ln(x.array, gamma.array, beta.array)

        # stage 1: centered re-encode deviation vs the float centered values,
        # from the input decode and the re-encode, both dual-range quantization
        x_hat = dec(xs)
        mu_hat = x_hat.mean(axis=1, keepdims=True)
        c_hat_pre = x_hat - mu_hat
        c = x.array - x.array.mean(axis=1, keepdims=True)
        c_train = encode_matrix(Matrix(c_hat_pre), oat, T16)
        c_hat = dec(c_train)
        d_c = np.max(np.abs(c_hat - c))
        # stage 2: the centered train times itself, exact by the Hadamard
        # identity; only the re-encode deviation carries into the variance:
        # |var_hat - var| <= |c_hat - c| |c_hat + c|
        c_absmax = np.max(np.abs(c))
        var_hat = dec(hadamard_mul(c_train, c_train)).mean(axis=1, keepdims=True)
        assert np.max(np.abs(var_hat - (c_hat ** 2).mean(axis=1, keepdims=True))) <= 1e-12
        var = (c ** 2).mean(axis=1, keepdims=True)
        var_err_bound = d_c * (2 * c_absmax + d_c)
        assert np.max(np.abs(var_hat - var)) <= var_err_bound + 1e-12
        # stage 3: inverse root, report bound plus a Lipschitz carry term
        assert np.all((var_hat >= 0.2) & (var_hat <= 4.5))
        r_hat = dec(apply_hg(Matrix(var_hat), iv_cfg, T16))
        r = 1.0 / np.sqrt(var + 1e-5)
        v_min = float(min(var.min(), var_hat.min()))
        L = 0.5 * (v_min + 1e-5) ** -1.5
        r_err_bound = iv_rep.max_abs_err + L * var_err_bound
        assert np.max(np.abs(r_hat - r)) <= r_err_bound + 1e-12
        # composed final bound; the Hadamard numerator is exact
        g_max = float(np.max(np.abs(gamma.array)))
        final = g_max * (d_c * np.max(np.abs(r_hat)) + c_absmax * r_err_bound)
        assert np.max(np.abs(out - want)) <= final + 1e-12


def ffn_params(W1, b1, W2, b2, act_cfg, oat):
    """What a standard FFN at site "ffn" reads, by its block keys."""
    return {"ffn.w1": W1, "ffn.b1": b1, "ffn.w2": W2, "ffn.b2": b2,
            "ffn.act": act_cfg, "ffn.in": oat}


class TestSpikeFFN:
    def test_zero_input_zero_biases(self, gelu_gate):
        act_cfg, act_rep = gelu_gate
        rng = np.random.default_rng(17)
        W1 = Matrix(rng.standard_normal((6, 8)) * 0.3)
        W2 = Matrix(rng.standard_normal((8, 6)) * 0.3)
        zb1, zb2 = Matrix(np.zeros((1, 8))), Matrix(np.zeros((1, 6)))
        xs = constant_train(Matrix(np.zeros((3, 6))), T16)
        out = dec(spike_ffn(xs, ffn_params(W1, zb1, W2, zb2, act_cfg, OAT_UNIT),
                            "ffn"))
        w2_colsum = np.abs(W2.array).sum(axis=0).max()
        assert np.max(np.abs(out)) <= act_rep.max_abs_err * w2_colsum + 1e-12

    def test_identity_second_layer_matches_gate(self, gelu_gate):
        act_cfg, _ = gelu_gate
        rng = np.random.default_rng(18)
        W1 = Matrix(rng.standard_normal((8, 8)) * 0.4)
        b1 = Matrix(rng.standard_normal((1, 8)) * 0.1)
        eye = Matrix(np.eye(8))
        zb = Matrix(np.zeros((1, 8)))
        x = Matrix(rng.standard_normal((4, 8)))
        xs = encode_matrix(x, OAT_UNIT, T16)
        out = dec(spike_ffn(xs, ffn_params(W1, b1, eye, zb, act_cfg, OAT_UNIT),
                            "ffn"))
        # mirror the internal path op for op so every float matches bitwise
        xt = encode_matrix(Matrix(dec(xs)), OAT_UNIT, T16)
        pre = dec(saw_mul_right(xt, W1)) + b1.array
        want = dec(apply_hg(Matrix(pre), act_cfg, T16))
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_random_ffn_within_composed_bound(self, gelu_gate):
        act_cfg, act_rep = gelu_gate
        rng = np.random.default_rng(19)
        W1 = Matrix(rng.standard_normal((6, 10)) * 0.3)
        b1 = Matrix(rng.standard_normal((1, 10)) * 0.1)
        W2 = Matrix(rng.standard_normal((10, 6)) * 0.3)
        b2 = Matrix(rng.standard_normal((1, 6)) * 0.1)
        x = Matrix(rng.standard_normal((4, 6)))
        xs = constant_train(x, T16)  # exact input train
        out = dec(spike_ffn(xs, ffn_params(W1, b1, W2, b2, act_cfg, OAT_UNIT),
                            "ffn"))
        # measured encode deviation + gate report bound, pushed through W2
        x_hat = dec(encode_matrix(x, OAT_UNIT, T16))
        d_enc = np.abs(x_hat - x.array)
        pre = x.array @ W1.array + b1.array
        d_pre = d_enc @ np.abs(W1.array)
        assert np.all(np.abs(pre) + d_pre <= 6.0)  # inside the fitted range
        lip = 1.2  # |gelu'| ceiling, checked before use
        g = np.linspace(-6, 6, 20001)
        assert np.max(np.abs(np.diff(gelu(g)) / np.diff(g))) <= lip
        d_act = act_rep.max_abs_err + lip * d_pre
        want = gelu(pre) @ W2.array + b2.array
        bound = d_act @ np.abs(W2.array)
        assert np.all(np.abs(out - want) <= bound + 1e-12)


@pytest.fixture(scope="module")
def silu_gate_narrow():
    # covers the constant gate pre-activation where silu(c) == 1
    return fit_target("silu", 4, T16, 512, seed=106, lo=0.8, hi=1.8)


def gated_ffn_params(Wg, bg, Wu, bu, Wd, bd, act_cfg, oat, oat_mid, oat_out):
    """What a gated FFN at site "ffn" reads, by its block keys."""
    return {"ffn.wg": Wg, "ffn.bg": bg, "ffn.wu": Wu, "ffn.bu": bu, "ffn.wd": Wd,
            "ffn.bd": bd, "ffn.act": act_cfg, "ffn.in": oat, "ffn.mid": oat_mid,
            "ffn.z": oat_out}


class TestSpikeGatedFFN:
    def test_zero_up_projection_gives_bias(self, silu_gate_narrow):
        rng = np.random.default_rng(20)
        d, f = 6, 8
        Wg = Matrix(rng.standard_normal((d, f)) * 0.2)
        bg = Matrix(np.full((1, f), 1.2))
        Wu, bu = Matrix(np.zeros((d, f))), Matrix(np.zeros((1, f)))
        Wd = Matrix(rng.standard_normal((f, d)) * 0.2)
        bd = Matrix(rng.standard_normal((1, d)) * 0.5)
        xs = constant_train(Matrix(rng.standard_normal((3, d)) * 0.2), T16)
        p = gated_ffn_params(Wg, bg, Wu, bu, Wd, bd, silu_gate_narrow[0],
                             OAT_UNIT, OAT_UNIT, OAT_UNIT)
        out = dec(spike_gated_ffn(xs, p, "ffn"))
        assert np.allclose(out, bd.array, atol=1e-12)

    def test_saturated_gate_passthrough(self, silu_gate_narrow):
        act_cfg, act_rep = silu_gate_narrow
        rng = np.random.default_rng(21)
        d, f = 6, 8
        # silu(c) = 1 at c ~ 1.2784645; pin every gate pre-activation there
        c_star = 1.2784645427610738
        assert abs(c_star / (1 + np.exp(-c_star)) - 1.0) < 1e-9
        Wg, bg = Matrix(np.zeros((d, f))), Matrix(np.full((1, f), c_star))
        Wu = Matrix(rng.standard_normal((d, f)) * 0.3)
        bu = Matrix(rng.standard_normal((1, f)) * 0.1)
        Wd = Matrix(rng.standard_normal((f, d)) * 0.3)
        bd = Matrix(rng.standard_normal((1, d)) * 0.1)
        x = Matrix(rng.standard_normal((3, d)) * 0.5)
        xs = constant_train(x, T16)
        p = gated_ffn_params(Wg, bg, Wu, bu, Wd, bd, act_cfg,
                             OAT_UNIT, OAT_UNIT, OAT_UNIT)
        out = dec(spike_gated_ffn(xs, p, "ffn"))
        # mirror the internal path bitwise with public primitives
        xt = encode_matrix(x, OAT_UNIT, T16)
        u = dec(saw_mul_right(xt, Wu)) + bu.array
        u_train = encode_matrix(Matrix(u), OAT_UNIT, T16)
        g_train = apply_hg(Matrix(np.full((3, f), c_star)), act_cfg, T16)
        z = dec(hadamard_mul(u_train, g_train))
        z_hat = dec(encode_matrix(Matrix(z), OAT_UNIT, T16))
        # plain-path oracle given the same input encode
        want = u @ Wd.array + bd.array
        # |z_hat - u| <= q_out + q_mid (1+E_g) + |u| E_g + rounding
        q_mid = np.abs(dec(u_train) - u)
        q_out = np.abs(z_hat - z)
        E_g = act_rep.max_abs_err
        z_err = q_mid * (1 + E_g) + np.abs(u) * E_g + q_out + 1e-14
        bound = z_err @ np.abs(Wd.array)
        assert np.all(np.abs(out - want) <= bound + 1e-10)
