"""Threshold selection and kernel fitting against quantile/LSQ oracles."""
import dataclasses
import sys
import threading
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import dyadic_schedule, fs_run_reference
from spikeconvert import calibration
from spikeconvert.calibration import (
    TARGETS,
    _MAX_SAMPLES,
    _MEAN_RUNGS,
    CalibrationReport,
    _dyadic_decode,
    _target_values,
    _curvature_density,
    curvature_quantiles,
    fit_fs,
    fit_target,
    gelu,
    hg_to_dict,
    observed_range,
    sample_distribution,
    select_oat_thresholds,
    target_fn,
)
from spikeconvert.errors import CalibrationError
from spikeconvert.model import ModelConfig, convert
from spikeconvert.neurons import _MAX_GATE_STEPS, HGConfig, _sum_steps, hg_eval
from spikeconvert.tensors import Matrix, percentile, stats


class TestSelectOATThresholds:
    def test_uniform_sample(self):
        rng = np.random.default_rng(1)
        x = Matrix(rng.uniform(-1.0, 1.0, (64, 64)))
        nor, out = select_oat_thresholds(stats(x, quantiles=(0.99,)), 0.99)
        assert nor == pytest.approx(0.99, abs=0.02)
        assert out == pytest.approx(1.0, abs=0.01)
        assert out > nor

    def test_outlier_sample(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(-1.0, 1.0, 10000)
        vals[rng.choice(10000, 100, replace=False)] = 20.0
        s = stats(Matrix(vals.reshape(100, 100)), quantiles=(0.99,))
        nor, out = select_oat_thresholds(s, 0.99)
        assert out == pytest.approx(20.0, abs=1e-9)
        assert nor < 1.5

    def test_matches_numpy_quantile_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(4097)
        s = stats(Matrix(vals.reshape(1, -1)), quantiles=(0.97,))
        nor, out = select_oat_thresholds(s, 0.97)
        assert nor == pytest.approx(float(np.quantile(np.abs(vals), 0.97)),
                                    abs=1e-12)
        assert out == pytest.approx(float(np.max(np.abs(vals))), abs=1e-12)

    def test_constant_sample_degenerate_path(self):
        s = stats(Matrix(np.full((4, 4), 2.0)), quantiles=(0.99,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nor, out = select_oat_thresholds(s, 0.99)
        assert caught
        assert out > nor > 0

    def test_missing_quantile_rejected(self):
        s = stats(Matrix(np.ones((2, 2))), quantiles=(0.5,))
        with pytest.raises(CalibrationError):
            select_oat_thresholds(s, 0.99)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["normal", "signed_zeros", "constant", "all_zero",
                                 "outliers", "mostly_zero"]),
           n=st.one_of(st.integers(1, 64), st.integers(1, 10**5)),
           q=st.one_of(st.sampled_from([0.5, 0.97, 0.99]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="constant", n=16, q=0.99, seed=0)
    @example(kind="all_zero", n=10**5, q=0.99, seed=1)
    @example(kind="outliers", n=10**5, q=0.99, seed=2)
    @example(kind="mostly_zero", n=1000, q=0.97, seed=3)
    @example(kind="signed_zeros", n=1, q=0.5, seed=4)
    def test_matches_two_sort_thresholds(self, kind, n, q, seed):
        # stats sorts |x| once and takes its last entry as the largest
        # magnitude; the thresholds, and whether they warn, equal bit for bit
        # those of the signed sort and max(|minimum|, |maximum|) it replaced
        a = threshold_sample(kind, n, np.random.default_rng(seed))
        want, want_warned = two_sort_thresholds(a, q)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = select_oat_thresholds(stats(Matrix(a.reshape(1, -1)), (q,)), q)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert bool(caught) == want_warned


def threshold_sample(kind, n, rng):
    """n activation values of one kind: signed zeros, constant and all-zero
    samples, and 1 % outliers at +-20 among uniform or zero values."""
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "signed_zeros":
        return np.where(rng.random(n) < 0.5, zeros, rng.standard_normal(n))
    if kind == "constant":
        return np.full(n, rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
    if kind == "all_zero":
        return zeros
    a = rng.uniform(-1.0, 1.0, n) if kind == "outliers" else zeros
    hit = rng.choice(n, max(1, n // 100), replace=False)
    a[hit] = rng.choice([-20.0, 20.0], hit.size)
    return a


def two_sort_thresholds(a, q):
    """select_oat_thresholds as it was computed from a signed sort and a sort
    of |a|: (theta_nor, theta_out) and whether it warned."""
    signed, absolute = np.sort(a), np.sort(np.abs(a))
    nor = percentile(absolute, q)
    out = max(abs(float(signed[0])), abs(float(signed[-1])))
    if nor <= 0.0:
        nor = out * 2.0**-20 if out > 0.0 else 2.0**-20
    if out <= nor:
        return (nor, nor * (1.0 + 2.0**-20)), True
    return (nor, out), False


def fitted_boundaries(name, N, lo, hi, **kw):
    """fit_target's boundaries for a target on [lo, hi], and the warnings it
    gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c, rep = fit_target(name, N, 8, 64, lo=lo, hi=hi, **kw)
    assert len(rep.per_subrange_max_abs_err) == c.d.shape[1]
    return tuple(c.boundaries), [str(w.message) for w in caught]


def density_cdf(name, lo, hi, x):
    """The curvature density's CDF at x, summed cell by cell: each cell's
    mass below x, uniform within the cell."""
    edges, p = _curvature_density(TARGETS[name].fn, lo, hi)
    below = np.clip((x - edges[:-1]) / (edges[1:] - edges[:-1]), 0.0, 1.0)
    return float(np.sum(p * below))


@st.composite
def target_ranges(draw):
    """A target, a range within its default one at least a thousandth of
    that wide, and a sub-range count."""
    name = draw(st.sampled_from(sorted(TARGETS)))
    spec = TARGETS[name]
    span = spec.hi - spec.lo
    a, b = sorted(draw(st.floats(spec.lo, spec.hi)) for _ in range(2))
    assume(b - a >= 1e-3 * span)
    return name, a, b, draw(st.integers(1, 64))


class TestSelectHierarchy:
    """fit_target's sub-range boundaries: the pinned ends around the exact
    k/N quantiles of its target's curvature density."""

    def test_n1_single_range(self):
        b, _ = fitted_boundaries("gelu", 1, 0.2, 0.9)
        assert b == (0.2, 0.9)

    def test_uniform_quartiles(self):
        # a square's curvature is constant, so its density is uniform
        b, _ = fitted_boundaries("square", 4, 0.0, 1.0)
        assert b == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=target_ranges())
    def test_inner_boundaries_are_density_quantiles(self, case):
        name, lo, hi, N = case
        b, caught = fitted_boundaries(name, N, lo, hi)
        assert caught == [] and len(b) == N + 1 and (b[0], b[-1]) == (lo, hi)
        assert all(x < y for x, y in zip(b, b[1:]))
        for k in range(1, N):
            assert density_cdf(name, lo, hi, b[k]) == pytest.approx(k / N, abs=1e-12)

    def test_heavy_tail_width_ordering(self):
        # exp's curvature grows toward the top of its range, so its
        # sub-ranges narrow there
        b, _ = fitted_boundaries("exp", 4, -4.0, 2.0)
        widths = np.diff(b)
        assert all(x > y for x, y in zip(widths, widths[1:]))

    def test_pinned_endpoints(self):
        b, _ = fitted_boundaries("gelu", 2, -5.0, 5.0)
        assert b[0] == -5.0 and b[-1] == 5.0

    def test_duplicate_collapse_with_warning(self):
        # five floats apart: the quantiles of eight sub-ranges coincide
        lo, hi = 1.0, 1.000000000000001
        b, caught = fitted_boundaries("exp", 8, lo, hi)
        assert caught == ["range supports only 5 distinct sub-ranges, not 8"]
        assert b == tuple(lo + k * 2.0**-52 for k in range(6))

    def test_no_seed_moves_the_fit(self):
        # no gate fit draws a random number: the seed is accepted, unused
        for name, lo, hi in (("gelu", -5.0, 5.0), ("exp", -4.0, 2.0)):
            fits = [fit_target(name, 8, 16, 256, lo=lo, hi=hi, seed=seed)
                    for seed in (0, 202)]
            assert fits[0] == fits[1]
            assert fits[0] == fit_target(name, 8, 16, 256, lo=lo, hi=hi)

    @pytest.mark.parametrize("N", [0, -3])
    def test_no_sub_range_refused(self, N):
        with pytest.raises(ValueError, match=f"need at least one sub-range, got N={N}"):
            fit_target("gelu", N, 8, 64)

    def test_sub_range_ceiling_refused_before_sampling(self, monkeypatch):
        def placed(*args):
            raise AssertionError("placed the boundaries of a refused N")

        monkeypatch.setattr(calibration, "curvature_quantiles", placed)
        N = calibration._MAX_SUBRANGES + 1
        with pytest.raises(ValueError, match=f"need at most 1000 sub-ranges, got N={N}"):
            fit_target("gelu", N, 8, 64)


class TestFitFS:
    def test_zero_function_exact(self):
        p, err = fit_fs(lambda x: np.zeros_like(x), 0.0, 1.0, 8, 256)
        assert err == 0.0
        assert all(v == 0.0 for v in p.d)

    def test_identity_resolution(self):
        # the always-on step costs one ladder rung, so 9 steps resolve what a
        # plain 8-rung ladder would. frozen: measured 0.50 * 2^-8, each cell
        # decoding to its midpoint; assert 1.0 * 2^-8
        _, err = fit_fs(lambda x: x, 0.0, 1.0, 9, 256)
        assert err <= 2.0**-8

    def test_reproducible_bit_identical(self):
        a, ea = fit_fs(np.tanh, -1.0, 2.0, 12, 256)
        b, eb = fit_fs(np.tanh, -1.0, 2.0, 12, 256)
        assert a == b and ea == eb

    def test_non_finite_target_named(self):
        with pytest.raises(CalibrationError, match=r"-?\d"):
            fit_fs(np.log, -1.0, 1.0, 8, 256)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_fs(np.exp, 1.0, 0.0, 8, 256)
        with pytest.raises(ValueError):
            fit_fs(np.exp, 0.0, 1.0, 8, 32)  # M >= 64
        with pytest.raises(ValueError):
            fit_fs(np.exp, 0.0, 1.0, 0, 256)

    def test_closed_form_range_named(self):
        # the most steps, samples and the narrowest range the closed form takes
        fit_fs(np.exp, 0.0, 1.0, _MAX_GATE_STEPS, 64)
        fit_fs(np.exp, 0.0, 2.0**-960, 16, 64)
        with pytest.raises(ValueError, match=r"T must be within 1\.\.52 steps, "
                                             r"got 53"):
            fit_fs(np.exp, 0.0, 1.0, _MAX_GATE_STEPS + 1, 64)
        with pytest.raises(ValueError, match=r"M must be within 64\.\.1048576"):
            fit_fs(np.exp, 0.0, 1.0, 8, _MAX_SAMPLES + 1)
        # a guard below the smallest normal float, and an infinite width
        for lo, hi in ((0.0, 2.0**-1000), (-1e308, 1e308)):
            with pytest.raises(ValueError, match=r"guard step \(hi - lo\) \* 2\^-"
                                                 r"\(T\+8\) = .* must be a finite"):
                fit_fs(np.zeros_like, lo, hi, 16, 64)

    def test_whole_range_checked_before_sampling(self, monkeypatch):
        # a width that overflows is the range's fault, not the target's
        def refuse(*args):
            raise AssertionError("the range must be refused before it is sampled")

        monkeypatch.setattr(calibration, "curvature_quantiles", refuse)
        with pytest.raises(ValueError, match=r"range \[-1\.7e\+308, 1\.7e\+308\] does "
                                             r"not fit at T=16: its guard step"):
            fit_target("exp", 1, 16, 64, lo=-1.7e308, hi=1.7e308)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_range_fits_until_a_sub_range_does_not(self):
        # e = (hi - lo) / 8192 squares to 0 here, so the curvature divides
        # by e twice; four sub-ranges are too narrow for a normal guard step
        x = curvature_quantiles(np.exp, 0.0, 1e-300, 256)
        assert np.all((x > 0.0) & (x < 1e-300)) and np.all(np.diff(x) > 0.0)
        c, rep = fit_target("exp", 1, 16, 64, lo=0.0, hi=1e-300)
        assert c.boundaries.tolist() == [0.0, 1e-300] and rep.max_abs_err < 1e-14
        with pytest.raises(ValueError, match=r"^fit of 'exp' failed on sub-range \[0\.0, "
                                             r"\d\.\d+e-301\]: range \[0\.0, \d\.\d+e-301\] "
                                             r"does not fit at T=16"):
            fit_target("exp", 4, 16, 64, lo=0.0, hi=1e-300)

    @pytest.mark.parametrize("name, lo", [("reciprocal", -1.0), ("reciprocal", 0.0),
                                          ("invsqrt", -1e-9)])
    def test_range_below_target_floor_named(self, name, lo):
        floor = TARGETS[name].floor
        with pytest.raises(CalibrationError, match=f"domain floor {floor}"):
            fit_target(name, 2, 8, 64, lo=lo, hi=1.0)
        fit_target(name, 2, 8, 64, lo=floor, hi=1.0)  # the floor itself fits


def recurrence_bits(u, w, T):
    """The (T, n) firing bits, as 0.0/1.0, of the dyadic schedule of width w
    at T steps, stepped through by the few-step recurrence."""
    return fs_run_reference(u, *dyadic_schedule(w, T), np.ones(T))[0]


def solve_weights(B, y):
    """Least-squares output weights for the (n, T) firing-bit design B.

    Solves the normal equations of the steps that fire; a step that never
    fires keeps weight 0.0. lstsq on the reduced Gram system gives a
    rank-deficient design (a duplicated or constant column) its
    minimum-norm least-squares solution instead of an error.
    """
    G = B.T @ B
    fired = np.diag(G) > 0.0
    d = np.zeros(B.shape[1])
    c = (B.T @ y)[fired]
    d[fired] = np.linalg.lstsq(G[np.ix_(fired, fired)], c, rcond=None)[0]
    return d


def fit_fs_reference(target, lo, hi, T, M, d=None):
    """The oracle of fit_fs: the one-range bank with step weights d and its
    error on the full validation grid, decoded through the recurrence.

    d defaults to the least-squares weights of target at the midpoints of
    the 2^_MEAN_RUNGS equal cells of [lo, hi]. Their recurrence bits are a
    full-factorial design of the T - 1 <= _MEAN_RUNGS rungs, on which least
    squares is the closed form over the rungs' cells."""
    w = hi - lo
    theta, h = dyadic_schedule(w, T)
    guard = theta[0]
    if d is None:
        assert T - 1 <= _MEAN_RUNGS
        n = 2**_MEAN_RUNGS
        x = lo + (np.arange(n) + 0.5) * (w / n)
        d = solve_weights(recurrence_bits(x - lo + guard, w, T).T,
                          _target_values(target, x))
    x_val = np.linspace(lo, hi, 10 * M)
    y_val = _target_values(target, x_val)
    weighted = fs_run_reference(x_val - lo + guard, theta, h, d)[1] * d[:, None]
    err = float(np.abs(_sum_steps(weighted) - y_val).max())
    return HGConfig((lo, hi), d[:, None]), err


def assert_fits_as_reference(case):
    """fit_fs(*case) reports the reference's error of its own step weights,
    bit for bit; and up to T = _MEAN_RUNGS + 1, where the reference solves
    its own, the weights are the reference's within 1e-12 (1 + max|f|)."""
    target, lo, hi, T, M = case
    bank, err = fit_fs(*case)
    assert fit_fs_reference(*case, d=bank.d[:, 0]) == (bank, err)
    if T - 1 <= _MEAN_RUNGS:
        ref, _ = fit_fs_reference(*case)
        f_max = np.abs(_target_values(target, np.linspace(lo, hi, 10 * M))).max()
        assert np.abs(bank.d - ref.d).max() <= 1e-12 * (1.0 + f_max)


def validation_inputs(lo, width, T, M, edges=()):
    """fit_fs's validation inputs u on [lo, lo + width] at T steps, with the
    floats one ulp either side of each rung edge k * q, q = w * 2^-(T-1),
    that stay within them; and the range width w."""
    hi = lo + width
    w = hi - lo
    u = np.linspace(lo, hi, 10 * M) - lo + dyadic_schedule(w, T)[0][0]
    e = np.array(edges, dtype=np.float64) * (w * 2.0 ** (1 - T))
    near = np.concatenate([np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)])
    return np.concatenate([u, near[(near >= u[0]) & (near <= u[-1])]]), w


@st.composite
def dyadic_decode_cases(draw):
    """Validation inputs at a random range and T (edges included) and step
    weights of either sign with some signed zeros."""
    T = draw(st.integers(1, _MAX_GATE_STEPS))
    edges = draw(st.lists(st.integers(0, 2 ** (T - 1)), max_size=8))
    u, w = validation_inputs(draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 1e3)),
                             T, draw(st.integers(64, 600)), edges)
    weights = st.floats(-1e3, 1e3) | st.sampled_from((-0.0, 0.0))
    return u, w, draw(hnp.arrays(np.float64, T, elements=weights))


_D16 = np.array([0.5, -0.0, -1.25, 3.0, 0.0, -0.0, 2.5, -7.0,
                 0.125, -0.0, 1.0, -2.0, 0.0, 4.0, -0.5, -0.0])
# T = 16 edges of a width that is no power of two: one ulp below most of
# them, u / q rounds onto the edge (the floor_divide branch)
_EDGE_CASE = (*validation_inputs(0.3, 0.7, 16, 64, range(1, 2**15, 97)), _D16)


class TestDyadicDecode:
    @settings(max_examples=200, deadline=None)
    @given(case=dyadic_decode_cases())
    @example(case=_EDGE_CASE)
    # the top endpoint u = fl(w + guard) > w alone, where every rung fires;
    # one input makes P = 0, so every rung is added one at a time
    @example(case=(validation_inputs(-2.0, 3.0, 16, 64)[0][-1:], 3.0, _D16))
    @example(case=(*validation_inputs(-4.0, 6.0, 1, 64), np.array([-0.0])))  # T = 1
    # T = 25 on 640 points: 9 steps from the table, 15 added one at a time
    @example(case=(*validation_inputs(0.1, 1e-3, 25, 64, range(0, 2**24, 4099)),
                   np.resize(_D16, 25)))
    # the most steps, at the largest K, where floor_divide is still exact
    @example(case=(*validation_inputs(-7.0, 11.0, 52, 600, (2**51 - 1, 2**51)),
                   np.resize(_D16, 52)))
    def test_matches_step_sum(self, case):
        u, w, d = case
        theta, h = dyadic_schedule(w, d.size)
        ref = _sum_steps(fs_run_reference(u, theta, h, d)[1] * d[:, None])
        # the same products and additions, so even signed zeros
        assert _dyadic_decode(u, w, d).tobytes() == ref.tobytes()

    def test_examples_reach_their_branches(self):
        # u / q rounds onto an integer above the real quotient, so a plain
        # floor of it would misread the rung bits
        u, w, _ = _EDGE_CASE
        q = w * 2.0**-15
        assert np.count_nonzero(np.floor(u / q) != np.floor_divide(u, q)) > 50
        top = validation_inputs(-2.0, 3.0, 16, 64)[0][-1]
        assert top > 3.0


@st.composite
def fit_cases(draw):
    """A target, a sub-range of its default range, T and M."""
    spec = TARGETS[draw(st.sampled_from(sorted(TARGETS)))]
    min_w = 1e-3 * (spec.hi - spec.lo)
    lo = draw(st.floats(spec.lo, spec.hi - min_w))
    hi = draw(st.floats(lo + min_w, spec.hi))
    return (spec.fn, lo, hi, draw(st.integers(1, 16)),
            draw(st.sampled_from((64, 256, 1024))))


class TestOneScheduleFit:
    @settings(max_examples=200, deadline=None)
    @given(case=fit_cases())
    @example(case=(np.exp, -2.56, -0.65, 12, 64))
    @example(case=(np.exp, -2.56, -0.65, 9, 64))  # the most steps solved for
    @example(case=(np.zeros_like, 0.0, 1.0, 8, 64))  # exact: zero error
    @example(case=(np.exp, -4.0, 2.0, 1, 64))  # T=1: the always-on step alone
    def test_matches_full_grid_reference(self, case):
        assert_fits_as_reference(case)

    def test_always_on_step_first(self):
        p, err = fit_fs(np.exp, -2.56, -0.65, 12, 64)
        assert p.guard[0] == (-0.65 - -2.56) * 2.0**-20
        assert err == pytest.approx(0.07586, abs=5e-6)

    @settings(max_examples=200, deadline=None)
    @given(T=st.integers(1, 25),
           alpha=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.just(0.0),
           beta=st.floats(-1e3, 1e3), lo=st.floats(-1e3, 1e3),
           width=st.floats(1e-6, 1e3))
    @example(T=1, alpha=2.0, beta=-1.0, lo=-1.0, width=3.0)
    @example(T=25, alpha=-1e3, beta=1e3, lo=1e3, width=1e-6)
    def test_affine_target_decodes_within_one_rung(self, T, alpha, beta, lo, width):
        # the closed form is exact for an affine target: each cell of K decodes
        # to the target at the cell's midpoint, so every validation point is
        # within |alpha| q of it, q the finest rung, plus rounding
        hi = lo + width
        _, err = fit_fs(lambda x: alpha * x + beta, lo, hi, T, 64)
        q = (hi - lo) * 2.0 ** (1 - T)
        f_max = abs(alpha) * max(abs(lo), abs(hi)) + abs(beta)
        assert err <= abs(alpha) * q + 1e-12 * f_max

    def test_default_block_matches_reference_fit(self, default_block,
                                                 monkeypatch):
        block = default_block
        cfg, w = block.config, block.weights
        assert cfg == ModelConfig()
        # the calibration sample the default block was converted on
        calib = sample_distribution("normal", cfg.seq_len * 32, cfg.d_model,
                                    np.random.default_rng(cfg.seeds["calibration"]))
        calls = []

        fit = calibration.fit_fs

        def reference(*args):
            # at T = 16 the reference validates fit_fs's weights, not its own
            calls.append(args)
            return fit_fs_reference(*args, d=fit(*args)[0].d[:, 0])

        # fit_target calls fit_fs through the module, so this swaps every fit
        monkeypatch.setattr(calibration, "fit_fs", reference)
        ref = convert(cfg, w, calib)
        assert len(calls) == sum(c.d.shape[1] for c in ref.hg.values())
        assert block.hg == ref.hg
        assert block.reports == ref.reports


def textbook_targets():
    """Each target of TARGETS as a plain numpy expression: the oracle of its
    in-place form."""
    def sigmoid(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    c = np.sqrt(2.0 / np.pi)
    return {
        "gelu": lambda x: 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x)))),
        "silu": lambda x: x * sigmoid(x),
        "exp": np.exp,
        "reciprocal": lambda x: 1.0 / x,
        "square": lambda x: x**2,
        "invsqrt": lambda x: 1.0 / np.sqrt(x + 1e-5),
    }


# both silu branches, signed zeros, the smallest subnormals, the edge below
# which 0.5 * x rounds, the largest finite floats, and where exp overflows
_TARGET_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 3 * 2.0**-1023, -3 * 2.0**-1023,
                          2.0**-1021, -(2.0**-1021), 1e-300, -1e-300, 1e200, -1e200,
                          1.7e308, -1.7e308, 709.0, 710.0, -745.0, -746.0, 1.0, -1.0])


def target_inputs():
    rng = np.random.default_rng(12)
    scattered = np.ldexp(rng.uniform(-1.0, 1.0, 4000), rng.integers(-1074, 1024, 4000))
    return np.concatenate([_TARGET_EDGES, rng.uniform(-30.0, 30.0, 4000), scattered])


class TestFitWork:
    """fit_fs's reused work arrays and the targets' in-place forms."""

    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_in_place_target_equals_plain_call(self, name):
        x = target_inputs()
        fn = TARGETS[name].fn
        with np.errstate(all="ignore"):
            want = textbook_targets()[name](x)
            plain = fn(x)
            out = np.full_like(x, np.nan)
            got = fn(x, out=out)
        assert got is out
        assert plain.tobytes() == want.tobytes()
        assert out.tobytes() == want.tobytes()
        assert x.tobytes() == target_inputs().tobytes()  # the input is left alone

    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_warm_fit_allocates_no_grid_sized_array(self, name):
        # a fit that made its work arrays anew each time would peak at
        # 733 KiB here for gelu
        spec = TARGETS[name]
        lo = 0.5 if spec.floor is not None else spec.lo
        fit_fs(spec.fn, lo, spec.hi, 16, 4096)
        tracemalloc.start()
        try:
            fit_fs(spec.fn, lo, spec.hi, 16, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_interleaved_shapes_match_reference(self):
        for M, T in ((64, 4), (4096, 16), (64, 25), (4096, 16)):
            assert_fits_as_reference((gelu, -1.5, 2.5, T, M))

    def test_unkept_work_arrays_fit_the_same(self, monkeypatch):
        monkeypatch.setattr(calibration, "_KEEP_WORK_BYTES", 0)
        assert_fits_as_reference((np.exp, -1.0, 0.5, 12, 256))

    def test_returned_bank_shares_no_memory(self):
        a, err_a = fit_fs(gelu, -1.0, 1.0, 16, 4096)
        d_a = a.d.tobytes()
        b, _ = fit_fs(np.exp, -3.0, 0.0, 16, 4096)
        assert a.d.tobytes() == d_a and a != b
        assert fit_fs(gelu, -1.0, 1.0, 16, 4096) == (a, err_a)

    @pytest.mark.parametrize("k", [0, 300, 500, 639])
    def test_refusal_on_the_grid_names_x(self, k):
        # a value only grid point k takes, in the first, a middle or the last
        # block, is named as the grid's, not as a block's
        x_k = float(np.linspace(-1.0, 1.0, 640)[k])

        def hole(x):
            return np.where(x == x_k, np.nan, x)

        with pytest.raises(CalibrationError, match=f"non-finite value at x={x_k}$"):
            fit_fs(hole, -1.0, 1.0, 8, 64)

    def test_in_place_refusal_names_x(self):
        with pytest.raises(CalibrationError, match=r"at x=(-\S+)$") as info:
            fit_fs(TARGETS["invsqrt"].fn, -1.0, 1.0, 8, 64)
        x = float(info.value.args[0].rsplit("=", 1)[1])
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(TARGETS["invsqrt"].fn(np.array([x])))[0]

    def test_threads_fit_as_one_thread_does(self):
        # one (M, T), so that shared work arrays would be written by all four
        cases = [(TARGETS[name].fn, lo, lo + 1.5, 12, 256)
                 for name, lo in [("gelu", -2.0), ("silu", -1.0), ("exp", -3.0),
                                  ("square", 0.5)]]
        want = [fit_fs(*case) for case in cases]
        got = [None] * len(cases)

        def fit(i):
            for _ in range(20):
                got[i] = fit_fs(*cases[i])
                assert got[i] == want[i]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert got == want


class TestFitHG:
    """A gated bank fitted through fit_target."""

    def test_n1_equals_plain_fit(self):
        c, rep = fit_target("gelu", 1, 10, 256, seed=5, lo=-1.0, hi=1.5)
        p, err = fit_fs(gelu, -1.0, 1.5, 10, 256)
        assert c == p
        assert rep.max_abs_err == err

    @pytest.mark.parametrize("name, lo, hi, T, seed", [
        ("gelu", -1.0, 1.5, 14, 17), ("exp", -4.0, 2.0, 12, 0),
        ("square", -2.2, 1.3, 16, 4), ("invsqrt", 0.0, 4.0, 12, 8),
    ])
    def test_reported_error_is_runtime_error(self, name, lo, hi, T, seed):
        # one sub-range spans the whole validation grid, so the reported
        # error must be exactly what the bank decodes on it
        M = 256
        c, rep = fit_target(name, 1, T, M, seed=seed, lo=lo, hi=hi)
        grid = np.linspace(lo, hi, 10 * M)
        runtime = np.abs(hg_eval(c, grid) - target_fn(name).fn(grid))
        assert rep.max_abs_err == float(runtime.max())

    def test_exp_refinement_beats_single_range(self):
        _, rep4 = fit_target("exp", 4, 16, 512, seed=6, lo=-4.0, hi=2.0)
        _, rep1 = fit_target("exp", 1, 16, 512, seed=6, lo=-4.0, hi=2.0)
        assert all(e < rep1.max_abs_err for e in rep4.per_subrange_max_abs_err)

    def test_invsqrt_positive_range_finite(self):
        c, rep = fit_target("invsqrt", 4, 16, 256, seed=7, lo=0.0, hi=4.0)
        assert np.isfinite(rep.max_abs_err)
        assert all(np.isfinite(e) for e in rep.per_subrange_max_abs_err)
        ys = hg_eval(c, np.linspace(0.0, 4.0, 1000))
        assert np.all(np.isfinite(ys))

    @pytest.mark.parametrize("name", ["gelu", "exp"])
    def test_monotone_refinement(self, name):
        errs = []
        for N in (1, 2, 4, 8):
            _, rep = fit_target(name, N, 16, 512, seed=77)
            errs.append(rep.max_abs_err)
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_validation_error_honesty(self):
        # the reported bound is reproducible from the stored kernel alone
        c, rep = fit_target("gelu", 4, 12, 256, seed=13)
        lo, hi = c.boundaries[0], c.boundaries[-1]
        grid = np.linspace(lo, hi, 10 * 256)
        measured = float(np.max(np.abs(hg_eval(c, grid) - gelu(grid))))
        assert measured <= rep.max_abs_err * (1.0 + 1e-9) + 1e-12

    def test_coverage_every_point_in_one_range(self):
        c, rep = fit_target("gelu", 4, 12, 256, seed=13)
        b = np.array(c.boundaries)
        grid = np.linspace(b[0], b[-1], 1001)
        idx = np.searchsorted(b, grid, side="right") - 1
        idx = np.clip(idx, 0, len(b) - 2)
        assert np.all((idx >= 0) & (idx < c.d.shape[1]))
        assert len(rep.per_subrange_max_abs_err) == c.d.shape[1]

    def test_report_round_trip(self):
        c, rep = fit_target("exp", 2, 8, 128, seed=3)
        # a report is its per-sub-range errors alone, as the target and the
        # sample count are the fit's arguments; the calibrate --out form of
        # the bank holds every one of its numbers, the weights in the
        # sidecar's (T, N) layout
        assert [f.name for f in dataclasses.fields(rep)] == ["per_subrange_max_abs_err"]
        again = CalibrationReport(rep.per_subrange_max_abs_err)
        assert again == rep and len(rep.per_subrange_max_abs_err) == 2
        assert again.max_abs_err == max(rep.per_subrange_max_abs_err)
        doc = hg_to_dict(c)
        assert set(doc) == {"boundaries", "d"} and np.shape(doc["d"]) == (8, 2)
        assert HGConfig(doc["boundaries"], doc["d"]) == c


class TestTargets:
    def test_known_names(self):
        assert set(TARGETS) == {"gelu", "silu", "exp", "reciprocal",
                                "square", "invsqrt"}

    def test_unknown_name_lists_known(self):
        with pytest.raises(CalibrationError, match="gelu"):
            target_fn("tanhh")

    def test_gelu_reference_values(self):
        # tanh-form values, frozen from the closed-form expression
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([1.0]))[0] == pytest.approx(0.8411919906, abs=1e-9)
        assert gelu(np.array([-1.0]))[0] == pytest.approx(-0.1588080094,
                                                          abs=1e-9)

    def test_invsqrt_epsilon_floor(self):
        f = target_fn("invsqrt").fn
        assert f(np.array([0.0]))[0] == pytest.approx(1.0 / np.sqrt(1e-5))


class TestSampling:
    def test_curvature_quantiles_in_range(self):
        q = curvature_quantiles(np.exp, -4.0, 2.0, 5000)
        assert q.shape == (4999,) and q.min() > -4.0 and q.max() < 2.0
        # exp curvature concentrates the quantiles toward the high end
        assert np.mean(q > 0.0) > np.mean(q < -2.0)

    def test_observed_range_padding(self):
        lo, hi = observed_range(np.array([0.0, 1.0]))
        assert lo == pytest.approx(-0.1) and hi == pytest.approx(1.1)

    def test_observed_range_floor(self):
        lo, hi = observed_range(np.array([0.5, 16.0]), floor=1e-3)
        assert lo >= 1e-3

    @settings(max_examples=300, deadline=None)
    @given(observed=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           gap=st.none() | st.floats(0.0, 1e3))
    @example(observed=[0.37, 4.0], gap=0.37)  # an invsqrt site: 10 % of the span
    @example(observed=[0.0, 0.0], gap=0.0)  # zero variance on the floor
    def test_observed_range_covers_and_respects_floor(self, observed, gap):
        mn, mx = min(observed), max(observed)
        floor = None if gap is None else mn - gap
        lo, hi = observed_range(np.array(observed), floor=floor)
        assert lo <= mn and hi >= mx and lo < hi
        if floor is not None:
            # toward a floor, at most a tenth of the distance to it
            assert floor <= lo and lo >= mn - 0.1 * (mn - floor)

    def test_sample_distribution_shapes_and_outliers(self):
        rng = np.random.default_rng(14)
        m = sample_distribution("uniform_outliers", 50, 40, rng)
        assert m.shape == (50, 40)
        n_out = int(np.sum(np.abs(m.array) >= 20.0))
        assert n_out == round(0.01 * 50 * 40)

    def test_sample_distribution_unknown(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="normal"):
            sample_distribution("cauchy", 4, 4, rng)
