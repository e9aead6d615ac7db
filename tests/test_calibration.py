"""Threshold selection and kernel fitting against quantile/LSQ oracles."""
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dyadic_schedule, fs_run_reference
from spikeconvert import calibration
from spikeconvert.calibration import (
    TARGETS,
    _MAX_SAMPLES,
    CalibrationReport,
    _dyadic_bits,
    _dyadic_decode,
    _solve_weights,
    _target_values,
    curvature_sample,
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
from spikeconvert.tensors import Matrix, stats


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


def fitted_boundaries(monkeypatch, sample, N, lo, hi):
    """fit_target's boundaries on [lo, hi] with sample in place of its
    curvature sample, and the warnings it gave."""
    monkeypatch.setattr(calibration, "curvature_sample",
                        lambda *args: np.array(sample, dtype=np.float64))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c, rep = fit_target("gelu", N, 8, 64, seed=0, lo=lo, hi=hi)
    assert len(rep.per_subrange_max_abs_err) == c.d.shape[1]
    return tuple(c.boundaries), [str(w.message) for w in caught]


class TestSelectHierarchy:
    """fit_target's sub-range boundaries: the pinned ends around the k/N
    quantiles of its curvature sample."""

    def test_n1_single_range(self, monkeypatch):
        b, _ = fitted_boundaries(monkeypatch, [0.2, 0.9, 0.4], 1, 0.2, 0.9)
        assert b == (0.2, 0.9)

    def test_uniform_quartiles(self, monkeypatch):
        rng = np.random.default_rng(4)
        sample = rng.uniform(0.0, 1.0, 100000)
        b, _ = fitted_boundaries(monkeypatch, sample, 4, 0.0, 1.0)
        want = (0.0, 0.25, 0.5, 0.75, 1.0)
        for got, w in zip(b, want):
            assert got == pytest.approx(w, abs=0.01)

    def test_inner_boundaries_match_numpy_quantile(self, monkeypatch):
        rng = np.random.default_rng(5)
        sample = rng.standard_normal(5001)
        b, _ = fitted_boundaries(monkeypatch, sample, 4, sample.min(), sample.max())
        for k in (1, 2, 3):
            assert b[k] == pytest.approx(float(np.quantile(sample, k / 4)),
                                         abs=1e-9)

    def test_heavy_tail_width_ordering(self, monkeypatch):
        rng = np.random.default_rng(6)
        sample = rng.exponential(1.0, 40000)
        b, _ = fitted_boundaries(monkeypatch, sample, 4, 0.0, sample.max())
        widths = np.diff(b)
        assert widths[-1] > widths[0]

    def test_pinned_endpoints(self, monkeypatch):
        b, _ = fitted_boundaries(monkeypatch, np.linspace(0, 1, 100), 2, -5.0, 5.0)
        assert b[0] == -5.0 and b[-1] == 5.0

    def test_duplicate_collapse_with_warning(self, monkeypatch):
        sample = np.array([1.0] * 50 + [2.0])
        b, caught = fitted_boundaries(monkeypatch, sample, 8, 0.0, 2.0)
        assert caught == ["sample supports only 2 distinct sub-ranges, not 8"]
        assert b == (0.0, 1.0, 2.0)

    @pytest.mark.parametrize("N", [0, -3])
    def test_no_sub_range_refused(self, N):
        with pytest.raises(ValueError, match=f"need at least one sub-range, got N={N}"):
            fit_target("gelu", N, 8, 64, seed=0)


class TestSolver:
    def test_reaches_least_squares_objective(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            B = (rng.random((200, 12)) < 0.5).astype(float)
            y = rng.standard_normal(200)
            d = _solve_weights(B, y)
            ref, *_ = np.linalg.lstsq(B, y, rcond=None)
            r_cd = float(np.sum((B @ d - y) ** 2))
            r_ls = float(np.sum((B @ ref - y) ** 2))
            assert r_cd <= r_ls * (1.0 + 1e-10) + 1e-12

    def test_never_firing_step_weight_exactly_zero(self):
        rng = np.random.default_rng(10)
        B = (rng.random((200, 6)) < 0.5).astype(float)
        B[:, 2] = 0.0
        y = rng.standard_normal(200)
        assert _solve_weights(B, y)[2] == 0.0
        assert not _solve_weights(np.zeros_like(B), y).any()

    @pytest.mark.parametrize("kind", ["duplicate", "constant"])
    def test_rank_deficient_design_reaches_lstsq_residual(self, kind):
        rng = np.random.default_rng(11)
        B = (rng.random((200, 8)) < 0.5).astype(float)
        if kind == "duplicate":
            B[:, 5] = B[:, 1]
        else:
            # an always-on column equal to the sum of two complementary ones
            B[:, 0] = 1.0
            B[:, 4] = 1.0 - B[:, 3]
        y = rng.standard_normal(200)
        d = _solve_weights(B, y)
        ref, *_ = np.linalg.lstsq(B, y, rcond=None)
        r = float(np.sum((B @ d - y) ** 2))
        r_ls = float(np.sum((B @ ref - y) ** 2))
        assert r == pytest.approx(r_ls, rel=1e-10)


class TestFitFS:
    def test_zero_function_exact(self):
        p, err = fit_fs(lambda x: np.zeros_like(x), 0.0, 1.0, 8, 256, seed=4)
        assert err == 0.0
        assert all(v == 0.0 for v in p.d)

    def test_identity_resolution(self):
        # the always-on step costs one ladder rung, so 9 steps resolve what a
        # plain 8-rung ladder would. frozen: measured 0.60 * 2^-8 on this
        # seed; assert 1.0 * 2^-8
        _, err = fit_fs(lambda x: x, 0.0, 1.0, 9, 256, seed=4)
        assert err <= 2.0**-8

    def test_reproducible_bit_identical(self):
        a, ea = fit_fs(np.tanh, -1.0, 2.0, 12, 256, seed=42)
        b, eb = fit_fs(np.tanh, -1.0, 2.0, 12, 256, seed=42)
        assert a == b and ea == eb

    def test_seed_changes_fit(self):
        a, _ = fit_fs(np.tanh, -1.0, 2.0, 12, 256, seed=1)
        b, _ = fit_fs(np.tanh, -1.0, 2.0, 12, 256, seed=2)
        assert a != b

    def test_non_finite_target_named(self):
        with pytest.raises(CalibrationError, match=r"-?\d"):
            fit_fs(np.log, -1.0, 1.0, 8, 256, seed=3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_fs(np.exp, 1.0, 0.0, 8, 256, seed=0)
        with pytest.raises(ValueError):
            fit_fs(np.exp, 0.0, 1.0, 8, 32, seed=0)  # M >= 64
        with pytest.raises(ValueError):
            fit_fs(np.exp, 0.0, 1.0, 0, 256, seed=0)

    def test_closed_form_range_named(self):
        # the most steps, samples and the narrowest range the closed form takes
        fit_fs(np.exp, 0.0, 1.0, _MAX_GATE_STEPS, 64, seed=0)
        fit_fs(np.exp, 0.0, 2.0**-960, 16, 64, seed=0)
        with pytest.raises(ValueError, match=r"T must be within 1\.\.52 steps, "
                                             r"got 53"):
            fit_fs(np.exp, 0.0, 1.0, _MAX_GATE_STEPS + 1, 64, seed=0)
        with pytest.raises(ValueError, match=r"M must be within 64\.\.1048576"):
            fit_fs(np.exp, 0.0, 1.0, 8, _MAX_SAMPLES + 1, seed=0)
        # a guard below the smallest normal float, and an infinite width
        for lo, hi in ((0.0, 2.0**-1000), (-1e308, 1e308)):
            with pytest.raises(ValueError, match=r"guard step \(hi - lo\) \* 2\^-"
                                                 r"\(T\+8\) = .* must be a finite"):
                fit_fs(np.zeros_like, lo, hi, 16, 64, seed=0)

    def test_whole_range_checked_before_sampling(self, monkeypatch):
        # a width that overflows is the range's fault, not the target's
        def refuse(*args):
            raise AssertionError("the range must be refused before it is sampled")

        monkeypatch.setattr(calibration, "curvature_sample", refuse)
        with pytest.raises(ValueError, match=r"range \[-1\.7e\+308, 1\.7e\+308\] does "
                                             r"not fit at T=16: its guard step"):
            fit_target("exp", 1, 16, 64, seed=0, lo=-1.7e308, hi=1.7e308)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_range_fits_until_a_sub_range_does_not(self):
        # e = (hi - lo) / 8192 squares to 0 here, so the curvature divides
        # by e twice; four sub-ranges are too narrow for a normal guard step
        x = curvature_sample(np.exp, 0.0, 1e-300, 256, np.random.default_rng(0))
        assert np.all((x >= 0.0) & (x <= 1e-300))
        c, rep = fit_target("exp", 1, 16, 64, seed=0, lo=0.0, hi=1e-300)
        assert c.boundaries.tolist() == [0.0, 1e-300] and rep.max_abs_err < 1e-14
        with pytest.raises(ValueError, match=r"^fit of 'exp' failed on sub-range \[0\.0, "
                                             r"\d\.\d+e-301\]: range \[0\.0, \d\.\d+e-301\] "
                                             r"does not fit at T=16"):
            fit_target("exp", 4, 16, 64, seed=0, lo=0.0, hi=1e-300)

    @pytest.mark.parametrize("name, lo", [("reciprocal", -1.0), ("reciprocal", 0.0),
                                          ("invsqrt", -1e-9)])
    def test_range_below_target_floor_named(self, name, lo):
        floor = TARGETS[name].floor
        with pytest.raises(CalibrationError, match=f"domain floor {floor}"):
            fit_target(name, 2, 8, 64, seed=0, lo=lo, hi=1.0)
        fit_target(name, 2, 8, 64, seed=0, lo=floor, hi=1.0)  # the floor itself fits


def recurrence_bits(u, w, T):
    """The (T, n) firing bits, as 0.0/1.0, of the dyadic schedule of width w
    at T steps, stepped through by the few-step recurrence."""
    return fs_run_reference(u, *dyadic_schedule(w, T), np.ones(T))[0]


def fit_fs_reference(target, lo, hi, T, M, seed):
    """The one-schedule fit validated on the full grid through the bit
    array: (one-range bank, validation error), the oracle of fit_fs."""
    w = hi - lo
    rng = np.random.default_rng(seed)
    u_train = np.concatenate([rng.uniform(0.0, w, M), [0.0, w]])
    y_train = _target_values(target, u_train + lo)
    x_val = np.linspace(lo, hi, 10 * M)
    y_val = _target_values(target, x_val)
    theta, h = dyadic_schedule(w, T)
    guard = theta[0]
    d = _solve_weights(recurrence_bits(u_train + guard, w, T).T, y_train)
    weighted = fs_run_reference(x_val - lo + guard, theta, h, d)[1] * d[:, None]
    err = float(np.abs(_sum_steps(weighted) - y_val).max())
    return HGConfig((lo, hi), d[:, None]), err


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

    @settings(max_examples=200, deadline=None)
    @given(case=dyadic_decode_cases())
    @example(case=_EDGE_CASE)
    @example(case=(*validation_inputs(-7.0, 11.0, 52, 600, (2**51 - 1, 2**51)),
                   np.zeros(52)))
    def test_training_bits_match_the_recurrence(self, case):
        # the fit's design matrix: 0.0/1.0 bits, step 0 always on
        u, w, d = case
        bits = _dyadic_bits(u, w, d.size)
        ref = recurrence_bits(u, w, d.size)
        assert bits.tobytes() == ref.tobytes()

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
    """A target, a sub-range of its default range, T, M and a seed."""
    spec = TARGETS[draw(st.sampled_from(sorted(TARGETS)))]
    min_w = 1e-3 * (spec.hi - spec.lo)
    lo = draw(st.floats(spec.lo, spec.hi - min_w))
    hi = draw(st.floats(lo + min_w, spec.hi))
    return (spec.fn, lo, hi, draw(st.integers(1, 16)),
            draw(st.sampled_from((64, 256, 1024))), draw(st.integers(0, 2**32 - 1)))


class TestOneScheduleFit:
    @settings(max_examples=200, deadline=None)
    @given(case=fit_cases())
    @example(case=(np.exp, -2.56, -0.65, 12, 64, 56))
    @example(case=(np.zeros_like, 0.0, 1.0, 8, 64, 0))  # exact: zero error
    @example(case=(np.exp, -4.0, 2.0, 1, 64, 0))  # T=1: the always-on step alone
    def test_matches_full_grid_reference(self, case):
        assert fit_fs(*case) == fit_fs_reference(*case)

    def test_always_on_step_first(self):
        p, err = fit_fs(np.exp, -2.56, -0.65, 12, 64, seed=56)
        assert p.guard[0] == (-0.65 - -2.56) * 2.0**-20
        assert err == pytest.approx(0.07947, abs=5e-6)

    def test_default_block_matches_reference_fit(self, default_block,
                                                 monkeypatch):
        block = default_block
        cfg, w = block.config, block.weights
        assert cfg == ModelConfig()
        # the calibration sample the default block was converted on
        calib = sample_distribution("normal", cfg.seq_len * 32, cfg.d_model,
                                    np.random.default_rng(cfg.seeds["calibration"]))
        calls = []

        def reference(*args):
            calls.append(args)
            return fit_fs_reference(*args)

        # fit_target calls fit_fs through the module, so this swaps every fit
        monkeypatch.setattr(calibration, "fit_fs", reference)
        ref = convert(cfg, w, calib)
        assert len(calls) == sum(c.d.shape[1] for c in ref.hg.values())
        assert block.hg == ref.hg
        assert block.reports == ref.reports


class TestFitHG:
    """A gated bank fitted through fit_target."""

    def test_n1_equals_plain_fit(self):
        c, rep = fit_target("gelu", 1, 10, 256, seed=5, lo=-1.0, hi=1.5)
        p, err = fit_fs(gelu, -1.0, 1.5, 10, 256, seed=5)
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
        again = CalibrationReport.from_dict(rep.to_dict())
        assert again == rep
        assert again.max_abs_err == max(rep.per_subrange_max_abs_err)
        # the calibrate --out form of the bank holds every one of its numbers,
        # the weights in the sidecar's (T, N) layout
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
    def test_curvature_sample_in_range(self):
        rng = np.random.default_rng(12)
        s = curvature_sample(np.exp, -4.0, 2.0, 5000, rng)
        assert s.min() >= -4.0 and s.max() <= 2.0
        # exp curvature concentrates samples toward the high end
        assert np.mean(s > 0.0) > np.mean(s < -2.0)

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
