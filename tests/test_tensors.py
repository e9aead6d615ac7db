"""Matrix primitives and activation statistics checked against hand arithmetic."""
import numpy as np
import pytest

from spikeconvert.errors import EmptyInputError, NonFiniteError, ShapeError
from spikeconvert.tensors import Matrix, percentile, stats


class TestMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            Matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(NonFiniteError):
            Matrix(np.array([[np.inf]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros(3))

    def test_is_immutable(self):
        m = Matrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_does_not_freeze_caller_array(self):
        src = np.ones((2, 2))
        Matrix(src)
        src[0, 0] = 3.0  # caller's buffer stays writable


class TestStats:
    def test_constant_matrix(self):
        s = stats(Matrix(np.full((3, 4), -5.0)), quantiles=(0.5,))
        assert s.max_abs == s.abs_percentiles[0.5] == 5.0

    def test_values_1_to_100_p99(self):
        vals = np.arange(1.0, 101.0).reshape(10, 10)
        s = stats(Matrix(-vals), quantiles=(0.99,))
        # sorted interpolation: 0.99 * 99 = 98.01 -> 99 + 0.01 * (100 - 99)
        assert s.abs_percentiles[0.99] == pytest.approx(99.01, abs=1e-12)
        assert s.max_abs == 100.0

    def test_singleton(self):
        s = stats(Matrix(np.array([[-7.0]])), quantiles=(0.0, 0.5, 1.0))
        assert all(v == 7.0 for v in s.abs_percentiles.values())
        assert s.max_abs == 7.0

    def test_max_abs_of_signed_zeros_is_plus_zero(self):
        s = stats(Matrix(np.array([[-0.0, 0.0, -0.0]])))
        assert np.copysign(1.0, s.max_abs) == 1.0 and s.max_abs == 0.0

    def test_quantiles_may_be_any_iterable(self):
        s = stats(Matrix(np.array([[1.0, -3.0]])), quantiles=iter((0.0, 1.0)))
        assert s.abs_percentiles == {0.0: 1.0, 1.0: 3.0}

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            stats(Matrix(np.zeros((0, 3))))

    def test_percentile_matches_numpy_quantile(self):
        rng = np.random.default_rng(5)
        vals = np.sort(rng.standard_normal(257))
        for q in (0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert percentile(vals, q) == pytest.approx(
                float(np.quantile(vals, q)), abs=1e-12
            )

    def test_percentiles_monotone_in_q(self):
        rng = np.random.default_rng(8)
        s = stats(Matrix(rng.standard_normal((16, 16))),
                  quantiles=tuple(np.linspace(0, 1, 21)))
        seq = [s.abs_percentiles[q] for q in sorted(s.abs_percentiles)]
        assert all(a <= b for a, b in zip(seq, seq[1:]))
        assert 0.0 <= min(seq) and max(seq) == s.max_abs

    def test_percentile_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile(np.array([1.0]), 1.5)

    def test_percentile_of_empty_sample_refused(self):
        with pytest.raises(EmptyInputError, match=r"^percentile of an empty sample$"):
            percentile(np.array([]), 0.5)
