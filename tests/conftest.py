"""Blocks shared across test modules, converted once per session, and the
gate oracles' dyadic schedule and few-step recurrence.

No test mutates these blocks (a ConvertedBlock is frozen and its arrays are
read-only), so one conversion of each serves every module.
"""
import numpy as np
import pytest

from spikeconvert.calibration import sample_distribution
from spikeconvert.model import ConvertedBlock, ModelConfig, WeightSet, convert


def dyadic_schedule(w: float, T: int) -> tuple[tuple, tuple]:
    """Thresholds and resets of the dyadic schedule of a sub-range of width
    w at T steps, as the per-step oracles run it: an always-on guard step
    (threshold w * 2^-(T+8), no reset), then T-1 rungs halving from w/2
    down to w * 2^-(T-1)."""
    guard = w * 2.0 ** -(T + 8)
    rungs = tuple(w * 2.0**-t for t in range(1, T))
    return (guard,) + rungs, (0.0,) + rungs


def fs_run_reference(x, theta, h, d):
    """The few-step (FS) recurrence, one step at a time, on a 1-D batch: the
    one FS recurrence in the tree, the oracle of every gate kernel. The
    membrane starts at x; step t fires where it is at or above theta[t],
    emits d[t] there and subtracts h[t]. Returns the (T, n) emitted values,
    +0.0 where silent, and the (T, n) firing mask."""
    x = np.asarray(x, dtype=np.float64)
    T = len(theta)
    values = np.zeros((T, x.size))
    fired = np.zeros((T, x.size), dtype=bool)
    v = x.copy()
    for t in range(T):
        fire = v >= theta[t]
        fired[t] = fire
        values[t] = np.where(fire, d[t], 0.0)
        v = v - h[t] * fire
    return values, fired


def desk_block(dist: str, **fields) -> ConvertedBlock:
    """A desk-scale block converted on its pinned seeds."""
    cfg = ModelConfig(calib_distribution=dist, **fields)
    calib = sample_distribution(dist, cfg.seq_len * 32, cfg.d_model,
                                np.random.default_rng(cfg.seeds["calibration"]))
    return convert(cfg, WeightSet.random(cfg, cfg.seeds["weights"]), calib)


@pytest.fixture(scope="session")
def default_block():
    """The default ModelConfig block, calibrated on normal data."""
    return desk_block("normal")


@pytest.fixture(scope="session")
def gated_block():
    """The 2-layer gated-FFN block, calibrated on normal_outliers data."""
    return desk_block("normal_outliers", ffn_kind="gated", n_layers=2)
