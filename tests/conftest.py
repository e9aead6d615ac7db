"""Blocks shared across test modules, converted once per session, and the
gate oracles' dyadic schedule.

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
