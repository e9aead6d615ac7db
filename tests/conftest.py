"""Blocks shared across test modules, converted once per session.

No test mutates these blocks (a ConvertedBlock is frozen and its arrays are
read-only), so one conversion of each serves every module.
"""
import numpy as np
import pytest

from spikeconvert.calibration import sample_distribution
from spikeconvert.model import ConvertedBlock, ModelConfig, WeightSet, convert


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
