"""perfbench/layertrace.py: every probe still finds the function it wraps.

The probes bind by name, so a refactor that renames or moves a probed
function breaks the traced benchmark run. This checks it in seconds, where
perfbench/selftest.py takes minutes.
"""
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from spikeconvert import calibration

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture
def layertrace(monkeypatch):
    # no __pycache__ is written under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_probe_resolves_and_is_restored(layertrace):
    before = [_binding(owner, attr) for owner, attr, _, _ in layertrace.PROBES]
    with layertrace.Tracer().installed():
        for (owner, attr, _, _), orig in zip(layertrace.PROBES, before):
            wrapper = _binding(owner, attr)
            assert wrapper is not orig, f"{attr} was not probed"
            assert wrapper.__wrapped__ is orig, attr
    after = [_binding(owner, attr) for owner, attr, _, _ in layertrace.PROBES]
    assert all(a is b for a, b in zip(after, before))


def test_fit_fs_is_a_module_level_callable(monkeypatch):
    # perfbench/run.py scales convert by ticking its clock at calibration.fit_fs,
    # which fit_hg must look up through the module for every fit
    assert callable(calibration.fit_fs)
    assert calibration.fit_fs.__module__ == calibration.__name__
    fit_fs, calls = calibration.fit_fs, []

    def ticked(*args):
        calls.append(args)
        return fit_fs(*args)

    monkeypatch.setattr(calibration, "fit_fs", ticked)
    calibration.fit_hg("gelu", np.linspace(-1.0, 1.0, 64), 3, 4, 64, seed=0)
    assert len(calls) == 3
