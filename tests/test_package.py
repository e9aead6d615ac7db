"""The package's public names: each one in __all__ resolves, and none repeats."""
import collections

import spikeconvert


def test_every_public_name_resolves_once():
    names = spikeconvert.__all__
    repeated = [n for n, k in collections.Counter(names).items() if k > 1]
    assert not repeated
    assert [n for n in names if not hasattr(spikeconvert, n)] == []
