"""The documented import paths: README's quick start runs as written, and
README states the block version that load_block reads.

Every name is imported from the module that defines it, and the package
root provides only __version__, so the quick start is the one import
surface to guard.
"""
import os
import pathlib
import re
import subprocess
import sys
import types

import spikeconvert
from spikeconvert.model import _BLOCK_VERSION

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_root_provides_only_the_version():
    # submodules appear as attributes once imported; nothing else does
    assert [n for n, v in vars(spikeconvert).items() if not n.startswith("__")
            and not isinstance(v, types.ModuleType)] == []
    assert re.fullmatch(r"\d+\.\d+\.\d+", spikeconvert.__version__)


def test_readme_quick_start_runs_as_written():
    readme = (_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rel_err, ratio = (float(line) for line in done.stdout.split())
    # README: "~4e-4 at T=16 on the defaults"
    assert 0 < rel_err < 1e-3
    assert 0 < ratio < 1


def test_readme_states_the_block_version():
    readme = (_ROOT / "README.md").read_text()
    short = re.findall(r"spikeconvert-block/(\d+)", readme)
    full = re.findall(r'"format": "spikeconvert-block", "version": (\d+)', readme)
    refused = re.findall(r"versions\s+1\s+to\s+(\d+);", readme)
    assert short == full == [str(_BLOCK_VERSION)]
    assert refused == [str(_BLOCK_VERSION - 1)]
