"""The documented import paths: README's quick starts run as written, its
CLI row names the commands there are, every `spikeconvert <command>` it
writes names one of them, and it states the block version that load_block
reads.

Every name is imported from the module that defines it, and the package
root provides only __version__, so the quick start is the one import
surface to guard.
"""
import argparse
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types

import spikeconvert
from spikeconvert import cli
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


def test_readme_cli_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (_ROOT / "README.md").read_text()
    blocks = re.findall(r"^## Quick start \(CLI\)\n\n```sh\n(.*?)^```", readme,
                        re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for line in blocks[0].splitlines()]
    assert [argv[0] for argv in lines] == ["spikeconvert"] * len(lines)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def _commands() -> list[str]:
    return sorted(next(a.choices for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)))


def test_readme_cli_row_names_every_command():
    readme = (_ROOT / "README.md").read_text()
    row = re.findall(r"^\| `spikeconvert\.cli` \| `spikeconvert` command: (.*) \|$",
                     readme, re.M)
    assert len(row) == 1
    assert sorted(row[0].split(" / ")) == _commands()


def test_readme_invocations_name_commands_there_are():
    readme = (_ROOT / "README.md").read_text()
    named = set(re.findall(r"\bspikeconvert\s+([a-z][\w-]*)", readme))
    assert named and named <= set(_commands()), sorted(named - set(_commands()))


def test_readme_states_the_block_version():
    readme = (_ROOT / "README.md").read_text()
    short = re.findall(r"spikeconvert-block/(\d+)", readme)
    full = re.findall(r'"format": "spikeconvert-block", "version": (\d+)', readme)
    refused = re.findall(r"versions\s+1\s+to\s+(\d+);", readme)
    assert short == full == [str(_BLOCK_VERSION)]
    assert refused == [str(_BLOCK_VERSION - 1)]
