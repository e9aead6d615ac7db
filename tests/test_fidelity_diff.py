"""tools/fidelity_diff.py: the comparison it prints from two checkouts' runs."""
import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from spikeconvert.neurons import HGConfig, OATConfig

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fidelity_diff.py"
_spec = importlib.util.spec_from_file_location("fidelity_diff", _PATH)
fidelity_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fidelity_diff)


def run(out, err=0.01, sops=10, clamped=0, site="layers.0.attn.in",
        gate="layers.0.attn.exp", flops=50):
    by_site = {"input": {"sops": 3, "flops": 0},
               site: {"sops": sops, "flops": 0},
               "layers.0.attn.qkv": {"sops": 0, "flops": flops}}
    return (np.array(out, dtype=float), err, {"sops": sops + 3, "by_site": by_site},
            {gate + ".clamped": clamped} if clamped else {})


def loaded(d0=1.0, theta_nor=0.5):
    """The numbers of a loaded one-gate, one-encoder block."""
    bank = HGConfig((0.0, 1.0, 2.0), [[d0, 2.0]])
    block = SimpleNamespace(hg={"layers.0.attn.exp": bank},
                            oat={"input": OATConfig(theta_nor, 4.0, 5, 16)})
    return {"default": fidelity_diff.block_numbers(block)}


def results(runs, block=b"{}", numbers=None):
    return {"runs": {("default", 4): runs}, "files": {"default.json": block},
            "loaded": loaded() if numbers is None else numbers}


class TestCompare:
    def test_identical_runs(self):
        runs = [run([1.0, -2.0]), run([0.5, 4.0])]
        c = fidelity_diff.compare_runs(runs, runs)
        assert c == {"out": 0.0, "rel_err": 0.0, "bytes": True, "ledgers": True,
                     "counters": True, "layers": True, "clamps": True}

    def test_signed_zero_flip_shows_in_bytes(self, capsys):
        # the relative difference reads 0 for a flipped zero; bytes does not
        c = fidelity_diff.compare_runs([run([0.0, 2.0])], [run([-0.0, 2.0])])
        assert c["out"] == 0.0 and not c["bytes"]
        old, new = results([run([0.0, 2.0])]), results([run([-0.0, 2.0])])
        assert fidelity_diff.report(old, new)  # reported, not ruled on
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert row.split()[-5:] == ["DIFFER", "equal", "equal", "equal", "equal"]
        assert header.split()[-5:] == ["bytes", "ledgers", "counters", "layers",
                                       "clamps"]

    def test_output_difference_is_relative_to_the_largest_output(self):
        c = fidelity_diff.compare_runs([run([1.0, -4.0])], [run([1.0 + 2e-15, -4.0])])
        assert c["out"] == ((1.0 + 2e-15) - 1.0) / 4.0
        assert c["ledgers"] and c["counters"]

    def test_ledger_and_counter_changes_flagged(self):
        c = fidelity_diff.compare_runs([run([1.0], sops=10, clamped=1)],
                                       [run([1.0], sops=11, clamped=2)])
        assert not c["ledgers"] and not c["counters"]
        assert not c["layers"] and not c["clamps"]

    def test_rename_within_a_layer_keeps_its_totals(self):
        old = run([1.0], clamped=2, site="layers.0.attn.softmax.offset",
                  gate="layers.0.attn.softmax.exp_gate")
        new = run([1.0], clamped=2, site="layers.0.attn.offset",
                  gate="layers.0.attn.exp")
        c = fidelity_diff.compare_runs([old], [new])
        assert not c["ledgers"] and not c["counters"]
        assert c["layers"] and c["clamps"]

    def test_layer_total_changes_flagged(self):
        c = fidelity_diff.compare_runs([run([1.0], clamped=1)],
                                       [run([1.0], clamped=1, site="layers.1.ffn.in",
                                            gate="layers.1.ffn.act")])
        assert not c["layers"] and not c["clamps"]
        c = fidelity_diff.compare_runs([run([1.0])], [run([1.0], flops=51)])
        assert not c["layers"] and c["clamps"]

    def test_layer_of(self):
        assert fidelity_diff.layer_of("input") == "input"
        assert fidelity_diff.layer_of("layers.3.ffn.act.clamped") == "layers.3"

    def test_report_verdict(self, capsys):
        same = results([run([1.0])])
        assert fidelity_diff.report(same, same)
        assert not fidelity_diff.report(same, results([run([1.0])], block=b"{ }"))
        assert not fidelity_diff.report(same, results([run([1.0], sops=9)]))
        # a renamed site is no numerics change
        assert fidelity_diff.report(same, results([run([1.0], site="layers.0.attn.x")]))
        assert "default.json: DIFFERS" in capsys.readouterr().out

    def test_direction_is_mean_error_and_clamp_total(self):
        runs = [run([1.0], err=0.02, clamped=3), run([1.0], err=0.04)]
        assert fidelity_diff.direction(runs) == (pytest.approx(0.03), 3)

    def test_saturation_is_shown_apart_from_gate_clamps(self, capsys):
        # a checkout that adds an encoder's saturation counter changes the
        # counters, not the gate clamp totals the verdict reads
        old = results([run([1.0], clamped=2)])
        new = results([run([1.0], clamped=2)])
        new["runs"]["default", 4][0][3]["layers.0.attn.out.saturated"] = 5
        assert fidelity_diff.report(old, new)
        row = capsys.readouterr().out.splitlines()[1]
        assert "2->2" in row and "0->5" in row
        c = fidelity_diff.compare_runs(old["runs"]["default", 4],
                                       new["runs"]["default", 4])
        assert not c["counters"] and c["clamps"] and c["layers"]

    def test_report_shows_direction(self, capsys):
        old = results([run([1.0], err=0.025, clamped=8)])
        new = results([run([1.0], err=0.0009, clamped=14)])
        # the clamp totals moved, so the verdict is a numerics change
        assert not fidelity_diff.report(old, new)
        row = capsys.readouterr().out.splitlines()[1]
        assert "0.025->0.0009" in row and "8->14" in row


class TestLoadedBlocks:
    def test_numbers_read_from_the_stacks(self):
        numbers = loaded()["default"]
        # each bank's boundaries and (T, N) weights, which every block format
        # since 3 stores
        assert set(numbers) == {("hg", "layers.0.attn.exp", "boundaries"),
                                ("hg", "layers.0.attn.exp", "d"),
                                ("oat", "input")}
        assert numbers["hg", "layers.0.attn.exp", "boundaries"].tolist() == [0.0, 1.0, 2.0]
        assert numbers["hg", "layers.0.attn.exp", "d"].tolist() == [[1.0, 2.0]]
        assert numbers["oat", "input"].tolist() == [0.5, 4.0]

    def test_equal_only_bit_for_bit(self):
        assert fidelity_diff.same_numbers(loaded()["default"], loaded()["default"])
        assert not fidelity_diff.same_numbers(loaded(d0=0.0)["default"],
                                              loaded(d0=-0.0)["default"])
        assert not fidelity_diff.same_numbers(loaded()["default"],
                                              loaded(theta_nor=0.25)["default"])

    def test_report_tells_layout_from_numerics(self, capsys):
        # a new file layout with the same numbers: the files differ, the
        # loaded blocks do not; the exit rule still reads the files
        old = results([run([1.0])])
        assert not fidelity_diff.report(old, results([run([1.0])], block=b"{ }"))
        out = capsys.readouterr().out
        assert "default.json: DIFFERS" in out and "loaded blocks equal" in out
        assert fidelity_diff.report(old, results([run([1.0])], numbers=loaded(d0=3.0)))
        assert "loaded blocks DIFFER: default" in capsys.readouterr().out
