"""tools/fidelity_diff.py: the comparison it prints from two checkouts' runs."""
import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from spikeconvert.calibration import sample_distribution
from spikeconvert.calibration import CalibrationReport
from spikeconvert.model import spike_forward
from spikeconvert.neurons import HGConfig, OATConfig
from spikeconvert.tensors import Matrix

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fidelity_diff.py"
_spec = importlib.util.spec_from_file_location("fidelity_diff", _PATH)
fidelity_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fidelity_diff)


def run(out, err=0.01, sops=10, clamped=0, site="layers.0.attn.in",
        gate="layers.0.attn.exp", flops=50):
    by_site = {"input": {"sops": 3, "flops": 0},
               site: {"sops": sops, "flops": 0},
               "layers.0.attn.qkv": {"sops": 0, "flops": flops}}
    ledger = {"e_ac": 0.9, "e_mac": 4.6, "sops": sops + 3, "flops": flops,
              "by_site": by_site}
    return (np.array(out, dtype=float), err, ledger,
            {gate + ".clamped": clamped} if clamped else {})


def loaded(d0=1.0, theta_nor=0.5, err=0.25):
    """The numbers of a loaded one-gate, one-encoder block."""
    bank = HGConfig((0.0, 1.0, 2.0), [[d0, 2.0]])
    report = CalibrationReport((err, 0.5))
    block = SimpleNamespace(hg={"layers.0.attn.exp": bank},
                            oat={"input": OATConfig(theta_nor, 4.0, 5, 16)},
                            reports={"layers.0.attn.exp": report})
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

    def test_ledgers_compared_by_their_counts(self):
        # a ledger that stops writing a key, such as an older checkout's
        # sop_weight, keeps equal counts; a moved FLOP count does not
        old, new = run([1.0]), run([1.0])
        old[2]["sop_weight"] = 1
        assert fidelity_diff.compare_runs([old], [new])["ledgers"]
        c = fidelity_diff.compare_runs([old], [run([1.0], flops=51)])
        assert not c["ledgers"] and not c["layers"]

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

    def test_convert_cost_is_reported_not_judged(self, capsys):
        old = dict(results([run([1.0])]), cost={"default": (0.375, 69120)})
        new = dict(results([run([1.0])]), cost={"default": (0.243, 524)})
        # a costlier convert is no numerics change either way round
        assert fidelity_diff.report(old, new) and fidelity_diff.report(new, old)
        assert ("convert default: cpu 0.375 s -> 0.243 s, minor faults 69120 -> 524"
                in capsys.readouterr().out)

    def test_convert_cost_from_getrusage(self):
        before = SimpleNamespace(ru_utime=1.0, ru_stime=0.25, ru_minflt=100)
        after = SimpleNamespace(ru_utime=1.5, ru_stime=0.5, ru_minflt=160)
        assert fidelity_diff.convert_cost(before, after) == (0.75, 60)

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

    def test_mean_error_shows_six_digits(self, capsys):
        # a +0.21 % move, which three digits would print as 0.0012->0.00121
        old = results([run([1.0], err=1.20302e-3)])
        new = results([run([1.0], err=1.20557e-3)])
        assert fidelity_diff.report(old, new)
        assert "0.00120302->0.00120557" in capsys.readouterr().out.splitlines()[1]


class TestLoadedBlocks:
    def test_numbers_read_from_the_stacks(self):
        numbers = loaded()["default"]
        # each bank's boundaries and (T, N) weights, which every block format
        # since 3 stores, each encoder's thresholds and each gate's report
        # errors, a report's one field
        site = "layers.0.attn.exp"
        assert set(numbers) == {("hg", site, "boundaries"), ("hg", site, "d"),
                                ("oat", "input"), ("report", site, "err")}
        assert numbers["hg", site, "boundaries"].tolist() == [0.0, 1.0, 2.0]
        assert numbers["hg", site, "d"].tolist() == [[1.0, 2.0]]
        assert numbers["oat", "input"].tolist() == [0.5, 4.0]
        assert numbers["report", site, "err"].tolist() == [0.25, 0.5]

    def test_equal_only_bit_for_bit(self):
        def kinds(old, new):
            return fidelity_diff.differing_kinds(old["default"], new["default"])

        assert kinds(loaded(), loaded()) == []
        assert kinds(loaded(d0=0.0), loaded(d0=-0.0)) == ["hg.d"]
        assert kinds(loaded(), loaded(theta_nor=0.25)) == ["oat"]
        assert kinds(loaded(), loaded(err=0.125)) == ["report.err"]
        assert kinds(loaded(err=0.0), loaded(err=-0.0)) == ["report.err"]
        assert kinds(loaded(), loaded(d0=3.0, err=0.125)) == ["hg.d", "report.err"]

    def test_key_on_one_side_differs(self):
        old = loaded()["default"]
        new = {k: v for k, v in old.items() if k[0] != "oat"}
        assert fidelity_diff.differing_kinds(old, new) == ["oat"]
        assert fidelity_diff.differing_kinds(new, old) == ["oat"]

    def test_report_tells_layout_from_numerics(self, capsys):
        # a new file layout with the same numbers: the files differ, the
        # loaded blocks do not; the exit rule still reads the files
        old = results([run([1.0])])
        assert not fidelity_diff.report(old, results([run([1.0])], block=b"{ }"))
        out = capsys.readouterr().out
        assert "default.json: DIFFERS" in out and "loaded blocks equal" in out
        assert fidelity_diff.report(old, results([run([1.0])], numbers=loaded(d0=3.0)))
        assert "loaded blocks DIFFER: default (hg.d)\n" in capsys.readouterr().out

    def test_report_names_what_moved_and_the_worst_gate_error(self, capsys):
        # a refit moves the weights and the errors; the worst error is the
        # largest over every gate's sub-ranges, old -> new
        old = results([run([1.0])])
        new = results([run([1.0])], numbers=loaded(d0=3.0, err=0.375))
        fidelity_diff.report(old, new)
        out = capsys.readouterr().out
        assert "loaded blocks DIFFER: default (hg.d, report.err)\n" in out
        assert "worst gate err default: 0.5 -> 0.5\n" in out
        fidelity_diff.report(old, results([run([1.0])], numbers=loaded(err=0.625)))
        assert "worst gate err default: 0.5 -> 0.625\n" in capsys.readouterr().out


class TestRows:
    def test_default_x3_row_runs_the_scaled_inputs(self, default_block, capsys):
        rng = np.random.default_rng(0)
        xs = [sample_distribution("normal", 8, 32, rng) for _ in range(2)]
        runs = fidelity_diff.block_runs("default", default_block, default_block, xs,
                                        (4,))
        assert set(runs) == {("default", 4), ("default/loaded", 4), ("default/x3", 16),
                             ("default/sweep", 4)}
        for x, (out, err, ledger, counters) in zip(xs, runs["default/x3", 16]):
            want, trace = spike_forward(default_block, Matrix(3 * x.array), T=16)
            assert out.tobytes() == want.array.tobytes()
            assert err == trace.output_rel_err
            assert ledger == trace.ledger.to_dict() and counters == trace.ledger.counters
        # the row reaches the encoders' saturation and the gates' clamps
        keys = {k.rsplit(".", 1)[1] for *_, c in runs["default/x3", 16] for k in c}
        assert keys == {"saturated", "clamped"}
        same = dict(results([]), runs=runs)
        assert fidelity_diff.report(same, same)
        rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:5]]
        assert rows == [["default", "4"], ["default/loaded", "4"], ["default/sweep", "4"],
                        ["default/x3", "16"]]

    def test_sweep_row_runs_each_input_through_every_step(self, default_block,
                                                          monkeypatch):
        from spikeconvert import model

        calls = []

        def recorded(blk, x, T):
            calls.append((blk, x, T))
            return spike_forward(blk, x, T)

        monkeypatch.setattr(model, "spike_forward", recorded)
        rng = np.random.default_rng(1)
        xs = [sample_distribution("normal", 8, 32, rng) for _ in range(2)]
        runs = fidelity_diff.block_runs("default", default_block, default_block, xs,
                                        (4, 16))
        # input outer, T inner, on the converted block
        assert calls[-4:] == [(default_block, x, T) for x in xs for T in (4, 16)]
        # each run equals the row that runs T outer, byte for byte
        for T in (4, 16):
            for (out, err, ledger, counters), (want, want_err, want_ledger,
                                               want_counters) in zip(
                    runs["default/sweep", T], runs["default", T], strict=True):
                assert out.tobytes() == want.tobytes() and err == want_err
                assert ledger == want_ledger and counters == want_counters
