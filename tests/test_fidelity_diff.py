"""tools/fidelity_diff.py: the comparison it prints from two checkouts' runs."""
import importlib.util
import pathlib

import numpy as np

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


def results(runs, block=b"{}"):
    return {"runs": {("default", 4): runs}, "files": {"default.json": block}}


class TestCompare:
    def test_identical_runs(self):
        runs = [run([1.0, -2.0]), run([0.5, 4.0])]
        c = fidelity_diff.compare_runs(runs, runs)
        assert c == {"out": 0.0, "rel_err": 0.0, "ledgers": True, "counters": True,
                     "layers": True, "clamps": True}

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
