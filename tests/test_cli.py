"""Command-line contract: exit codes, determinism, report shapes.

Everything drives cli.main() in process with a tiny 8-feature block, so the
whole file stays fast while covering every subcommand and failure class.
"""
import json
import shutil

import numpy as np
import pytest

from spikeconvert.cli import _run_report, main
from spikeconvert.model import (
    ConvertedBlock,
    ModelConfig,
    WeightSet,
    load_block,
    load_config,
    load_weights,
    save_block,
    save_config,
    save_weights,
    spike_forward,
)
from spikeconvert.neurons import FSParams, HGConfig
from spikeconvert.tensors import Matrix

TINY = dict(d_model=8, n_heads=2, d_ff=16, seq_len=4, T=8, H=3,
            N_per_nonlinearity=8, samples_per_range=128,
            seeds={"weights": 5, "calibration": 6, "input": 7})


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Config, weights, input, converted block, and a run report on disk."""
    d = tmp_path_factory.mktemp("cli")
    cfg = ModelConfig(**TINY)
    save_config(cfg, str(d / "config.json"))
    save_weights(WeightSet.random(cfg, 5), str(d / "weights.lasw"))
    x = Matrix(np.random.default_rng(7).standard_normal((4, 8)))
    save_weights(WeightSet({"input": x}), str(d / "input.lasw"))
    assert main(["convert", "--config", str(d / "config.json"),
                 "--weights", str(d / "weights.lasw"),
                 "--out", str(d / "block.json")]) == 0
    assert main(["run", "--block", str(d / "block.json"),
                 "--input", str(d / "input.lasw"),
                 "--report", str(d / "report.json")]) == 0
    return d


@pytest.fixture(scope="module")
def default_work(tmp_path_factory):
    """The default-config block, input and weights, written by init and convert."""
    d = tmp_path_factory.mktemp("cli_default")
    assert main(["init", "--config-out", str(d / "config.json"),
                 "--weights-out", str(d / "weights.lasw"),
                 "--input-out", str(d / "input.lasw")]) == 0
    assert main(["convert", "--config", str(d / "config.json"),
                 "--weights", str(d / "weights.lasw"),
                 "--out", str(d / "block.json")]) == 0
    return d


DROP = object()


def _run_edited_block(work, tmp_path, path, value):
    """Run a copy of work's block with the node at path set to value, or
    deleted when value is DROP; returns the exit code."""
    with open(work / "block.json") as fh:
        doc = json.load(fh)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    bp = tmp_path / "edited_block.json"
    bp.write_text(json.dumps(doc))
    shutil.copy(work / doc["weights_file"], tmp_path)
    return main(["run", "--block", str(bp), "--input", str(work / "input.lasw")])


class TestParsing:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestCalibrate:
    def test_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "gelu.json")
        code = main(["calibrate", "--target", "gelu", "--levels", "4",
                     "--steps", "8", "--samples", "256", "--range", "-3", "3",
                     "--out", out])
        assert code == 0
        assert "fitted gelu" in capsys.readouterr().out
        with open(out) as fh:
            doc = json.load(fh)
        assert set(doc) == {"hg", "report"}
        assert doc["report"]["target"] == "gelu"
        bounds = doc["hg"]["boundaries"]
        assert bounds[0] == -3.0 and bounds[-1] == 3.0
        errs = doc["report"]["per_subrange_max_abs_err"]
        assert len(errs) == len(doc["hg"]["subneurons"]) == 4
        assert 0 < max(errs) < 1.0

    def test_unknown_target(self, tmp_path, capsys):
        assert main(["calibrate", "--target", "sinh",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_too_few_samples(self, tmp_path, capsys):
        code = main(["calibrate", "--target", "exp", "--samples", "32",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--samples" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        flags = ["calibrate", "--target", "exp", "--levels", "4",
                 "--steps", "8", "--samples", "128", "--range", "-2", "1"]
        assert main(flags + ["--out", a]) == 0
        assert main(flags + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        base = ["calibrate", "--target", "exp", "--levels", "4", "--steps",
                "8", "--samples", "128", "--range", "-2", "1"]
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        c = str(tmp_path / "c.json")
        monkeypatch.setenv("LAS_SEED", "123")
        assert main(base + ["--seed", "1", "--out", a]) == 0
        assert main(base + ["--seed", "2", "--out", b]) == 0
        monkeypatch.delenv("LAS_SEED")
        assert main(base + ["--seed", "1", "--out", c]) == 0
        # the env seed beats both flag seeds; without it the flag matters
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a, "rb").read() != open(c, "rb").read()

    def test_bad_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAS_SEED", "xyz")
        assert main(["calibrate", "--target", "exp",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_negative_seed_flag_named(self, tmp_path, capsys):
        assert main(["calibrate", "--target", "exp", "--seed", "-1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert ("argument --seed: must be a nonnegative integer, got '-1'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("lo, hi", [("0", "inf"), ("1e999", "2"),
                                        ("nan", "1"), ("1", "1"), ("2", "-2")])
    def test_bad_range_named(self, tmp_path, capsys, lo, hi):
        assert main(["calibrate", "--target", "exp", "--range", lo, hi,
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "--range needs finite LO < HI" in err and "Warning" not in err


class TestConvert:
    def test_block_is_complete(self, work, capsys):
        block = load_block(str(work / "block.json"))
        block.check_complete()

    def test_prints_summary(self, work, tmp_path, capsys):
        code = main(["convert", "--config", str(work / "config.json"),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "b2.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "converted 1-layer block" in out
        assert "10 encoder sites" in out and "7 gate sites" in out

    def test_outlier_distribution_flag(self, work, tmp_path, capsys):
        code = main(["convert", "--config", str(work / "config.json"),
                     "--weights", str(work / "weights.lasw"),
                     "--calib-dist", "uniform_outliers",
                     "--out", str(tmp_path / "b3.json")])
        assert code == 0
        block = load_block(str(tmp_path / "b3.json"))
        oat = block.oat["input"]
        assert oat.theta_out / oat.theta_nor > 5.0

    def test_missing_weights_file(self, work, tmp_path, capsys):
        assert main(["convert", "--config", str(work / "config.json"),
                     "--weights", str(tmp_path / "nope.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_negative_config_seed_named(self, work, tmp_path, capsys):
        with open(work / "config.json") as fh:
            doc = json.load(fh)
        doc["seeds"]["calibration"] = -6
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(doc))
        assert main(["convert", "--config", str(bad),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert ("seeds['calibration'] must be nonnegative, got -6"
                in capsys.readouterr().err)

    def test_level_count_beyond_bound_named(self, work, tmp_path, capsys):
        with open(work / "config.json") as fh:
            doc = json.load(fh)
        doc["H"] = 2000
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(doc))
        assert main(["convert", "--config", str(bad),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "H must be at most 1024, got 2000" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("d_model", "32"), ("n_layers", True)])
    def test_wrongly_typed_config_field(self, work, tmp_path, capsys, field, value):
        with open(work / "config.json") as fh:
            doc = json.load(fh)
        doc[field] = value
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(doc))
        assert main(["convert", "--config", str(bad),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert field in capsys.readouterr().err


class TestRun:
    def test_report_contents(self, work):
        with open(work / "report.json") as fh:
            rep = json.load(fh)
        assert set(rep) == {"tool_version", "config", "seed", "steps",
                            "output_rel_err", "per_layer", "counters",
                            "ledger", "calibration"}
        assert rep["steps"] == 8
        assert rep["output_rel_err"] < 0.15
        assert rep["ledger"]["sops"] > 0 and rep["ledger"]["flops"] > 0
        assert rep["calibration"]["layers.0.ffn.act"]["target"] == "gelu"

    def test_report_copies_the_trace(self, work):
        block = load_block(str(work / "block.json"))
        _, trace = spike_forward(block, load_weights(str(work / "input.lasw"))["input"])
        want = trace.to_dict()
        rep = _run_report(block, trace)
        assert {key: rep[key] for key in want} == want
        with open(work / "report.json") as fh:
            on_disk = json.load(fh)
        assert {key: on_disk[key] for key in want} == json.loads(json.dumps(want))

    def test_stdout_line(self, work, capsys):
        assert main(["run", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw")]) == 0
        out = capsys.readouterr().out
        assert "output_rel_err=" in out and "sops=" in out

    def test_reports_are_byte_identical(self, work, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        flags = ["run", "--block", str(work / "block.json"),
                 "--input", str(work / "input.lasw")]
        assert main(flags + ["--report", a]) == 0
        assert main(flags + ["--report", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_steps_flag(self, work, tmp_path, capsys):
        rp = str(tmp_path / "r2.json")
        assert main(["run", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw"),
                     "--steps", "2", "--report", rp]) == 0
        with open(rp) as fh:
            assert json.load(fh)["steps"] == 2

    def test_steps_beyond_exact_range_named(self, work, capsys):
        # H=3: (2H-1) * 2^T stays below 2^53 only up to T=50
        assert main(["run", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw"), "--steps", "51"]) == 2
        assert "2^53, so T <= 50" in capsys.readouterr().err

    def test_missing_block(self, work, capsys):
        assert main(["run", "--block", str(work / "gone.json"),
                     "--input", str(work / "input.lasw")]) == 2

    def test_input_tensor_name_checked(self, work, tmp_path, capsys):
        bad = str(tmp_path / "bad_input.lasw")
        save_weights(WeightSet({"x": Matrix(np.ones((4, 8)))}), bad)
        code = main(["run", "--block", str(work / "block.json"),
                     "--input", bad])
        assert code == 2
        assert "input" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_spike_path_exits_3(self, work, tmp_path, capsys):
        block = load_block(str(work / "block.json"))
        site = "layers.0.attn.exp"
        old = block.hg[site]
        poisoned = HGConfig(old.boundaries, tuple(
            FSParams(theta=p.theta, h=p.h, d=tuple(1e308 for _ in p.d))
            for p in old.subneurons))
        hg = dict(block.hg)
        hg[site] = poisoned
        bad = ConvertedBlock(block.config, block.weights, block.oat, hg,
                             block.reports)
        bp = str(tmp_path / "bad.json")
        save_block(bad, bp)
        code = main(["run", "--block", bp,
                     "--input", str(work / "input.lasw")])
        assert code == 3
        assert "spike path" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_into_encoder_exits_3_naming_sublayer(self, work, tmp_path,
                                                            capsys):
        # the overflow surfaces where the decoded train re-enters an encoder,
        # still blamed on the sublayer that produced it
        block = load_block(str(work / "block.json"))
        site = "layers.0.ln1.invsqrt"
        old = block.hg[site]
        hg = dict(block.hg)
        hg[site] = HGConfig(old.boundaries, tuple(
            FSParams(p.theta, p.h, (1e308,) * p.steps)
            for p in old.subneurons))
        bp = str(tmp_path / "overflow.json")
        save_block(ConvertedBlock(block.config, block.weights, block.oat, hg,
                                  block.reports), bp)
        code = main(["run", "--block", bp, "--input", str(work / "input.lasw")])
        assert code == 3
        assert "spike path: layers.0.attn" in capsys.readouterr().err

    def test_nan_gate_weight_rejected_on_load(self, work, tmp_path, capsys):
        # a corrupt block file is an input error (2), not a spike-path one (3)
        path = ("hg", "layers.0.ffn.act", "subneurons", 0, "d", 0)
        assert _run_edited_block(work, tmp_path, path, float("nan")) == 2
        assert "finite" in capsys.readouterr().err

    def test_block_that_is_not_an_object(self, work, tmp_path, capsys):
        bp = tmp_path / "list_block.json"
        bp.write_text("[]")
        code = main(["run", "--block", str(bp), "--input", str(work / "input.lasw")])
        assert code == 2
        assert "block must be dict" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [
        (("hg", "layers.0.ffn.act", "subneurons", 0, "theta", 0), "0.5", "theta[0]"),
        (("hg", "layers.0.ffn.act", "subneurons", 0, "h", 1), "0.5", "h[1]"),
        (("hg", "layers.0.ffn.act", "subneurons", 0, "d", 0), True, "d[0]"),
        (("hg", "layers.0.ffn.act", "subneurons", 0, "d", 1), 10**400, "d[1]"),
        (("hg", "layers.0.ffn.act", "boundaries", 1), "0.5", "boundaries[1]"),
        (("oat", "input", "theta_nor"), "0.5", "theta_nor"),
        (("oat", "input", "theta_out"), [40.0], "theta_out"),
        # an encoder's H and T are read from the config
        (("config", "H"), 5.7, "H"),
        (("config", "T"), "8", "T"),
        # wrongly shaped nodes, not only leaves
        (("hg", "layers.0.ffn.act", "subneurons", 0, "theta"), 0.5, "theta"),
        (("hg", "layers.0.ffn.act", "subneurons"), "x", "subneurons"),
        (("hg", "layers.0.ffn.act", "subneurons", 0), [], "subneurons[0]"),
        (("oat", "input"), 3, "oat site 'input'"),
        (("hg", "layers.0.attn.exp"), [], "hg site 'layers.0.attn.exp'"),
        (("reports", "layers.0.ffn.act"), 1, "reports site 'layers.0.ffn.act'"),
        (("reports",), [], "reports"),
        (("config",), 5, "config"),
        # calibration reports are checked, not coerced, and must describe
        # their site's gate
        (("reports", "layers.0.ffn.act", "target"), 5,
         "reports site 'layers.0.ffn.act': target"),
        (("reports", "layers.0.ffn.act", "seed"), "6", "seed"),
        (("reports", "layers.0.ffn.act", "samples_per_range"), True,
         "samples_per_range"),
        (("hg", "layers.0.ffn.act", "boundaries"), "0.5", "boundaries"),
        (("reports", "layers.0.ffn.act", "per_subrange_max_abs_err"), [0.01],
         "reports site 'layers.0.ffn.act': per_subrange_max_abs_err"),
        (("reports", "layers.0.ffn.act", "per_subrange_max_abs_err", 0), None,
         "per_subrange_max_abs_err[0]"),
        (("reports", "layers.0.ffn.act", "samples_per_range"), 0,
         "reports site 'layers.0.ffn.act': samples_per_range"),
        # a node holds exactly its own fields: no copies left from format 1
        (("reports", "layers.0.ffn.act", "max_abs_err"), 0.1,
         "reports site 'layers.0.ffn.act'"),
        (("oat", "input", "H"), 5, "oat site 'input'"),
    ])
    def test_wrongly_typed_block_field_named(self, work, tmp_path, capsys,
                                             path, value, field):
        assert _run_edited_block(work, tmp_path, path, value) == 2
        assert f"{field} must be" in capsys.readouterr().err


    @pytest.mark.parametrize("path, value, message", [
        (("extra",), 1, "block must be an object with exactly the keys ['config', "
         "'format', 'hg', 'oat', 'reports', 'version', 'weights_file']; "
         "missing [], unknown ['extra']"),
        (("reports",), DROP, "block must be an object with exactly the keys "
         "['config', 'format', 'hg', 'oat', 'reports', 'version', 'weights_file']; "
         "missing ['reports'], unknown []"),
        (("hg", "layers.0.ffn.act", "subneurons", 0, "extra"), 1,
         "hg site 'layers.0.ffn.act': subneurons[0] must be an object with "
         "exactly the keys ['d', 'h', 'theta']; missing [], unknown ['extra']"),
        (("hg", "layers.0.attn.exp", "subneurons", 2, "d"), DROP,
         "hg site 'layers.0.attn.exp': subneurons[2] must be an object with "
         "exactly the keys ['d', 'h', 'theta']; missing ['d'], unknown []"),
    ])
    def test_unknown_or_missing_key_named(self, work, tmp_path, capsys, path,
                                          value, message):
        assert _run_edited_block(work, tmp_path, path, value) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("site", ["input", "layers.0.ffn.in"])
    def test_underflowing_grid_unit_named(self, work, tmp_path, capsys, site):
        # at T=50 the unit 1e-320 * 2^-50 / 3 is 0, and an exact zero input
        # would encode as 0/0 in a later sublayer: refused on load instead
        assert _run_edited_block(work, tmp_path, ("oat", site, "theta_nor"),
                                 1e-320) == 2
        err = capsys.readouterr().err
        assert f"oat site '{site}': theta_nor=1e-320 is too small" in err
        assert "every T <= 50, so theta_nor >= " in err

    def test_negative_report_seed_refused(self, default_work, tmp_path, capsys):
        # no fit can be reproduced from a negative seed
        site = "layers.0.ffn.act"
        assert _run_edited_block(default_work, tmp_path,
                                 ("reports", site, "seed"), -5) == 2
        assert (f"reports site '{site}': seed must be nonnegative, got -5"
                in capsys.readouterr().err)


class TestCompare:
    def test_table(self, work, capsys):
        assert main(["compare", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw")]) == 0
        out = capsys.readouterr().out
        assert "layers.0.attn_residual" in out
        assert "layers.0.ffn_residual" in out
        assert "output_rel_err" in out


class TestSweep:
    def test_csv_shape_and_direction(self, work, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw"),
                     "--steps-list", "1,4,8", "--out", out]) == 0
        printed = capsys.readouterr().out
        with open(out) as fh:
            text = fh.read()
        assert text == printed
        lines = text.strip().split("\n")
        assert lines[0] == "timestep,mean_rel_err,sops,ratio"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 4, 8]
        errs = [float(r[1]) for r in rows]
        sops = [int(r[2]) for r in rows]
        assert errs[0] >= errs[1] >= errs[2]
        assert sops[0] < sops[1] < sops[2]

    def test_empty_steps_list(self, work, capsys):
        assert main(["sweep", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw"),
                     "--steps-list", ","]) == 2

    def test_non_numeric_steps(self, work, capsys):
        assert main(["sweep", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw"),
                     "--steps-list", "4,x"]) == 2


class TestEnergy:
    def test_matches_report_ledger(self, work, capsys):
        assert main(["energy", "--report", str(work / "report.json")]) == 0
        out = capsys.readouterr().out
        with open(work / "report.json") as fh:
            led = json.load(fh)["ledger"]
        want = (led["sops"] * 0.9) / (led["flops"] * 4.6)
        got = float(out.split("ratio=")[1])
        assert got == pytest.approx(want, rel=1e-5)

    def test_report_without_flops(self, tmp_path, capsys):
        p = str(tmp_path / "empty.json")
        with open(p, "w") as fh:
            json.dump({"ledger": {"sops": 5, "flops": 0}}, fh)
        code = main(["energy", "--report", p])
        assert code == 2
        assert "FLOPs" in capsys.readouterr().err

    def test_missing_report(self, tmp_path, capsys):
        assert main(["energy", "--report", str(tmp_path / "gone.json")]) == 2

    @pytest.mark.parametrize("path, value, field", [
        ((), [], "report"),
        (("ledger",), [1], "ledger"),
        (("ledger", "by_site"), [], "by_site"),
        (("ledger", "by_site", "input"), 3, "by_site['input']"),
        (("ledger", "by_site", "input", "sops"), [1], "by_site['input'].sops"),
        (("ledger", "sop_weight"), 1.0, "sop_weight"),
    ])
    def test_malformed_report_field_named(self, work, tmp_path, capsys,
                                          path, value, field):
        with open(work / "report.json") as fh:
            doc = json.load(fh)
        if path:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            doc = value
        p = tmp_path / "bad_report.json"
        p.write_text(json.dumps(doc))
        assert main(["energy", "--report", str(p)]) == 2
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("path, field", [
        (("ledger", "sops"), "sops"),
        (("ledger", "by_site", "input", "sops"), "by_site['input'].sops"),
    ])
    def test_fractional_count_not_coerced(self, work, tmp_path, capsys,
                                          path, field):
        # int() would truncate the 0.7 away and the totals would still agree
        with open(work / "report.json") as fh:
            doc = json.load(fh)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 0.7
        p = tmp_path / "fractional_report.json"
        p.write_text(json.dumps(doc))
        assert main(["energy", "--report", str(p)]) == 2
        assert f"{field} must be Integral" in capsys.readouterr().err


class TestInit:
    def test_writes_three_files(self, tmp_path, capsys):
        c = str(tmp_path / "c.json")
        w = str(tmp_path / "w.lasw")
        i = str(tmp_path / "i.lasw")
        assert main(["init", "--config-out", c, "--weights-out", w,
                     "--input-out", i, "--seed", "31"]) == 0
        cfg = load_config(c)
        assert cfg.seeds == {"weights": 31, "calibration": 32, "input": 33}
        ws = load_weights(w)
        ws.validate(cfg)
        x = load_weights(i)["input"]
        assert x.shape == (cfg.seq_len, cfg.d_model)

    def test_gated_and_layers_flags(self, tmp_path, capsys):
        c = str(tmp_path / "c.json")
        assert main(["init", "--gated", "--layers", "2",
                     "--config-out", c,
                     "--weights-out", str(tmp_path / "w.lasw"),
                     "--input-out", str(tmp_path / "i.lasw")]) == 0
        cfg = load_config(c)
        assert cfg.ffn_kind == "gated" and cfg.n_layers == 2

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAS_SEED", "77")
        c = str(tmp_path / "c.json")
        assert main(["init", "--seed", "1", "--config-out", c,
                     "--weights-out", str(tmp_path / "w.lasw"),
                     "--input-out", str(tmp_path / "i.lasw")]) == 0
        cfg = load_config(c)
        assert cfg.seeds == {"weights": 77, "calibration": 78, "input": 79}

    def test_negative_seed_flag_named(self, tmp_path, capsys):
        assert main(["init", "--seed", "-3",
                     "--config-out", str(tmp_path / "c.json"),
                     "--weights-out", str(tmp_path / "w.lasw"),
                     "--input-out", str(tmp_path / "i.lasw")]) == 2
        assert ("argument --seed: must be a nonnegative integer, got '-3'"
                in capsys.readouterr().err)
        assert not (tmp_path / "c.json").exists()

    def test_negative_seed_env_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAS_SEED", "-4")
        assert main(["init", "--config-out", str(tmp_path / "c.json"),
                     "--weights-out", str(tmp_path / "w.lasw"),
                     "--input-out", str(tmp_path / "i.lasw")]) == 2
        assert ("LAS_SEED must be a nonnegative integer, got '-4'"
                in capsys.readouterr().err)
