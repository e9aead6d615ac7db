"""Command-line contract: exit codes, determinism, report shapes.

Everything drives cli.main() in process with a tiny 8-feature block, so the
whole file stays fast while covering every subcommand and failure class.
"""
import json
import shutil
import struct

import numpy as np
import pytest

from spikeconvert import cli
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
from spikeconvert.model import _write_lasw
from spikeconvert.neurons import HGConfig
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

# JSON files that do not parse: a syntax error, and a byte that is not UTF-8
UNREADABLE_JSON = pytest.mark.parametrize(
    "content", [b'{x: 1}', b'{"a": "\xff"}'], ids=["syntax", "not_utf8"])


def _unreadable_json_named(capsys, path) -> bool:
    return f"error: {str(path)!r} is not UTF-8 JSON" in capsys.readouterr().err


def _run_edited_block(work, tmp_path, path, value):
    """Run a copy of work's block with the node at path set to value, or
    deleted when value is DROP; returns the exit code.

    A path ("sidecar", site) edits the site's tensors in the block's LASW
    sidecar instead: value maps each tensor's leaf name (theta, d, err, ...)
    to a function of the tensor (None for a new one) or to DROP."""
    with open(work / "block.json") as fh:
        doc = json.load(fh)
    if path[0] == "sidecar":
        ws = load_weights(str(work / doc["weights_file"]))
        tensors = {name: ws[name].array for name in ws.names}
        for leaf, edit in value.items():
            name = f"{path[1]}.{leaf}"
            if edit is DROP:
                del tensors[name]
            else:
                tensors[name] = edit(tensors.get(name))
        _write_lasw(tensors, str(tmp_path / doc["weights_file"]))
    else:
        shutil.copy(work / doc["weights_file"], tmp_path)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    bp = tmp_path / "edited_block.json"
    bp.write_text(json.dumps(doc))
    return main(["run", "--block", str(bp), "--input", str(work / "input.lasw")])


def _entry(index, value):
    """A sidecar edit that sets one entry of a tensor."""
    def edit(a):
        a = a.copy()
        a[index] = value
        return a
    return edit


def _fewer_rows(a):
    return a[:-1]


def _fewer_cols(a):
    return a[:, :-1]


def _extra_col(a):
    """One more column, a copy of the last."""
    return np.hstack([a, a[:, -1:]])


def _extra_edge(b):
    """One more boundary, as far past the last as the last is past the one
    before it."""
    return np.hstack([b, 2 * b[:, -1:] - b[:, -2:-1]])


def _repeated_edge(b):
    """Boundaries whose third edge repeats the second."""
    return _entry((0, 2), b[0, 1])(b)


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
        # the bank in the sidecar's layout: boundaries and (T, N) weights
        assert set(doc["hg"]) == {"boundaries", "d"}
        assert np.shape(doc["hg"]["d"]) == (8, len(errs)) and len(errs) == 4
        assert 0 < max(errs) < 1.0

    def test_unknown_target(self, tmp_path, capsys):
        assert main(["calibrate", "--target", "sinh",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_too_few_samples(self, tmp_path, capsys):
        code = main(["calibrate", "--target", "exp", "--samples", "32",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "100000000000"), ("--samples", "1048577"),
        ("--steps", "53"), ("--steps", "60"), ("--steps", "2000"), ("--steps", "0"),
    ])
    def test_fit_size_out_of_range_named(self, tmp_path, capsys, flag, value):
        args = {"--samples": "64", "--steps": "16", flag: value}
        code = main(["calibrate", "--target", "exp", "--levels", "2",
                     "--samples", args["--samples"], "--steps", args["--steps"],
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert f"{flag} must be within" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_levels_below_one_named(self, tmp_path, capsys, levels):
        code = main(["calibrate", "--target", "exp", "--levels", levels,
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert f"--levels must be within 1..1000, got {levels}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_levels_above_bound_named(self, tmp_path, capsys):
        code = main(["calibrate", "--target", "exp", "--levels", "1001",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--levels must be within 1..1000, got 1001" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_collapsed_sub_range_count_printed(self, tmp_path, capsys):
        # quantiles of a range five floats wide coincide, so fewer sub-ranges
        # are fitted than --levels asks for, and the summary counts those
        out = tmp_path / "x.json"
        code = main(["calibrate", "--target", "exp", "--levels", "8", "--samples",
                     "64", "--range", "1", "1.000000000000001", "--out", str(out)])
        assert code == 0
        n = np.shape(json.loads(out.read_text())["hg"]["d"])[1]
        printed = capsys.readouterr()
        assert n == 5 and f"with {n} sub-ranges:" in printed.out
        # the warning is one line naming the cause, not Python's warning format
        assert printed.err == "warning: range supports only 5 distinct sub-ranges, not 8\n"

    def test_range_below_target_floor_named(self, tmp_path, capsys):
        code = main(["calibrate", "--target", "reciprocal", "--range", "-1", "1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "domain floor 0.001" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        flags = ["calibrate", "--target", "exp", "--levels", "4",
                 "--steps", "8", "--samples", "128", "--range", "-2", "1"]
        assert main(flags + ["--out", a]) == 0
        assert main(flags + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        # a gate fit takes no seed, so LAS_SEED leaves calibrate's file as it is
        base = ["calibrate", "--target", "exp", "--levels", "4", "--steps",
                "8", "--samples", "128", "--range", "-2", "1"]
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        monkeypatch.setenv("LAS_SEED", "123")
        assert main(base + ["--out", a]) == 0
        monkeypatch.delenv("LAS_SEED")
        assert main(base + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        assert "seed" not in json.loads(open(a).read())["report"]

    def test_negative_seed_flag_named(self, tmp_path, capsys):
        # calibrate has no --seed to take
        assert main(["calibrate", "--target", "exp", "--seed", "-1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("lo, hi", [("0", "inf"), ("1e999", "2"),
                                        ("nan", "1"), ("1", "1"), ("2", "-2")])
    def test_bad_range_named(self, tmp_path, capsys, lo, hi):
        assert main(["calibrate", "--target", "exp", "--range", lo, hi,
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "--range needs finite LO < HI" in err and "Warning" not in err

    @pytest.mark.parametrize("lo", ["-1e-3", "-1E-3", "-.001", "-0.001"])
    def test_negative_range_bound_in_exponent_form(self, tmp_path, capsys, lo):
        # argparse's own pattern takes -1e-3 for an option
        out = tmp_path / "x.json"
        assert main(["calibrate", "--target", "exp", "--levels", "1", "--samples", "64",
                     "--steps", "8", "--range", lo, "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["hg"]["boundaries"] == [-0.001, 1.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("levels, lo, hi, code, message", [
        # the curvature's finite difference squares to 0 here; the one range fits
        ("1", "0", "1e-300", 0, ""),
        # its four sub-ranges are too narrow for a normal guard step
        ("4", "0", "1e-300", 2, "error: fit of 'exp' failed on sub-range [0.0, "),
        # the width overflows: the whole range is named before it is sampled
        ("1", "-1.7e308", "1.7e308", 2, "error: range [-1.7e+308, 1.7e+308] does not "
         "fit at T=16: its guard step (hi - lo) * 2^-(T+8) = inf must be a finite "
         "normal float"),
    ])
    def test_range_outside_the_closed_form_named(self, tmp_path, capsys, levels, lo,
                                                 hi, code, message):
        assert main(["calibrate", "--target", "exp", "--levels", levels, "--samples",
                     "64", "--range", lo, hi, "--out", str(tmp_path / "x.json")]) == code
        err = capsys.readouterr().err
        assert message in err and "curvature" not in err
        assert (tmp_path / "x.json").exists() == (code == 0)


class TestConvert:
    def test_block_is_complete(self, work, capsys):
        block = load_block(str(work / "block.json"))
        block.check_complete()

    def test_overflowing_replay_named(self, default_work, tmp_path, capsys):
        # finite weights whose float replay of the calibration sample
        # overflows: one error line naming the site and the cause, and no
        # numpy warnings before it
        ws = load_weights(str(default_work / "weights.lasw"))
        big = {name: ws[name] for name in ws.names}
        for name in ("layers.0.attn.wq", "layers.0.attn.wk"):
            big[name] = Matrix(big[name].array * 1e160)
        save_weights(WeightSet(big), str(tmp_path / "big.lasw"))
        assert main(["convert", "--config", str(default_work / "config.json"),
                     "--weights", str(tmp_path / "big.lasw"),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert capsys.readouterr().err == (
            "error: calibration failed at site 'layers.0.attn.exp': the float "
            "replay of the calibration sample overflowed to a non-finite value\n")
        assert not (tmp_path / "b.json").exists()

    def test_prints_summary(self, work, tmp_path, capsys):
        code = main(["convert", "--config", str(work / "config.json"),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "b2.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "converted 1-layer block" in out
        assert "10 encoder sites" in out and "5 gate sites" in out

    def test_degenerate_sample_warning_is_one_line(self, work, tmp_path, capsys):
        # all-zero weights leave an encoder site's activations all zero, so
        # select_oat_thresholds nudges its outlier threshold apart
        ws = load_weights(str(work / "weights.lasw"))
        zeros = tmp_path / "zeros.lasw"
        save_weights(WeightSet({k: Matrix(np.zeros_like(ws[k].array)) for k in ws.names}),
                     str(zeros))
        code = main(["convert", "--config", str(work / "config.json"),
                     "--weights", str(zeros), "--out", str(tmp_path / "z.json")])
        assert code == 0
        err = capsys.readouterr().err
        assert err.splitlines() == ["warning: degenerate activation sample: outlier "
                                    "threshold adjusted above the normal threshold"]

    def test_outlier_distribution_flag(self, work, tmp_path, capsys):
        # the calibration sample follows the config's calib_distribution
        with open(work / "config.json") as fh:
            doc = json.load(fh)
        doc["calib_distribution"] = "uniform_outliers"
        cfg = tmp_path / "outlier_config.json"
        cfg.write_text(json.dumps(doc))
        code = main(["convert", "--config", str(cfg),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "b3.json")])
        assert code == 0
        block = load_block(str(tmp_path / "b3.json"))
        oat = block.oat["input"]
        assert oat.theta_out / oat.theta_nor > 5.0

    def test_unknown_calib_distribution_named(self, work, tmp_path, capsys):
        with open(work / "config.json") as fh:
            doc = json.load(fh)
        doc["calib_distribution"] = "bogus"
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(doc))
        assert main(["convert", "--config", str(bad),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert ("calib_distribution must be one of ('normal', 'uniform', "
                "'normal_outliers', 'uniform_outliers'), got 'bogus'"
                in capsys.readouterr().err)

    def test_seed_env_ignored(self, default_work, tmp_path, capsys, monkeypatch):
        # the config's seeds are the only seeds: LAS_SEED, which once
        # overrode them, changes no byte of the block default_work converted
        monkeypatch.setenv("LAS_SEED", "5")
        assert main(["convert", "--config", str(default_work / "config.json"),
                     "--weights", str(default_work / "weights.lasw"),
                     "--out", str(tmp_path / "block.json")]) == 0
        for name in ("block.json", "block.lasw"):
            assert (tmp_path / name).read_bytes() == (default_work / name).read_bytes()

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

    @pytest.mark.parametrize("doc", [5, None, [], "x"])
    def test_config_that_is_not_an_object(self, work, tmp_path, capsys, doc):
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(doc))
        assert main(["convert", "--config", str(bad),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert f"config must be dict, got {doc!r}" in capsys.readouterr().err

    @UNREADABLE_JSON
    def test_unreadable_config_named(self, work, tmp_path, capsys, content):
        bad = tmp_path / "bad_config.json"
        bad.write_bytes(content)
        assert main(["convert", "--config", str(bad),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert _unreadable_json_named(capsys, bad)

    def test_extra_seed_named(self, work, tmp_path, capsys):
        with open(work / "config.json") as fh:
            doc = json.load(fh)
        doc["seeds"]["extra"] = "x"
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(doc))
        assert main(["convert", "--config", str(bad),
                     "--weights", str(work / "weights.lasw"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert ("seeds must be an object with exactly the keys ['calibration', "
                "'input', 'weights']; missing [], unknown ['extra']"
                in capsys.readouterr().err)

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
        # the seeds once, in the config echo
        assert set(rep) == {"tool_version", "config", "steps",
                            "output_rel_err", "per_layer", "counters",
                            "ledger", "calibration"}
        assert rep["config"]["seeds"] == TINY["seeds"]
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
        # H=3: a decoded grid value re-encodes exactly only up to T=25
        assert main(["run", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw"), "--steps", "26"]) == 2
        assert "2^-53 <= 1e-06 grid units, so T <= 25" in capsys.readouterr().err

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
        poisoned = HGConfig(old.boundaries, np.full_like(old.d, 1e308))
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
        hg[site] = HGConfig(old.boundaries, np.full_like(old.d, 1e308))
        bp = str(tmp_path / "overflow.json")
        save_block(ConvertedBlock(block.config, block.weights, block.oat, hg,
                                  block.reports), bp)
        code = main(["run", "--block", bp, "--input", str(work / "input.lasw")])
        assert code == 3
        assert "spike path: layers.0.attn" in capsys.readouterr().err

    def test_nan_gate_weight_rejected_on_load(self, work, tmp_path, capsys):
        # a corrupt block file is an input error (2), not a spike-path one (3)
        path = ("sidecar", "layers.0.ffn.act")
        assert _run_edited_block(work, tmp_path, path, {"d": _entry((0, 0), np.nan)}) == 2
        assert ("block.lasw': tensor 'layers.0.ffn.act.d' must be finite, got nan "
                "at (0, 0)" in capsys.readouterr().err)

    def test_non_finite_input_named(self, work, tmp_path, capsys):
        bad = str(tmp_path / "nan_input.lasw")
        _write_lasw({"input": np.where(np.eye(4, 8) > 0, np.nan, 0.0)}, bad)
        assert main(["run", "--block", str(work / "block.json"), "--input", bad]) == 2
        assert (f"{bad!r}: tensor 'input' must be finite, got nan at (0, 0)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fault, message", [
        ("magic", "bad magic: expected b'LASW', found b'{\\n  '"),
        ("version", "unsupported weight version: expected 1, found 9"),
        ("duplicate", "duplicate tensor name 'input'"),
        ("trailing", "2 trailing bytes after the last tensor"),
        ("name", "tensor name at offset 16 is not UTF-8"),
    ])
    def test_malformed_input_file_named(self, work, tmp_path, capsys, fault,
                                        message):
        data = bytearray((work / "input.lasw").read_bytes())
        if fault == "magic":  # a JSON file passed where the input belongs
            data = (work / "config.json").read_bytes()
        elif fault == "version":
            data[4:8] = struct.pack("<I", 9)
        elif fault == "duplicate":
            data[8:12] = struct.pack("<I", 2)  # the one tensor, twice
            data += data[12:]
        elif fault == "name":
            data[16] = 0xFF  # the first byte of the tensor name
        else:
            data += b"xx"
        bad = str(tmp_path / "bad_input.lasw")
        with open(bad, "wb") as fh:
            fh.write(data)
        assert main(["run", "--block", str(work / "block.json"), "--input", bad]) == 2
        assert f"error: {bad!r}: {message}" in capsys.readouterr().err

    def test_version_2_block_refused(self, work, tmp_path, capsys):
        # format 2 kept the gate banks in the JSON; the sidecar lacks them
        assert _run_edited_block(work, tmp_path, ("version",), 2) == 2
        assert ("unsupported block version: expected 8, found 2; reconvert the "
                "block with `spikeconvert convert`" in capsys.readouterr().err)

    def test_version_4_block_refused(self, work, tmp_path, capsys):
        # format 4 also stored each gate's thresholds and resets, which its
        # boundaries and T now fix
        doc = json.loads((work / "block.json").read_text())
        ws = load_weights(str(work / doc["weights_file"]))
        tensors = {name: ws[name].array for name in ws.names}
        for site in [n[:-len(".d")] for n in ws.names if n.endswith(".d")]:
            tensors[site + ".theta"] = tensors[site + ".h"] = tensors[site + ".d"]
        _write_lasw(tensors, str(tmp_path / doc["weights_file"]))
        bp = tmp_path / "v4.json"
        bp.write_text(json.dumps(dict(doc, version=4)))
        assert main(["run", "--block", str(bp), "--input", str(work / "input.lasw")]) == 2
        assert ("unsupported block version: expected 8, found 4; reconvert the "
                "block with `spikeconvert convert`" in capsys.readouterr().err)

    def test_version_5_block_refused(self, work, tmp_path, capsys):
        # format 5 kept the encoder thresholds and the reports in the JSON,
        # and the sidecar only the weights and each gate's boundaries and d
        doc = json.loads((work / "block.json").read_text())
        block = load_block(str(work / "block.json"))
        ws = load_weights(str(work / doc["weights_file"]))
        _write_lasw({name: ws[name].array for name in ws.names
                     if not name.endswith((".theta", ".err"))},
                    str(tmp_path / doc["weights_file"]))
        doc |= {"version": 5,
                "oat": {site: {"theta_nor": c.theta_nor, "theta_out": c.theta_out}
                        for site, c in block.oat.items()},
                "reports": {site: {"per_subrange_max_abs_err":
                                   list(r.per_subrange_max_abs_err)}
                            for site, r in block.reports.items()}}
        bp = tmp_path / "v5.json"
        bp.write_text(json.dumps(doc))
        assert main(["run", "--block", str(bp), "--input", str(work / "input.lasw")]) == 2
        assert ("unsupported block version: expected 8, found 5; reconvert the "
                "block with `spikeconvert convert`" in capsys.readouterr().err)

    def test_version_6_block_refused(self, work, tmp_path, capsys):
        # format 6 carried sop_bits in the config; its sidecar is today's
        doc = json.loads((work / "block.json").read_text())
        doc["config"]["sop_bits"] = False
        shutil.copy(work / doc["weights_file"], tmp_path)
        bp = tmp_path / "v6.json"
        bp.write_text(json.dumps(dict(doc, version=6)))
        assert main(["run", "--block", str(bp), "--input", str(work / "input.lasw")]) == 2
        assert ("unsupported block version: expected 8, found 6; reconvert the "
                "block with `spikeconvert convert`" in capsys.readouterr().err)

    def test_version_7_block_refused(self, work, tmp_path, capsys):
        # format 7 carried normal_quantile in the config; its sidecar is today's
        doc = json.loads((work / "block.json").read_text())
        doc["config"]["normal_quantile"] = 0.99
        shutil.copy(work / doc["weights_file"], tmp_path)
        bp = tmp_path / "v7.json"
        bp.write_text(json.dumps(dict(doc, version=7)))
        assert main(["run", "--block", str(bp), "--input", str(work / "input.lasw")]) == 2
        assert capsys.readouterr().err == (
            "error: unsupported block version: expected 8, found 7; reconvert the "
            "block with `spikeconvert convert`\n")

    @UNREADABLE_JSON
    def test_unreadable_block_named(self, work, tmp_path, capsys, content):
        bp = tmp_path / "bad_block.json"
        bp.write_bytes(content)
        code = main(["run", "--block", str(bp), "--input", str(work / "input.lasw")])
        assert code == 2
        assert _unreadable_json_named(capsys, bp)

    def test_block_that_is_not_an_object(self, work, tmp_path, capsys):
        bp = tmp_path / "list_block.json"
        bp.write_text("[]")
        code = main(["run", "--block", str(bp), "--input", str(work / "input.lasw")])
        assert code == 2
        assert "block must be dict" in capsys.readouterr().err

    # every number lives in the sidecar: ("sidecar", site) cases edit its
    # tensors, and the message names the site and the tensor
    @pytest.mark.parametrize("path, value, field", [
        (("sidecar", "layers.0.ffn.act"), {"boundaries": _entry((0, 1), np.inf)},
         "tensor 'layers.0.ffn.act.boundaries'"),
        (("sidecar", "layers.0.ffn.act"), {"d": _fewer_rows},
         "hg site 'layers.0.ffn.act': d"),
        # boundaries must have one more column than d
        (("sidecar", "layers.0.ffn.act"), {"d": _fewer_cols},
         "hg site 'layers.0.ffn.act': boundaries"),
        # more steps than the gate's closed form takes
        (("sidecar", "layers.0.ffn.act"), {"d": lambda d: np.zeros((53, d.shape[1]))},
         "hg site 'layers.0.ffn.act': T, d's row count,"),
        (("sidecar", "layers.0.attn.exp"),
         {"boundaries": _repeated_edge},
         "hg site 'layers.0.attn.exp': boundaries"),
        # an encoder's thresholds are one (1, 2) row, [theta_nor, theta_out]
        (("sidecar", "input"), {"theta": lambda t: t.T}, "encoder site 'input': theta"),
        (("sidecar", "input"), {"theta": _entry((0, 1), np.inf)}, "tensor 'input.theta'"),
        # an encoder's H and T are read from the config
        (("config", "H"), 5.7, "H"),
        (("config", "T"), "8", "T"),
        # wrongly shaped nodes, not only leaves
        (("sidecar", "layers.0.ffn.act"), {"boundaries": _entry((0, 1), -1e3)},
         "hg site 'layers.0.ffn.act': boundaries"),
        (("sidecar", "layers.0.ffn.act"), {"boundaries": lambda b: b.T},
         "hg site 'layers.0.ffn.act': boundaries"),
        (("sidecar", "layers.0.attn.exp"), {"boundaries": _fewer_cols},
         "hg site 'layers.0.attn.exp': boundaries"),
        (("sidecar", "layers.0.attn.q"), {"theta": _fewer_cols},
         "encoder site 'layers.0.attn.q': theta"),
        # a bank carries its step count, which must be the config's T
        (("sidecar", "layers.0.attn.exp"), {"d": _fewer_rows},
         "hg site 'layers.0.attn.exp': d"),
        # a gate's fit errors are one (1, N) row, one per sub-range of its bank
        (("sidecar", "layers.0.ffn.act"), {"err": lambda e: e.T},
         "hg site 'layers.0.ffn.act': err"),
        (("sidecar", "layers.0.ffn.act"), {"err": _fewer_cols},
         "hg site 'layers.0.ffn.act': err"),
        (("config",), 5, "config"),
        (("sidecar", "layers.0.ffn.act"), {"err": _entry((0, 0), -0.5)},
         "hg site 'layers.0.ffn.act': err: per-range errors"),
        # a config's seeds and a report's sample count are checked, not
        # coerced
        (("config", "seeds", "calibration"), "6", "seeds['calibration']"),
        (("config", "samples_per_range"), True, "samples_per_range"),
        # a bank of N-1 sub-ranges against N errors
        (("sidecar", "layers.0.ffn.act"),
         dict.fromkeys(("boundaries", "d"), _fewer_cols),
         "hg site 'layers.0.ffn.act': err"),
        (("sidecar", "layers.0.attn.exp"), {"err": lambda e: np.hstack([e, e])},
         "hg site 'layers.0.attn.exp': err"),
        (("sidecar", "layers.0.ffn.act"), {"err": _entry((0, 0), np.nan)},
         "tensor 'layers.0.ffn.act.err'"),
        (("config", "samples_per_range"), 0, "samples_per_range"),
        (("config", "N_per_nonlinearity"), 1025, "N_per_nonlinearity"),
        (("sidecar", "layers.0.ffn.in"), {"theta": lambda t: np.hstack([t, t])},
         "encoder site 'layers.0.ffn.in': theta"),
        (("config",), None, "config"),
        (("weights_file",), 5, "weights_file"),
        (("weights_file",), None, "weights_file"),
        # a bare file name in the block's own directory, never a path
        (("weights_file",), "../w.lasw", "weights_file"),
        (("weights_file",), "/tmp/w.lasw", "weights_file"),
        (("weights_file",), "sub/w.lasw", "weights_file"),
        (("weights_file",), "", "weights_file"),
        (("weights_file",), ".", "weights_file"),
        (("weights_file",), "..", "weights_file"),
        # a bank of more sub-ranges than the config's N_per_nonlinearity (8),
        # its boundaries, d and err widened to match
        (("sidecar", "layers.0.ffn.act"),
         {"boundaries": _extra_edge, "d": _extra_col, "err": _extra_col},
         "hg site 'layers.0.ffn.act': 9 sub-ranges"),
    ])
    def test_wrongly_typed_block_field_named(self, work, tmp_path, capsys,
                                             path, value, field):
        assert _run_edited_block(work, tmp_path, path, value) == 2
        assert f"{field} must be" in capsys.readouterr().err


    @pytest.mark.parametrize("path, value, message", [
        (("extra",), 1, "block must be an object with exactly the keys "
         "['config', 'format', 'version', 'weights_file']; missing [], unknown ['extra']"),
        # a `reports` or `oat` section left from format 5 is refused
        (("reports",), {}, "block must be an object with exactly the keys "
         "['config', 'format', 'version', 'weights_file']; missing [], unknown ['reports']"),
        # the sidecar holds exactly the weights, each encoder site's one tensor
        # and each gate site's three
        (("sidecar", "layers.0.ffn.act"), {"extra": lambda _: np.zeros((1, 1))},
         "does not match config: missing=[] extra=['layers.0.ffn.act.extra']"),
        (("sidecar", "layers.0.attn.exp"), {"d": DROP},
         "hg site 'layers.0.attn.exp': tensors ['layers.0.attn.exp.d'] missing from"),
        # an `hg` node left from format 2 is refused too
        (("hg",), {}, "block must be an object with exactly the keys "
         "['config', 'format', 'version', 'weights_file']; missing [], unknown ['hg']"),
        (("oat",), {}, "block must be an object with exactly the keys "
         "['config', 'format', 'version', 'weights_file']; missing [], unknown ['oat']"),
        (("sidecar", "layers.0.attn.q"), {"theta": DROP},
         "encoder site 'layers.0.attn.q': tensors ['layers.0.attn.q.theta'] missing from"),
        (("sidecar", "layers.0.ffn.act"), {"err": DROP},
         "hg site 'layers.0.ffn.act': tensors ['layers.0.ffn.act.err'] missing from"),
        (("sidecar", "input"), {"scale": lambda _: np.ones((1, 1))},
         "does not match config: missing=[] extra=['input.scale']"),
        # the config's `sop_bits` left with format 6
        (("config", "sop_bits"), True, "unknown config fields: ['sop_bits']"),
    ])
    def test_unknown_or_missing_key_named(self, work, tmp_path, capsys, path,
                                          value, message):
        assert _run_edited_block(work, tmp_path, path, value) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("site", ["input", "layers.0.ffn.in"])
    def test_underflowing_grid_unit_named(self, work, tmp_path, capsys, site):
        # at T=25 the unit 1e-320 * 2^-25 / 3 is 0, and an exact zero input
        # would encode as 0/0 in a later sublayer: refused on load instead
        assert _run_edited_block(work, tmp_path, ("sidecar", site),
                                 {"theta": _entry((0, 0), 1e-320)}) == 2
        err = capsys.readouterr().err
        assert f"encoder site '{site}': theta: theta_nor=1e-320 is too small" in err
        assert "every T <= 25, so theta_nor >= " in err

    @pytest.mark.parametrize("theta", [(40.0, 0.5), (0.5, 0.5), (-0.5, 40.0)])
    def test_unordered_thresholds_named(self, work, tmp_path, capsys, theta):
        assert _run_edited_block(work, tmp_path, ("sidecar", "layers.0.attn.k"),
                                 {"theta": lambda _: np.array([theta])}) == 2
        assert ("encoder site 'layers.0.attn.k': theta: need theta_out > theta_nor > 0"
                in capsys.readouterr().err)

    def test_negative_report_seed_refused(self, default_work, tmp_path, capsys):
        # no calibration sample can be drawn again from a negative seed
        assert _run_edited_block(default_work, tmp_path,
                                 ("config", "seeds", "calibration"), -5) == 2
        assert ("seeds['calibration'] must be nonnegative, got -5"
                in capsys.readouterr().err)


class TestCompare:
    def test_table(self, work, capsys):
        assert main(["compare", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw")]) == 0
        lines = capsys.readouterr().out.splitlines()
        # a row per sublayer, named by its key on the site tree
        assert [line.split()[0] for line in lines] == [
            "site", "layers.0.attn", "layers.0.ffn", "output_rel_err"]


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

    # int() takes all but the first two for a number: "1_6" for 16, "\u0664" for 4
    @pytest.mark.parametrize("entry", ["x", "2.5", "1_6", "\u0664", "+4", "-3"])
    def test_bad_steps_entry_is_named(self, work, capsys, entry):
        assert main(["sweep", "--block", str(work / "block.json"),
                     "--input", str(work / "input.lasw"),
                     "--steps-list", f"4,{entry}"]) == 2
        assert capsys.readouterr() == ("", f"error: --steps-list entry {entry!r} "
                                           f"is not a nonnegative integer\n")


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

    @UNREADABLE_JSON
    def test_unreadable_report_named(self, tmp_path, capsys, content):
        p = tmp_path / "bad_report.json"
        p.write_bytes(content)
        assert main(["energy", "--report", str(p)]) == 2
        assert _unreadable_json_named(capsys, p)

    def test_weighted_report_read_as_stored(self, work, tmp_path, capsys):
        # a report written with sop_weight 4 holds SOP counts already charged
        # at 4 per event; they are read as they stand, not divided back
        doc = json.loads((work / "report.json").read_text())
        led = doc["ledger"]
        for counts in [led, *led["by_site"].values()]:
            counts["sops"] *= 4
        led["sop_weight"] = 4
        p = tmp_path / "weighted_report.json"
        p.write_text(json.dumps(doc))
        assert main(["energy", "--report", str(p)]) == 0
        out = capsys.readouterr().out
        assert f"SOPs={led['sops']} FLOPs={led['flops']} " in out
        want = (led["sops"] * 0.9) / (led["flops"] * 4.6)
        assert float(out.split("ratio=")[1]) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("path, value, field", [
        ((), [], "report"),
        (("ledger",), [1], "ledger"),
        (("ledger", "by_site"), [], "by_site"),
        (("ledger", "by_site", "input"), 3, "by_site['input']"),
        (("ledger", "by_site", "input", "sops"), [1], "by_site['input'].sops"),
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

    @pytest.mark.parametrize("path, message", [
        (("ledger", "sops"), "ledger lacks the count 'sops'"),
        (("ledger", "by_site", "input", "sops"),
         "by_site['input'] lacks the count 'sops'"),
        (("ledger", "by_site", "layers.0.attn.qkv", "flops"),
         "by_site['layers.0.attn.qkv'] lacks the count 'flops'"),
    ])
    def test_missing_count_named(self, work, tmp_path, capsys, path, message):
        with open(work / "report.json") as fh:
            doc = json.load(fh)
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        p = tmp_path / "bad_report.json"
        p.write_text(json.dumps(doc))
        assert main(["energy", "--report", str(p)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("site, key", [("input", "sops"),
                                           ("layers.0.attn.qkv", "flops")])
    def test_count_past_float_precision_named(self, work, tmp_path, capsys,
                                              site, key):
        # valid JSON, and the totals agree: only the float quotient would fail
        with open(work / "report.json") as fh:
            doc = json.load(fh)
        counts = doc["ledger"]["by_site"][site]
        doc["ledger"][key] += 10**400 - counts[key]
        counts[key] = 10**400
        p = tmp_path / "huge_report.json"
        p.write_text(json.dumps(doc))
        assert main(["energy", "--report", str(p)]) == 2
        assert (f"by_site[{site!r}].{key} must be below 2**53"
                in capsys.readouterr().err)

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

    def test_seed_env_ignored(self, tmp_path, capsys, monkeypatch):
        # --seed is the only seed: LAS_SEED, which once overrode it,
        # changes no byte of the three files
        files = []
        for env in ("5", None):
            if env is None:
                monkeypatch.delenv("LAS_SEED")
            else:
                monkeypatch.setenv("LAS_SEED", env)
            d = tmp_path / str(env)
            d.mkdir()
            assert main(["init", "--seed", "1", "--config-out", str(d / "c.json"),
                         "--weights-out", str(d / "w.lasw"),
                         "--input-out", str(d / "i.lasw")]) == 0
            files.append([(d / name).read_bytes()
                          for name in ("c.json", "w.lasw", "i.lasw")])
        assert files[0] == files[1]
        assert json.loads(files[0][0])["seeds"] == {"weights": 1, "calibration": 2,
                                                    "input": 3}

    def test_negative_seed_flag_named(self, tmp_path, capsys):
        assert main(["init", "--seed", "-3",
                     "--config-out", str(tmp_path / "c.json"),
                     "--weights-out", str(tmp_path / "w.lasw"),
                     "--input-out", str(tmp_path / "i.lasw")]) == 2
        assert ("argument --seed: must be a nonnegative integer, got '-3'"
                in capsys.readouterr().err)
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("raw", ["\u0663", "3_0", "+3", " 3"])
    def test_seed_flag_takes_ascii_digits_only(self, tmp_path, capsys, raw):
        # int() and str.isdecimal take each of these for a number
        assert main(["init", "--seed", raw,
                     "--config-out", str(tmp_path / "c.json"),
                     "--weights-out", str(tmp_path / "w.lasw"),
                     "--input-out", str(tmp_path / "i.lasw")]) == 2
        assert (f"argument --seed: must be a nonnegative integer, got {raw!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "c.json").exists()
