"""Compare two checkouts' spike path on the same blocks and inputs.

Usage:
    python tools/fidelity_diff.py OLD NEW [--inputs 50]

OLD and NEW are checkout directories, each holding src/spikeconvert. Each
runs in its own subprocess with one BLAS thread. There it converts the
blocks below, saves and loads them again, fits three gates through
`spikeconvert calibrate` (gelu at T = 16, exp at T = 25 on 64 samples, and
reciprocal on [1000, 1000.5] at T = 16, where every sub-range computes its
grid's digits per point; no --seed, which older checkouts default to 7 and
newer ones do not take), and
runs spike_forward on seeded inputs at each step count, on the converted
block and on the loaded one (`<name>/loaded`):

  default  the default ModelConfig calibrated on normal data, T = 1..20
  gated    the 2-layer gated-FFN block calibrated on normal_outliers, T = 4, 16

and once more on the converted default block with every input scaled by 3,
at T = 16 (`default/x3`): there the encoders saturate and the gates clamp
on most inputs, so those paths are compared byte for byte as well. The
converted default block also runs inputs of 32 rows at T = 16
(`default/rows32`), as many as the other rows and drawn from a seed of
their own: there the softmax offset takes the row maximum its wide branch
computes, past 16 columns, and the gates meet rows beyond the calibrated
eight. Those rows run each T over all inputs in turn, so no call repeats
the input of the call before it. The `<name>/sweep` rows run the converted
block the other way round, each input through all of the block's step
counts in turn, as a sweep over T does: a call there repeats the previous
input at the next T, where spike_forward reuses that input's float oracle.

For every block and T the report gives the largest relative output
difference, max|out_new - out_old| / max|out_old| over the inputs; the
largest relative difference of output_rel_err; the mean output_rel_err (to
6 significant digits), the total gate clamp count and the total encoder
saturation count, each as old -> new, so a numerics change shows which way
it moved; whether every output is equal byte for byte (`bytes`), which a
flipped signed zero breaks though it reads 0 in the relative difference;
whether the ledgers' counts (SOP and FLOP totals and per-site counts, not
the energy constants or other keys a ledger's dict carries) and the counters
(gate clamps and encoder saturations) are equal;
and whether the SOP/FLOP totals and the gate clamp totals of each layer
(`input`, `layers.<i>`) are equal. Then it says
whether the saved block files and the calibrate outputs are byte-identical,
and whether the loaded blocks are equal bit for bit: each gate bank's
boundaries and (T, N) step weights d, which fix its schedule and which
every checkout since block format 3 holds, each encoder's thresholds, and
each gate's calibration report by its per-sub-range errors, the one field
every checkout's report has (a report's target is its site's, and its
sample count the config's). A block that differs is listed with the kinds
of numbers that differ (`hg.d`, `report.err`, ...), and each block's worst
gate fit error is given as old -> new.
The exit status is 0 when the per-layer totals and the files all match,
and 1 otherwise, so a site renamed within its layer shows in the
ledgers and counters columns without reading as a numerics change, and a
block file laid out anew, with "loaded blocks equal", is told apart from
one whose numbers moved. The bytes and saturated columns are reported but
do not decide it, so a checkout that adds a kind of counter shows in the
counters column without reading as a numerics change either.

Last it gives the minor page faults of each block's convert in its
checkout's worker, as old -> new, from resource.getrusage around the one
convert call: a count that shows when a convert maps its fits' work arrays
anew, where CPU seconds of one run each side swing twofold on identical
converts. It is reported for information and does not decide the exit
status.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import pickle
import resource
import subprocess
import sys
import tempfile

import numpy as np

BLOCKS = {
    # name: (ModelConfig fields, input distribution, step counts)
    "default": ({}, "normal", tuple(range(1, 21))),
    "gated": ({"ffn_kind": "gated", "n_layers": 2,
               "calib_distribution": "normal_outliers"},
              "normal_outliers", (4, 16)),
}
CALIBRATE = {
    # output file: `spikeconvert calibrate` flags. At T = 25 on 640 validation
    # points a fit's closed-form decode takes some steps past its sum table.
    "calibrate.json": ["calibrate", "--target", "gelu", "--levels", "8",
                       "--steps", "16", "--samples", "4096"],
    "calibrate_t25.json": ["calibrate", "--target", "exp", "--levels", "8",
                           "--steps", "25", "--samples", "64"],
    # A range far from 0 for its width: every sub-range's rounding bound is
    # past the grid's, so each computes its digits per point, while the rows
    # above and the blocks read them from the shared table.
    "calibrate_far.json": ["calibrate", "--target", "reciprocal", "--range", "1000",
                           "1000.5", "--levels", "8", "--steps", "16",
                           "--samples", "4096"],
}
# block name: (input scale, step count) of each scaled row, `<name>/x<scale>`
SCALED = {"default": ((3, 16),)}
# block name: (rows, step count) of its wide row, `<name>/rows<rows>`
WIDE = {"default": (32, 16)}
INPUT_SEED = 4242
WIDE_SEED = 4343


def block_numbers(block) -> dict:
    """A block's fitted numbers as float64 arrays: each gate bank's
    boundaries and step weights d, each encoder's thresholds, and each
    gate's report, by its per-sub-range errors."""
    numbers = {}
    for site, c in block.hg.items():
        for name in ("boundaries", "d"):
            numbers["hg", site, name] = np.array(getattr(c, name), dtype=np.float64)
    for site, c in block.oat.items():
        numbers["oat", site] = np.array([c.theta_nor, c.theta_out])
    for site, r in block.reports.items():
        numbers["report", site, "err"] = np.array(r.per_subrange_max_abs_err,
                                                  dtype=np.float64)
    return numbers


def differing_kinds(old: dict, new: dict) -> list[str]:
    """The kinds of block numbers that differ, each a key less its site
    (`hg.boundaries`, `hg.d`, `oat`, `report.err`, ...): a key on one side
    only, or unequal dtypes, shapes or bits (so 0.0 and -0.0 differ)."""
    return sorted({".".join((k[0],) + k[2:]) for k in old.keys() | new.keys()
                   if k not in old or k not in new or old[k].dtype != new[k].dtype
                   or old[k].shape != new[k].shape
                   or old[k].tobytes() != new[k].tobytes()})


def worst_gate_err(numbers: dict) -> float:
    """The largest per-sub-range fit error over a block's gate reports."""
    return max(float(v.max()) for k, v in numbers.items()
               if k[0] == "report" and k[-1] == "err")


def run_checkout(n_inputs: int, tmp: str) -> dict:
    """What one checkout produces: files, loaded block numbers and
    per-(block, T) run results.

    Runs inside the worker process, with the checkout's src first on the path.
    """
    from spikeconvert import cli, model
    from spikeconvert.calibration import sample_distribution

    result: dict = {"files": {}, "loaded": {}, "runs": {}, "cost": {}}
    for index, (name, (fields, dist, steps)) in enumerate(BLOCKS.items()):
        cfg = model.ModelConfig(**fields)
        w = model.WeightSet.random(cfg, int(cfg.seeds["weights"]))
        rng = np.random.default_rng(int(cfg.seeds["calibration"]))
        sample = sample_distribution(cfg.calib_distribution, cfg.seq_len * 32,
                                     cfg.d_model, rng)
        before = resource.getrusage(resource.RUSAGE_SELF)
        block = model.convert(cfg, w, sample)
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["cost"][name] = convert_cost(before, after)
        path = os.path.join(tmp, f"{name}.json")
        model.save_block(block, path)
        for ext in (".json", ".lasw"):
            with open(os.path.splitext(path)[0] + ext, "rb") as fh:
                result["files"][name + ext] = fh.read()
        loaded = model.load_block(path)
        result["loaded"][name] = block_numbers(loaded)
        xs, wide = block_inputs(name, index, cfg, dist, n_inputs)
        result["runs"].update(block_runs(name, block, loaded, xs, steps, wide))
    for name, flags in CALIBRATE.items():
        path = os.path.join(tmp, name)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(flags + ["--out", path]) != 0:
                raise RuntimeError(f"calibrate failed: {' '.join(flags)}")
        with open(path, "rb") as fh:
            result["files"][name] = fh.read()
    return result


def block_inputs(name: str, index: int, cfg, dist: str, n_inputs: int):
    """The block's inputs of seq_len rows, drawn from INPUT_SEED, and its
    wide inputs of WIDE's rows, if WIDE names the block, drawn from
    WIDE_SEED; so the wide row moves no other row's inputs."""
    from spikeconvert.calibration import sample_distribution

    rng = np.random.default_rng([INPUT_SEED, index])
    xs = [sample_distribution(dist, cfg.seq_len, cfg.d_model, rng)
          for _ in range(n_inputs)]
    if name not in WIDE:
        return xs, []
    rng = np.random.default_rng([WIDE_SEED, index])
    return xs, [sample_distribution(dist, WIDE[name][0], cfg.d_model, rng)
                for _ in range(n_inputs)]


def block_runs(name: str, block, loaded, xs: list, steps: tuple,
               wide: list = ()) -> dict:
    """(row, T) -> one (output, output_rel_err, ledger, counters) per input:
    the converted block and the loaded one at each T, the converted block
    on the scaled inputs of each SCALED row of name and on the wide inputs
    at WIDE's step count, and the converted block's sweep row, input outer
    and T inner."""
    from spikeconvert import model
    from spikeconvert.tensors import Matrix

    rows = [(name, block, xs, T) for T in steps]
    rows += [(name + "/loaded", loaded, xs, T) for T in steps]
    rows += [(f"{name}/x{scale}", block, [Matrix(x.array * scale) for x in xs], T)
             for scale, T in SCALED.get(name, ())]
    if wide:
        rows.append((f"{name}/rows{wide[0].rows}", block, wide, WIDE[name][1]))
    calls = [(key, blk, x, T) for key, blk, inputs, T in rows for x in inputs]
    calls += [(name + "/sweep", block, x, T) for x in xs for T in steps]
    runs: dict = {}
    for key, blk, x, T in calls:
        out, trace = model.spike_forward(blk, x, T=T)
        runs.setdefault((key, T), []).append(
            (out.array.copy(), trace.output_rel_err, trace.ledger.to_dict(),
             dict(trace.ledger.counters)))
    return runs


def convert_cost(before, after) -> int:
    """The minor page faults between two getrusage readings."""
    return after.ru_minflt - before.ru_minflt


def collect(checkout: str, n_inputs: int, tmp: str) -> dict:
    """Run one checkout in a subprocess and load what it produced."""
    out = os.path.join(tmp, "result.pkl")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", out,
                    "--inputs", str(n_inputs)], env=env, cwd=tmp, check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def layer_of(site: str) -> str:
    """The layer a ledger or counter site lies in: `input` or `layers.<i>`."""
    parts = site.split(".")
    return ".".join(parts[:2]) if parts[0] == "layers" else parts[0]


def layer_totals(ledger: dict, counters: dict) -> tuple[dict, dict]:
    """(SOPs, FLOPs) and gate clamps, each summed per layer."""
    costs: dict = {}
    clamps: dict = {}
    for site, counts in ledger["by_site"].items():
        sops, flops = costs.get(layer_of(site), (0, 0))
        costs[layer_of(site)] = (sops + counts["sops"], flops + counts["flops"])
    for key, n in counters.items():
        if key.endswith(".clamped"):
            clamps[layer_of(key)] = clamps.get(layer_of(key), 0) + n
    return costs, clamps


def ledger_counts(ledger: dict) -> tuple:
    """A ledger dict's SOP and FLOP totals and its per-site counts."""
    return ledger["sops"], ledger["flops"], ledger["by_site"]


def compare_runs(old: list, new: list) -> dict:
    """Largest relative differences and equality flags over paired runs."""
    out_diff = err_diff = 0.0
    same_bytes = ledgers = counters = layers = clamps = True
    for (o_out, o_err, o_led, o_cnt), (n_out, n_err, n_led, n_cnt) in zip(old, new):
        scale = np.abs(o_out).max()
        out_diff = max(out_diff, float(np.abs(n_out - o_out).max() / scale))
        same_bytes &= o_out.shape == n_out.shape and o_out.tobytes() == n_out.tobytes()
        err_diff = max(err_diff, abs(n_err - o_err) / max(abs(o_err), 1e-300))
        ledgers &= ledger_counts(o_led) == ledger_counts(n_led)
        counters &= o_cnt == n_cnt
        (o_costs, o_clamps), (n_costs, n_clamps) = (layer_totals(o_led, o_cnt),
                                                    layer_totals(n_led, n_cnt))
        layers &= o_costs == n_costs
        clamps &= o_clamps == n_clamps
    return {"out": out_diff, "rel_err": err_diff, "bytes": same_bytes,
            "ledgers": ledgers, "counters": counters, "layers": layers,
            "clamps": clamps}


def counter_total(runs: list, kind: str) -> int:
    """A row's counters of one kind ("clamped" or "saturated"), summed over
    its runs."""
    return sum(n for _, _, _, counters in runs for key, n in counters.items()
               if key.endswith("." + kind))


def direction(runs: list) -> tuple[float, int]:
    """Mean output_rel_err and total gate clamps over a row's runs."""
    return (float(np.mean([err for _, err, _, _ in runs])),
            counter_total(runs, "clamped"))


def report(old: dict, new: dict) -> bool:
    """Print the comparison table; True when per-layer totals and files match."""
    same = True
    flags = ("bytes", "ledgers", "counters", "layers", "clamps")
    print(f"{'block':<15} {'T':>3} {'inputs':>6} {'max|dout|/max|out|':>19} "
          f"{'d(output_rel_err)':>18} {'mean err old->new':>24} "
          f"{'clamps old->new':>15} {'saturated old->new':>18} "
          + " ".join(f"{f:>8}" for f in flags))
    for key in sorted(old["runs"]):
        c = compare_runs(old["runs"][key], new["runs"][key])
        same &= c["layers"] and c["clamps"]
        eq = {True: "equal", False: "DIFFER"}
        (err_old, clamps_old), (err_new, clamps_new) = (direction(old["runs"][key]),
                                                        direction(new["runs"][key]))
        sat_old, sat_new = (counter_total(side["runs"][key], "saturated")
                            for side in (old, new))
        print(f"{key[0]:<15} {key[1]:>3} {len(old['runs'][key]):>6} {c['out']:>19.3g} "
              f"{c['rel_err']:>18.3g} {f'{err_old:.6g}->{err_new:.6g}':>24} "
              f"{f'{clamps_old}->{clamps_new}':>15} {f'{sat_old}->{sat_new}':>18} "
              + " ".join(f"{eq[c[f]]:>8}" for f in flags))
    for name in sorted(old["files"]):
        identical = old["files"][name] == new["files"].get(name)
        same &= identical
        print(f"{name}: {'byte-identical' if identical else 'DIFFERS'}")
    differ = [f"{name} ({', '.join(kinds)})" for name in sorted(old["loaded"])
              if (kinds := differing_kinds(old["loaded"][name],
                                           new["loaded"].get(name, {})))]
    print(f"loaded blocks DIFFER: {', '.join(differ)}" if differ
          else "loaded blocks equal")
    for name in sorted(old["loaded"].keys() & new["loaded"].keys()):
        print(f"worst gate err {name}: {worst_gate_err(old['loaded'][name]):.8g} -> "
              f"{worst_gate_err(new['loaded'][name]):.8g}")
    for name in sorted(old.get("cost", {})):
        print(f"convert {name}: minor faults {old['cost'][name]} -> "
              f"{new['cost'][name]} (one run each, not part of the verdict)")
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old", nargs="?")
    p.add_argument("new", nargs="?")
    p.add_argument("--inputs", type=int, default=50, help="inputs per block and T")
    p.add_argument("--worker", metavar="OUT", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_checkout(args.inputs, tmp)
        with open(args.worker, "wb") as fh:
            pickle.dump(result, fh)
        return 0
    if args.old is None or args.new is None:
        p.error("need two checkout directories, OLD and NEW")
    with tempfile.TemporaryDirectory() as tmp_old, \
            tempfile.TemporaryDirectory() as tmp_new:
        old = collect(args.old, args.inputs, tmp_old)
        new = collect(args.new, args.inputs, tmp_new)
    return 0 if report(old, new) else 1


if __name__ == "__main__":
    sys.exit(main())
