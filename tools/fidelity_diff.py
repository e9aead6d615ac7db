"""Compare two checkouts' spike path on the same blocks and inputs.

Usage:
    python tools/fidelity_diff.py OLD NEW [--inputs 50]

OLD and NEW are checkout directories, each holding src/spikeconvert. Each
runs in its own subprocess with one BLAS thread. There it converts the
blocks below, saves them, fits one gate through `spikeconvert calibrate`,
and runs spike_forward on seeded inputs at each step count:

  default  the default ModelConfig calibrated on normal data, T = 1..20
  gated    the 2-layer gated-FFN block calibrated on normal_outliers, T = 4, 16

For every block and T the report gives the largest relative output
difference, max|out_new - out_old| / max|out_old| over the inputs; the
largest relative difference of output_rel_err; whether the per-site SOP
ledgers and the counters (the gate clamp counts) are equal; and whether
the SOP/FLOP totals and the clamp totals of each layer (`input`,
`layers.<i>`) are equal. Then it says whether the saved block files and
the calibrate output are byte-identical. The exit status is 0 when the
per-layer totals and the files all match, and 1 otherwise, so a site
renamed within its layer shows in the ledgers and counters columns
without reading as a numerics change.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import pickle
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
CALIBRATE = ["calibrate", "--target", "gelu", "--levels", "8", "--steps", "16",
             "--samples", "4096", "--seed", "7"]
INPUT_SEED = 4242


def run_checkout(n_inputs: int, tmp: str) -> dict:
    """What one checkout produces: files and per-(block, T) run results.

    Runs inside the worker process, with the checkout's src first on the path.
    """
    from spikeconvert import cli, model
    from spikeconvert.calibration import sample_distribution

    result: dict = {"files": {}, "runs": {}}
    for index, (name, (fields, dist, steps)) in enumerate(BLOCKS.items()):
        cfg = model.ModelConfig(**fields)
        w = model.WeightSet.random(cfg, int(cfg.seeds["weights"]))
        rng = np.random.default_rng(int(cfg.seeds["calibration"]))
        sample = sample_distribution(cfg.calib_distribution, cfg.seq_len * 32,
                                     cfg.d_model, rng)
        block = model.convert(cfg, w, sample)
        path = os.path.join(tmp, f"{name}.json")
        model.save_block(block, path)
        for ext in (".json", ".lasw"):
            with open(os.path.splitext(path)[0] + ext, "rb") as fh:
                result["files"][name + ext] = fh.read()
        rng = np.random.default_rng([INPUT_SEED, index])
        xs = [sample_distribution(dist, cfg.seq_len, cfg.d_model, rng)
              for _ in range(n_inputs)]
        for T in steps:
            runs = []
            for x in xs:
                out, trace = model.spike_forward(block, x, T=T)
                runs.append((out.array.copy(), trace.output_rel_err,
                             trace.ledger.to_dict(), dict(trace.counters)))
            result["runs"][name, T] = runs
    path = os.path.join(tmp, "calibrate.json")
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(CALIBRATE + ["--out", path]) != 0:
            raise RuntimeError("calibrate failed")
    with open(path, "rb") as fh:
        result["files"]["calibrate.json"] = fh.read()
    return result


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
    """(SOPs, FLOPs) and clamps, each summed per layer."""
    costs: dict = {}
    clamps: dict = {}
    for site, counts in ledger["by_site"].items():
        sops, flops = costs.get(layer_of(site), (0, 0))
        costs[layer_of(site)] = (sops + counts["sops"], flops + counts["flops"])
    for site, n in counters.items():
        clamps[layer_of(site)] = clamps.get(layer_of(site), 0) + n
    return costs, clamps


def compare_runs(old: list, new: list) -> dict:
    """Largest relative differences and equality flags over paired runs."""
    out_diff = err_diff = 0.0
    ledgers = counters = layers = clamps = True
    for (o_out, o_err, o_led, o_cnt), (n_out, n_err, n_led, n_cnt) in zip(old, new):
        scale = np.abs(o_out).max()
        out_diff = max(out_diff, float(np.abs(n_out - o_out).max() / scale))
        err_diff = max(err_diff, abs(n_err - o_err) / max(abs(o_err), 1e-300))
        ledgers &= o_led == n_led
        counters &= o_cnt == n_cnt
        (o_costs, o_clamps), (n_costs, n_clamps) = (layer_totals(o_led, o_cnt),
                                                    layer_totals(n_led, n_cnt))
        layers &= o_costs == n_costs
        clamps &= o_clamps == n_clamps
    return {"out": out_diff, "rel_err": err_diff, "ledgers": ledgers,
            "counters": counters, "layers": layers, "clamps": clamps}


def report(old: dict, new: dict) -> bool:
    """Print the comparison table; True when per-layer totals and files match."""
    same = True
    flags = ("ledgers", "counters", "layers", "clamps")
    print(f"{'block':<8} {'T':>3} {'inputs':>6} {'max|dout|/max|out|':>19} "
          f"{'d(output_rel_err)':>18} " + " ".join(f"{f:>8}" for f in flags))
    for key in sorted(old["runs"]):
        c = compare_runs(old["runs"][key], new["runs"][key])
        same &= c["layers"] and c["clamps"]
        eq = {True: "equal", False: "DIFFER"}
        print(f"{key[0]:<8} {key[1]:>3} {len(old['runs'][key]):>6} {c['out']:>19.3g} "
              f"{c['rel_err']:>18.3g} " + " ".join(f"{eq[c[f]]:>8}" for f in flags))
    for name in sorted(old["files"]):
        identical = old["files"][name] == new["files"].get(name)
        same &= identical
        print(f"{name}: {'byte-identical' if identical else 'DIFFERS'}")
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
