"""Command-line front end for calibration, conversion, runs, and reports.

Exit codes are a stable contract: 0 on success, 2 for usage or input
problems (unknown targets, unreadable or malformed files, bad shapes), 3
when the spike path itself produces a non-finite value. A warning the
library gives on the way is printed as one `warning: <message>` line on
stderr and leaves the exit code as it is. Reports carry no
timestamps and are byte-identical across reruns with the same flags and
seeds. The seeds are set in one place, the config's seeds (`init --seed`
writes them), which fix the weights, the calibration sample and the input;
a gate fit takes no seed. A command writes what its flags and files fix,
and no shell variable changes it.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings

import numpy as np

from . import __version__
from .calibration import (
    _MAX_SAMPLES,
    _MAX_SUBRANGES,
    FIT_SAMPLES,
    TARGETS,
    fit_target,
    hg_to_dict,
    sample_distribution,
)
from .energy import E_AC, E_MAC, EnergyLedger, energy_ratio
from .errors import CalibrationError, FormatError, SpikePathError
from .model import (
    ConvertedBlock,
    ModelConfig,
    RunTrace,
    WeightSet,
    convert,
    dump_json,
    hg_sites,
    load_block,
    load_config,
    load_weights,
    read_json,
    save_block,
    save_config,
    save_weights,
    spike_forward,
)
from .neurons import _MAX_GATE_STEPS, _check_type
from .tensors import Matrix

_INPUT_TENSOR = "input"


def _is_digits(raw: str) -> bool:
    # ASCII digits only: int() also takes "4_0" and str.isdecimal "٣"
    return raw.isascii() and raw.isdigit()


def _seed_flag(raw: str) -> int:
    if not _is_digits(raw):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _load_input(path: str) -> Matrix:
    ws = load_weights(path)
    if _INPUT_TENSOR not in ws:
        raise FormatError(
            f"{path!r} holds tensors {ws.names}, expected one named "
            f"{_INPUT_TENSOR!r}"
        )
    return ws[_INPUT_TENSOR]


def _run_block(args) -> tuple[ConvertedBlock, Matrix, int]:
    block = load_block(args.block)
    x = _load_input(args.input)
    steps = args.steps if args.steps is not None else block.config.T
    return block, x, steps


def cmd_calibrate(args) -> int:
    if not 64 <= args.samples <= _MAX_SAMPLES:
        raise ValueError(
            f"--samples must be within 64..{_MAX_SAMPLES}, got {args.samples}")
    if not 1 <= args.steps <= _MAX_GATE_STEPS:
        raise ValueError(
            f"--steps must be within 1..{_MAX_GATE_STEPS}, got {args.steps}")
    if not 1 <= args.levels <= _MAX_SUBRANGES:
        raise ValueError(
            f"--levels must be within 1..{_MAX_SUBRANGES}, got {args.levels}")
    lo, hi = (None, None) if args.range is None else args.range
    if args.range is not None and not (np.isfinite(args.range).all() and lo < hi):
        raise ValueError(f"--range needs finite LO < HI, got {lo} {hi}")
    gate, report = fit_target(args.target, args.levels, args.steps, args.samples,
                              lo=lo, hi=hi)
    errs = list(report.per_subrange_max_abs_err)
    dump_json({"hg": hg_to_dict(gate),
               "report": {"target": args.target, "per_subrange_max_abs_err": errs,
                          "samples_per_range": args.samples}}, args.out)
    print(
        f"fitted {args.target} on [{gate.boundaries[0]:.6g}, "
        f"{gate.boundaries[-1]:.6g}] with {gate.d.shape[1]} sub-ranges: "
        f"max abs err {report.max_abs_err:.6g} -> {args.out}"
    )
    return 0


def cmd_convert(args) -> int:
    cfg = load_config(args.config)
    weights = load_weights(args.weights)
    weights.validate(cfg)  # before the sample, sized by the config, is drawn
    rng = np.random.default_rng(int(cfg.seeds["calibration"]))
    sample = sample_distribution(cfg.calib_distribution, rows=cfg.seq_len * 32,
                                 cols=cfg.d_model, rng=rng)
    block = convert(cfg, weights, sample)
    save_block(block, args.out)
    worst = max(r.max_abs_err for r in block.reports.values())
    print(
        f"converted {cfg.n_layers}-layer block ({len(block.oat)} encoder sites, "
        f"{len(block.hg)} gate sites, worst gate err {worst:.6g}) -> {args.out}"
    )
    return 0


def _run_report(block: ConvertedBlock, trace: RunTrace) -> dict:
    return {
        "tool_version": __version__,
        "config": block.config.to_dict(),
        **trace.to_dict(),
        "calibration": {
            site: {"target": target, "max_abs_err": block.reports[site].max_abs_err}
            for site, target in sorted(hg_sites(block.config).items())
        },
    }


def cmd_run(args) -> int:
    block, x, steps = _run_block(args)
    _, trace = spike_forward(block, x, T=steps)
    if args.report is not None:
        dump_json(_run_report(block, trace), args.report)
    print(
        f"T={steps} output_rel_err={trace.output_rel_err:.6g} "
        f"sops={trace.ledger.sops} ratio={energy_ratio(trace.ledger):.6g}"
    )
    return 0


def cmd_compare(args) -> int:
    block, x, steps = _run_block(args)
    _, trace = spike_forward(block, x, T=steps)
    print(f"{'site':<32} {'mean_abs_dev':>16}")
    for site, dev in sorted(trace.per_layer.items()):
        print(f"{site:<32} {dev:>16.6g}")
    print(f"{'output_rel_err':<32} {trace.output_rel_err:>16.6g}")
    return 0


def _steps_entry(raw: str) -> int:
    if not _is_digits(raw.strip()):
        raise ValueError(f"--steps-list entry {raw!r} is not a nonnegative integer")
    return int(raw)


def cmd_sweep(args) -> int:
    # a malformed list is refused before the block is read
    steps_list = [_steps_entry(s) for s in args.steps_list.split(",") if s.strip()]
    if not steps_list:
        raise ValueError("--steps-list must name at least one timestep")
    block = load_block(args.block)
    x = _load_input(args.input)
    lines = ["timestep,mean_rel_err,sops,ratio"]
    for T in steps_list:
        _, trace = spike_forward(block, x, T=T)
        ratio = energy_ratio(trace.ledger)
        lines.append(f"{T},{trace.output_rel_err!r},{trace.ledger.sops},{ratio!r}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_energy(args) -> int:
    doc = read_json(args.report)
    _check_type("report", doc, dict)
    ledger = doc.get("ledger", {})
    _check_type("ledger", ledger, dict)
    if not ledger.get("flops"):
        raise ValueError(
            f"report {args.report!r} records no float-path FLOPs; "
            "the energy ratio is undefined"
        )
    led = EnergyLedger.from_dict(ledger)
    print(f"SOPs={led.sops} FLOPs={led.flops} E_AC={E_AC} E_MAC={E_MAC} "
          f"ratio={energy_ratio(led):.6g}")
    return 0


def cmd_init(args) -> int:
    seeds = {"weights": args.seed, "calibration": args.seed + 1, "input": args.seed + 2}
    cfg = ModelConfig(
        ffn_kind="gated" if args.gated else "standard",
        n_layers=args.layers,
        seeds=seeds,
    )
    save_config(cfg, args.config_out)
    save_weights(WeightSet.random(cfg, int(cfg.seeds["weights"])), args.weights_out)
    rng = np.random.default_rng(int(cfg.seeds["input"]))
    x = Matrix(rng.standard_normal((cfg.seq_len, cfg.d_model)))
    save_weights(WeightSet({_INPUT_TENSOR: x}), args.input_out)
    print(f"wrote {args.config_out}, {args.weights_out}, {args.input_out}")
    return 0


@functools.cache  # built once: argparse's set-up costs about 2 ms per call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spikeconvert",
        description="Convert a float transformer block to spike dynamics and "
        "measure fidelity, timestep scaling, and energy.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="fit one nonlinearity; write its gate and report")
    # argparse takes a --range bound like -1e-3 or -inf for an option unless
    # its negative-number pattern matches exponent forms and float's words too
    c._negative_number_matcher = re.compile(r"^-(\d*\.?\d+(e[-+]?\d+)?|inf(inity)?|nan)$",
                                            re.IGNORECASE)
    c.add_argument("--target", required=True, choices=sorted(TARGETS))
    c.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"))
    c.add_argument("--levels", type=int, default=8, help="sub-range count N")
    c.add_argument("--steps", type=int, default=16)
    c.add_argument("--samples", type=int, default=FIT_SAMPLES,
                   help="samples M: 10M grid points validate each sub-range's fit")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_calibrate)

    c = sub.add_parser("convert", help="calibrate a block from config + weights")
    c.add_argument("--config", required=True)
    c.add_argument("--weights", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_convert)

    c = sub.add_parser("run", help="spike-run a converted block on an input")
    c.add_argument("--block", required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--steps", type=int)
    c.add_argument("--report")
    c.set_defaults(fn=cmd_run)

    c = sub.add_parser("compare", help="print the float-vs-spike error table")
    c.add_argument("--block", required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--steps", type=int)
    c.set_defaults(fn=cmd_compare)

    c = sub.add_parser("sweep", help="emit timestep-sweep CSV")
    c.add_argument("--block", required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--steps-list", default="4,8,10,13,16")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("energy", help="print the energy ratio from a run report")
    c.add_argument("--report", required=True)
    c.set_defaults(fn=cmd_energy)

    c = sub.add_parser("init", help="write a toy config, weights, and input")
    c.add_argument("--config-out", default="toy_config.json")
    c.add_argument("--weights-out", default="toy_weights.lasw")
    c.add_argument("--input-out", default="toy_input.lasw")
    c.add_argument("--gated", action="store_true")
    c.add_argument("--layers", type=int, default=1)
    c.add_argument("--seed", type=_seed_flag, default=11)
    c.set_defaults(fn=cmd_init)
    return p


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line that names the cause, like an error, not the warning's source line
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.fn(args)
    except SpikePathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CalibrationError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
