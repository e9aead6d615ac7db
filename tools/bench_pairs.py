"""Run the benchmark on two git refs in interleaved pairs and compare them.

Usage:
    python tools/bench_pairs.py PARENT CHANGE

PARENT and CHANGE are git refs of this repository. For each workload W of
BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed S --seconds SECONDS

for each ref, at SECONDS, BENCHMARK.json's run_seconds, for PAIRS pairs at
seeds S = 1, 2, ..., and alternates which side runs first: the parent in
odd pairs, the change in even ones. Just before each run, the ref is
exported with `git archive` into a fresh copy, so it holds only committed
files: no __pycache__, no untracked or ignored files. Both runs of pair i
use one path, a directory whose name has i characters. The scaled
convert_s and setup_s follow the process's heap layout, which the
checkout path is part of (see the fit-kernel note below), so the two
sides of a pair share a path, and the pairs spread its length rather
than fix one for the whole comparison.

It prints one table per workload. Each row is a metric of BENCHMARK.json's
end_to_end list, with the parent's and the change's median [q1, q3] over
the pairs, their ratio change/parent of the medians, and in how many pairs
the change was better, by the metric's `better` direction. Its last
column gives the metric's `bound` from BENCHMARK.json, a fraction of the
parent's median, and reads PAST where the change's median is worse than the
parent's by more than that: the benchmark gate would refuse such a change.
Each such row is also named in a warning below the table. The rows
`convert_s wall` and `setup_s wall` are the wall-clock medians that
perfbench prints next to those scaled times, and failed checks are summed
per side; none of those has a bound.

A run that exits non-zero (perfbench does when too many operations fail to
measure anything) is counted as a broken run of its side, its stderr is
printed, and the comparison goes on; the table holds the pairs in which
both sides finished. The tool then exits 1.

perfbench scales convert_s and setup_s by a fit kernel timed next to them,
and that kernel's speed follows the heap the measured code leaves
(ROADMAP item 1). So where a scaled ratio and its wall ratio differ by
more than WALL_SPLIT, it prints a warning with both ratios: a move there
may be the reference kernel's, not the change's.

Nothing is written into the repository; the copies are removed at exit.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALLED = ("convert_s", "setup_s")  # scaled metrics whose wall medians perfbench notes
WALL_SPLIT = 0.10
PAIRS = 10
_WALL_NOTE = re.compile(r"^(\w+)\s+\S+\s+\S+\s.*; wall (\S+) s$")


def export(ref: str, dest: str, repo: str = _ROOT) -> None:
    """Extract the files that ref commits into dest, with `git archive`."""
    tar = subprocess.run(["git", "-C", repo, "archive", "--format=tar", ref],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_one(copy: str, workload: str, seed: int, seconds: float) -> str | None:
    """stdout of one perfbench run in a copy, or None if it exited non-zero,
    after printing its stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{workload} seed {seed} in {copy} exited {done.returncode}:\n"
              f"{done.stderr}", file=sys.stderr)
        return None
    return done.stdout


def parse_run(stdout: str) -> dict[str, float]:
    """A run's metrics, from the JSON object on its last line, plus
    `<metric> wall` for each of WALLED, read from its notes, and `failed`."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    out = {k: float(v["value"]) for k, v in result["metrics"].items()}
    for line in lines:
        m = _WALL_NOTE.match(line)
        if m and m.group(1) in WALLED:
            out[m.group(1) + " wall"] = float(m.group(2))
    out["failed"] = float(result["failed"])
    return out


def benchmark(path: str = os.path.join(_ROOT, "BENCHMARK.json")) -> tuple:
    """BENCHMARK.json's workload names, its run_seconds, each metric's
    direction, "lower" or "higher" is better, the wall rows lower, and each
    end-to-end metric's bound."""
    with open(path) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({name + " wall": "lower" for name in WALLED})
    bounds = {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}
    return ([w["name"] for w in spec["workloads"]], float(spec["run_seconds"]),
            better, bounds)


def _spread(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return med, q1, q3


def summarize(workload: str, parent: list[dict], change: list[dict],
              better: dict, bounds: dict) -> tuple[list[str], list[str]]:
    """The table of one workload's pairs, as markdown lines, and its
    warnings. parent[i] and change[i] are the parsed runs of pair i."""
    lines = [f"### {workload} ({len(parent)} pairs)", "",
             "| metric | parent median [q1, q3] | change median [q1, q3] "
             "| change/parent | change wins | bound |",
             "| --- | --- | --- | --- | --- | --- |"]
    medians = {}
    warnings = []
    for name, direction in better.items():
        if name not in parent[0]:
            continue
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        (pm, pq1, pq3), (cm, cq1, cq3) = _spread(p), _spread(c)
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        medians[name] = pm, cm
        bound = ""
        if name in bounds:
            worse = sign * (pm - cm) / pm  # the change's loss, a fraction of pm
            past = worse > bounds[name]
            bound = f"{bounds[name]:.0%}" + (" PAST" if past else "")
            if past:
                warnings.append(
                    f"warning: {workload} {name}: change median {worse:.1%} worse "
                    f"than the parent's, past its bound of {bounds[name]:.0%}")
        lines.append(f"| {name} | {pm:.4g} [{pq1:.4g}, {pq3:.4g}] "
                     f"| {cm:.4g} [{cq1:.4g}, {cq3:.4g}] "
                     f"| {cm / pm:.3f} | {wins}/{len(p)} | {bound} |")
    lines.append(f"| failed checks | {sum(r['failed'] for r in parent):g} "
                 f"| {sum(r['failed'] for r in change):g} | | | |")
    for name in WALLED:
        if name not in medians or name + " wall" not in medians:
            continue
        scaled = medians[name][1] / medians[name][0]
        wall = medians[name + " wall"][1] / medians[name + " wall"][0]
        if abs(scaled / wall - 1.0) > WALL_SPLIT:
            warnings.append(
                f"warning: {workload} {name}: scaled change/parent {scaled:.3f}, "
                f"wall {wall:.3f}; a split this wide is the signature of the "
                f"fit-kernel reference artifact (ROADMAP item 1)")
    return lines, warnings


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    workloads, seconds, better, bounds = benchmark()
    status = 0
    refs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        for workload in workloads:
            runs = {"parent": [], "change": []}
            broken = {"parent": 0, "change": 0}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                copy = os.path.join(tmp, "p" * (i + 1))
                outs = {}
                for side in order:
                    shutil.rmtree(copy, ignore_errors=True)
                    export(refs[side], copy)
                    outs[side] = run_one(copy, workload, i + 1, seconds)
                for side, out in outs.items():
                    broken[side] += out is None
                if None not in outs.values():
                    for side, out in outs.items():
                        runs[side].append(parse_run(out))
                print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
            lines, warnings = ([f"### {workload}: no pair finished"], [])
            if runs["parent"]:
                lines, warnings = summarize(workload, runs["parent"], runs["change"],
                                            better, bounds)
            lines.append(f"runs that exited non-zero: parent {broken['parent']}, "
                         f"change {broken['change']}")
            print("\n".join(lines + [""] + warnings), flush=True)
            status |= any(broken.values())
    return status


if __name__ == "__main__":
    sys.exit(main())
