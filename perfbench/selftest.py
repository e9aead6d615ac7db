"""Self-test of the benchmark: every workload at minimal length.

    python3 perfbench/selftest.py [workload ...]

For each workload it runs perfbench/run.py once untraced and twice traced
(one second each; set-up and one iteration still run in full) and checks
that the last line is the result object, that every metric named in
BENCHMARK.json is present with its unit, that no check failed, and that
every count of the traced run repeats exactly between the two calls. It
also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark. Exits 1 on
the first problem found.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
GATE_SITES_PER_LAYER = 7
FITS_PER_GATE_SITE = 32  # N_per_nonlinearity: one fit per sub-range
# counts that must repeat between calls; times and the overhead may not
EXACT_UNITS = {"count", "bytes"}


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc, what: str) -> dict:
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    if set(doc) != RESULT_KEYS:
        fail(f"{what}: result keys {sorted(doc)}")
    if not (doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1):
        fail(f"{what}: checks failed\n{proc.stdout}\n{proc.stderr}")
    return doc["metrics"]


def check_names(metrics: dict, spec: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"{what}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for k, v in metrics.items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{what}: {k} is not a number")


def fail(msg: str) -> None:
    print(f"selftest: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def check_refuses_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("stream", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        fail("run.py succeeded or printed a result without the package")
    print("selftest: ok   refuses to run without src/spikeconvert")


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    from run import WORKLOADS

    names = argv or [w["name"] for w in spec["workloads"]]
    check_refuses_bare_directory()
    for name in names:
        check_names(result(run(name, 0), f"{name} --trace 0"), spec["end_to_end"],
                    f"{name} end-to-end")
        first = result(run(name, 1), f"{name} --trace 1 (first)")
        second = result(run(name, 1), f"{name} --trace 1 (second)")
        for m in (first, second):
            check_names(m, spec["per_layer"], f"{name} per-layer")
        drift = sorted(k for k, v in first.items()
                       if v["unit"] in EXACT_UNITS and v["value"] != second[k]["value"])
        if drift:
            fail(f"{name}: counts differ between two calls: {drift}")
        layers = WORKLOADS[name].config.get("n_layers", 1)
        fits = first["calibration.fit_fs.calls"]["value"]
        if fits != FITS_PER_GATE_SITE * GATE_SITES_PER_LAYER * layers:
            fail(f"{name}: calibration.fit_fs.calls = {fits}")
        print(f"selftest: ok   {name} (calibration.fit_fs.calls={fits}, "
              f"energy.sops={first['energy.sops']['value']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
