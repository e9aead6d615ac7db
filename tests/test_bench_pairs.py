"""tools/bench_pairs.py on canned perfbench output, without running the benchmark."""
import importlib.util
import json
import pathlib
import subprocess

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# stdout of `perfbench/run.py --workload certify --seed 1 --seconds 3`
CERTIFY = """\
workload=certify seed=1 seconds=3.0 trace=0
machine cores=2 affinity=2 python=3.11.7 numpy=2.4.6 blas=scipy-openblas 0.3.31.188.0 blas_threads=1
spike kernel: median 3.873 ms over 549 runs, 1.76x its uncontended 2.20 ms
fit kernel: median 3.102 ms over 263 runs, 1.22x its uncontended 2.55 ms
setup_s                                  0.00099895 s      median of 50 set-ups; wall 0.001223 s
convert_s                                  0.317272 s      median of 1 converts; wall 0.4295 s
sweep_s                                    0.112111 s      median of 3 sweeps of T in (4, 8, 10, 13, 16) x 8 sequences; wall 0.1869 s
cli_run_ms                                  5.21796 ms     median of 24 CLI runs; wall 9.863 ms
forward_ms_p50                              3.11439 ms     median of 128 sequences at T=16; wall 5.49 ms
forward_ms_tail                             3.63552 ms     p92.2: 10 of n=128 above; wall 7.592 ms
seq_per_s                                   309.901 1/s    128 sequences at T=16; wall 173.1/s
output_rel_err                          0.000441817 ratio  median over 128 check sequences at T=16
worst_gate_err                           0.00097446 abs    max fitted-gate error over the block's gate sites
energy_ratio                               0.698042 ratio  modelled SOP*E_AC/(FLOP*E_MAC) at T=16; not a measurement
peak_rss_mb                                 46.7812 MB     process peak resident set
error_rate                                        0 ratio  0 failed of 286 operations and checks
{"correct": true, "attempted": 286, "failed": 0, "metrics": {"setup_s": {"value": 0.0009989503735984106, "unit": "s"}, "convert_s": {"value": 0.3172717481300334, "unit": "s"}, "sweep_s": {"value": 0.11211059996073397, "unit": "s"}, "cli_run_ms": {"value": 5.21796315663453, "unit": "ms"}, "forward_ms_p50": {"value": 3.114392037624314, "unit": "ms"}, "forward_ms_tail": {"value": 3.635518276580818, "unit": "ms"}, "seq_per_s": {"value": 309.9009675719371, "unit": "1/s"}, "output_rel_err": {"value": 0.0004418168186878514, "unit": "ratio"}, "worst_gate_err": {"value": 0.0009744597417893353, "unit": "abs"}, "energy_ratio": {"value": 0.6980421651066179, "unit": "ratio"}, "peak_rss_mb": {"value": 46.78125, "unit": "MB"}}}
"""
BETTER = {"convert_s": "lower", "setup_s": "lower", "seq_per_s": "higher",
          "convert_s wall": "lower", "setup_s wall": "lower"}
BOUNDS = {"convert_s": 0.25, "setup_s": 0.25, "seq_per_s": 0.25}


def canned(convert=0.3, convert_wall=0.4, seq=300.0, failed=0, kernel=(1.22, 263)):
    """The certify stdout with convert_s, its wall note, seq_per_s, the
    failed count and the fit kernel's speed ratio and run count replaced."""
    lines = CERTIFY.strip().splitlines()
    lines[3] = (f"fit kernel: median 3.102 ms over {kernel[1]} runs, "
                f"{kernel[0]:.2f}x its uncontended 2.55 ms")
    result = json.loads(lines[-1])
    result["metrics"]["convert_s"]["value"] = convert
    result["metrics"]["seq_per_s"]["value"] = seq
    result["failed"] = failed
    lines[5] = (f"convert_s {convert:>16.6g} s      median of 1 converts; "
                f"wall {convert_wall:.4g} s")
    return "\n".join(lines[:-1] + [json.dumps(result)]) + "\n"


def test_parse_run_reads_metrics_walls_and_failures():
    run = bench_pairs.parse_run(CERTIFY)
    assert run["convert_s"] == 0.3172717481300334
    assert run["energy_ratio"] == 0.6980421651066179
    assert run["convert_s wall"] == 0.4295
    assert run["setup_s wall"] == 0.001223
    assert "sweep_s wall" not in run  # only the fit-scaled metrics
    assert run["failed"] == 0.0
    assert run["fit kernel"] == 1.22 and run["fit kernel runs"] == 263.0


def test_workloads_length_and_directions_come_from_the_benchmark_declaration():
    workloads, seconds, better, bounds = bench_pairs.benchmark()
    assert workloads == ["certify", "stream", "deep_outliers"] and seconds == 10.0
    assert better["seq_per_s"] == "higher" and better["convert_s"] == "lower"
    assert better["convert_s wall"] == better["setup_s wall"] == "lower"
    assert bounds["convert_s"] == 0.25 and bounds["energy_ratio"] == 0.02
    assert set(bounds) == set(better) - {"convert_s wall", "setup_s wall"}


def test_table_gives_medians_quartiles_ratio_and_wins():
    parent = [bench_pairs.parse_run(canned(convert=c, seq=300.0))
              for c in (0.20, 0.22, 0.24, 0.26, 0.28)]
    change = [bench_pairs.parse_run(canned(convert=c, seq=s, failed=1))
              for c, s in ((0.21, 310.0), (0.21, 290.0), (0.25, 310.0),
                           (0.25, 310.0), (0.25, 300.0))]
    lines, warnings = bench_pairs.summarize("certify", parent, change, BETTER, BOUNDS)
    rows = {line.split(" | ")[0][2:]: line for line in lines if line.startswith("| ")}
    assert rows["convert_s"] == ("| convert_s | 0.24 [0.22, 0.26] | 0.25 [0.21, 0.25] "
                                 "| 1.042 | 3/5 | 25% |")
    # higher is better: 310 beats 300 three times, and a tie is no win
    assert rows["seq_per_s"].endswith("| 1.033 | 3/5 | 25% |")
    assert rows["convert_s wall"].endswith("| 1.000 | 0/5 |  |")  # no bound of its own
    assert rows["failed checks"] == "| failed checks | 0 | 5 | | | |"
    assert warnings == []
    assert set(rows) >= {"convert_s wall", "setup_s wall"}


def test_fit_kernel_row_gives_each_sides_median_speed_and_run_count():
    parent = [bench_pairs.parse_run(canned(kernel=k))
              for k in ((1.10, 200), (1.30, 260), (1.20, 250))]
    change = [bench_pairs.parse_run(canned(kernel=k))
              for k in ((0.90, 12), (0.95, 10), (1.00, 11))]
    lines, warnings = bench_pairs.summarize("certify", parent, change, BETTER, BOUNDS)
    # after the failed checks, with no wins and no bound
    assert lines[-2].startswith("| failed checks |")
    assert lines[-1] == "| fit kernel | 1.20x, 250 runs | 0.95x, 11 runs | 0.792 | | |"
    assert warnings == []


def test_warns_when_scaled_and_wall_ratios_split():
    parent = [bench_pairs.parse_run(canned(convert=0.22, convert_wall=0.30))] * 3
    artifact = [bench_pairs.parse_run(canned(convert=0.30, convert_wall=0.30))] * 3
    _, warnings = bench_pairs.summarize("stream", parent, artifact, BETTER, {})
    assert warnings == [
        "warning: stream convert_s: scaled change/parent 1.364, wall 1.000; a split "
        "this wide is the signature of the fit-kernel reference artifact (ROADMAP "
        "item 1)"]
    # both ratios move together: a real slowdown, not the artifact
    slower = [bench_pairs.parse_run(canned(convert=0.30, convert_wall=0.41))] * 3
    assert bench_pairs.summarize("stream", parent, slower, BETTER, {})[1] == []


def test_marks_a_median_worse_than_its_bound():
    parent = [bench_pairs.parse_run(canned(convert=0.20, convert_wall=0.30,
                                           seq=400.0))] * 3
    # convert_s 30 % slower and seq_per_s 20 % lower, against bounds of 25 %
    change = [bench_pairs.parse_run(canned(convert=0.26, convert_wall=0.39,
                                           seq=320.0))] * 3
    lines, warnings = bench_pairs.summarize("stream", parent, change, BETTER, BOUNDS)
    rows = {line.split(" | ")[0][2:]: line for line in lines if line.startswith("| ")}
    assert rows["convert_s"].endswith("| 1.300 | 0/3 | 25% PAST |")
    assert rows["seq_per_s"].endswith("| 0.800 | 0/3 | 25% |")
    assert warnings == ["warning: stream convert_s: change median 30.0% worse than "
                        "the parent's, past its bound of 25%"]
    # higher is better: a throughput 30 % lower is past the bound too
    lower = [bench_pairs.parse_run(canned(convert=0.20, convert_wall=0.30,
                                          seq=280.0))] * 3
    lines, _ = bench_pairs.summarize("stream", parent, lower, BETTER, BOUNDS)
    assert any(line.startswith("| seq_per_s |") and line.endswith("| 25% PAST |")
               for line in lines)


def test_export_holds_only_committed_files(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "kept.py").write_text("x = 1\n")
    subprocess.run(git + ["add", "kept.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "kept.py").write_text("x = 2\n")  # an edit not committed
    (repo / "untracked.py").write_text("")
    (repo / "__pycache__").mkdir()
    (repo / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"\0")
    dest = tmp_path / "copy"
    bench_pairs.export("HEAD", str(dest), repo=str(repo))
    assert sorted(p.name for p in dest.iterdir()) == ["kept.py"]
    assert (dest / "kept.py").read_text() == "x = 1\n"


def fake_main(monkeypatch, broken=()):
    """Runs main on canned output for the refs "p" and "c"; a (side,
    workload, seed) in broken exits non-zero. Returns main's status and the
    (side, workload, seed, seconds, path) of each run, its side read from
    the ref last exported into its path."""
    calls, exported = [], {}
    monkeypatch.setattr(bench_pairs, "export",
                        lambda ref, dest: exported.__setitem__(dest, ref))

    def run_one(copy, workload, seed, seconds):
        side = {"p": "parent", "c": "change"}[exported[copy]]
        calls.append((side, workload, seed, seconds, copy))
        return None if calls[-1][:3] in broken else canned()

    monkeypatch.setattr(bench_pairs, "run_one", run_one)
    monkeypatch.setattr(bench_pairs, "benchmark",
                        lambda: (["certify", "stream"], 2.0, BETTER, BOUNDS))
    return bench_pairs.main(["p", "c"]), calls


def test_main_alternates_sides_and_prints_one_table_per_workload(monkeypatch, capsys):
    status, calls = fake_main(monkeypatch)
    assert status == 0
    assert [c[:3] for c in calls[:6]] == [
        ("parent", "certify", 1), ("change", "certify", 1),
        ("change", "certify", 2), ("parent", "certify", 2),
        ("parent", "certify", 3), ("change", "certify", 3)]
    assert len(calls) == 2 * 2 * 10 and {c[3] for c in calls} == {2.0}
    out = capsys.readouterr().out
    assert "### certify (10 pairs)" in out and "### stream (10 pairs)" in out
    assert out.count("runs that exited non-zero: parent 0, change 0") == 2
    assert "warning" not in out


def test_each_pair_runs_both_refs_from_one_path_of_its_own_length(monkeypatch):
    _, calls = fake_main(monkeypatch)
    paths = {}
    for side, workload, seed, _, path in calls:
        paths.setdefault((workload, seed), []).append((side, path))
    for runs in paths.values():
        # both sides ran, each right after its own ref was exported there
        assert sorted(side for side, _ in runs) == ["change", "parent"]
        assert runs[0][1] == runs[1][1]
    lengths = {len(pathlib.Path(runs[0][1]).name) for runs in paths.values()}
    assert lengths == set(range(1, 11))


def test_a_broken_run_is_counted_and_the_comparison_goes_on(monkeypatch, capsys):
    broken = {("change", "certify", 2)} | {("parent", "stream", s) for s in range(1, 11)}
    status, calls = fake_main(monkeypatch, broken)
    assert status == 1 and len(calls) == 40  # every pair still ran
    out = capsys.readouterr().out
    # certify's table keeps the nine pairs in which both sides finished
    assert "### certify (9 pairs)" in out
    assert "runs that exited non-zero: parent 0, change 1" in out
    assert "### stream: no pair finished" in out
    assert "runs that exited non-zero: parent 10, change 0" in out


def test_run_one_gives_none_and_prints_stderr_on_a_non_zero_exit(tmp_path, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('too many failures', file=sys.stderr)\nsys.exit(1)\n")
    assert bench_pairs.run_one(str(tmp_path), "certify", 1, 2.0) is None
    assert "too many failures" in capsys.readouterr().err
