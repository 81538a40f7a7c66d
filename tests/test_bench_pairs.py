"""The statistics and verdicts of ``tools/bench_pairs.py``, on fixed run records."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_END_TO_END = [{"name": "sweep_s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
_SPECS = {**{m["name"]: m for m in _END_TO_END}, "failed": bench_pairs.FAILED,
          "cpu_per_wall": {"better": "higher", "bound": 0.25}}


def _records(parent, change, name="peak_rss_mb"):
    return [{"seed": i + 1, "parent": {name: p}, "change": {name: c}} for i, (p, c) in enumerate(zip(parent, change))]


def _row(parent, change, name):
    return bench_pairs.summarize(_records(parent, change, name), _SPECS)[name]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("21-23") == [21, 22, 23]
    assert bench_pairs.parse_seeds("4,7-8") == [4, 7, 8]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_resolved_gain():
    parent = [67.5, 63.9, 67.4, 67.6, 63.5, 67.5, 67.4, 64.0, 67.5, 67.6]
    change = [57.2, 56.6, 57.6, 57.1, 57.3, 56.9, 57.5, 57.2, 56.8, 57.4]
    m = _row(parent, change, "peak_rss_mb")
    assert m["better"] == 10 and m["pairs"] == 10 and m["verdict"] == "gain"
    assert m["parent"] == pytest.approx((64.85, 67.45, 67.5))
    assert m["change"] == pytest.approx((56.95, 57.2, 57.375))
    assert m["relative"] == pytest.approx(57.2 / 67.45 - 1.0)
    # the parent's runs split into two clusters, the change's do not
    assert m["modes"]["parent"] == [(63.9, 3), (67.5, 7)]
    assert m["modes"]["change"] == [(57.2, 10)]
    text = bench_pairs.format_summary("title", {"peak_rss_mb": m})
    assert "10/10" in text and text.endswith("  gain\n    parent modes: 63.9 (x3), 67.5 (x7)")
    assert "change modes" not in text


def test_a_gain_inside_the_parents_spread_is_not_resolved():
    # better in every pair, but the medians move less than the parent's q1-q3 width (0.25)
    parent = [1.0, 1.2, 0.9, 1.1, 1.3, 0.8]
    change = [0.95, 1.15, 0.85, 1.05, 1.25, 0.75]
    m = _row(parent, change, "sweep_s")
    assert m["better"] == 6 and m["verdict"] == "within bound"
    assert m["relative"] == pytest.approx(-0.05 / 1.05)


def test_nine_of_ten_pairs_make_a_gain_and_eight_do_not():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    change = [0.8] * 8 + [1.1, 0.8]
    assert _row(parent, change, "sweep_s")["verdict"] == "gain"
    change[-1] = 1.0  # a tie counts for neither side
    m = _row(parent, change, "sweep_s")
    assert m["better"] == 8 and m["verdict"] == "within bound"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    parent = [1.0, 1.02, 0.98, 1.01]
    assert _row(parent, [v * 1.3 for v in parent], "sweep_s")["verdict"] == "worse"
    assert _row(parent, [v * 1.2 for v in parent], "sweep_s")["verdict"] == "within bound"
    # peak_rss_mb has a bound of 10%
    assert _row([50.0] * 4, [56.0] * 4, "peak_rss_mb")["verdict"] == "worse"


def test_a_higher_is_better_metric_reverses_the_comparisons():
    parent = [0.5, 0.51, 0.49, 0.5, 0.52, 0.48, 0.5, 0.51, 0.49, 0.5]
    m = _row(parent, [v + 0.2 for v in parent], "cpu_per_wall")
    assert m["better"] == 10 and m["verdict"] == "gain"
    assert _row(parent, [v - 0.2 for v in parent], "cpu_per_wall")["verdict"] == "worse"


@pytest.mark.parametrize("change,expected", [
    ([0.95, 1.3, 0.9, 1.25, 1.0, 1.2, 1.05, 1.3, 0.95, 1.2], "unresolved"),
    ([0.6, 0.55, 0.58, 0.5, 0.52, 0.56, 0.57, 0.54, 0.51, 0.59], "gain"),
    # every change run below every parent run, the medians closer than the parent's width
    ([0.7, 0.71, 0.72, 0.73, 0.74, 0.75, 0.76, 0.77, 0.78, 0.79], "within bound"),
], ids=["inside-the-spread", "gain", "every-run-better"])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(change, expected):
    # q1-q3 width 0.51 against 0.25 x the median 1.23
    parent = [1.0, 1.5, 0.8, 1.4, 0.9, 1.6, 1.1, 1.45, 0.85, 1.35]
    assert _row(parent, change, "sweep_s")["verdict"] == expected


def test_the_drift_that_an_aa_row_resolved_is_neither_gain_nor_worse():
    # one tails-coupling-sweep batch: the medians 7.3% apart, the change higher in 7 of 10 pairs
    parent = [2.00, 2.04, 1.98, 2.02, 2.01, 1.99, 2.03, 1.97, 2.00, 2.02]
    change = [2.16, 1.95, 2.20, 1.96, 2.15, 2.153, 2.18, 1.93, 2.14, 2.17]
    m = _row(parent, change, "sweep_s")
    assert m["relative"] == pytest.approx(0.073, abs=5e-4) and 10 - m["better"] == 7
    # the medians move further apart than the parent's q1-q3 width ...
    assert m["change"][1] - m["parent"][1] > m["parent"][2] - m["parent"][0]
    # ... which is no gain, and within the 25% bound
    assert m["verdict"] == "within bound"


def test_counts_that_stay_zero_read_no_change():
    m = _row([0, 0, 0], [0, 0, 0], "failed")
    assert m["better"] == 0 and m["relative"] == 0.0 and m["verdict"] == "within bound"


def test_a_failed_row_is_worse_when_the_change_fails_more_runs_in_total():
    assert _row([0, 0, 0, 0], [0, 0, 1, 0], "failed")["verdict"] == "worse"
    assert _row([1, 0, 0, 0], [0, 1, 1, 0], "failed")["verdict"] == "worse"
    assert _row([1, 0, 0, 0], [0, 0, 1, 0], "failed")["verdict"] == "within bound"
    assert _row([1] * 10, [0] * 10, "failed")["verdict"] == "gain"


def test_fewer_than_ten_pairs_make_no_gain():
    # a held-out block of seeds 21-22: -10.0%, better in both pairs
    m = _row([1.0, 1.02], [0.9, 0.918], "sweep_s")
    assert m["better"] == 2 and m["relative"] == pytest.approx(-0.1) and m["verdict"] == "within bound"
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert _row(parent[:9], [0.8] * 9, "sweep_s")["verdict"] == "within bound"
    assert _row(parent, [0.8] * 10, "sweep_s")["verdict"] == "gain"


def test_modes_need_a_gap_wider_than_either_cluster():
    assert len(bench_pairs.modes([1.0, 2.0, 3.0, 4.0, 5.0])) == 1
    assert len(bench_pairs.modes([1.0, 1.1, 5.0])) == 1  # too few runs to split
    assert len(bench_pairs.modes([1.0, 1.1, 1.2, 9.0])) == 1  # a lone outlier is not a cluster
    assert bench_pairs.modes([1.0, 1.2, 2.0, 2.3]) == [(1.1, 2), (2.15, 2)]
    # three clusters: the widest gap alone leaves a left side wider than itself
    record = [56.0, 56.3, 56.8, 58.7, 59.2, 59.5, 59.8, 60.1, 60.3, 60.5, 62.5, 62.6, 62.6]
    assert bench_pairs.modes(record) == [(56.3, 3), (59.8, 7), (62.6, 3)]
    # equal runs (ru_maxrss counts whole KiB) are no cluster on their own
    assert len(bench_pairs.modes([55.359375] * 4 + [55.4296875] * 2 + [55.5] * 2 + [55.578125] * 2)) == 1


def test_the_parent_runs_first_at_odd_seeds_and_last_at_even_ones():
    assert [bench_pairs.run_order(s) for s in (1, 2, 3, 4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def _export(rev, path):
    os.makedirs(path)
    with open(os.path.join(path, "BENCHMARK.json"), "w") as fh:
        json.dump({"run_seconds": {"OLD": 3, "NEW": 99}[rev], "end_to_end": _END_TO_END}, fh)


def _bench_child(cmd, returncode=0, stderr="", check=False, **_):
    """A stand-in for the ``subprocess.run`` call of ``run_bench``; ``check=True``
    raises as the real call does."""
    record = {"metrics": {"sweep_s": {"value": 1.5}}, "failed": 0}
    stdout = "" if returncode else "warming up\n" + json.dumps(record) + "\n"
    proc = subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr=stderr)
    if check:
        proc.check_returncode()
    return proc


def test_main_alternates_the_sides_and_prints_records_and_verdicts(monkeypatch, capsys):
    calls = []

    def run_bench(root, workload, seed, seconds):
        side = os.path.basename(root)
        assert workload == "w" and seconds == 3  # the parent's run_seconds
        calls.append((seed, side))
        sweep = (1.0 if side == "parent" else 0.75) + seed / 64
        return {"sweep_s": sweep, "peak_rss_mb": 50.0, "failed": 0}

    monkeypatch.setattr(bench_pairs, "export", _export)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    argv = ["--parent", "OLD", "--change", "NEW", "--workload", "w", "--seeds", "1-10", "--held-out", "21"]
    assert bench_pairs.main(argv) == 0
    odd, even = ("parent", "change"), ("change", "parent")
    seeds = [*range(1, 11), 21]
    assert calls == [(seed, side) for seed, sides in zip(seeds, [odd, even] * 5 + [odd]) for side in sides]
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines[:11]]
    assert [r["seed"] for r in records] == seeds
    assert records[1] == {"seed": 2, "change": {"sweep_s": 0.78125, "peak_rss_mb": 50.0, "failed": 0},
                          "parent": {"sweep_s": 1.03125, "peak_rss_mb": 50.0, "failed": 0}}
    assert len(lines) == 21 and lines[11] == "w, seeds 1..10" and lines[16] == "w, held-out seeds [21]"
    for block in (lines[13:16], lines[18:21]):
        assert [line[:24].strip() for line in block] == ["sweep_s", "peak_rss_mb", "failed"]
        assert all(line.endswith("  within bound") for line in block[1:])
    # one held-out pair is no gain
    assert lines[13].endswith("  gain") and lines[18].endswith("  within bound")


def test_run_bench_starts_its_child_with_the_tools_environment(monkeypatch):
    # an exported MALLOC_MMAP_THRESHOLD_ pins both sides of a batch only through this
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    seen = []

    def run(cmd, cwd, **kw):
        env = os.environ if kw.get("env") is None else kw["env"]
        seen.append((cwd, env.get("MALLOC_MMAP_THRESHOLD_")))
        return _bench_child(cmd, **kw)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_bench("/b/parent", "w", 3, 45) == {"sweep_s": 1.5, "failed": 0}
    assert seen == [("/b/parent", "131072")]


def test_a_failed_bench_run_ends_the_tool_with_one_line(monkeypatch, capsys):
    def run(cmd, cwd, **kw):
        if cmd[cmd.index("--seed") + 1] == "2" and os.path.basename(cwd) == "parent":
            stderr = "warming up\nerror: imported memloss from /elsewhere/memloss, not from src\n"
            return _bench_child(cmd, returncode=2, stderr=stderr, **kw)
        return _bench_child(cmd, **kw)

    monkeypatch.setattr(bench_pairs, "export", _export)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "OLD", "--change", "NEW", "--workload", "w", "--seeds", "1-3"])
    # a string code: the interpreter prints it on stderr and exits with status 1
    assert exc.value.code == (
        "seed 2, parent: bench/run.py exited 2: error: imported memloss from /elsewhere/memloss, not from src")
    # the record of seed 1 was printed before the failure and stays
    assert [json.loads(line)["seed"] for line in capsys.readouterr().out.splitlines()] == [1]


def test_outside_a_git_checkout_export_fails_with_one_line(tmp_path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path.parent)}
    argv = [sys.executable, _PATH, "--parent", "HEAD", "--change", "HEAD", "--workload", "w", "--seeds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == "" and proc.stderr == "git archive HEAD failed\n"
