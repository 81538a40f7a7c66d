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


def test_pinned_runs_add_peak_rss_rows_beside_the_default_ones():
    rss = {"parent": [56.5, 60.3, 56.4, 60.2], "change": [60.0] * 4}
    pinned = {"parent": [53.0, 53.2, 53.1, 53.3], "change": [52.9, 53.0, 53.1, 53.0]}
    records = [{"seed": i + 1, **{s: {"sweep_s": 1.0, "peak_rss_mb": rss[s][i]} for s in rss},
                **{s + " pinned": {"sweep_s": 1.0, "peak_rss_mb": pinned[s][i]} for s in pinned}}
               for i in range(4)]
    rows = bench_pairs.batch_rows(records, _SPECS)
    assert list(rows) == ["sweep_s", "peak_rss_mb", "peak_rss_mb pinned"]
    pin = rows["peak_rss_mb pinned"]
    assert pin["sides"] == ("parent pinned", "change pinned")
    assert pin["parent pinned"] == pytest.approx(bench_pairs.quartiles(pinned["parent"]))
    assert pin["better"] == 3 and pin["verdict"] == "within bound"
    assert rows["peak_rss_mb"]["verdict"] == "within bound"
    text = bench_pairs.format_summary("title", rows)
    assert "parent modes: 56.45 (x2), 60.25 (x2)" in text and "pinned modes" not in text
    # without pinned runs a batch has the plain rows only
    plain = [{s: r[s] for s in ("seed", "parent", "change")} for r in records]
    assert bench_pairs.batch_rows(plain, _SPECS) == bench_pairs.summarize(plain, _SPECS)


def test_only_a_pinned_child_gets_the_mmap_threshold(monkeypatch):
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    env = bench_pairs.pinned_env(131072)
    assert env["MALLOC_MMAP_THRESHOLD_"] == "131072" and env["PATH"] == os.environ["PATH"]
    assert "MALLOC_MMAP_THRESHOLD_" not in os.environ


def test_main_alternates_the_sides_and_prints_records_and_verdicts(monkeypatch, capsys):
    def export(rev, path):
        os.makedirs(path)
        with open(os.path.join(path, "BENCHMARK.json"), "w") as fh:
            json.dump({"run_seconds": {"OLD": 3, "NEW": 99}[rev], "end_to_end": _END_TO_END}, fh)

    calls = []

    def run_bench(root, workload, seed, seconds, env=None):
        side, pinned = os.path.basename(root), env is not None
        assert workload == "w" and seconds == 3  # the parent's run_seconds
        assert not pinned or env["MALLOC_MMAP_THRESHOLD_"] == "4096"
        calls.append((seed, side + " pinned" * pinned))
        sweep = (1.0 if side == "parent" else 0.75) + seed / 64
        return {"sweep_s": sweep, "peak_rss_mb": 50.0 + pinned, "failed": 0}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    argv = ["--parent", "OLD", "--change", "NEW", "--workload", "w", "--seeds", "1-10", "--held-out", "21",
            "--mmap-threshold", "4096"]
    assert bench_pairs.main(argv) == 0
    odd, even = ("parent", "change"), ("change", "parent")
    seeds = [*range(1, 11), 21]
    assert calls == [(seed, side + pin) for seed, sides in zip(seeds, [odd, even] * 5 + [odd])
                     for side in sides for pin in ("", " pinned")]
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines[:11]]
    assert [r["seed"] for r in records] == seeds
    assert records[1] == {"seed": 2, "change": {"sweep_s": 0.78125, "peak_rss_mb": 50.0, "failed": 0},
                          "change pinned": {"sweep_s": 0.78125, "peak_rss_mb": 51.0, "failed": 0},
                          "parent": {"sweep_s": 1.03125, "peak_rss_mb": 50.0, "failed": 0},
                          "parent pinned": {"sweep_s": 1.03125, "peak_rss_mb": 51.0, "failed": 0}}
    assert len(lines) == 23 and lines[11] == "w, seeds 1..10" and lines[17] == "w, held-out seeds [21]"
    for block in (lines[13:17], lines[19:23]):
        assert [line[:24].strip() for line in block] == ["sweep_s", "peak_rss_mb", "peak_rss_mb pinned", "failed"]
        assert all(line.endswith("  within bound") for line in block[1:])
    # one held-out pair is no gain
    assert lines[13].endswith("  gain") and lines[19].endswith("  within bound")


def test_outside_a_git_checkout_export_fails_with_one_line(tmp_path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path.parent)}
    argv = [sys.executable, _PATH, "--parent", "HEAD", "--change", "HEAD", "--workload", "w", "--seeds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == "" and proc.stderr == "git archive HEAD failed\n"
