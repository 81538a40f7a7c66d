"""The statistics of ``tools/bench_pairs.py``, on fixed run records."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _records(parent, change, name="peak_rss_mb"):
    return [{"seed": i + 1, "parent": {name: p}, "change": {name: c}} for i, (p, c) in enumerate(zip(parent, change))]


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
    m = bench_pairs.summarize(_records(parent, change))["peak_rss_mb"]
    assert m["lower"] == 10 and m["pairs"] == 10 and m["resolved"]
    assert m["parent"] == pytest.approx((64.85, 67.45, 67.5))
    assert m["change"] == pytest.approx((56.95, 57.2, 57.375))
    assert m["relative"] == pytest.approx(57.2 / 67.45 - 1.0)
    # the parent's runs split into two clusters, the change's do not
    assert m["modes"]["parent"] == [(63.9, 3), (67.5, 7)]
    assert m["modes"]["change"] == [(57.2, 10)]
    text = bench_pairs.format_summary("title", {"peak_rss_mb": m})
    assert "10/10" in text and "parent modes: 63.9 (x3), 67.5 (x7)" in text and "change modes" not in text


def test_a_gain_inside_the_parents_spread_is_not_resolved():
    parent = [1.0, 1.2, 0.9, 1.1, 1.3, 0.8]
    change = [0.95, 1.15, 0.85, 1.05, 1.25, 0.75]
    m = bench_pairs.summarize(_records(parent, change, "sweep_s"))["sweep_s"]
    assert m["lower"] == 6 and not m["resolved"]
    assert m["relative"] == pytest.approx(-0.05 / 1.05)


def test_counts_that_stay_zero_read_no_change():
    m = bench_pairs.summarize(_records([0, 0, 0], [0, 0, 0], "failed"))["failed"]
    assert m["lower"] == 0 and m["relative"] == 0.0 and not m["resolved"]


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


def test_the_parent_alternates_first_and_last_and_the_others_swap_every_second_seed():
    assert [bench_pairs.run_order(s, ("parent", "change")) for s in (1, 2, 3, 4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]
    sides = ("parent", "change", "repeat")
    assert [bench_pairs.run_order(s, sides) for s in (1, 2, 3, 4)] == [
        ("parent", "change", "repeat"), ("repeat", "change", "parent"),
        ("parent", "repeat", "change"), ("change", "repeat", "parent")]


def _triples(sweep, rss, pinned_rss=None):
    """Records of an A/A batch: per side a list of ``sweep_s`` and of ``peak_rss_mb``
    values, and optionally of the pinned runs' ``peak_rss_mb``."""
    records = []
    for i in range(len(sweep["parent"])):
        record = {"seed": i + 1}
        for side in ("parent", "change", "repeat"):
            record[side] = {"sweep_s": sweep[side][i], "peak_rss_mb": rss[side][i]}
            if pinned_rss is not None:
                record[side + " pinned"] = {"sweep_s": sweep[side][i], "peak_rss_mb": pinned_rss[side][i]}
        records.append(record)
    return records


_FLAT_RSS = {side: [60.0] * 4 for side in ("parent", "change", "repeat")}


def test_an_aa_batch_gets_an_aa_row_after_each_metric():
    sweep = {"parent": [1.0, 1.1, 1.2, 1.3], "change": [0.9, 1.0, 1.1, 1.2], "repeat": [1.3, 1.2, 1.1, 1.0]}
    rows = bench_pairs.batch_rows(_triples(sweep, _FLAT_RSS))
    assert list(rows) == ["sweep_s", "sweep_s A/A", "peak_rss_mb", "peak_rss_mb A/A"]
    assert rows["sweep_s"]["sides"] == ("parent", "change") and rows["sweep_s"]["lower"] == 4
    aa = rows["sweep_s A/A"]
    assert aa["sides"] == ("parent", "repeat") and aa["lower"] == 2 and aa["relative"] == 0.0
    assert not aa["resolved"]
    text = bench_pairs.format_summary("title", rows)
    assert "sweep_s A/A" in text and " 2/4 " in text and " 4/4 " in text


def test_pinned_runs_add_peak_rss_rows_beside_the_default_ones():
    sweep = {side: [1.0] * 4 for side in ("parent", "change", "repeat")}
    rss = {**_FLAT_RSS, "parent": [56.5, 60.3, 56.4, 60.2]}
    pinned = {"parent": [53.0, 53.2, 53.1, 53.3], "change": [52.9, 53.0, 53.1, 53.0],
              "repeat": [53.1, 53.0, 53.2, 53.1]}
    rows = bench_pairs.batch_rows(_triples(sweep, rss, pinned))
    assert list(rows) == ["sweep_s", "sweep_s A/A", "peak_rss_mb", "peak_rss_mb A/A",
                          "peak_rss_mb pinned", "peak_rss_mb pinned A/A"]
    pin = rows["peak_rss_mb pinned"]
    assert pin["sides"] == ("parent pinned", "change pinned")
    assert pin["parent pinned"] == pytest.approx(bench_pairs.quartiles(pinned["parent"]))
    assert pin["lower"] == 3
    assert rows["peak_rss_mb pinned A/A"]["sides"] == ("parent pinned", "repeat pinned")
    text = bench_pairs.format_summary("title", rows)
    assert "parent modes: 56.45 (x2), 60.25 (x2)" in text and "pinned modes" not in text


@pytest.mark.parametrize("repeat,resolved", [(0.85, False), (0.97, True)])
def test_a_resolved_row_must_also_move_further_than_its_aa_row(repeat, resolved):
    # the change moves the medians by 0.1, past the parent's q1-q3 width; the repeat by 0.15 or 0.03
    parent = [1.0, 1.02, 0.98, 1.01]
    sweep = {"parent": parent, "change": [v - 0.1 for v in parent], "repeat": [v - 1.0 + repeat for v in parent]}
    pinned = {"parent": [53.0] * 4, "change": [52.9] * 4, "repeat": [52.0 + repeat] * 4}
    records = _triples(sweep, _FLAT_RSS, pinned)
    assert bench_pairs.summarize(records)["sweep_s"]["resolved"]
    rows = bench_pairs.batch_rows(records)
    assert rows["sweep_s"]["resolved"] is resolved
    assert rows["peak_rss_mb pinned"]["resolved"] is resolved
    # the A/A row itself keeps the plain rule
    assert rows["sweep_s A/A"] == bench_pairs.summarize(records, other="repeat")["sweep_s"]


def test_without_a_repeat_side_resolved_keeps_the_plain_rule():
    parent = [1.0, 1.02, 0.98, 1.01]
    records = _records(parent, [v - 0.1 for v in parent], "sweep_s")
    assert bench_pairs.batch_rows(records) == bench_pairs.summarize(records)
    assert bench_pairs.batch_rows(records)["sweep_s"]["resolved"]


def test_only_a_pinned_child_gets_the_mmap_threshold(monkeypatch):
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    env = bench_pairs.pinned_env(131072)
    assert env["MALLOC_MMAP_THRESHOLD_"] == "131072" and env["PATH"] == os.environ["PATH"]
    assert "MALLOC_MMAP_THRESHOLD_" not in os.environ
