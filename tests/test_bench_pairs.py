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
