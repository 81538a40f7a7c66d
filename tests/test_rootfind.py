"""Newton from above with a per-element stop, and what it buys: roots that
do not depend on their batch, and one backward fill shared by several base
indices of the exact tails."""

import contextlib
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memloss import maps
from memloss import sequences as seqs
from memloss.maps import _lsv_left_inverse_array, _pik_forward_array, cui, lsv, pikovsky
from memloss.partitions import _fill_groups, _points, _return_time_tails, return_time_tail
from memloss.rootfind import MAX_ITER, vec_newton_from_above


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@contextlib.contextmanager
def f_evals(name):
    """Counts of f evaluations, one entry per call of the named root-finder
    as :mod:`memloss.maps` calls it."""
    counts = []
    real = getattr(maps, name)

    def counting(f, *args, **kwargs):
        counts.append(0)

        def counted(x):
            counts[-1] += 1
            return f(x)

        return real(counted, *args, **kwargs)

    with mock.patch.object(maps, name, counting):
        yield counts


_unit = st.floats(0.0, 1.0)


class TestBatchIndependence:
    @settings(max_examples=60, deadline=2000)
    @given(
        y=st.lists(_unit, min_size=2, max_size=200),
        gammas=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_lsv_sub_batch_alone_gives_the_same_floats(self, y, gammas, data):
        y = np.array(y)
        g = np.array(data.draw(st.lists(st.sampled_from(gammas), min_size=len(y), max_size=len(y))))
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(y), max_size=len(y))))
        full = _lsv_left_inverse_array(y, g)
        alone = _lsv_left_inverse_array(y[keep], g[keep])
        assert np.array_equal(_bits(full[keep]), _bits(alone))

    @settings(max_examples=60, deadline=2000)
    @given(x=st.lists(_unit, min_size=2, max_size=200), gamma=st.floats(1.01, 2.99), data=st.data())
    def test_pikovsky_sub_batch_alone_gives_the_same_floats(self, x, gamma, data):
        x = np.array(x)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x))))
        full = _pik_forward_array(x, gamma)
        alone = _pik_forward_array(x[keep], gamma)
        assert np.array_equal(_bits(full[keep]), _bits(alone))


def _edge_points(a):
    near = [np.nextafter(a, 0.0), a, np.nextafter(a, 1.0)]
    return np.array([0.0, 5e-324, 1e-300, *near, np.nextafter(1.0, 0.0), 1.0])


class TestStopRule:
    # The per-element rule ends the loop long before the cap; a stop on the
    # batch's largest step runs to the cap on grids, where Newton cycles at
    # 1-2 ulp.
    BOUND = 15

    @settings(max_examples=40, deadline=2000)
    @given(gamma=st.floats(1e-3, 1.0 - 1e-3, exclude_max=True), seed=st.integers(0, 2**31))
    def test_lsv_left_inverse_stops_early(self, gamma, seed):
        y = np.concatenate([_edge_points(0.5), np.random.default_rng(seed).uniform(0.0, 1.0, 2000),
                            np.linspace(0.0, 1.0, 2**12 + 1)])
        with f_evals("vec_newton_from_above") as counts:
            u = maps.inverse_branch_array(lsv(gamma), maps.Branch.LEFT, y)
        assert counts and max(counts) <= self.BOUND < MAX_ITER
        assert np.all((u >= 0.0) & (u <= 0.5))
        assert np.max(np.abs(u * (1.0 + (2.0 * u) ** gamma) - y)) <= 4.5e-16

    @settings(max_examples=40, deadline=2000)
    @given(gamma=st.floats(1.0 + 1e-3, 3.0 - 1e-3), seed=st.integers(0, 2**31))
    def test_pikovsky_forward_stops_early(self, gamma, seed):
        x = np.concatenate([_edge_points(1.0 / (2.0 * gamma)),
                            np.random.default_rng(seed).uniform(0.0, 1.0, 2000)])
        with f_evals("vec_bisect_newton") as counts:
            t = _pik_forward_array(x, gamma)
        assert counts and max(counts) <= self.BOUND < MAX_ITER
        a = 1.0 / (2.0 * gamma)
        assert np.all(t[x == 0.0] == -1.0) and np.all(t[x == 1.0] == 1.0)
        assert np.all(t[x >= a] >= 0.0) and np.all(t[x < a] <= 0.0)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_zero_or_nan_derivative_stops_the_element(self, bad):
        # f(x) = x**2 - 1/4 from x0 = 1; element 0 gets a bad derivative.
        calls = []

        def fdf(x):
            calls.append(1)
            d = 2.0 * x
            d[0] = bad
            return x * x - 0.25, d

        x = vec_newton_from_above(fdf, np.ones(3), 0.0)
        assert len(calls) <= 10
        assert x[0] == 1.0
        assert np.all(np.abs(x[1:] - 0.5) <= 1e-16)


def _explicit(support, tail, n):
    # Two leading maps, then a periodic or constant tail: windows from
    # k = 3 on are chains, the shared window is a triangle.
    a, b, c = support
    body = [c, a] if tail == "periodic" else [c]
    return seqs.explicit([a, b] + body * n)


_SUPPORTS = {
    "lsv": [lsv(0.35), lsv(0.7), lsv(0.5)],
    "cui": [cui(0.5, 2.0), cui(0.5, 1.5), cui(0.7, 1.0)],  # the first two share gamma
    "pikovsky": [pikovsky(1.5), pikovsky(2.5), pikovsky(2.0)],
}


def _same_points(a, b):
    assert (a.params, a.k, len(a.x) - 1) == (b.params, b.k, len(b.x) - 1)
    assert np.array_equal(_bits(a.x), _bits(b.x)) and np.array_equal(_bits(a.x_next), _bits(b.x_next))


def _tail_sequence(kind, support, n):
    if kind == "iid":
        return seqs.iid(support, [0.3, 0.5, 0.2], seed=41)
    if kind == "markov":
        return seqs.markov(support, [[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.4, 0.4, 0.2]], seed=43)
    if kind == "periodic":
        return seqs.periodic([support[i] for i in (0, 1, 1, 2)])
    return _explicit(support, kind.split("-")[1], n)


class TestSharedFill:
    N_MAX = 300

    @pytest.mark.parametrize("ks", [(1, 2, 3, 4), (1, 3)], ids=["k1-4", "k1,3"])
    @pytest.mark.parametrize("base", ["m_k", "lebesgue"])
    @pytest.mark.parametrize("kind", ["iid", "markov", "periodic", "explicit-periodic", "explicit-constant"])
    @pytest.mark.parametrize("family", ["lsv", "cui", "pikovsky"])
    def test_equals_per_k_tail_bit_for_bit(self, family, kind, base, ks):
        seq = _tail_sequence(kind, _SUPPORTS[family], self.N_MAX + 8)
        shared = _return_time_tails(seq, ks, self.N_MAX, base=base)
        assert [t.k for t in shared] == list(ks)
        for k, table in zip(ks, shared):
            alone = return_time_tail(seq, k, self.N_MAX, base=base)
            assert table.label == alone.label
            assert np.array_equal(_bits(table.values), _bits(alone.values)), k

    @pytest.mark.parametrize("kind", ["iid", "periodic", "explicit-periodic", "explicit-constant"])
    def test_endpoints_equal_per_k_bit_for_bit(self, kind):
        # The Lebesgue tail x_n(k) + t(n) / 2 drops the low bits of the
        # smaller term; the endpoints themselves must agree too.
        seq = _tail_sequence(kind, _SUPPORTS["lsv"], self.N_MAX + 8)
        ks = (1, 2, 3, 4)
        for k, ep in zip(ks, _points(seq, ks, self.N_MAX)):
            _same_points(ep, _points(seq, [k], self.N_MAX)[0])

    @pytest.mark.parametrize("family", ["lsv", "pikovsky"])
    def test_window_constant_from_k_but_not_from_the_fill_base(self, family):
        # From k = 2 on the window is one map, so k = 2 alone runs the scalar
        # chain while the shared fill from k0 = 1 runs the array triangle.
        first, rest = (lsv(0.3), lsv(0.5)) if family == "lsv" else (pikovsky(1.3), pikovsky(2.0))
        n_max, ks = 1500, (1, 2, 3)
        seq = seqs.explicit([first] + [rest] * (n_max + 8))
        for k, ep, table in zip(ks, _points(seq, ks, n_max), _return_time_tails(seq, ks, n_max)):
            _same_points(ep, _points(seq, [k], n_max)[0])
            assert np.array_equal(_bits(table.values), _bits(return_time_tail(seq, k, n_max).values)), k

    def test_only_nearby_indices_share_a_fill(self):
        # A shared fill of depth n_max + span must cost no more than one
        # fill per index.
        assert _fill_groups([1, 2, 3, 4], 2000) == [[1, 2, 3, 4]]
        assert _fill_groups([1, 3], self.N_MAX) == [[1, 3]]
        assert _fill_groups([1, 500], 50) == [[1], [500]]
        assert _fill_groups([1, 2, 40, 41], 50) == [[1, 2], [40, 41]]
        assert _fill_groups([1, 2, 3], 0) == [[1], [2], [3]]

    @pytest.mark.parametrize("n_max, ks", [(50, (500, 1, 2)), (0, (1, 2, 4)), (1, (1, 2, 3))])
    @pytest.mark.parametrize("kind", ["iid", "markov", "periodic", "explicit-periodic", "explicit-constant"])
    def test_spread_or_shallow_indices_equal_per_k(self, kind, n_max, ks):
        seq = _tail_sequence(kind, _SUPPORTS["lsv"], 600)
        for k, ep in zip(ks, _points(seq, ks, n_max)):
            assert ep.k == k and len(ep.x) == len(ep.x_next) + 1 == n_max + 1
            _same_points(ep, _points(seq, [k], n_max)[0])
        if n_max >= 1:  # a tail table needs t(0) and t(1)
            for k, table in zip(ks, _return_time_tails(seq, ks, n_max)):
                assert table.k == k
                assert np.array_equal(_bits(table.values), _bits(return_time_tail(seq, k, n_max).values))

