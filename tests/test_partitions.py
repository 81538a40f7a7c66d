import functools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memloss import errors, partitions
from memloss import sequences as seqs
from memloss.maps import (
    Branch,
    Family,
    MapParams,
    cui,
    grossmann_horner,
    inverse_branch_array,
    lsv,
    pikovsky,
    state_interval,
)
from memloss.partitions import (
    TailTable,
    _return_time_tails,
    default_fit_window,
    fit_power_law,
    lsv_preimage_points,
    mc_zscores,
    pikovsky_endpoints,
    reference_set,
    return_time_tail,
    return_time_tail_mc,
)
from memloss.sequences import _entry_indices


def _y(ep):
    """y_n(k) = h_k(x_{n-1}(k+1)) of an LSV/Cui record, with y_0 = 1."""
    return np.concatenate([[1.0], inverse_branch_array(ep.params, Branch.RIGHT, ep.x_next)])


def _pullback_tail(seq, k, n, base):
    """t(n) = P(tau >= n) from one backward pass over a union of intervals,
    any family: start from the state interval, and for i = n-1 .. 1 remove
    the reference set Y_{k+i} and pull the rest back through both inverse
    branches of T_{k+i-1}.  What is left is {tau >= n}; measure it on the base."""
    params = [seqs.param_at(seq, j) for j in range(k, k + n)]
    lo, hi = (np.array([v]) for v in state_interval(params[0]))
    for i in range(n - 1, 0, -1):
        for c, d in reference_set(params[i]):
            lo, hi = np.concatenate([lo, np.maximum(lo, d)]), np.concatenate([np.minimum(hi, c), hi])
            keep = hi > lo
            lo, hi = lo[keep], hi[keep]
        ends = [(inverse_branch_array(params[i - 1], b, lo), inverse_branch_array(params[i - 1], b, hi))
                for b in Branch]  # a decreasing branch swaps an interval's ends
        lo = np.concatenate([np.minimum(a, b) for a, b in ends])
        hi = np.concatenate([np.maximum(a, b) for a, b in ends])
    sets = reference_set(params[0]) if base == "m_k" else [state_interval(params[0])]
    inside = sum(np.sum(np.maximum(np.minimum(hi, d) - np.maximum(lo, c), 0.0)) for c, d in sets)
    return inside / sum(d - c for c, d in sets)


class TestFitPowerLaw:
    def test_exact_square(self):
        n = np.arange(0, 101, dtype=float)
        vals = np.concatenate([[1.0], 1.0 / n[1:] ** 2])
        fit = fit_power_law(TailTable(values=vals, label="r"), 1, 100)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_prefactor(self):
        n = np.arange(1, 200, dtype=float)
        vals = np.concatenate([[10.0], 5.0 * n ** -1.3])
        fit = fit_power_law(TailTable(values=vals, label="mc"), 1, 150)
        assert fit.slope == pytest.approx(-1.3, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-12)

    def test_bounded_perturbation(self):
        n = np.arange(1, 1001, dtype=float)
        vals = np.concatenate([[1.5], n ** -2 * (1 + 0.1 * np.sin(n))])
        fit = fit_power_law(TailTable(values=vals, label="mc"), 10, 1000)
        assert -2.05 <= fit.slope <= -1.95

    def test_nonpositive(self):
        vals = np.array([1.0, 0.5, 0.0, 0.0])
        with pytest.raises(errors.NonPositiveValue):
            fit_power_law(TailTable(values=vals, label="r"), 1, 3)

    def test_default_window(self):
        lo, hi = default_fit_window(10_000)
        assert 11 <= lo < hi <= 10_000


class TestLsvEndpoints:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_first_points(self, gamma):
        ep = lsv_preimage_points(seqs.constant(lsv(gamma)), 1, 5)
        y = _y(ep)
        assert ep.x[0] == 1.0 and y[0] == 1.0
        assert ep.x[1] == pytest.approx(0.5, abs=1e-14)
        assert y[1] == pytest.approx(1.0, abs=1e-14)

    def test_monotone_limits(self):
        ep = lsv_preimage_points(seqs.constant(lsv(0.5)), 1, 500)
        y = _y(ep)
        assert np.all(np.diff(ep.x) < 0)
        assert np.all(np.diff(y[1:]) < 0)
        assert ep.x[-1] < 1e-4 and y[-1] - 0.5 < 1e-4

    def test_stationary_slope(self):
        ep = lsv_preimage_points(seqs.constant(lsv(0.5)), 1, 1000)
        t = TailTable(values=np.minimum.accumulate(np.minimum(ep.x, 1.0)), label="r")
        fit = fit_power_law(t, 50, 1000)
        assert fit.slope == pytest.approx(-2.0, abs=0.15)

    def test_nonstationary_matches_manual_pullback(self):
        from memloss.maps import Branch, inverse_branch

        s = seqs.periodic([lsv(0.5), lsv(0.8)])
        ep = lsv_preimage_points(s, 1, 4)
        # x_3(1) = g_1 g_2 g_3 (1), gamma cycle 0.5, 0.8, 0.5
        v = inverse_branch(lsv(0.5), Branch.LEFT, 1.0)
        v = inverse_branch(lsv(0.8), Branch.LEFT, v)
        v = inverse_branch(lsv(0.5), Branch.LEFT, v)
        assert ep.x[3] == pytest.approx(v, abs=1e-13)

    def test_iid_window_uses_triangle(self):
        s = seqs.iid([lsv(0.5), lsv(0.8)], [0.5, 0.5], seed=1)
        ep = lsv_preimage_points(s, 1, 60)
        assert np.all(np.diff(ep.x) < 0)

    def test_family_guard(self):
        with pytest.raises(errors.ParamError):
            lsv_preimage_points(seqs.constant(pikovsky(1.5)), 1, 10)


class TestPikovskyEndpoints:
    def test_first_points(self):
        ep = pikovsky_endpoints(seqs.constant(pikovsky(1.5)), 1, 10)
        # x holds u = 1 - x_plus: the right-branch pullbacks of 0 are 0, 1/3, ...
        assert ep.x[0] == 1.0
        assert ep.x[1] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_symmetry_is_structural(self):
        # left endpoints are negatives of right endpoints by oddness of the
        # map; the chain stores the right side only.
        ep = pikovsky_endpoints(seqs.constant(pikovsky(2.0)), 1, 50)
        assert np.all(np.diff(ep.x) < 0) and np.all(np.diff(ep.x_next) < 0)

    def test_stationary_gap_slope(self):
        ep = pikovsky_endpoints(seqs.constant(pikovsky(2.0)), 1, 1000)
        t = TailTable(values=np.minimum.accumulate(np.minimum(ep.x, 1.0)), label="r")
        fit = fit_power_law(t, 50, 1000)
        assert fit.slope == pytest.approx(-1.0, abs=0.1)


class TestReturnTimeTail:
    @pytest.mark.parametrize(
        "seq,base",
        [
            (seqs.constant(lsv(0.5)), "m_k"),
            (seqs.constant(lsv(0.5)), "lebesgue"),
            (seqs.constant(pikovsky(2.0)), "m_k"),
            (seqs.constant(pikovsky(2.0)), "lebesgue"),
            (seqs.constant(grossmann_horner()), "m_k"),
            (seqs.constant(grossmann_horner()), "lebesgue"),
        ],
        ids=["lsv-m", "lsv-leb", "pik-m", "pik-leb", "gh-m", "gh-leb"],
    )
    def test_starts_at_one_and_monotone(self, seq, base):
        t = return_time_tail(seq, 1, 200, base=base)
        assert t.values[0] == 1.0 and t.values[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(t.values) <= 1e-12)

    def test_lsv_mk_slope_matches_endpoint_order(self):
        # the reference-measure tail follows the endpoint decay n**(-1/gamma)
        t = return_time_tail(seqs.constant(lsv(0.5)), 1, 1500, base="m_k")
        fit = fit_power_law(t, 100, 1500)
        assert fit.slope == pytest.approx(-2.0, abs=0.2)

    def test_pikovsky_lebesgue_slope(self):
        t = return_time_tail(seqs.constant(pikovsky(2.0)), 1, 1500, base="lebesgue")
        assert fit_power_law(t, 100, 1500).slope == pytest.approx(-1.0, abs=0.15)

    def test_gh_slopes(self):
        s = seqs.constant(grossmann_horner())
        assert fit_power_law(return_time_tail(s, 1, 1500, "m_k"), 100, 1500).slope == pytest.approx(-2.0, abs=0.2)
        assert fit_power_law(return_time_tail(s, 1, 1500, "lebesgue"), 100, 1500).slope == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("base", ["m_k", "lebesgue"])
    @pytest.mark.parametrize("n", [1, 2, 3, 300, 2000])
    def test_gh_against_pullback(self, n, base):
        s = seqs.constant(grossmann_horner())
        t = return_time_tail(s, 1, n, base=base).values
        assert abs(t[n] - _pullback_tail(s, 1, n, base)) <= 1e-14

    def test_gh_two_step_return_by_hand(self):
        # tau = 2 on Y = (-1/4, 0): T(x) lands in g_R(Y) = [1/4, 25/64], so
        # x in g_L of it, of length ((3/4)^2 - (39/64)^2) / 4
        t = return_time_tail(seqs.constant(grossmann_horner()), 1, 3, base="m_k").values
        assert t[3] == pytest.approx(1.0 - (3 / 4) ** 2 + (39 / 64) ** 2, abs=1e-15)

    def test_lsv_tail_two_ways(self):
        # cell-sum recomputation: t(n) = 1 - sum of resolved cell masses
        s = seqs.periodic([lsv(0.5), lsv(0.7)])
        n_max = 300
        t = return_time_tail(s, 1, n_max, base="m_k")
        y = _y(lsv_preimage_points(s, 1, n_max))
        cells = 2.0 * (y[1:] - np.concatenate([y[2:], [0.5]]))  # |[y_{n+1}, y_n]| * 2
        resolved = np.concatenate([[0.0], np.cumsum(cells[:-1])])
        two_way = 1.0 - resolved
        assert np.max(np.abs(t.values[1:] - two_way)) <= 1e-12

    def test_shift_identity(self):
        # element j of the rotated cycle is element j + k - 1 of s
        cycle = [lsv(0.5), lsv(0.7), lsv(0.6)]
        s = seqs.periodic(cycle)
        for k in (2, 3, 5):
            direct = return_time_tail(s, k, 100, base="m_k")
            r = (k - 1) % 3
            via_shift = return_time_tail(seqs.periodic(cycle[r:] + cycle[:r]), 1, 100, base="m_k")
            assert np.allclose(direct.values, via_shift.values, atol=1e-14)

    def test_monotone_domination(self):
        t1 = return_time_tail(seqs.constant(lsv(0.4)), 1, 200, "m_k")
        t2 = return_time_tail(seqs.constant(lsv(0.6)), 1, 200, "m_k")
        assert np.all(t1.values[2:] <= t2.values[2:] + 1e-15)

    def test_bad_base(self):
        with pytest.raises(errors.ParamError):
            return_time_tail(seqs.constant(lsv(0.5)), 1, 10, base="nope")

    @pytest.mark.parametrize("base", ["m_k", "lebesgue"])
    def test_explicit_sequence_read_to_its_last_entry(self, base):
        # t(0..n_max) at base k reads the maps at k .. k + n_max - 1 only
        ten = [lsv(0.5), lsv(0.8)] * 5
        tail = return_time_tail(seqs.explicit(ten), 1, 10, base=base).values
        longer = return_time_tail(seqs.explicit(ten + [lsv(0.3), lsv(0.6)]), 1, 10, base=base).values
        assert np.array_equal(_bits(tail), _bits(longer))
        shared = _return_time_tails(seqs.explicit(ten), [1, 2], 9, base=base)
        for k, table in zip((1, 2), shared):
            alone = return_time_tail(seqs.explicit(ten + [lsv(0.3)]), k, 9, base=base).values
            assert np.array_equal(_bits(table.values), _bits(alone))
        with pytest.raises(errors.DepthError):
            return_time_tail(seqs.explicit(ten), 1, 11, base=base)

    @pytest.mark.parametrize("base", ["m_k", "lebesgue"])
    def test_mc_reads_an_explicit_sequence_to_its_last_entry(self, base):
        # the MC table to n_max reads the maps at k .. k + n_max - 1, as the exact one does
        ten = [lsv(0.5), lsv(0.8)] * 5
        mc = return_time_tail_mc(seqs.explicit(ten), 1, 10, 2000, seed=4, base=base)
        longer = return_time_tail_mc(seqs.explicit(ten + [lsv(0.3), lsv(0.6)]), 1, 10, 2000, seed=4, base=base)
        assert np.array_equal(_bits(mc.values), _bits(longer.values))
        assert np.array_equal(_bits(mc.stderr), _bits(longer.stderr)) and mc.notes == longer.notes
        with pytest.raises(errors.DepthError):
            return_time_tail_mc(seqs.explicit(ten), 1, 11, 2000, seed=4, base=base)

    @pytest.mark.parametrize("params", [lsv(0.5), cui(0.5, 2.0), pikovsky(2.0), grossmann_horner()],
                             ids=lambda p: p.family.value)
    @pytest.mark.parametrize("n_max", [-5, -1, 0])
    def test_n_max_below_one_is_a_param_error(self, params, n_max):
        seq = seqs.constant(params)
        with pytest.raises(errors.ParamError):
            return_time_tail(seq, 1, n_max)
        with pytest.raises(errors.ParamError):
            _return_time_tails(seq, [1, 2], n_max)
        with pytest.raises(errors.ParamError):
            return_time_tail_mc(seq, 1, n_max, 1000, 0)


class TestReturnTimeTailMc:
    def test_full_return_toy(self, monkeypatch):
        # reference sets covering the whole interval force tau = 1
        s = seqs.constant(lsv(0.5))
        monkeypatch.setattr(partitions, "reference_set", lambda params: [(0.0, 1.0)])
        t = return_time_tail_mc(s, 1, 10, 2000, seed=1)
        assert t.values[1] == 1.0 and t.values[2] == 0.0

    def test_lsv_against_exact(self):
        s = seqs.constant(lsv(0.5))
        exact = return_time_tail(s, 1, 200, "m_k")
        mc = return_time_tail_mc(s, 1, 200, 20_000, seed=3, base="m_k")
        z = mc_zscores(exact, mc)
        assert np.nanmax(np.abs(z)) <= 4.0

    def test_gh_against_exact(self):
        s = seqs.constant(grossmann_horner())
        exact = return_time_tail(s, 1, 200, "m_k")
        mc = return_time_tail_mc(s, 1, 200, 20_000, seed=3, base="m_k")
        z = mc_zscores(exact, mc)
        assert np.nanmax(np.abs(z)) <= 4.0

    def test_pikovsky_against_exact(self):
        s = seqs.constant(pikovsky(2.0))
        exact = return_time_tail(s, 1, 100, "lebesgue")
        mc = return_time_tail_mc(s, 1, 100, 20_000, seed=5, base="lebesgue")
        z = mc_zscores(exact, mc)
        assert np.nanmax(np.abs(z)) <= 4.0

    def test_seeds_differ_but_both_pass(self):
        s = seqs.constant(lsv(0.5))
        exact = return_time_tail(s, 1, 100, "m_k")
        a = return_time_tail_mc(s, 1, 100, 10_000, seed=11)
        b = return_time_tail_mc(s, 1, 100, 10_000, seed=12)
        assert not np.array_equal(a.values, b.values)
        assert np.nanmax(np.abs(mc_zscores(exact, a))) <= 4.0
        assert np.nanmax(np.abs(mc_zscores(exact, b))) <= 4.0

    @pytest.mark.parametrize("min_tail", [None, 1e-4])
    def test_zscores_need_a_sample_count(self, min_tail):
        exact = TailTable(values=np.array([1.0, 1.0, 0.5]), label="h_k")
        mc = TailTable(values=np.array([1.0, 1.0, 0.49]), label="mc")
        with pytest.raises(errors.ParamError, match="sample count"):
            mc_zscores(exact, mc, min_tail=min_tail)


@functools.lru_cache(maxsize=None)
def _exact_orbit(pikovsky_map, gamma, n):
    """The orbit from 1 to depth n at 40 digits: Pikovsky u -> u - u^g / (2g),
    LSV/Cui left-branch pullbacks by Newton from above on u (1 + (2u)^g) = y,
    run to full precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        g, out = mpmath.mpf(gamma), [mpmath.mpf(1)]
        for _ in range(n):
            y = out[-1]
            if pikovsky_map:
                out.append(y - y**g / (2 * g))
                continue
            u = min(y, mpmath.mpf(0.5))
            while True:
                p = (2 * u) ** g
                step = (u * (1 + p) - y) / (1 + (1 + g) * p)
                u -= step
                if step <= u * mpmath.mpf(10) ** -36:
                    break
            out.append(u)
    return out


class TestAgainstMpmath:
    N = 1000

    @pytest.mark.parametrize("base", ["m_k", "lebesgue"])
    @pytest.mark.parametrize("params", [lsv(0.5), lsv(0.8), cui(0.5, 2.0), pikovsky(1.5), pikovsky(2.0)],
                             ids=lambda p: f"{p.family.value}-{p.gamma}")
    def test_relative_error_of_every_row(self, params, base):
        # A tail taken as a complement, such as 2 (y_n - 1/2) with y_n near
        # 1/2, keeps only ~1e-16 absolute precision, far outside this bound.
        mpmath = pytest.importorskip("mpmath")
        pik = params.family is Family.PIKOVSKY
        u = _exact_orbit(pik, params.gamma, self.N)  # Cui (0.5, 2) reuses the LSV 0.5 orbit
        got = return_time_tail(seqs.constant(params), 1, self.N, base=base).values
        with mpmath.workdps(40):
            g = mpmath.mpf(params.gamma)
            power, share = (g, 2 * g) if pik else (1 / mpmath.mpf(params.beta or 1), 2)
            for n in range(1, self.N + 1):
                exact = u[n - 1] ** power
                if base == "lebesgue":
                    exact = u[n] + exact / share
                assert abs(mpmath.mpf(got[n]) - exact) <= 1e-13 * exact, n


class TestMaterialize:
    def test_one_pass_over_the_entries(self, monkeypatch):
        entries = [lsv(0.05 + 0.9 * i / 2000) for i in range(2000)]
        calls = []
        eq = MapParams.__eq__
        monkeypatch.setattr(MapParams, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
        _, ids = partitions._materialize(seqs.explicit(entries), 1, 10)
        assert list(ids) == list(range(10))
        assert len(calls) <= len(entries)  # an index() per entry makes ~2e6

    @pytest.mark.parametrize("kind", ["explicit", "periodic", "iid"])
    def test_equal_maps_share_the_first_index(self, kind):
        # a fresh record per pick, so equal maps are equal by value, not identity
        picks = np.random.default_rng(3).integers(0, 3, 120)
        entries = [lsv((0.3, 0.5, 0.7)[i]) for i in picks]
        seq = {"explicit": seqs.explicit, "periodic": seqs.periodic,
               "iid": lambda e: seqs.iid(e, np.full(len(e), 1 / len(e)), seed=5)}[kind](entries)
        for k, count in ((1, 100), (7, 50)):
            got_entries, ids = partitions._materialize(seq, k, count)
            first = np.array([seq.entries.index(p) for p in seq.entries])
            assert got_entries is seq.entries
            assert np.array_equal(ids, first[_entry_indices(seq, k, count)])


class TestTailTable:
    def test_depth_error(self):
        t = TailTable(values=np.array([1.0, 1.0, 0.5]), label="h_k")
        with pytest.raises(errors.DepthError):
            t.value(3)

    def test_monotonicity_enforced(self):
        with pytest.raises(errors.ParamError):
            TailTable(values=np.array([1.0, 1.0, 0.5, 0.7]), label="h_k")
        # NaN fails the range and monotonicity checks of every label that has them
        for values, labels in (([1.0, math.nan, 0.5], ("r", "theta", "memloss", "mixing", "s_tail")),
                               ([1.0, 1.0, math.nan, 0.5], ("h_k", "lebesgue"))):
            for label in labels:
                with pytest.raises(errors.ParamError):
                    TailTable(values=np.array(values), label=label)

    def test_t1_enforced_for_return_tails(self):
        with pytest.raises(errors.ParamError):
            TailTable(values=np.array([1.0, 0.8, 0.5]), label="h_k")


# -- the per-MapParams backward fill, kept as the reference -------------------------


def _reference_fill_rows(params, x0, pull_vec, depth, n_rows):
    """Backward-orbit rows 0 .. n_rows - 1 from a list of MapParams, one map
    per base index, by the full anti-diagonal triangle whatever the window;
    ``pull_vec`` takes (list of MapParams, values)."""
    rows = [np.full(depth + 1 - r, x0) for r in range(n_rows)]
    vals = np.full(depth + 1, x0)
    for n in range(1, depth + 1):
        m = depth + 1 - n
        vals = pull_vec(params[:m], vals[1 : m + 1])
        for r in range(min(n_rows, m)):  # row r is read to depth - r
            rows[r][n] = vals[r]
    return rows


def _reference_pull(family):
    """The array pull on per-base MapParams.  The Pikovsky pull runs
    ``np.power`` on a per-element exponent, as the package's does."""
    from memloss.maps import _lsv_left_inverse_array

    gammas = lambda ps: np.array([p.gamma for p in ps])
    if family is Family.PIKOVSKY:
        return lambda ps, u: u - np.power(u, gammas(ps)) / (2.0 * gammas(ps))
    return lambda ps, t: _lsv_left_inverse_array(t, gammas(ps))


def _reference_points(seq, k, n_max):
    """The orbits at bases k and k+1, from per-base MapParams."""
    from memloss.partitions import PartitionEndpoints

    params = [seqs.param_at(seq, j) for j in range(k, k + n_max + 2)]
    rows = _reference_fill_rows(params, 1.0, _reference_pull(seq.family), n_max, 2)
    return PartitionEndpoints(params[0], k, n_max, rows[0], rows[1][:n_max])


def _support(family):
    if family == "lsv":
        return [lsv(0.35), lsv(0.7), lsv(0.55)]
    if family == "cui":  # two maps with equal gamma: equal left inverses, distinct maps
        return [cui(0.5, 2.0), cui(0.5, 1.5), cui(0.7, 1.0)]
    return [pikovsky(1.5), pikovsky(2.5), pikovsky(2.0)]


def _sequence(kind, support, n):
    if kind == "iid":
        return seqs.iid(support, [0.3, 0.5, 0.2], seed=29)
    if kind == "markov":
        return seqs.markov(support, [[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.4, 0.4, 0.2]], seed=31)
    if kind == "periodic":
        return seqs.periodic([support[i] for i in (0, 1, 1, 2, 0)])
    if kind == "repeated":  # a cycle that repeats one map runs the single chain
        return seqs.periodic([support[0], support[0]])
    # "equal-gamma": for cui the first two maps share gamma, so only telling
    # maps apart by value keeps this window off the single-map chain
    picks = np.random.default_rng(37).integers(0, 2 if kind == "equal-gamma" else 3, n)
    return seqs.explicit([support[i] for i in picks])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestBackwardFillAgainstReference:
    N_MAX = 300

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kind", ["iid", "markov", "periodic", "repeated", "explicit", "equal-gamma"])
    @pytest.mark.parametrize("family", ["lsv", "cui", "pikovsky"])
    def test_bit_identical(self, family, kind, k, monkeypatch):
        n = self.N_MAX
        seq = _sequence(kind, _support(family), n + k + 2)
        public = pikovsky_endpoints if family == "pikovsky" else lsv_preimage_points
        got, ref = public(seq, k, n), _reference_points(seq, k, n)
        assert got.params == ref.params and (got.k, got.n_max) == (k, n)
        for f in ("x", "x_next"):
            assert np.array_equal(_bits(getattr(got, f)), _bits(getattr(ref, f))), f
        tails = [return_time_tail(seq, k, n, base=b).values for b in ("m_k", "lebesgue")]
        monkeypatch.setattr(partitions, "_points", lambda seq, ks, n_max: [_reference_points(seq, j, n_max) for j in ks])
        for b, t in zip(("m_k", "lebesgue"), tails):
            assert np.array_equal(_bits(t), _bits(return_time_tail(seq, k, n, base=b).values)), b


@st.composite
def _periodic_windows(draw):
    """An explicit periodic window (period 1..15, depth 0 up, also below the
    period) and the rows wanted from it, up to depth + 1."""
    family = draw(st.sampled_from(["lsv", "cui", "pikovsky"]))
    if family == "lsv":
        support = [lsv(draw(st.floats(0.05, 0.95))) for _ in range(3)]
    elif family == "cui":  # the first two maps share gamma
        g = draw(st.floats(0.05, 0.95))
        support = [cui(g, 1.5), cui(g, 2.5), cui(draw(st.floats(0.05, 0.95)), 1.0)]
    else:
        support = [pikovsky(draw(st.floats(1.05, 2.95))) for _ in range(3)]
    picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=15))
    depth = draw(st.integers(0, 60))
    want = sorted(draw(st.sets(st.integers(0, depth + 1), min_size=1, max_size=4)))
    return [support[i] for i in picks], depth, want


class TestPeriodicChains:
    @settings(max_examples=150, deadline=2000)
    @given(case=_periodic_windows())
    def test_rows_equal_the_triangle(self, case):
        cycle, depth, want = case
        seq = seqs.explicit(cycle * (depth // len(cycle) + 1))
        entries, ids = partitions._materialize(seq, 1, max(depth, 1))
        chain, pull = partitions._ORBITS[seq.family]
        got = partitions._fill_rows(entries, ids, chain, pull, depth, want)
        params = [seqs.param_at(seq, j) for j in range(1, depth + 1)]
        ref = _reference_fill_rows(params, 1.0, _reference_pull(seq.family), depth, want[-1] + 1)
        assert len(got) == len(want)
        for r, row in zip(want, got):
            assert np.array_equal(_bits(row), _bits(ref[r])), r

    @pytest.mark.parametrize("period", [1, 2, 3, 7, 15])
    @pytest.mark.parametrize("family", ["lsv", "pikovsky"])
    def test_a_period_p_window_makes_p_chain_calls(self, family, period, monkeypatch):
        make = lsv if family == "lsv" else pikovsky
        seq = seqs.periodic([make((0.3 if family == "lsv" else 1.5) + 0.02 * i) for i in range(period)])
        alone = return_time_tail(seq, 2, 100).values
        chain, pull = partitions._ORBITS[seq.family]
        depths = []
        counted = lambda x, gammas, n: depths.append(n) or chain(x, gammas, n)
        monkeypatch.setitem(partitions._ORBITS, seq.family, (counted, pull))
        assert np.array_equal(_bits(return_time_tail(seq, 2, 100).values), _bits(alone))
        assert depths == [100] * period


@st.composite
def _random_sequences(draw):
    family = draw(st.sampled_from(["lsv", "cui", "pikovsky", "gh"]))
    kind = draw(st.sampled_from(["explicit", "periodic", "iid", "markov"]))
    size = draw(st.integers(1, 3))
    if family == "lsv":
        support = [lsv(draw(st.floats(0.05, 0.95))) for _ in range(size)]
    elif family == "cui":
        support = [cui(draw(st.floats(0.05, 0.95)), draw(st.floats(1.0, 3.0))) for _ in range(size)]
    elif family == "pikovsky":
        support = [pikovsky(draw(st.floats(1.05, 2.95))) for _ in range(size)]
    else:
        support = [grossmann_horner()]
        size = 1
    k = draw(st.integers(1, 4))
    n_max = draw(st.integers(2, 150))
    weights = st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)
    if kind == "explicit":
        picks = draw(st.lists(st.integers(0, size - 1), min_size=k + n_max + 2, max_size=k + n_max + 2))
        seq = seqs.explicit([support[i] for i in picks])
    elif kind == "periodic":
        picks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
        seq = seqs.periodic([support[i] for i in picks])
    elif kind == "iid":
        w = np.array(draw(weights))
        seq = seqs.iid(support, w / w.sum(), seed=draw(st.integers(0, 2**31)))
    else:
        t = np.array([draw(weights) for _ in range(size)])
        seq = seqs.markov(support, t / t.sum(axis=1, keepdims=True), seed=draw(st.integers(0, 2**31)))
    return seq, k, n_max


class TestReturnTimeTailProperties:
    @settings(max_examples=80, deadline=2000)
    @given(case=_random_sequences(), base=st.sampled_from(["m_k", "lebesgue"]), data=st.data())
    def test_tail_is_a_return_time_tail(self, case, base, data):
        seq, k, n_max = case
        t = return_time_tail(seq, k, n_max, base=base).values
        assert len(t) == n_max + 1
        assert t[0] == 1.0 and t[1] == 1.0
        assert np.all((t >= 0.0) & (t <= 1.0))
        assert np.all(np.diff(t) <= 0.0)
        n = data.draw(st.integers(1, n_max), label="depth")
        assert abs(t[n] - _pullback_tail(seq, k, n, base)) <= 1e-14
