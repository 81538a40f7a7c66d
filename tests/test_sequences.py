import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memloss import errors
from memloss import rng as _rng
from memloss import sequences as seqs
from memloss.maps import lsv
from memloss.partitions import fit_power_law


def alternating(g1=0.5, g2=0.8):
    return seqs.periodic([lsv(g1), lsv(g2)])


class TestParamAt:
    def test_periodic_cycle(self):
        s = alternating()
        assert seqs.param_at(s, 3).gamma == 0.5
        assert seqs.param_at(s, 4).gamma == 0.8

    def test_explicit_out_of_range(self):
        s = seqs.explicit([lsv(0.5)])
        with pytest.raises(IndexError):
            seqs.param_at(s, 2)

    def test_iid_reproducible_and_order_independent(self):
        support = [lsv(0.5), lsv(0.8)]
        a = seqs.iid(support, [0.5, 0.5], seed=42)
        b = seqs.iid(support, [0.5, 0.5], seed=42)
        # query b out of order first
        seqs.param_at(b, 9999)
        ga = seqs.gammas(a, 1, 10_000)
        gb = seqs.gammas(b, 1, 10_000)
        assert np.array_equal(ga, gb)
        assert seqs.param_at(a, 123).gamma == ga[122]

    def test_iid_seed_changes_stream(self):
        support = [lsv(0.5), lsv(0.8)]
        a = seqs.gammas(seqs.iid(support, [0.5, 0.5], seed=1), 1, 1000)
        b = seqs.gammas(seqs.iid(support, [0.5, 0.5], seed=2), 1, 1000)
        assert not np.array_equal(a, b)

    def test_markov_reproducible(self):
        support = [lsv(0.4), lsv(0.9)]
        t = [[0.9, 0.1], [0.2, 0.8]]
        a = seqs.markov(support, t, seed=7)
        b = seqs.markov(support, t, seed=7)
        seqs.param_at(b, 500)  # force cache fill out of order
        assert [seqs.param_at(a, k).gamma for k in range(1, 200)] == [
            seqs.param_at(b, k).gamma for k in range(1, 200)
        ]

    def test_markov_rejects_bad_rows(self):
        with pytest.raises(errors.ParamError, match="sum to 1"):
            seqs.markov([lsv(0.4), lsv(0.9)], [[0.9, 0.2], [0.2, 0.8]], seed=1)

    @pytest.mark.parametrize("probs", [[float("nan"), 1.0], [-0.5, 1.5]], ids=["nan", "negative"])
    def test_iid_rejects_nan_or_negative_probs(self, probs):
        with pytest.raises(errors.ParamError, match="probs must be nonnegative"):
            seqs.iid([lsv(0.4), lsv(0.9)], probs, seed=1)

    @pytest.mark.parametrize("transition,init,message", [
        ([[float("nan"), 1.0], [0.2, 0.8]], None, "transition rows"),
        ([[0.9, 0.1], [0.2, 0.8]], [float("nan"), 1.0], "initial law"),
    ], ids=["transition", "init"])
    def test_markov_rejects_nan(self, transition, init, message):
        with pytest.raises(errors.ParamError, match=message):
            seqs.markov([lsv(0.4), lsv(0.9)], transition, seed=1, init=init)

    @pytest.mark.parametrize("init", [[0.2, 0.3, 0.5], [1.0]], ids=["longer", "shorter"])
    def test_markov_rejects_an_initial_law_of_another_length(self, init):
        with pytest.raises(errors.ParamError, match="initial law must match the support length"):
            seqs.markov([lsv(0.4), lsv(0.9)], [[0.9, 0.1], [0.2, 0.8]], seed=1, init=init)

    def test_markov_defaults_to_stationary_law(self):
        t = np.array([[0.9, 0.1], [0.2, 0.8]])
        s = seqs.markov([lsv(0.4), lsv(0.9)], t, seed=3)
        law = np.asarray(s.init)
        assert np.allclose(law @ t, law, atol=1e-12)

    def test_mixed_families_rejected(self):
        from memloss.maps import pikovsky

        with pytest.raises(errors.ParamError, match="one family"):
            seqs.explicit([lsv(0.5), pikovsky(1.5)])


def _reference_index(seq, k, states):
    """Entry index of element k, one index at a time as the scalar accessor
    computed it; ``states`` holds the Markov chain's prefix."""
    n = len(seq.entries)
    if seq.kind == "explicit":
        if k > n:
            raise errors.DepthError(k)
        return k - 1
    if seq.kind == "periodic":
        return (k - 1) % n
    if seq.kind == "iid":
        u = float(_rng.uniforms(seq.seed, "iid", k))
        return min(int(np.searchsorted(np.cumsum(seq.probs), u, side="right")), n - 1)
    while len(states) < k:
        j = len(states) + 1
        u = float(_rng.uniforms(seq.seed, "markov", j))
        cum = np.cumsum(seq.init) if j == 1 else np.cumsum(seq.transition, axis=1)[states[-1]]
        states.append(min(int(np.searchsorted(cum, u, side="right")), n - 1))
    return states[k - 1]


_SUPPORT = [lsv(0.3), lsv(0.5), lsv(0.8)]
_KINDS = {
    "explicit": lambda: seqs.explicit([_SUPPORT[i % 3] for i in (0, 2, 2, 1, 0, 1) * 10]),
    "periodic": lambda: seqs.periodic(_SUPPORT),
    "iid": lambda: seqs.iid(_SUPPORT, [0.2, 0.5, 0.3], seed=17),
    "markov": lambda: seqs.markov(_SUPPORT, [[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]], seed=23),
}


def test_splitmix_streams_keep_their_values():
    # Every seeded artifact reads these streams, so their values are pinned.
    assert _rng.uniforms(1, "iid", [0, 1, 2]).tolist() == [0.7363472808607701, 0.7825863782109439, 0.1641187514309994]
    assert _rng.child_seed(1, "s-tail-mc") == 6423042912008450675
    assert _rng.child_seed(0, "return-mc-1-m_k") == 7511481666275869537


class TestEntryIndices:
    @pytest.mark.parametrize("skip", [0, 7])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_bulk_matches_one_index_at_a_time(self, kind, skip):
        # windows from base index 1 + skip on, up to element 53
        seq = _KINDS[kind]()
        states = []
        ref = [_reference_index(seq, j, states) for j in range(1, 54)]
        for k, length in [(1 + skip, 53 - skip), (5 + skip, 20), (30 + skip, 1), (9 + skip, 0)]:
            got = seqs._entry_indices(seq, k, length)
            assert got.tolist() == ref[k - 1 : k - 1 + length]
        assert [seqs.param_at(seq, j) for j in range(1 + skip, 54)] == [seq.entries[i] for i in ref[skip:]]
        got = seqs.gammas(seq, 3 + skip, 40)
        assert np.array_equal(got, [seq.entries[i].gamma for i in ref[2 + skip : 42 + skip]])

    def test_past_explicit_end(self):
        seq = _KINDS["explicit"]()
        assert len(seqs._entry_indices(seq, 51, 10)) == 10
        with pytest.raises(errors.DepthError, match="asked for 61"):
            seqs._entry_indices(seq, 51, 11)
        with pytest.raises(errors.DepthError):
            seqs._entry_indices(seq, 60, 2)
        assert len(seqs._entry_indices(seq, 61, 0)) == 0
        with pytest.raises(errors.ParamError):
            seqs._entry_indices(seq, 0, 3)

    @pytest.mark.parametrize("bulk_first", [True, False])
    def test_markov_cache_in_either_order(self, bulk_first):
        seq = _KINDS["markov"]()
        states = []
        ref = [_reference_index(seq, j, states) for j in range(1, 601)]
        if bulk_first:
            assert seqs._entry_indices(seq, 1, 300).tolist() == ref[:300]
            assert [seq.entries.index(seqs.param_at(seq, j)) for j in range(250, 601)] == ref[249:]
        else:
            assert seq.entries.index(seqs.param_at(seq, 120)) == ref[119]
            assert seq.entries.index(seqs.param_at(seq, 3)) == ref[2]
            assert seqs._entry_indices(seq, 101, 500).tolist() == ref[100:]
        assert seq._markov_cache == ref

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(_KINDS)), k=st.integers(1, 30), o=st.integers(0, 15),
           length=st.integers(0, 14), late_first=st.booleans())
    def test_window_at_a_later_base_index(self, kind, k, o, length, late_first):
        # the window at base index k + o is the tail of a longer one at k;
        # a fresh Markov sequence fills its cache from either call first
        seq = _KINDS[kind]()
        late, whole = (k + o, length), (k, o + length)
        got = {w: seqs._entry_indices(seq, *w) for w in ([late, whole] if late_first else [whole, late])}
        assert got[late].tolist() == got[whole][o:].tolist()


def good_count(seq, k, length, threshold):
    """#{k <= j <= k+length-1 : gamma_j <= threshold}, as the README's note
    on the removed ``sequences.good_count`` writes it."""
    return int(np.count_nonzero(seqs.gammas(seq, k, length) <= threshold))


class TestGoodCount:
    def test_alternating(self):
        assert good_count(alternating(), 1, 10, 0.6) == 5

    def test_below_min(self):
        assert good_count(alternating(), 1, 10, 0.3) == 0

    def test_constant(self):
        s = seqs.constant(lsv(0.5))
        assert good_count(s, 7, 13, 0.5) == 13

    def test_additivity(self):
        s = seqs.iid([lsv(0.5), lsv(0.8)], [0.3, 0.7], seed=11)
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 50))
            l1 = int(rng.integers(1, 40))
            l2 = int(rng.integers(1, 40))
            whole = good_count(s, k, l1 + l2, 0.6)
            parts = good_count(s, k, l1, 0.6) + good_count(s, k + l1, l2, 0.6)
            assert whole == parts


class TestCheckFrequency:
    def test_constant_good(self):
        w = seqs.check_frequency(seqs.constant(lsv(0.5)), 0.5, 1000)
        assert (w.a, w.kappa, w.N) == (1.0, 0.0, 1)

    def test_alternating(self):
        w = seqs.check_frequency(alternating(), 0.6, 1000)
        assert w.a == pytest.approx(0.5, abs=0.01)
        assert w.kappa <= 0.02

    def test_iid_law_of_large_numbers(self):
        s = seqs.iid([lsv(0.5), lsv(0.8)], [0.3, 0.7], seed=42)
        w = seqs.check_frequency(s, 0.6, 100_000)
        assert 0.29 <= w.a <= 0.31

    def test_window_actually_contains_all_ratios(self):
        s = seqs.iid([lsv(0.5), lsv(0.8)], [0.4, 0.6], seed=5)
        n_max = 5000
        w = seqs.check_frequency(s, 0.6, n_max)
        good = (seqs.gammas(s, 1, n_max) <= 0.6).astype(float)
        ratios = np.cumsum(good) / np.arange(1, n_max + 1)
        window = ratios[w.N - 1 :]
        assert np.all(window >= w.a * (1 - w.kappa) - 1e-12)
        assert np.all(window <= w.a * (1 + w.kappa) + 1e-12)

    def test_no_good_maps(self):
        with pytest.raises(errors.NoGoodMaps):
            seqs.check_frequency(alternating(), 0.1, 100)


class TestThetaProfile:
    def test_alternating_bound(self):
        prof = seqs.theta_profile(alternating(), 0.6, 0.5, 2000)
        ns = np.arange(1, 2001)
        assert np.all(prof.notes["theta"] <= 0.5 / ns + 1e-15)

    def test_constant_zero(self):
        prof = seqs.theta_profile(seqs.constant(lsv(0.5)), 0.5, 1.0, 100)
        assert np.max(prof.notes["theta"]) == 0.0
        assert np.max(prof.values) == 0.0

    def test_sup_tail_nonincreasing(self):
        s = seqs.iid([lsv(0.5), lsv(0.8)], [0.3, 0.7], seed=9)
        prof = seqs.theta_profile(s, 0.6, 0.3, 5000)
        assert np.all(np.diff(prof.values) <= 1e-18)

    def test_iid_clt_scale_decay(self):
        s = seqs.iid([lsv(0.5), lsv(0.8)], [0.3, 0.7], seed=42)
        prof = seqs.theta_profile(s, 0.6, 0.3, 100_000)
        fit = fit_power_law(prof, 100, 100_000)
        assert fit.slope <= -0.4


class TestConfig:
    def test_iid_roundtrip(self):
        cfg = {
            "kind": "iid",
            "family": "lsv",
            "support": [0.5, 0.8],
            "probs": [0.3, 0.7],
            "seed": 42,
        }
        s = seqs.sequence_from_config(cfg)
        assert s.kind == "iid"
        assert seqs.param_at(s, 1).family.value == "lsv"

    def test_unknown_key_rejected(self):
        with pytest.raises(errors.ConfigError, match="unknown keys"):
            seqs.sequence_from_config({"kind": "periodic", "family": "lsv", "cycle": [0.5], "bogus": 1})

    def test_missing_key_rejected(self):
        with pytest.raises(errors.ConfigError, match="missing"):
            seqs.sequence_from_config({"kind": "iid", "family": "lsv", "support": [0.5]})

    def test_object_entries(self):
        cfg = {"kind": "periodic", "family": "cui", "cycle": [{"gamma": 0.4, "beta": 2.0}]}
        s = seqs.sequence_from_config(cfg)
        assert seqs.param_at(s, 1).beta == 2.0

    @pytest.mark.parametrize("family,entry,unknown", [
        pytest.param("lsv", {"gamma": 0.5, "beta": 2.0, "foo": 1}, "['beta', 'foo']", id="lsv-beta-foo"),
        pytest.param("lsv", {"gamma": 0.5, "beta": 2.0}, "['beta']", id="lsv-beta"),
        pytest.param("pikovsky", {"gamma": 2.0, "beta": 2.0}, "['beta']", id="pikovsky-beta"),
        pytest.param("gh", {"gamma": 2.0, "eta": 0.5}, "['eta']", id="gh-eta"),
        pytest.param("cui", {"gamma": 0.5, "beta": 2.0, "foo": 1}, "['foo']", id="cui-foo"),
    ])
    def test_entry_keys_the_family_does_not_read_are_rejected(self, family, entry, unknown):
        with pytest.raises(errors.ConfigError, match=f"unknown keys in sequence entry .*: {re.escape(unknown)}$"):
            seqs.sequence_from_config({"kind": "periodic", "family": family, "cycle": [entry]})

    @pytest.mark.parametrize("family,cycle", [
        pytest.param("lsv", [0.5, {"gamma": 0.8}], id="lsv"),
        pytest.param("pikovsky", [2.0, {"gamma": 1.5}], id="pikovsky"),
        pytest.param("gh", [2.0, 2.0, 2.0], id="gh-numbers"),  # a bare number is gamma for every family
        pytest.param("gh", [{"gamma": 2.0}], id="gh-object"),
    ])
    def test_gamma_is_an_entry_key_for_every_family(self, family, cycle):
        s = seqs.sequence_from_config({"kind": "periodic", "family": family, "cycle": cycle})
        assert seqs.param_at(s, 1).family.value == family

    @pytest.mark.parametrize("entry", [0.7, {"gamma": 2.7}, {"gamma": 1.0}], ids=["number", "object", "one"])
    def test_gh_entry_takes_gamma_2_or_none(self, entry):
        assert seqs.param_at(seqs.sequence_from_config({"kind": "periodic", "family": "gh", "cycle": [{}]}),
                             1).gamma == 2.0
        with pytest.raises(errors.ConfigError, match="gh map has gamma 2, got"):
            seqs.sequence_from_config({"kind": "periodic", "family": "gh", "cycle": [entry]})

    def test_invalid_param_surfaces_as_config_error(self):
        with pytest.raises(errors.ConfigError, match=r"\(0,1\)"):
            seqs.sequence_from_config({"kind": "periodic", "family": "lsv", "cycle": [1.5]})
