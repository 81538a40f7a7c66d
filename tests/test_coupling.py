import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import memloss
from memloss import coupling, errors
from memloss import rng as _rng
from memloss import sequences as seqs
from memloss.coupling import (
    CouplingConstants,
    CouplingModel,
    StailBoundReport,
    TailFamily,
    _running_min,
    _weighted_rows,
    alpha_weights,
    build_model,
    check_stail_bound,
    degenerate_family,
    derive_k_constants,
    family_from_tables,
    hat_envelope,
    make_constants,
    s_tail_dp,
    s_tail_mc,
    synthetic_poly_family,
)
from memloss.maps import Branch, inverse_branch_array, lsv
from memloss.partitions import TailTable, lsv_preimage_points, mc_zscores, return_time_tail
from memloss.tables import empirical_tail


class TestConstants:
    @pytest.mark.parametrize("K,lam,exp", [(1.0, 2.0, (3.0, 4.0)), (2.0, 2.0, (6.0, 8.0))])
    def test_derive(self, K, lam, exp):
        assert derive_k_constants(K, lam) == exp

    def test_zero_K_gives_zero_constants(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derive_k_constants(0.0, 2.0) == (0.0, 0.0)
            assert make_constants(K=0.0).c_h == 2.0

    def test_lambda_guard(self):
        # lambda is checked for every K, K = 0 included
        for K, lam in ((1.0, 1.0), (0.0, 1.0), (0.0, math.nan)):
            with pytest.raises(errors.ParamError):
                derive_k_constants(K, lam)
            with pytest.raises(errors.ParamError):
                make_constants(K=K, lam=lam)

    def test_c_h_consistency(self):
        c = make_constants(K=0.5, lam=2.0, diam_x=1.0)
        assert c.c_h == pytest.approx(2.0 * math.exp(derive_k_constants(c.K, c.lam)[1]), rel=1e-12)

    def test_derived_constants_are_not_arguments(self):
        c = CouplingConstants(theta=0.25, n0=1, K=0.5, lam=2.0, diam_x=1.0, delta0=0.5)
        assert derive_k_constants(c.K, c.lam)[1] == derive_k_constants(0.5, 2.0)[1] and c == make_constants()
        for key in ("K1", "K2", "c_h"):
            with pytest.raises(TypeError):
                CouplingConstants(theta=0.25, n0=1, K=0.5, lam=2.0, diam_x=1.0, delta0=0.5, **{key: 3.0})

    def test_theta_range(self):
        with pytest.raises(errors.ParamError):
            make_constants(theta=0.7)

    @pytest.mark.parametrize("kw", [dict(K=-1.0), dict(K=math.nan), dict(K=math.inf), dict(lam=math.nan),
                                    dict(diam_x=math.nan), dict(diam_x=math.inf),
                                    dict(K=1e300), dict(diam_x=1e300)], ids=str)  # the last two: C_h overflows
    def test_negative_or_non_finite_constant(self, kw):
        with pytest.raises(errors.ParamError):
            make_constants(**kw)


class TestHatEnvelope:
    def test_running_minimum(self):
        out = hat_envelope(np.array([1.0, 0.5, 0.7, 0.1]))
        assert np.array_equal(out.values, [1.0, 1.0, 0.5, 0.5, 0.1])

    def test_already_monotone(self):
        r = np.array([0.9, 0.5, 0.25])
        assert np.array_equal(hat_envelope(r).values[1:], r)

    def test_clamp(self):
        assert np.array_equal(hat_envelope(np.array([2.0, 2.0])).values, [1.0, 1.0, 1.0])

    def test_idempotent(self):
        r = np.array([1.0, 0.8, 0.9, 0.3, 0.4])
        once = hat_envelope(r)
        twice = hat_envelope(once)
        assert np.array_equal(once.values, twice.values)


@dataclasses.dataclass(frozen=True)
class ComposedTail:
    """Raw composed tail (may exceed 1) and its clamped envelope."""

    base: int
    shift: int
    raw: np.ndarray  # raw[l] for l = 0..horizon; raw[0] uses the zero convention
    envelope: TailTable


def compose_tail(family, k, n, horizon, constants):
    """h_n^k(l) = C_h sum_i h^{k+i}(n + l - i), i = 0..n, for l = 0..horizon,
    with h^j(m) = 0 for m <= 0; plus the clamped running-minimum envelope.
    The term-by-term reference for ``CouplingModel._envelopes``."""
    i0 = k - family.k
    if i0 < 0 or i0 + n >= family.n_rows:
        raise errors.DepthError(f"family rows cover {family.k}..{family.k + family.n_rows - 1}")
    if n + horizon > family.depth:
        raise errors.DepthError(f"family depth {family.depth} < n + horizon = {n + horizon}")
    ell = np.arange(horizon + 1)
    raw = np.zeros(horizon + 1)
    for i in range(n + 1):
        args = n + ell - i
        valid = args >= 1
        raw[valid] += family.h_rows[i0 + i, args[valid]]
    raw *= constants.c_h
    env = np.concatenate([[1.0], np.minimum.accumulate(np.minimum(raw[1:], 1.0))])
    return ComposedTail(base=k, shift=n, raw=raw, envelope=TailTable(values=env, k=k, label="s_tail"))


class TestComposeTail:
    def setup_method(self):
        self.constants = make_constants(theta=0.25, n0=1, K=0.5)
        self.family = synthetic_poly_family(2.0, n_rows=40, depth=200)

    def test_zero_shift(self):
        ct = compose_tail(self.family, 1, 0, 50, self.constants)
        expected = self.constants.c_h * self.family.h_rows[0, 1:51]
        assert np.allclose(ct.raw[1:], expected, atol=1e-14)

    def test_zero_family(self):
        fam = degenerate_family(n_rows=40, depth=100)
        ct = compose_tail(fam, 1, 5, 30, self.constants)
        assert np.all(ct.raw[1:] == 0.0)

    def test_identical_rows_match_direct_sum(self):
        # with equal rows the composition telescopes into one running sum
        n, horizon = 7, 60
        ct = compose_tail(self.family, 2, n, horizon, self.constants)
        h = lambda m: min(1.0, m**-2.0) if m >= 1 else 0.0
        for ell in range(horizon + 1):
            direct = self.constants.c_h * sum(h(m) for m in range(ell, n + ell + 1))
            assert ct.raw[ell] == pytest.approx(direct, rel=1e-12)

    def test_envelope_clamped_monotone(self):
        ct = compose_tail(self.family, 1, 3, 80, self.constants)
        env = ct.envelope.values
        assert env[0] == 1.0 and np.all(env <= 1.0) and np.all(np.diff(env) <= 1e-15)

    def test_depth_errors(self):
        with pytest.raises(errors.DepthError):
            compose_tail(self.family, 1, 39, 200, self.constants)

    @pytest.mark.parametrize("stationary", [True, False])
    def test_model_envelopes_match(self, stationary):
        horizon = 120
        model = _model(2.0, horizon=horizon) if stationary else _bench_nonstationary_model(horizon)
        for t, x in ((0, 1), (3, 5), (40, 17), (100, 20)):
            length = horizon - t - x + 1
            env = compose_tail(model.family, model.family.k + t, x, length, model.constants).envelope.values
            assert np.allclose(model.conditional_tail(t, x, length), env, rtol=1e-13, atol=0.0), (t, x)


class TestAlphaWeights:
    @settings(max_examples=60, deadline=2000)
    @given(
        tail=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=80),
        n0=st.integers(0, 3),
        cut=st.floats(0.0, 1.0),
    )
    def test_completeness_property(self, tail, n0, cut):
        r_hat = hat_envelope(np.array([1.0, *tail]))
        j_max = n0 + int(cut * (len(tail) - 1))
        w = alpha_weights(r_hat, n0, j_max)
        assert abs(w.alphas.sum() + w.residual - 1.0) <= 1e-12

    def test_telescoping_harmonic(self):
        rh = hat_envelope(np.minimum(1.0, 1.0 / np.arange(1.0, 50.0)))
        w = alpha_weights(rh, 1, 40)
        assert w.alphas[0] == pytest.approx(0.5, abs=1e-15)
        assert w.alphas[1] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert w.alphas[2] == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_step_gives_single_atom(self):
        r = np.where(np.arange(1, 20) <= 5, 1.0, 0.0)
        w = alpha_weights(hat_envelope(r), 2, 15)
        nz = np.nonzero(w.alphas)[0]
        assert len(nz) == 1 and nz[0] + w.j_first == 2 + 5
        assert w.alphas[nz[0]] == 1.0

    def test_completeness_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            raw = np.concatenate([[1.0], np.sort(rng.uniform(0, 1, size=60))[::-1]])
            w = alpha_weights(hat_envelope(raw), 1, 40)
            total = math.fsum(w.alphas.tolist()) + w.residual
            assert abs(total - 1.0) <= 1e-12
            assert np.all(w.alphas >= 0.0)

    def test_not_normalized(self):
        bad = TailTable(values=np.array([1.0, 0.4, 0.2]), label="r")
        with pytest.raises(errors.NotNormalized):
            alpha_weights(bad, 1, 2)


def _model(beta_prime, theta=0.25, n0=1, horizon=250):
    fam = synthetic_poly_family(beta_prime, n_rows=horizon + 10, depth=2 * horizon + 20)
    c = make_constants(theta=theta, n0=n0, K=0.5)
    return build_model(fam, c, horizon)


def _poly_family(exponents, beta_prime, scales=None, depth=None):
    """Row j has tail min(1, a_j m**-b_j); one row per exponent.  Equal rows
    make a stationary family."""
    depth = depth or 2 * len(exponents) + 20
    m = np.arange(depth + 1, dtype=float)
    m[0] = 1.0
    scales = np.ones(len(exponents)) if scales is None else scales
    rows = [TailTable(values=np.minimum(1.0, a * m**-b), label="r") for a, b in zip(scales, exponents)]
    r = TailTable(values=np.minimum(1.0, m**-beta_prime), label="r")
    return family_from_tables(1, r, rows, beta=min(exponents), beta_prime=beta_prime, c_beta=1.0, c_beta_prime=1.0)


def _reference_s_tail_dp(model, n_max, dtype=np.longdouble):
    """The DP as one Python step per (t, x) state, in row-major order, with
    every product and sum in ``dtype`` (the envelopes stay float64)."""
    c = model.constants
    n0 = c.n0
    th, one_m = dtype(c.theta), dtype(1.0) - dtype(c.theta)
    rv = model.r_hat.values.astype(dtype)
    W = np.zeros((n_max + 1, n_max + 1), dtype=dtype)
    beyond = dtype(0.0)
    xs = np.arange(n0, n_max + 1)
    if xs.size:
        W[0, xs] = rv[xs - n0] - rv[xs + 1 - n0]
    beyond += rv[n_max + 1 - n0] if n_max + 1 - n0 >= 0 else dtype(1.0)
    coupled = np.zeros(n_max + 1, dtype=dtype)
    for t in range(n_max + 1):
        row = W[t]
        for x in np.nonzero(row)[0]:
            w = row[x]
            s = t + int(x)
            env = model.conditional_tail(t, int(x), n_max - s + 1).astype(dtype)
            if x == 0:
                # zero increments self-loop on (t, 0); resolve geometrically
                p0 = (dtype(1.0) - env[1]) if n0 == 0 else dtype(0.0)
                w = w / (dtype(1.0) - one_m * p0)
            coupled[s] += th * w
            hi = n_max - s - n0
            if hi >= 0:
                probs = env[: hi + 1] - env[1 : hi + 2]
                if n0 == 0 and x == 0:
                    probs[0] = 0.0  # the self-loop mass was resolved above
                W[s, n0 : n0 + hi + 1] += one_m * w * probs
                beyond += one_m * w * env[hi + 1]
            else:
                beyond += one_m * w
    tail = np.empty(n_max + 1, dtype=dtype)
    acc = beyond
    for n in range(n_max, -1, -1):
        acc += coupled[n]
        tail[n] = acc
    return np.minimum.accumulate(np.minimum(tail, dtype(1.0))), beyond


def _reference_s_tail_mc(model, n_max, samples, seed):
    """The Monte Carlo sampler as one Python walk per sample."""
    c = model.constants
    n0, th = c.n0, c.theta
    gen = np.random.default_rng(_rng.child_seed(seed, "s-tail-mc"))
    taus = gen.geometric(th, size=samples)
    r_rev = model.r_hat.values[1:][::-1]
    x_first = n0 + len(r_rev) - np.searchsorted(r_rev, gen.uniform(size=samples), side="right")
    over = n_max + 1
    final = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        x, t, j = int(x_first[i]), 0, 1
        s = x
        while j < taus[i] and s <= n_max:
            rev = model.conditional_tail(t, x, n_max - s + 1)[1:][::-1]
            nxt = n0 + len(rev) - int(np.searchsorted(rev, gen.uniform(), side="right"))
            if nxt > n_max - s:
                s = over
                break
            t, x = s, nxt
            s = t + x
            j += 1
        final[i] = min(s, over)
    counts = np.bincount(final, minlength=over + 1)
    return (samples - np.concatenate([[0], np.cumsum(counts[:-1])]))[: n_max + 1] / samples


def _lockstep_s_tail_mc(model, n_max, samples, seed):
    """The lock-step sampler with one ``searchsorted`` per distinct envelope
    and step (shift x for stationary families, (t, x) otherwise), over
    ``conditional_tail``: it draws the same uniforms in the same order as
    ``s_tail_mc``, so the two agree draw for draw."""
    c = model.constants
    n0, th = c.n0, c.theta
    stationary = model.family.stationary
    gen = np.random.default_rng(_rng.child_seed(seed, "s-tail-mc"))
    taus = gen.geometric(th, size=samples)
    r_rev = model.r_hat.values[1:][::-1]
    x = n0 + (len(r_rev) - np.searchsorted(r_rev, gen.uniform(size=samples), side="right"))
    t = np.zeros(samples, dtype=np.int64)
    s = x.copy()
    over = n_max + 1
    env_rev = {}
    step = 1
    live = np.nonzero((taus > step) & (s <= n_max))[0]
    while live.size:
        u = gen.uniform(size=live.size)
        keys = x[live] if stationary else t[live] * over + x[live]
        order = np.argsort(keys, kind="stable")
        uniq, starts = np.unique(keys[order], return_index=True)
        counts = np.empty(live.size, dtype=np.int64)
        for key, a, b in zip(uniq.tolist(), starts.tolist(), [*starts[1:].tolist(), live.size]):
            if key not in env_rev:
                kt, kx = divmod(key, over)
                env_rev[key] = model.conditional_tail(kt, kx, n_max - kt - kx + 1)[1:][::-1]
            rev = env_rev[key]
            idx = order[a:b]
            counts[idx] = len(rev) - rev.searchsorted(u[idx], side="right")
        nxt = n0 + counts
        moved = nxt <= n_max - s[live]
        s[live[~moved]] = over
        live = live[moved]
        t[live] = s[live]
        x[live] = nxt[moved]
        s[live] += x[live]
        step += 1
        live = live[(taus[live] > step) & (s[live] <= n_max)]
    return empirical_tail(s, n_max, model.family.k)


# Every row of s_tail_dp, and its beyond mass, lies within this relative
# distance of the long double reference: the worst rows of the DP and of a
# float64 per-state loop are both about 4e-15 on the models below.
_DP_RTOL = 1e-14


def _assert_within_reference(dp, values, beyond):
    zero = values == 0.0
    assert np.array_equal(dp.values[zero], values[zero])
    assert np.all(np.abs(dp.values[~zero] - values[~zero]) <= _DP_RTOL * values[~zero])
    assert abs(dp.notes["beyond"] - beyond) <= _DP_RTOL * beyond


def _assert_dp_matches_reference(model, n_max):
    dp = s_tail_dp(model, n_max)
    _assert_within_reference(dp, *_reference_s_tail_dp(model, n_max))
    return dp


# (family, constants, horizon, n_max) for the models the tests, the CLI and
# the benchmark run, at test sizes
_DP_MODELS = {
    "poly1.5": (lambda: synthetic_poly_family(1.5, n_rows=230, depth=460), dict(theta=0.25, n0=1), 220, 200),
    "poly2.0": (lambda: synthetic_poly_family(2.0, n_rows=330, depth=660), dict(theta=0.25, n0=1), 320, 300),
    "poly2.5": (lambda: synthetic_poly_family(2.5, n_rows=230, depth=460), dict(theta=0.25, n0=1), 220, 200),
    "degenerate-n0-2": (lambda: degenerate_family(n_rows=130, depth=150), dict(theta=0.5, n0=2), 120, 120),
    "n0-3-theta0.4": (lambda: synthetic_poly_family(2.0, n_rows=260, depth=520), dict(theta=0.4, n0=3), 250, 150),
    "nonstationary": (lambda: _poly_family([2.0 + 0.25 * (j % 3) for j in range(220)], 2.0, depth=440),
                      dict(theta=0.25, n0=1), 210, 200),
    "nonstationary-n0-0": (lambda: _poly_family([2.0 + 0.5 * (j % 2) for j in range(130)], 1.5, depth=260),
                           dict(theta=0.3, n0=0), 120, 100),
}


class TestSTailDp:
    def test_degenerate_geometric(self):
        c = make_constants(theta=0.5, n0=2, K=0.5)
        model = build_model(degenerate_family(n_rows=130, depth=150), c, horizon=120)
        dp = s_tail_dp(model, 120)
        for m in range(1, 60):
            assert abs(dp.values[2 * m] - 0.5 ** (m - 1)) <= 1e-12
        assert dp.notes["remainder"] == 0.0

    def test_head_is_one(self):
        model = _model(2.0, n0=3)
        dp = s_tail_dp(model, 100)
        assert np.all(dp.values[:4] >= 1.0 - 1e-12)

    def test_total_mass_conserved(self):
        model = _model(1.5)
        dp = s_tail_dp(model, 150)
        assert dp.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_theta_domination(self):
        lo = s_tail_dp(_model(2.0, theta=0.25), 150)
        hi = s_tail_dp(_model(2.0, theta=0.5), 150)
        assert np.all(hi.values <= lo.values + 1e-12)

    def test_horizon_guard(self):
        model = _model(2.0, horizon=100)
        with pytest.raises(errors.HorizonError):
            s_tail_dp(model, 150)

    @pytest.mark.parametrize("n_max", [-3, 0])
    def test_n_max_below_one_is_a_param_error(self, n_max):
        model = _model(2.0, horizon=100)
        with pytest.raises(errors.ParamError, match=f"n_max must be >= 1, got {n_max}"):
            s_tail_dp(model, n_max)
        with pytest.raises(errors.ParamError, match=f"n_max must be >= 1, got {n_max}"):
            s_tail_mc(model, n_max, 10_000, seed=1)

    def test_matches_brute_force_stage_mixture(self):
        # independent oracle: P(S >= n) = sum_j P(tau = j) P(S_j >= n),
        # with the stage laws evolved as explicit state dictionaries and
        # tau truncated at J (remainder bounded by (1 - theta)**J)
        c = make_constants(theta=0.5, n0=1, K=0.5)
        fam = synthetic_poly_family(2.0, n_rows=40, depth=80)
        model = build_model(fam, c, horizon=30)
        n_max = 25
        rv = model.r_hat.values
        states = {}
        for x in range(c.n0, n_max + 1):
            p = rv[x - c.n0] - rv[x + 1 - c.n0]
            if p > 0.0:
                states[(0, x)] = p
        big = float(rv[n_max + 1 - c.n0])  # partial sum already beyond n_max
        tail_mix = np.zeros(n_max + 1)
        J = 60
        for stage in range(1, J + 1):
            p_tau = (1.0 - c.theta) ** (stage - 1) * c.theta
            for n in range(n_max + 1):
                mass_ge = big + sum(w for (t, x), w in states.items() if t + x >= n)
                tail_mix[n] += p_tau * mass_ge
            nxt = {}
            for (t, x), w in states.items():
                s = t + x
                env = model.conditional_tail(t, x, n_max - s + 1)
                hi = n_max - s - c.n0
                for i in range(hi + 1):
                    pw = (env[i] - env[i + 1]) * w
                    if pw > 0.0:
                        key = (s, c.n0 + i)
                        nxt[key] = nxt.get(key, 0.0) + pw
                big += w * float(env[hi + 1])
            states = nxt
        remainder = (1.0 - c.theta) ** J
        dp = s_tail_dp(model, n_max)
        assert np.max(np.abs(dp.values - tail_mix)) <= remainder + 1e-12

    def test_dp_against_mc_three_exponents(self):
        for bp, seed in ((1.5, 17), (2.0, 17), (2.5, 17)):
            model = _model(bp)
            dp = s_tail_dp(model, 200)
            mc = s_tail_mc(model, 200, 100_000, seed=seed)
            p, q = dp.values, mc.values
            n = model.constants.n0
            se = np.sqrt(np.maximum(p * (1 - p), 0.0) / 100_000)
            gate = (p >= 1e-4) & (p <= 1.0 - 1e-4)
            z = np.abs(q - p) / np.where(se > 0, se, 1.0)
            assert np.max(z[gate]) <= 4.0, bp


def _added_in_order(coef, block):
    acc = np.zeros(block.shape[1])
    for c, row in zip(coef, block):
        acc += c * row
    return acc


class TestSTailDpAgainstReference:
    @pytest.mark.parametrize("cols", [2, 3])
    def test_rows_are_added_in_order(self, cols):
        # 2e16 + 2 rounds back to 2e16, so adding the twos one at a time
        # loses them all, while a pairwise sum would keep them
        coef = np.full(16, 2.0)
        for block in (np.ones((16, cols)), np.ones((32, 2 * cols))[::2, ::2]):  # contiguous, strided
            block[0] = 1e16
            expected = _added_in_order(coef, block)
            assert np.all(expected == 2e16)
            assert np.array_equal(_weighted_rows(coef, block), expected), block.strides

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 400), width=st.integers(2, 40), strided=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_weighted_rows_equal_a_loop(self, m, width, strided, seed):
        gen = np.random.default_rng(seed)
        big = gen.uniform(size=(2 * m, 2 * width)) * 10.0 ** gen.uniform(-12, 12, size=(2 * m, 1))
        block = big[::2, ::2] if strided else np.ascontiguousarray(big[::2, ::2])
        coef = gen.uniform(size=m)
        assert np.array_equal(_weighted_rows(coef, block), _added_in_order(coef, block))

    @pytest.mark.parametrize("name", sorted(_DP_MODELS))
    def test_bit_identical(self, name):
        make_family, kw, horizon, n_max = _DP_MODELS[name]
        model = build_model(make_family(), make_constants(K=0.5, **kw), horizon)
        assert model.family.stationary == (not name.startswith("nonstationary"))
        _assert_dp_matches_reference(model, n_max)

    @pytest.mark.parametrize("beta_prime", [1.5, 2.5])
    def test_zero_n0_self_loop(self, beta_prime):
        # with n0 = 0 the state (s, 0) receives mass from its anti-diagonal
        # and loops on itself, so it has to be resolved after the others
        model = _model(beta_prime, n0=0)
        dp = _assert_dp_matches_reference(model, 200)
        mc = s_tail_mc(model, 200, 100_000, seed=17)
        assert np.nanmax(np.abs(mc_zscores(dp, mc))) <= 4.0

    @settings(max_examples=40, deadline=5000)
    @given(
        exponents=st.lists(st.floats(1.1, 4.0), min_size=1, max_size=4),
        scales=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        bp_frac=st.floats(0.2, 1.0),
        stationary=st.booleans(),
        theta=st.floats(0.01, 0.5),
        n0=st.integers(0, 3),
        K=st.floats(0.0, 1.0),
        n_max=st.integers(1, 60),
    )
    def test_random_families(self, exponents, scales, bp_frac, stationary, theta, n0, K, n_max):
        rows = n_max + 10
        if stationary:
            family = synthetic_poly_family(exponents[0], exponents[0] * bp_frac, n_rows=rows, depth=2 * rows)
        else:
            family = _poly_family([exponents[j % len(exponents)] for j in range(rows)],
                                  min(exponents) * bp_frac,
                                  [scales[j % len(scales)] for j in range(rows)], depth=2 * rows)
        model = build_model(family, make_constants(theta=theta, n0=n0, K=K), n_max)
        dp = _assert_dp_matches_reference(model, n_max)
        v = dp.values
        assert np.all(np.diff(v) <= 0.0) and np.all((v >= 0.0) & (v <= 1.0))
        assert dp.notes["remainder"] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        exponents=st.lists(st.floats(1.1, 4.0), min_size=1, max_size=3),
        scale=st.floats(0.05, 1.0),
        stationary=st.booleans(),
        theta=st.floats(0.0, 0.5, exclude_min=True),
        n0=st.integers(0, 3),
        K=st.floats(0.0, 1.0),
        n_max=st.integers(1, 40),
    )
    def test_pushed_masses_are_nonnegative(self, exponents, scale, stationary, theta, n0, K, n_max):
        # an anti-diagonal pushes q[l] - q[l + 1], with q a sum of nonincreasing
        # envelope rows under nonnegative weights, which rounding keeps nonincreasing
        rows = n_max + 10
        if stationary:
            family = synthetic_poly_family(exponents[0], n_rows=rows, depth=2 * rows)
        else:
            family = _poly_family([exponents[j % len(exponents)] for j in range(rows)], min(exponents),
                                  [scale ** (j % 2) for j in range(rows)], depth=2 * rows)
        model = build_model(family, make_constants(theta=theta, n0=n0, K=K), n_max)
        pushes = []

        def spy(coef, block):
            assert np.all(coef >= 0.0) and np.all(np.diff(block, axis=1) <= 0.0)
            q = _weighted_rows(coef, block)
            pushes.append(q[:-1] - q[1:])
            return q

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coupling, "_weighted_rows", spy)
            v = _assert_dp_matches_reference(model, n_max).values
        assert all(np.all(p >= 0.0) for p in pushes)
        assert np.all(np.diff(v) <= 0.0) and np.all((v >= 0.0) & (v <= 1.0))


_DIGEST_SCRIPT = """
import hashlib
from memloss import build_model, make_constants, s_tail_dp, synthetic_poly_family
model = build_model(synthetic_poly_family(2.0, n_rows=330, depth=660), make_constants(K=0.5), 320)
print(hashlib.sha256(s_tail_dp(model, 300).values.tobytes()).hexdigest())
"""


class TestSTailDpDeterminism:
    def test_blas_thread_count_does_not_change_the_table(self):
        # the poly2.0 model of _DP_MODELS, one process per BLAS thread count
        src = os.path.dirname(os.path.dirname(memloss.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        make_family, kw, horizon, n_max = _DP_MODELS["poly2.0"]
        here = s_tail_dp(build_model(make_family(), make_constants(K=0.5, **kw), horizon), n_max)
        assert digests == [hashlib.sha256(here.values.tobytes()).hexdigest()] * 2

    @pytest.mark.parametrize("builder", ["synthetic", "one-table"])
    def test_stationary_rows_are_one_shared_row(self, builder):
        if builder == "synthetic":
            family = synthetic_poly_family(2.0, beta_prime=1.5, n_rows=130, depth=260)
        else:
            m = np.arange(1.0, 262.0)
            r, row = (TailTable(values=np.minimum(1.0, m**-b), label="r") for b in (1.5, 2.0))
            family = family_from_tables(1, r, row, beta=2.0, beta_prime=1.5, c_beta=1.0, c_beta_prime=1.0)
        h = family.h_rows
        assert family.stationary and h.strides[0] == 0 and not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 1] = 0.5
        tiled = dataclasses.replace(family, h_rows=np.tile(h[0], (family.n_rows, 1)))
        a = build_model(family, make_constants(K=0.5), 120)
        b = build_model(tiled, make_constants(K=0.5), 120)
        assert np.array_equal(s_tail_dp(a, 110).values, s_tail_dp(b, 110).values)
        ma, mb = s_tail_mc(a, 110, 10_000, seed=3), s_tail_mc(b, 110, 10_000, seed=3)
        assert np.array_equal(ma.values, mb.values) and np.array_equal(ma.stderr, mb.stderr)


class TestSTailMc:
    def test_tail_starts_at_one(self):
        mc = s_tail_mc(_model(2.0), 50, 10_000, seed=3)
        assert mc.values[0] == 1.0

    def test_two_seeds_consistent(self):
        model = _model(2.0)
        a = s_tail_mc(model, 100, 20_000, seed=1)
        b = s_tail_mc(model, 100, 20_000, seed=2)
        assert not np.array_equal(a.values, b.values)
        se = np.sqrt(a.stderr**2 + b.stderr**2)
        gate = se > 0
        assert np.max(np.abs(a.values - b.values)[gate] / se[gate]) <= 6.0

    def test_reproducible(self):
        model = _model(1.5)
        a = s_tail_mc(model, 60, 10_000, seed=9)
        b = s_tail_mc(model, 60, 10_000, seed=9)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("name", ["poly1.5", "nonstationary-n0-0"])
    def test_envelope_cache_does_not_change_the_draws(self, name):
        make_family, kw, horizon, n_max = _DP_MODELS[name]
        fresh = build_model(make_family(), make_constants(K=0.5, **kw), horizon)
        warm = build_model(make_family(), make_constants(K=0.5, **kw), horizon)
        s_tail_dp(warm, n_max)
        a = s_tail_mc(fresh, n_max // 2, 10_000, seed=4)
        b = s_tail_mc(warm, n_max // 2, 10_000, seed=4)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.stderr, b.stderr)

    def test_nonstationary_envelope_per_state(self):
        # every third row has a much lighter tail, so walkers with the same
        # shift x but different base offsets t follow different laws
        family = _poly_family([1.5 + 2.5 * (j % 3 == 0) for j in range(140)], 1.2, depth=280)
        model = build_model(family, make_constants(theta=0.25, n0=1, K=0.0), 130)
        dp = s_tail_dp(model, 120)
        mc = s_tail_mc(model, 120, 50_000, seed=1)
        assert np.nanmax(np.abs(mc_zscores(dp, mc))) <= 4.0

    @pytest.mark.parametrize("name", sorted(_DP_MODELS))
    def test_draw_for_draw_equal_to_a_per_envelope_search(self, name):
        make_family, kw, horizon, n_max = _DP_MODELS[name]
        model = build_model(make_family(), make_constants(K=0.5, **kw), horizon)
        a = s_tail_mc(model, n_max, 10_000, seed=8)
        b = _lockstep_s_tail_mc(model, n_max, 10_000, seed=8)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.stderr, b.stderr)

    @pytest.mark.parametrize("name", ["nonstationary", "nonstationary-n0-0", "flat-run"])
    def test_table_does_not_depend_on_the_block_size(self, name, monkeypatch):
        if name == "flat-run":
            model, n_max = _flat_run_model(), 120
        else:
            make_family, kw, horizon, n_max = _DP_MODELS[name]
            model = build_model(make_family(), make_constants(K=0.5, **kw), horizon)
        a = s_tail_mc(model, n_max, 10_000, seed=8)
        monkeypatch.setattr(coupling, "_BLOCK", 101)
        b = s_tail_mc(model, n_max, 10_000, seed=8)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.stderr, b.stderr)

    @pytest.mark.parametrize("name", ["poly1.5", "nonstationary-n0-0"])
    def test_same_law_as_one_walk_per_sample(self, name):
        # lock-step walkers draw their uniforms in another order, so the
        # two samplers agree in law, not draw for draw
        make_family, kw, horizon, _ = _DP_MODELS[name]
        model = build_model(make_family(), make_constants(K=0.5, **kw), horizon)
        a = s_tail_mc(model, 60, 20_000, seed=6).values
        b = _reference_s_tail_mc(model, 60, 20_000, seed=7)
        se = np.sqrt((a * (1 - a) + b * (1 - b)) / 20_000)
        gate = se > 0
        assert np.max(np.abs(a - b)[gate] / se[gate]) <= 5.0

    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.integers(2, 40), levels=st.integers(1, 12), scale=st.floats(1e-3, 0.3),
           bumps=st.floats(0.0, 0.5), rises=st.floats(0.0, 0.3), K=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    def test_certified_bisection_counts_on_hhat(self, n_rows, levels, scale, bumps, rises, K, seed):
        # nonincreasing rows with flat runs, some entries raised by an ulp and
        # some by up to TailTable's 1e-12, so that raw rows rise; uniforms drawn
        # uniformly and at raw-row values, where a rise can mislead the bisection
        gen = np.random.default_rng(seed)
        n_max = n_rows - 1
        h = scale * np.sort(gen.integers(0, levels + 1, size=(n_rows, n_max + 3)) / levels, axis=1)[:, ::-1]
        bump = gen.uniform(size=h.shape) < bumps
        h[bump] = np.nextafter(h[bump], 1.0)
        up = gen.uniform(size=h.shape) < rises
        h[up] += gen.uniform(0.0, 0.99e-12, size=np.count_nonzero(up))
        h[:, 0] = 1.0
        c_beta = max(1.0, float(np.max(np.arange(1.0, h.shape[1]) ** 1.01 * h[:, 1:])))
        tables = [TailTable(values=row, label="r") for row in h]
        family = family_from_tables(1, tables[0], tables, beta=1.01, beta_prime=1.01, c_beta=c_beta,
                                    c_beta_prime=c_beta)
        assume(not family.stationary)
        model = build_model(family, make_constants(K=K), n_max)
        s, t = (np.repeat(a, 4) for a in np.tril_indices(n_max + 1))  # every state t <= s <= n_max, 4 times
        u = gen.uniform(size=len(t))
        at = s + 1 + gen.integers(0, n_max + 1 - s)  # a column s + l, l = 1..n_max + 1 - s
        raw = model.constants.c_h * (model._prefix[s + 1, at] - model._prefix[t, at])
        u[1::2] = np.where(raw[1::2] < 1.0, raw[1::2], u[1::2])
        got = coupling._walk_counts(model, t, s, u, n_max + 1)
        for i in range(len(t)):
            assert got[i] == np.count_nonzero(model.conditional_tail(t[i], s[i] - t[i], n_max - s[i] + 1)[1:] > u[i])


def _bench_nonstationary_model(horizon):
    """Row j has tail min(1, m**-(2 + 0.25 (j mod 3))), j >= 1, with the
    default constants: the nonstationary family of the benchmark."""
    fam = _poly_family([2.0 + 0.25 * (j % 3) for j in range(1, horizon + 11)], 2.0, depth=2 * horizon + 20)
    return build_model(fam, make_constants(), horizon)


def _flat_run_model(horizon=130):
    """Row j has tail min(1, a_j ceil(m / 4)**-(2 + 0.5 (j mod 3))): runs of
    four equal values, whose composed sums round so that the raw envelopes
    of some states with shift 1 or 2 rise by an ulp.  The small a_j let
    walkers reach those states."""
    m = np.arange(2 * horizon + 41, dtype=float)
    m[0] = 1.0
    rows = [TailTable(values=np.minimum(1.0, (0.05, 0.08, 0.06)[j % 3] * np.ceil(m / 4.0) ** -(2.0 + 0.5 * (j % 3))),
                      label="r") for j in range(horizon + 10)]
    r = TailTable(values=np.minimum(1.0, m**-1.5), label="r")
    family = family_from_tables(1, r, rows, beta=2.0, beta_prime=1.5, c_beta=16.0, c_beta_prime=1.0)
    return build_model(family, make_constants(theta=0.25, n0=1, K=0.0), horizon)


def _prefix_sums(h):
    """prefix[i + 1, c] = sum of h[i', c - i'] over i' <= i with c - i' >= 1, by ``np.cumsum``."""
    rows, depth = h.shape[0], h.shape[1] - 1
    full = np.zeros((rows + 1, rows + depth + 1))
    for i in range(rows):
        full[i + 1, i + 1 : i + 1 + depth] = h[i, 1:]
    return np.cumsum(full, axis=0)


def _base_envelope(model, prefix, x):
    """The clamped envelope at base offset 0, shift x, for l = 0..horizon - x + 1, from ``prefix``."""
    raw = model.constants.c_h * (prefix[x + 1, x + 1 : model.horizon + 2] - prefix[0, x + 1 : model.horizon + 2])
    return np.concatenate([[1.0], np.minimum.accumulate(np.minimum(raw, 1.0))])


def _accumulated_tail(model, t, x, length):
    """``conditional_tail`` of a nonstationary model with a full running minimum."""
    cols = slice(t + x + 1, t + x + length + 1)
    raw = model.constants.c_h * (model._prefix[t + x + 1, cols] - model._prefix[t, cols])
    return np.concatenate([[1.0], np.minimum.accumulate(np.minimum(raw, 1.0))])


class TestEnvelopeTable:
    @pytest.mark.parametrize("stationary", [True, False])
    def test_arguments_out_of_range(self, stationary):
        horizon = 120
        model = _model(2.0, horizon=horizon) if stationary else _bench_nonstationary_model(horizon)
        for args in ((-1, 5, 3), (2, -1, 3), (2, 3, -2)):
            with pytest.raises(errors.ParamError):
                model.conditional_tail(*args)
        with pytest.raises(errors.HorizonError):  # t + x past the horizon, even with length 0
            model.conditional_tail(0, horizon + 1, 0)

    def test_flat_runs_take_the_fix_up_paths(self, monkeypatch):
        model = _flat_run_model()
        n_max = 120
        # Uniforms drawn from the dips of the rising raw rows, where a search
        # of the raw row can count past the dip.  Both samplers build their
        # generator through np.random.default_rng.
        dips = []
        for s in range(1, n_max + 1):
            cols = slice(s + 1, n_max + 2)
            raw = np.minimum(model.constants.c_h * (model._prefix[s + 1, cols] - model._prefix[:s, cols]), 1.0)
            dips.append(raw[:, :-1][raw[:, 1:] > raw[:, :-1]])
        dips = np.concatenate(dips)
        make_rng = np.random.default_rng

        class DipDraws:
            def __init__(self, seed):
                self.gen = make_rng(seed)

            def geometric(self, p, size):
                return self.gen.geometric(p, size=size)

            def uniform(self, size):
                return dips[self.gen.integers(len(dips), size=size)]

        fixed = []  # rows each _running_min call fixed: the rows that rise
        running_min = coupling._running_min

        def counting_running_min(block):
            fixed.append(np.count_nonzero(np.any(block[:, 1:] > block[:, :-1], axis=1)))
            running_min(block)

        with monkeypatch.context() as patch:
            patch.setattr(coupling, "_running_min", counting_running_min)
            dp = s_tail_dp(model, n_max)
            dp_fixed, fixed[:] = sum(fixed), []
            patch.setattr(np.random, "default_rng", DipDraws)
            mc = s_tail_mc(model, n_max, 20_000, seed=5)
        assert len(dips) and dp_fixed > 0 and sum(fixed) > 0
        # the references, on envelopes with a full running minimum
        monkeypatch.setattr(CouplingModel, "conditional_tail", _accumulated_tail)
        _assert_within_reference(dp, *_reference_s_tail_dp(model, n_max))
        monkeypatch.setattr(np.random, "default_rng", DipDraws)
        ref = _lockstep_s_tail_mc(model, n_max, 20_000, seed=5)
        assert np.array_equal(mc.values, ref.values) and np.array_equal(mc.stderr, ref.stderr)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 30), width=st.integers(1, 40), levels=st.integers(1, 20),
           bumps=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_rise_only_clamp_equals_a_running_minimum(self, rows, width, levels, bumps, seed):
        # nonincreasing rows with flat runs, some entries raised by an ulp
        gen = np.random.default_rng(seed)
        block = np.sort(gen.integers(0, levels + 1, size=(rows, width)) / levels, axis=1)[:, ::-1].copy()
        bump = gen.uniform(size=block.shape) < bumps
        block[bump] = np.nextafter(block[bump], 2.0)
        expected = np.minimum.accumulate(block, axis=1)
        got = block.copy()
        assert _running_min(got) is None
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_batched_rows_equal_one_row_calls(self):
        n_max = 200
        for model in (_bench_nonstationary_model(210), _model(2.0, horizon=210)):
            for s in (1, 2, 57, 150, 199, 200):
                envs = model._envelopes(slice(0, s + 1), s, n_max - s + 1)
                for t in range(s + 1):
                    assert np.array_equal(envs[t], model.conditional_tail(t, s - t, n_max - s + 1)), (s, t)
                assert np.array_equal(model._envelopes(slice(1, s + 1), s, n_max - s + 1), envs[1:])
                if model.family.stationary:  # a view of the table
                    assert not envs.flags.writeable and np.shares_memory(envs, model._table)

    @pytest.mark.parametrize("stationary", [True, False])
    def test_prefix_holds_the_read_columns_only(self, stationary):
        horizon = 120
        model = _model(2.0, horizon=horizon) if stationary else _bench_nonstationary_model(horizon)
        prefix = _prefix_sums(model.family.h_rows)
        if stationary:
            # one read-only table: row horizon - x is the base-0 envelope of
            # shift x from the same prefix sums, then zeros
            assert not hasattr(model, "_prefix") and not model._table.flags.writeable
            for x in range(horizon + 1):
                env = _base_envelope(model, prefix, x)
                assert np.array_equal(model._table[horizon - x], np.concatenate([env, np.zeros(x)])), x
        else:
            assert np.array_equal(model._prefix, prefix[: horizon + 2, : horizon + 2])
        assert len(model.conditional_tail(3, 5, horizon - 7)) == horizon - 6
        with pytest.raises(errors.HorizonError):
            model._envelopes(slice(0, 1), 1, horizon + 1)
        with pytest.raises(errors.HorizonError):
            model.conditional_tail(3, 5, horizon - 6 if not stationary else 2 * horizon)

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=62, max_size=62),
        size=st.floats(1e-4, 1.0),
        scales=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=70, max_size=70)),
        horizon=st.integers(1, 60),
        at=st.floats(0.0, 1.0),
        K=st.floats(0.0, 1.0),
    )
    def test_table_rows_equal_the_prefix_envelopes(self, values, size, scales, horizon, at, K):
        # a random nonincreasing row, shared or scaled per index: the base-0
        # envelope of a stationary model's table, or of a nonstationary model's
        # prefix table, equals the one from the test's own prefix sums.
        # Small rows keep c_h times their sums below the clamp at 1, where a
        # change in the order of the additions would show.
        h = np.concatenate([[1.0], size * np.sort(values)[::-1]])
        n = np.arange(1.0, len(h))
        c_beta = max(1.0, float(np.max(n**1.01 * h[1:])))
        row = TailTable(values=h, label="r")
        tables = [row] * 70 if scales is None else [TailTable(values=a * h, label="r") for a in scales]
        family = family_from_tables(1, row, tables, beta=1.01, beta_prime=1.01, c_beta=c_beta, c_beta_prime=c_beta)
        assert family.stationary == (scales is None or len(set(scales)) == 1)
        model = build_model(family, make_constants(K=K), horizon)
        x = int(at * horizon)
        env = _base_envelope(model, _prefix_sums(family.h_rows), x)
        assert np.array_equal(model.conditional_tail(0, x, horizon - x + 1), env)
        if family.stationary:
            assert np.array_equal(model._table[horizon - x], np.concatenate([env, np.zeros(x)]))

    def test_stationary_dp_memory_peak(self):
        # the envelope table and the triangle of W: about 1.5 tables of
        # (n + 2)**2 floats, where a push-law table beside them took 2.6, and
        # three full copies of the envelopes and a square W 4.7
        n = 400
        family = synthetic_poly_family(2.0, n_rows=n + 10, depth=2 * n + 30)
        constants = make_constants(theta=0.25, n0=1, K=0.5)
        tracemalloc.start()
        try:
            s_tail_dp(build_model(family, constants, n + 1), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 8 * (n + 2) ** 2

    def test_nonstationary_dp_memory_peak(self):
        # the prefix table, the triangle of W and one anti-diagonal buffer:
        # about 1.9 tables of (n + 2)**2 floats with the model build, where a
        # second buffer for the push law took 2.2, and a second prefix-sized
        # table and fresh blocks per anti-diagonal 3.0
        n = 400
        family = _poly_family([2.0 + 0.25 * (j % 3) for j in range(n + 10)], 2.0, depth=2 * n + 30)
        tracemalloc.start()
        try:
            s_tail_dp(build_model(family, make_constants(theta=0.25, n0=1, K=0.5), n + 1), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * (n + 2) ** 2


    def test_stationary_dp_holds_its_mass_triangle(self):
        # with the model built, the DP holds the triangle of W, (n + 1)(n + 2) / 2
        # floats, and a few rows per anti-diagonal; a push-law table
        # beside it took (n + 1)**2 floats more
        n = 1000
        family = synthetic_poly_family(2.0, n_rows=n + 10, depth=2 * n + 30)
        model = build_model(family, make_constants(theta=0.25, n0=1, K=0.5), n + 1)
        tracemalloc.start()
        try:
            s_tail_dp(model, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * ((n + 1) * (n + 2) // 2 + 32 * (n + 2))

    def test_nonstationary_mc_memory_peak(self):
        # taus, x, t, s for every walker, and per step the live indices, their
        # uniforms, their counts and one more walker-sized temporary: 8 arrays
        # of int64 or float64, then the bisection's temporaries, made over
        # blocks of walkers; at full width they took 12 arrays more
        samples = 100_000
        model = _bench_nonstationary_model(410)
        s_tail_mc(model, 200, 10_000, seed=7)  # numpy imports np.random on first use
        tracemalloc.start()
        try:
            s_tail_mc(model, 200, samples, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (8 * samples + 16 * coupling._BLOCK)


class TestStailBound:
    def test_exact_power_is_flat(self):
        vals = np.concatenate([[1.0], np.arange(1.0, 101.0) ** -2.0])
        rep = check_stail_bound(TailTable(values=vals, label="s_tail"), 2.0, 0.0, 1)
        assert rep.sup_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.argmax_n == 1

    def test_degenerate_model_dominated(self):
        c = make_constants(theta=0.5, n0=2, K=0.5)
        model = build_model(degenerate_family(n_rows=130, depth=150), c, horizon=120)
        dp = s_tail_dp(model, 120)
        rep = check_stail_bound(dp, 2.0, 0.0, 1)
        assert np.isfinite(rep.sup_ratio)
        assert rep.argmax_n <= 60

    def test_synthetic_plateau(self):
        model = _model(2.0, horizon=620)
        dp = s_tail_dp(model, 600)
        rep = check_stail_bound(dp, 2.0, 0.0, 1)
        assert rep.plateau()
        arg = rep.argmax_n
        assert np.all(np.diff(rep.ratios[arg - 1 :]) <= 1e-9)

    @pytest.mark.parametrize("size", [10, 11])
    def test_plateau_allows_an_argmax_up_to_the_middle(self, size):
        middle = size // 2
        assert StailBoundReport(sup_ratio=1.0, argmax_n=middle, ratios=np.zeros(size)).plateau()
        assert not StailBoundReport(sup_ratio=1.0, argmax_n=middle + 1, ratios=np.zeros(size)).plateau()


    @pytest.mark.parametrize("beta_prime,theta_star,k", [(1e300, 0.0, 1), (300.0, 0.19, 1000)])
    def test_ratios_that_overflow_are_a_param_error(self, beta_prime, theta_star, k):
        # n**beta', and (theta* k + 1)**beta' (a float power would raise OverflowError)
        table = TailTable(values=np.array([1.0, 0.5, 0.25]), label="s_tail")
        with pytest.raises(errors.ParamError, match="overflows"):
            check_stail_bound(table, beta_prime, theta_star, k)


class TestEndToEnd:
    def test_lsv_tails_through_the_dp(self):
        # stationary LSV gamma = 1/2: return tails of order n**-2 feed the
        # DP; a decreasing-cone initial measure has tail of order n**-1,
        # and the random sum inherits that slower exponent.
        s = seqs.constant(lsv(0.5))
        horizon = 500
        depth = horizon + 2
        h = return_time_tail(s, 1, depth, base="m_k")
        ep = lsv_preimage_points(s, 1, depth)
        y = np.concatenate([[1.0], inverse_branch_array(ep.params, Branch.RIGHT, ep.x_next)])
        r_vals = np.sqrt(ep.x) + np.sqrt(y) - np.sqrt(0.5)
        r_vals[0] = 1.0
        r = TailTable(values=np.minimum.accumulate(np.minimum(r_vals, 1.0)), label="r")
        ns = np.arange(1, depth + 1)
        c_beta = max(1.0, float(np.max(ns**2 * h.values[1:])))
        c_beta_p = max(1.0, float(np.max(ns * r.values[1:])))
        fam = family_from_tables(
            1, r, h, beta=2.0, beta_prime=1.0, c_beta=c_beta, c_beta_prime=c_beta_p, theta=0.0
        )
        model = build_model(fam, make_constants(theta=0.25, n0=1, K=0.5), horizon)
        dp = s_tail_dp(model, horizon)
        rep = check_stail_bound(dp, 1.0, 0.0, 1)
        assert np.isfinite(rep.sup_ratio)
        assert rep.plateau()


class TestFamilyValidation:
    def test_declared_bound_checked(self):
        with pytest.raises(errors.ParamError, match="bound violated"):
            TailFamily(
                k=1,
                r=TailTable(values=np.array([1.0, 1.0, 0.9]), label="r"),
                h_rows=np.array([[1.0, 1.0, 0.9], [1.0, 1.0, 0.9]]),
                beta=3.0,
                beta_prime=1.5,
                c_beta=1.0,
                c_beta_prime=1.0,
                theta_seq=np.zeros(2),
            )

    @pytest.mark.parametrize("shared", [True, False])
    def test_first_violating_row_is_named(self, shared):
        # with every Theta 0 all rows share one bound, checked in one pass;
        # a shared row is checked once, and stands for the family's first row
        m = np.arange(1.0, 41.0)
        good = np.concatenate([[1.0], np.minimum(1.0, m**-2.0)])
        bad = np.maximum(good, 0.01)
        rows = np.broadcast_to(bad, (6, 41)) if shared else np.stack([good, good, bad, good, bad, good])
        with pytest.raises(errors.ParamError, match="violated by tail row 5$" if shared else "row 7$"):
            TailFamily(k=5, r=TailTable(values=good, label="r"), h_rows=rows, beta=2.0, beta_prime=2.0,
                       c_beta=1.0, c_beta_prime=1.0, theta_seq=np.zeros(6))

    def test_shared_row_names_the_first_row_whose_own_bound_it_breaks(self):
        # row 1 has shift 0.2 and meets its bound; row 2 has shift 0 and breaks it
        m = np.arange(1.0, 41.0)
        good = np.concatenate([[1.0], np.minimum(1.0, m**-2.0)])
        row = np.concatenate([[1.0], np.minimum(1.0, np.maximum(1.0, m - 0.1) ** -2.0)])
        with pytest.raises(errors.ParamError, match="violated by tail row 2$"):
            TailFamily(k=1, r=TailTable(values=good, label="r"), h_rows=np.broadcast_to(row, (3, 41)), beta=2.0,
                       beta_prime=2.0, c_beta=1.0, c_beta_prime=1.0, theta_seq=np.array([0.2, 0.0, 0.0]))

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 5), n_rows=st.integers(1, 12), beta=st.floats(1.1, 3.0), c_beta=st.floats(1.0, 2.0),
           layout=st.sampled_from(["shared", "tiled", "rows"]), data=st.data())
    def test_declared_bound_check_equals_a_per_row_loop(self, k, n_rows, beta, c_beta, layout, data):
        depth = 30
        m = np.arange(1.0, depth + 1.0)
        thetas = st.sampled_from([0.0, 1e-9, 0.01, 0.05, 0.2])
        theta = np.array(data.draw(st.lists(thetas, min_size=n_rows, max_size=n_rows) | thetas.map(
            lambda t: [t] * n_rows)))
        # a row shifted by s meets the bound of every row whose shift Theta_j j is at least s
        shifted = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.5, 1.5]).map(
            lambda s: np.concatenate([[1.0], np.minimum(1.0, c_beta * np.maximum(1.0, m - s) ** -beta)]))
        if layout == "rows":
            rows = np.stack(data.draw(st.lists(shifted, min_size=n_rows, max_size=n_rows)))
        else:
            row = data.draw(shifted)
            rows = np.broadcast_to(row, (n_rows, depth + 1)) if layout == "shared" else np.tile(row, (n_rows, 1))
        n = np.arange(1, depth + 1, dtype=float)
        first_bad = next((k + i for i in range(n_rows) if not np.all(
            rows[i, 1:] <= c_beta * np.maximum(1.0, n - theta[i] * (k + i)) ** (-beta) + 1e-12)), None)
        r = TailTable(values=np.concatenate([[1.0], np.minimum(1.0, m**-beta)]), label="r")
        args = dict(k=k, r=r, h_rows=rows, beta=beta, beta_prime=beta, c_beta=c_beta, c_beta_prime=1.0,
                    theta_seq=theta)
        if first_bad is None:
            assert TailFamily(**args).stationary == (layout != "rows" or bool(np.all(rows == rows[0])))
        else:
            with pytest.raises(errors.ParamError, match=f"violated by tail row {first_bad}$"):
                TailFamily(**args)

    def test_large_theta_warns(self):
        m = np.arange(4.0)
        rows = np.ones((2, 4))
        rows[:, 1:] = np.minimum(1.0, m[1:] ** -2.0)
        with pytest.warns(UserWarning, match="Theta"):
            family_from_tables(
                1,
                TailTable(values=rows[0], label="r"),
                TailTable(values=rows[0], label="r"),
                beta=2.0,
                beta_prime=2.0,
                c_beta=4.0,
                c_beta_prime=4.0,
                theta=0.3,
            )

    @pytest.mark.parametrize("kw", [dict(theta_seq=np.array([0.0, math.nan])), dict(c_beta=math.nan),
                                    dict(c_beta_prime=math.nan), dict(c_beta=math.inf), dict(beta=math.inf)],
                             ids=["Theta-nan", "C_beta-nan", "C_beta_prime-nan", "C_beta-inf", "beta-inf"])
    def test_nan_or_infinite_family_constant(self, kw):
        m = np.arange(1.0, 41.0)
        row = np.concatenate([[1.0], np.minimum(1.0, m**-2.0)])
        args = dict(k=1, r=TailTable(values=row, label="r"), h_rows=np.stack([row, row]), beta=2.0, beta_prime=2.0,
                    c_beta=1.0, c_beta_prime=1.0, theta_seq=np.zeros(2))
        with pytest.raises(errors.ParamError):
            TailFamily(**(args | kw))

    @pytest.mark.parametrize("where", ["h", "r"])
    def test_nan_tail_entry_violates_the_declared_bound(self, where):
        m = np.arange(1.0, 41.0)
        row = np.concatenate([[1.0], np.minimum(1.0, m**-2.0)])
        bad = row.copy()
        bad[7] = math.nan
        if where == "r":  # a NaN measure tail fails its own table's checks, before any family
            with pytest.raises(errors.ParamError):
                TailTable(values=bad, label="r")
            return
        with pytest.raises(errors.ParamError, match="bound violated by tail row 2$"):
            TailFamily(k=1, r=TailTable(values=row, label="r"), h_rows=np.stack([row, bad]), beta=2.0,
                       beta_prime=2.0, c_beta=1.0, c_beta_prime=1.0, theta_seq=np.zeros(2))

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(1.1, 4.0), n_rows=st.integers(2, 40), layout=st.sampled_from(["shared", "tiled", "nudged"]),
           at=st.floats(0.0, 1.0), col=st.floats(0.0, 1.0), n0=st.integers(0, 2))
    def test_stationary_exactly_when_every_row_equals_the_first(self, beta, n_rows, layout, at, col, n0):
        # a row nudged by one ulp makes the family nonstationary, and its DP
        # still matches the long double reference
        depth = 2 * n_rows + 2
        m = np.arange(1.0, depth + 1.0)
        h = np.concatenate([[1.0], np.minimum(1.0, m**-beta)])
        rows = np.broadcast_to(h, (n_rows, depth + 1)) if layout == "shared" else np.tile(h, (n_rows, 1))
        if layout == "nudged":
            i, j = int(at * (n_rows - 1)), 1 + int(col * (depth - 1))
            rows[i, j] = np.nextafter(rows[i, j], 0.0)
        family = TailFamily(k=1, r=TailTable(values=h, label="r"), h_rows=rows, beta=beta, beta_prime=beta,
                            c_beta=1.0, c_beta_prime=1.0, theta_seq=np.zeros(n_rows))
        assert family.stationary == (layout != "nudged")
        if layout == "nudged":
            _assert_dp_matches_reference(build_model(family, make_constants(n0=n0), n_rows - 1), n_rows - 1)
