"""Coupling machinery: composed tails, decomposition weights, and the
law of the random sum that controls memory loss.

Given a family of per-index return tails h^j and a measure tail r, the
decomposition argument produces weights alpha_j = r_hat(j - n0) -
r_hat(j + 1 - n0) (mass coupled to the reference measure exactly at time
j) and controls the remainder through the random sum

    S = X_1 + ... + X_tau,   tau ~ geometric(theta) independent,

where P(X_1 >= l) = r_hat(l - n0) and, given the history,
P(X_{j+1} >= l) = hhat(base k + X_1 + ... + X_{j-1}, shift X_j)(l - n0).
Here hhat(j, n) is the clamped running minimum of the composed tail

    h_n^j(l) = C_h * (h^j(n + l) + h^{j+1}(n + l - 1) + ... + h^{j+n}(l)),

with h^i(l) = 0 for l <= 0 and C_h = 2 exp(K2 diam X).

The exact law of S is computed by dynamic programming over states
(t, x) = (sum before the last increment, last increment).  Summing the
independent geometric coupling time in closed form (survival-weighted
arrival masses W(t, x) carry a factor (1 - theta) per step) removes the
truncation over tau entirely: the only cap is the tabulated n_max, and
trajectories whose partial sum exceeds it are absorbed into a "beyond"
bucket that is exact for every tabulated n.  The reported remainder is
therefore 0.  The DP sweeps the anti-diagonals t + x = s.  Each one is a
single weighted sum of push-law rows (for stationary families one block of
a table built once), added in row order without BLAS, so the law is the
same to the bit as a per-state loop's whatever the thread count.  A Monte
Carlo sampler that moves all its walkers in lock step provides the
independent cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import DepthError, HorizonError, NotNormalized, ParamError, check_n_max
from .tables import TailTable, empirical_tail


# -- constants -------------------------------------------------------------------


def derive_k_constants(K: float, lam: float) -> tuple[float, float]:
    """Regularity constants (K1, K2) from the distortion bound K and the
    expansion factor lambda: K2 = 2 K / (1 - 1/lambda) (strictly above the
    minimal admissible value when K > 0) and K1 = K + K2 / lambda."""
    if lam <= 1.0:
        raise ParamError(f"lambda must exceed 1, got {lam}")
    if K < 0.0:
        raise ParamError(f"K must be >= 0, got {K}")
    if K == 0.0:
        warnings.warn("K = 0 gives the degenerate choice K1 = K2 = 0", stacklevel=2)
        return (0.0, 0.0)
    k2 = 2.0 * K / (1.0 - 1.0 / lam)
    k1 = K + k2 / lam
    return (k1, k2)


@dataclass(frozen=True)
class CouplingConstants:
    theta: float
    n0: int
    K: float
    lam: float
    K1: float
    K2: float
    diam_x: float
    delta0: float
    c_h: float

    def __post_init__(self):
        if not (0.0 < self.theta <= 0.5):
            raise ParamError(f"theta must lie in (0, 1/2], got {self.theta}")
        if self.n0 < 0:
            raise ParamError("n0 must be >= 0")
        if not (0.0 < self.delta0 <= 1.0):
            raise ParamError("delta0 must lie in (0, 1]")
        if self.diam_x <= 0.0:
            raise ParamError("diam_x must be positive")
        if self.K > 0.0 and not self.K2 > (1.0 - 1.0 / self.lam) ** -1 * self.K - 1e-12:
            raise ParamError("K2 must exceed K / (1 - 1/lambda)")
        expected = 2.0 * np.exp(self.K2 * self.diam_x)
        if abs(self.c_h - expected) > 1e-9 * expected:
            raise ParamError("c_h must equal 2 exp(K2 diam_x)")


def make_constants(
    theta: float = 0.25,
    n0: int = 1,
    K: float = 0.5,
    lam: float = 2.0,
    diam_x: float = 1.0,
    delta0: float = 0.5,
) -> CouplingConstants:
    k1, k2 = derive_k_constants(K, lam) if K > 0.0 else (0.0, 0.0)
    return CouplingConstants(
        theta=theta,
        n0=int(n0),
        K=K,
        lam=lam,
        K1=k1,
        K2=k2,
        diam_x=diam_x,
        delta0=delta0,
        c_h=2.0 * float(np.exp(k2 * diam_x)),
    )


# -- tail envelopes ----------------------------------------------------------------


def hat_envelope(r) -> TailTable:
    """Clamped running minimum: rhat(n) = min(1, r(1), ..., r(n)), rhat(0) = 1.

    Accepts a TailTable (values from n = 0) or a plain array of r(1..L).
    """
    if isinstance(r, TailTable):
        tail = np.asarray(r.values[1:], dtype=float)
        k = r.k
    else:
        tail = np.asarray(r, dtype=float)
        k = 1
    if np.any(tail < 0.0):
        raise ParamError("tails must be nonnegative")
    env = np.minimum.accumulate(np.minimum(tail, 1.0)) if len(tail) else tail
    return TailTable(values=np.concatenate([[1.0], env]), k=k, label="r")


# -- tail families ------------------------------------------------------------------


@dataclass(frozen=True)
class TailFamily:
    """Per-index return tails h^j (rows j = k .. k + n_rows - 1), a measure
    tail r, and the declared polynomial bounds they satisfy.

    ``h_rows[i, m]`` is h^{k+i}(m) with column 0 fixed at 1; the stationary
    builders store one read-only row shared by every index.  The declared
    bounds h^j(n) <= C_beta (1 v (n - Theta_j j))**(-beta) and
    r(n) <= C'_beta (1 v (n - Theta_k k))**(-beta') are verified on the
    tabulated range at construction.
    """

    k: int
    r: TailTable
    h_rows: np.ndarray
    beta: float
    beta_prime: float
    c_beta: float
    c_beta_prime: float
    theta_seq: np.ndarray
    stationary: bool = False

    def __post_init__(self):
        h = np.asarray(self.h_rows, dtype=float)
        object.__setattr__(self, "h_rows", h)
        th = np.asarray(self.theta_seq, dtype=float)
        object.__setattr__(self, "theta_seq", th)
        if not (0.0 < self.beta_prime <= self.beta) or not self.beta > 1.0:
            raise ParamError("need 0 < beta' <= beta and beta > 1")
        if self.c_beta < 1.0 or self.c_beta_prime < 1.0:
            raise ParamError("C_beta and C'_beta must be >= 1")
        if h.ndim != 2 or len(th) != h.shape[0]:
            raise ParamError("theta_seq must give one value per tail row")
        if np.any((th < 0.0) | (th >= 1.0)):
            raise ParamError("Theta values must lie in [0, 1)")
        if float(np.max(th, initial=0.0)) > 0.2:
            warnings.warn(
                "max Theta exceeds 0.2; the polynomial bound on the random "
                "sum may degrade",
                stacklevel=2,
            )
        n = np.arange(1, h.shape[1], dtype=float)
        shift = th * (self.k + np.arange(len(th)))
        if np.any(shift):  # one bound per row
            bad = [np.any(h[i, 1:] > self.c_beta * np.maximum(1.0, n - shift[i]) ** (-self.beta) + 1e-12)
                   for i in range(len(th))]
        else:  # one bound for every row, and a shared row is checked once
            rows = h[:1] if h.strides[0] == 0 else h
            bad = np.any(rows[:, 1:] > self.c_beta * np.maximum(1.0, n) ** (-self.beta) + 1e-12, axis=1)
        if np.any(bad):
            raise ParamError(f"declared bound violated by tail row {self.k + int(np.argmax(bad))}")
        rv = self.r.values
        nr = np.arange(1, len(rv), dtype=float)
        rbound = self.c_beta_prime * np.maximum(1.0, nr - th[0] * self.k) ** (-self.beta_prime)
        if np.any(rv[1:] > rbound + 1e-12):
            raise ParamError("declared bound violated by the measure tail r")

    @property
    def n_rows(self) -> int:
        return self.h_rows.shape[0]

    @property
    def depth(self) -> int:
        return self.h_rows.shape[1] - 1


def _stationary_family(k: int, h: np.ndarray, rvals: np.ndarray, n_rows: int,
                       beta: float, beta_prime: float) -> TailFamily:
    """Every row h, measure tail rvals, C_beta = C'_beta = 1 and Theta = 0."""
    r = TailTable(values=rvals, k=k, label="r")
    return TailFamily(k=k, r=r, h_rows=np.broadcast_to(h, (n_rows, len(h))), beta=beta, beta_prime=beta_prime,
                      c_beta=1.0, c_beta_prime=1.0, theta_seq=np.zeros(n_rows), stationary=True)


def synthetic_poly_family(
    beta: float,
    beta_prime: float | None = None,
    k: int = 1,
    n_rows: int = 64,
    depth: int = 256,
) -> TailFamily:
    """Stationary family h^j(m) = min(1, m**-beta) with r(m) = min(1, m**-beta')."""
    if beta_prime is None:
        beta_prime = beta
    m = np.arange(depth + 1, dtype=float)
    h = np.concatenate([[1.0], np.minimum(1.0, m[1:] ** (-beta))])
    rvals = np.concatenate([[1.0], np.minimum(1.0, m[1:] ** (-beta_prime))])
    return _stationary_family(k, h, rvals, n_rows, beta, beta_prime)


def degenerate_family(k: int = 1, n_rows: int = 64, depth: int = 256) -> TailFamily:
    """All tails vanish beyond 0: every increment equals n0 exactly."""
    unit = np.zeros(depth + 1)
    unit[0] = 1.0
    return _stationary_family(k, unit, unit, n_rows, 2.0, 2.0)


def family_from_tables(
    k: int,
    r: TailTable,
    h_tables,
    beta: float,
    beta_prime: float,
    c_beta: float,
    c_beta_prime: float,
    theta=0.0,
    stationary: bool | None = None,
) -> TailFamily:
    """Assemble a family from tabulated tails.

    ``h_tables`` is either a single TailTable (one row shared by every
    index: a stationary family) or a list of TailTables for consecutive base indices starting
    at k.  ``theta`` is a scalar or one value per row.
    """
    if isinstance(h_tables, TailTable):
        row = np.array(h_tables.values, dtype=float)
        rows = np.broadcast_to(row, (max(len(r.values), 2), len(row)))
    else:
        depth = min(len(t.values) for t in h_tables)
        rows = np.stack([t.values[:depth] for t in h_tables])
    if stationary is None:
        stationary = rows.strides[0] == 0 or all(np.array_equal(row, rows[0]) for row in rows)
    th = np.broadcast_to(np.asarray(theta, dtype=float), (rows.shape[0],)).copy()
    return TailFamily(k=k, r=r, h_rows=rows, beta=beta, beta_prime=beta_prime, c_beta=c_beta,
                      c_beta_prime=c_beta_prime, theta_seq=th, stationary=stationary)


# -- decomposition weights -------------------------------------------------------------


@dataclass(frozen=True)
class WeightTable:
    """alpha_j for j = j_first .. j_max plus the residual tail mass beyond."""

    n0: int
    j_first: int
    j_max: int
    alphas: np.ndarray
    residual: float


def alpha_weights(r_hat: TailTable, n0: int, j_max: int) -> WeightTable:
    """Decomposition weights alpha_j = rhat(j - n0) - rhat(j + 1 - n0),
    j = n0 + 1 .. j_max, with the unassigned residual rhat(j_max + 1 - n0)."""
    rv = r_hat.values
    if abs(rv[1] - 1.0) > 1e-12:
        raise NotNormalized(f"rhat(1) = {rv[1]}, expected 1")
    if j_max + 1 - n0 > len(rv) - 1:
        raise DepthError(f"rhat tabulated to {len(rv) - 1}, need {j_max + 1 - n0}")
    js = np.arange(n0 + 1, j_max + 1)
    alphas = rv[js - n0] - rv[js + 1 - n0]
    if np.any(alphas < -1e-15):
        raise ParamError("rhat is not nonincreasing")
    return WeightTable(
        n0=n0,
        j_first=n0 + 1,
        j_max=j_max,
        alphas=np.maximum(alphas, 0.0),
        residual=float(rv[j_max + 1 - n0]),
    )


def memory_loss_bound(weights: WeightTable, n: int) -> float:
    """2 * (sum of alpha_j over j > n, residual included): the total
    variation bound after n steps implied by the decomposition."""
    if n >= weights.j_max:
        return 2.0 * weights.residual
    start = max(n + 1, weights.j_first)
    tail = float(np.sum(weights.alphas[start - weights.j_first :]))
    return 2.0 * (tail + weights.residual)


# -- the coupled random sum -------------------------------------------------------------


class CouplingModel:
    """Materialized law of the random sum: r_hat plus the clamped composed-tail
    envelopes from anti-diagonal prefix sums (one table for a stationary family)."""

    def __init__(self, family: TailFamily, constants: CouplingConstants, horizon: int):
        if horizon < 1:
            raise ParamError("horizon must be >= 1")
        if family.n_rows - 1 < horizon:
            raise HorizonError(
                f"family has {family.n_rows} tail rows, horizon {horizon} needs {horizon + 1}"
            )
        if family.depth < horizon + 1:
            raise HorizonError(
                f"family depth {family.depth} < horizon + 1 = {horizon + 1}; "
                "rebuild the family with deeper tails"
            )
        self.family = family
        self.constants = constants
        self.horizon = int(horizon)
        self.r_hat = hat_envelope(family.r)
        if len(self.r_hat.values) - 1 < horizon + 1 - constants.n0:
            raise HorizonError("measure tail r is tabulated too shallow for the horizon")
        if family.stationary:
            self._table = self._envelope_table()
            return
        # prefix[i+1, c] = sum_{i'<=i} h^{k+i'}(c-i') for the columns c <= horizon + 1
        # that the envelopes read; h^{k+i}(m) sits in column i + m (rows and depth suffice).
        n_cols = self.horizon + 2
        shifted = np.zeros((family.n_rows + 1, n_cols))
        for i in range(n_cols - 1):
            shifted[i + 1, i + 1 :] = family.h_rows[i, 1 : n_cols - i]
        self._prefix = np.cumsum(shifted, axis=0)

    def _envelope_table(self) -> np.ndarray:
        """Read-only; row horizon - x is the clamped base-0 envelope of shift x for
        l = 0..horizon - x + 1, then zeros.  Raw column c = x + l is one sequential cumsum
        of the anti-diagonal h_rows[i, c - i], i < c: the prefix table's additions in order."""
        h, n_cols = self.horizon, self.horizon + 2
        table = np.zeros((h + 1, n_cols))
        flat = table.reshape(-1)
        rev = self.family.h_rows[:, ::-1]  # rev[i, depth - m] = h^{k+i}(m)
        for c in range(1, n_cols):  # (x, c - x) sits at flat[(h - x) n_cols + c - x]
            np.cumsum(rev.diagonal(rev.shape[1] - 1 - c)[:c], out=flat[h * n_cols + c :: -(n_cols + 1)][:c])
        table *= self.constants.c_h
        table[:, 0] = 1.0
        np.minimum(table, 1.0, out=table)
        np.minimum.accumulate(table, axis=1, out=table)
        table.flags.writeable = False
        return table

    def _envelopes(self, ts, s: int, length: int) -> np.ndarray:
        """env[i, l] = clamped composed tail hhat at base offset ts[i], shift
        s - ts[i], for l = 0..length: one row per state of the anti-diagonal
        t + x = s, which all read the same prefix-table columns."""
        if s + length > self._prefix.shape[1] - 1:
            raise HorizonError("conditional tail requested beyond the prefix table")
        cols = slice(s + 1, s + length + 1)
        raw = self.constants.c_h * (self._prefix[s + 1, cols] - self._prefix[ts, cols])
        env = np.empty((raw.shape[0], length + 1))
        env[:, 0] = 1.0
        env[:, 1:] = np.minimum.accumulate(np.minimum(raw, 1.0), axis=1)
        return env

    def conditional_tail(self, t: int, x: int, length: int) -> np.ndarray:
        """env[l] = clamped composed tail hhat at base offset t, shift x,
        for l = 0..length (env[0] = 1).

        For a stationary family the base offset is immaterial, and the
        envelope is a read-only slice of the table built once."""
        if self.family.stationary:
            if not 0 <= x <= self.horizon or length > self.horizon - x + 1:
                raise HorizonError("conditional tail requested beyond the envelope table")
            return self._table[self.horizon - x, : length + 1]
        return self._envelopes([t], t + x, length)[0]


def build_model(family: TailFamily, constants: CouplingConstants, horizon: int) -> CouplingModel:
    return CouplingModel(family, constants, horizon)


def _weighted_rows(coef: np.ndarray, block: np.ndarray) -> np.ndarray:
    """sum_i coef[i] * block[i], adding the products in row order, as
    repeated ``+=`` would.  ``einsum`` (no BLAS, whose sums depend on its
    thread count) keeps that order for two or more columns; a single column
    it would sum with several accumulators, so that case goes through a
    sequential cumsum."""
    if block.shape[1] > 1:
        return np.einsum("i,ij->j", coef, block)
    return np.cumsum(coef * block[:, 0])[-1:]


def s_tail_dp(model: CouplingModel, n_max: int) -> TailTable:
    """Exact P(S >= n) for n = 0..n_max by dynamic programming over
    (partial sum, last increment), with the geometric coupling time summed
    in closed form.  notes["remainder"] is the truncation remainder (0 by
    construction); notes["beyond"] is the exact mass with S > n_max.

    A state (t, x) pushes its mass into row s = t + x, so the states of one
    anti-diagonal t + x = s are processed together, in ascending t.  When
    n0 = 0 the last of them, (s, 0), receives mass from the others and
    loops on itself; it is resolved geometrically after them.  Each
    processed cell of W is dead, and keeps that state's share of the
    "beyond" mass, which is summed in row-major order at the end.  W keeps
    only its triangle t + x <= n_max (the rest stays 0), row t at off[t].

    A stationary family's envelopes depend on the shift alone: E, the last
    n_max + 1 rows of the model's table, holds shift x in row n_max - x,
    and D = E[:, :-1] - E[:, 1:] is their push law, built once.
    Anti-diagonal s then reads one block of rows from n_max - s on,
    ascending in t.  Every sum runs in the order of a per-state loop over
    t, then x (:func:`_weighted_rows`), so the table is the same to the
    bit."""
    check_n_max(n_max)
    if n_max > model.horizon:
        raise HorizonError(f"model horizon {model.horizon} < n_max {n_max}")
    c = model.constants
    n0, th = c.n0, c.theta
    one_m = 1.0 - th
    rv = model.r_hat.values
    off = np.concatenate([[0], np.cumsum(np.arange(n_max + 1, 0, -1))])
    W = np.zeros(off[-1])
    xs = np.arange(n0, n_max + 1)
    W[xs] = rv[xs - n0] - rv[xs + 1 - n0]
    beyond = float(rv[n_max + 1 - n0]) if n_max + 1 - n0 >= 0 else 1.0
    stationary = model.family.stationary
    if stationary:
        E = model._table[model.horizon - n_max :, : n_max + 2]
        D = E[:, :-1] - E[:, 1:]
    coupled = np.zeros(n_max + 1)
    for s in range(n0, n_max + 1):
        ts = np.arange(s - n0 + 1)  # states (t, s - t) with shift >= n0
        cells = off[ts] + s - ts
        w = W[cells]
        hi = n_max - s - n0
        if hi < 0:
            coupled[s] = np.cumsum(th * w)[-1]
            W[cells] = one_m * w
            continue
        m = len(ts) - 1 if n0 == 0 else len(ts)  # (s, 0) waits for the others
        if stationary:
            env = E[n_max - s : n_max - s + len(ts), : hi + 2]
            push = D[n_max - s : n_max - s + m, : hi + 1]
        else:
            env = model._envelopes(ts, s, hi + 1)
            push = env[:m, : hi + 1] - env[:m, 1 : hi + 2]
        row = W[off[s] : off[s + 1]]  # W[s, x] for x = 0..n_max - s
        coef = one_m * w[:m]
        if m:
            row[n0:] += _weighted_rows(coef, push)
            coupled[s] = np.cumsum(th * w[:m])[-1]
            W[cells[:m]] = coef * env[:m, hi + 1]
        if n0 == 0:
            e = env[m]
            w0 = row[0] / (1.0 - one_m * (1.0 - e[1]))
            coupled[s] += th * w0
            row[1:] += one_m * w0 * (e[1 : hi + 1] - e[2 : hi + 2])
            row[0] = one_m * w0 * e[hi + 1]
    W[0] += beyond  # the dead cells after beyond, in row-major order
    beyond = float(np.cumsum(W, out=W)[-1])
    tail = np.cumsum(np.concatenate([[beyond], coupled[::-1]]))[:0:-1]
    tail = np.minimum.accumulate(np.minimum(tail, 1.0))
    return TailTable(
        values=tail,
        k=model.family.k,
        label="s_tail",
        notes={"remainder": 0.0, "beyond": beyond},
    )


def s_tail_mc(model: CouplingModel, n_max: int, samples: int, seed: int) -> TailTable:
    """Empirical tail of S by inverse-transform sampling of each conditional
    tail and of the geometric coupling time; binomial standard errors.

    All live walkers move in lock step: each step draws one uniform per
    live walker, in walker order, and inverts the envelope of its state,
    one ``searchsorted`` per distinct envelope (shift x for stationary
    families, (t, x) otherwise).  A nonstationary step builds its new keys'
    envelopes with one ``_envelopes`` call per anti-diagonal t + x."""
    check_n_max(n_max)
    if n_max > model.horizon:
        raise HorizonError(f"model horizon {model.horizon} < n_max {n_max}")
    if samples < 10**4:
        raise ParamError("samples must be >= 10**4")
    c = model.constants
    n0, th = c.n0, c.theta
    stationary = model.family.stationary
    gen = np.random.default_rng(_rng.child_seed(seed, "s-tail-mc"))
    taus = gen.geometric(th, size=samples)
    r_rev = model.r_hat.values[1:][::-1]  # ascending for binary search
    u0 = gen.uniform(size=samples)
    x = n0 + (len(r_rev) - np.searchsorted(r_rev, u0, side="right"))
    t = np.zeros(samples, dtype=np.int64)
    s = x.copy()
    over = n_max + 1
    env_rev: dict[int, np.ndarray] = {}  # envelope key -> env[1:] reversed
    step = 1
    live = np.nonzero((taus > step) & (s <= n_max))[0]
    while live.size:
        u = gen.uniform(size=live.size)
        keys = x[live] if stationary else t[live] * over + x[live]
        order = np.argsort(keys, kind="stable")
        uniq, starts = np.unique(keys[order], return_index=True)
        # each key gets the longest envelope it can need: a walker whose
        # draw lands past its own room ends beyond n_max either way
        new = np.array([key for key in uniq.tolist() if key not in env_rev], dtype=np.int64)
        if stationary:
            env_rev.update((key, model.conditional_tail(0, key, n_max - key + 1)[1:][::-1])
                           for key in new.tolist())
        else:
            new_t, new_x = np.divmod(new, over)
            for sv in np.unique(new_t + new_x).tolist():  # one anti-diagonal t + x = sv
                on = new_t + new_x == sv
                envs = model._envelopes(new_t[on], sv, n_max - sv + 1)
                env_rev.update(zip(new[on].tolist(), envs[:, 1:][:, ::-1]))
        counts = np.empty(live.size, dtype=np.int64)
        for key, a, b in zip(uniq.tolist(), starts.tolist(), [*starts[1:].tolist(), live.size]):
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


# -- polynomial bound check ---------------------------------------------------------------


@dataclass(frozen=True)
class StailBoundReport:
    """sup over tabulated n of n**beta' P(S >= n) / (theta* k + 1)**beta',
    its argmax, and the full ratio sequence for plateau inspection."""

    sup_ratio: float
    argmax_n: int
    ratios: np.ndarray = field(repr=False)

    def plateau(self) -> bool:
        return self.argmax_n <= len(self.ratios) // 2


def check_stail_bound(
    table: TailTable, beta_prime: float, theta_star: float, k: int
) -> StailBoundReport:
    ns = np.arange(1, table.n_max + 1, dtype=float)
    scale = (theta_star * k + 1.0) ** beta_prime
    ratios = ns**beta_prime * table.values[1:] / scale
    arg = int(np.argmax(ratios)) + 1
    return StailBoundReport(sup_ratio=float(np.max(ratios)), argmax_n=arg, ratios=ratios)
