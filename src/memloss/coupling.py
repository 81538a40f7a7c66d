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
therefore 0.  The DP sweeps the anti-diagonals t + x = s.  The push law
is linear, so each one pushes the differences of one weighted sum of
envelope rows, added in row order without BLAS: the law does not depend on
the thread count, and on the tests' families each row is within 1e-14
(relative) of a long double DP's.  A Monte Carlo sampler that moves all
its walkers in lock step provides the independent cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import DepthError, HorizonError, NotNormalized, ParamError, check_n_max
from .tables import TailTable, empirical_tail

_BLOCK = 2**14  # walkers per block of the nonstationary Monte Carlo bisection


# -- constants -------------------------------------------------------------------


def derive_k_constants(K: float, lam: float) -> tuple[float, float]:
    """Regularity constants (K1, K2) from the distortion bound K and the
    expansion factor lambda: K2 = 2 K / (1 - 1/lambda) (strictly above the
    minimal admissible value when K > 0) and K1 = K + K2 / lambda; K = 0 gives (0, 0)."""
    if not lam > 1.0:
        raise ParamError(f"lambda must exceed 1, got {lam}")
    if not 0.0 <= K < np.inf:
        raise ParamError(f"K must be finite and >= 0, got {K}")
    k2 = 2.0 * K / (1.0 - 1.0 / lam)
    return (K + k2 / lam, k2)


@dataclass(frozen=True)
class CouplingConstants:
    """The chosen constants; K2 and C_h = 2 exp(K2 diam_x) are derived from them."""

    theta: float
    n0: int
    K: float
    lam: float
    diam_x: float
    delta0: float
    K2: float = field(init=False)
    c_h: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.theta <= 0.5):
            raise ParamError(f"theta must lie in (0, 1/2], got {self.theta}")
        if self.n0 < 0:
            raise ParamError("n0 must be >= 0")
        if not (0.0 < self.delta0 <= 1.0):
            raise ParamError("delta0 must lie in (0, 1]")
        if not (0.0 < self.diam_x < np.inf):
            raise ParamError("diam_x must be positive and finite")
        k2 = derive_k_constants(self.K, self.lam)[1]
        object.__setattr__(self, "K2", k2)
        with np.errstate(over="ignore"):
            c_h = 2.0 * float(np.exp(k2 * self.diam_x))
        if not c_h < np.inf:
            raise ParamError(f"C_h = 2 exp(K2 diam_x) overflows: K2 = {k2}, diam_x = {self.diam_x}")
        object.__setattr__(self, "c_h", c_h)


def make_constants(
    theta: float = 0.25,
    n0: int = 1,
    K: float = 0.5,
    lam: float = 2.0,
    diam_x: float = 1.0,
    delta0: float = 0.5,
) -> CouplingConstants:
    return CouplingConstants(theta=theta, n0=int(n0), K=K, lam=lam, diam_x=diam_x, delta0=delta0)


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
    if not np.all(tail >= 0.0):
        raise ParamError("tails must be nonnegative")
    env = np.minimum.accumulate(np.minimum(tail, 1.0)) if len(tail) else tail
    return TailTable(values=np.concatenate([[1.0], env]), k=k, label="r")


# -- tail families ------------------------------------------------------------------


@dataclass(frozen=True)
class TailFamily:
    """Per-index return tails h^j (rows j = k .. k + n_rows - 1), a measure
    tail r, and the declared polynomial bounds they satisfy.

    ``h_rows[i, m]`` is h^{k+i}(m) with column 0 fixed at 1; the stationary
    builders store one read-only row shared by every index.  ``stationary``
    is read off the rows: a shared row, or every row equal to the first.  The declared
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
    stationary: bool = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h_rows, dtype=float)
        object.__setattr__(self, "h_rows", h)
        th = np.asarray(self.theta_seq, dtype=float)
        object.__setattr__(self, "theta_seq", th)
        if not (0.0 < self.beta_prime <= self.beta < np.inf and self.beta > 1.0):
            raise ParamError("need 0 < beta' <= beta < inf and beta > 1")
        if not (1.0 <= self.c_beta < np.inf and 1.0 <= self.c_beta_prime < np.inf):
            raise ParamError("C_beta and C'_beta must be finite and >= 1")
        if h.ndim != 2 or len(th) != h.shape[0]:
            raise ParamError("theta_seq must give one value per tail row")
        if not np.all((th >= 0.0) & (th < 1.0)):
            raise ParamError("Theta values must lie in [0, 1)")
        object.__setattr__(self, "stationary", h.strides[0] == 0 or all(np.array_equal(row, h[0]) for row in h))
        if float(np.max(th, initial=0.0)) > 0.2:
            warnings.warn(
                "max Theta exceeds 0.2; the polynomial bound on the random "
                "sum may degrade",
                stacklevel=2,
            )
        n = np.arange(1, h.shape[1], dtype=float)
        shift = th * (self.k + np.arange(len(th)))  # one bound per distinct shift; all 0: one, and no sort
        shifts, which = np.unique(shift, return_inverse=True) if np.any(shift) else (shift[:1], [0])
        bounds = self.c_beta * np.maximum(1.0, n - shifts[:, None]) ** (-self.beta) + 1e-12
        if self.stationary:  # the one row against each distinct bound
            bad = ~np.all(h[0, 1:] <= bounds, axis=1)[which]
        else:  # one shared bound broadcasts over the rows
            bad = ~np.all(h[:, 1:] <= (bounds[which] if len(shifts) > 1 else bounds), axis=1)
        if np.any(bad):
            raise ParamError(f"declared bound violated by tail row {self.k + int(np.argmax(bad))}")
        rv = self.r.values
        nr = np.arange(1, len(rv), dtype=float)
        rbound = self.c_beta_prime * np.maximum(1.0, nr - th[0] * self.k) ** (-self.beta_prime)
        if not np.all(rv[1:] <= rbound + 1e-12):
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
                      c_beta=1.0, c_beta_prime=1.0, theta_seq=np.zeros(n_rows))


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
    th = np.broadcast_to(np.asarray(theta, dtype=float), (rows.shape[0],)).copy()
    return TailFamily(k=k, r=r, h_rows=rows, beta=beta, beta_prime=beta_prime, c_beta=c_beta,
                      c_beta_prime=c_beta_prime, theta_seq=th)


# -- decomposition weights -------------------------------------------------------------


@dataclass(frozen=True)
class WeightTable:
    """alpha_j for j = j_first, j_first + 1, ... plus the residual tail mass beyond the last."""

    j_first: int
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
        j_first=n0 + 1,
        alphas=np.maximum(alphas, 0.0),
        residual=float(rv[j_max + 1 - n0]),
    )


# -- the coupled random sum -------------------------------------------------------------


class CouplingModel:
    """Materialized law of the random sum: r_hat plus the clamped composed-tail
    envelopes from anti-diagonal prefix sums, which a stationary family turns
    into one table of its envelopes."""

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
        # prefix[i+1, c] = sum_{i'<=i} h^{k+i'}(c-i') for the rows and columns <= horizon + 1
        # that the envelopes read; h^{k+i}(m) sits in column i + m (rows and depth suffice).
        n_cols = self.horizon + 2
        prefix = np.zeros((n_cols, n_cols))
        for i in range(n_cols - 1):  # a cumsum down the columns, in place
            prefix[i + 1, i + 1 :] = family.h_rows[i, 1 : n_cols - i]
            prefix[i + 1] += prefix[i]
        if not family.stationary:  # _rise[s] is Delta_s of s_tail_mc, with R over the h values read
            h = family.h_rows[: n_cols - 1, 1:n_cols]
            up = h[:, 1:] > h[:, :-1]
            most = np.bincount(np.nonzero(up)[0], h[:, 1:][up] - h[:, :-1][up], minlength=1).max()
            s = np.arange(n_cols - 1)
            self._rise = 2.0 * constants.c_h * ((2 * s + 3) * 2.0**-52 * np.diagonal(prefix)[1:] + (s + 1) * most)
            self._prefix = prefix
            return
        # row x + 1 shifted left by x is the raw base-0 envelope of shift x for l = 0..horizon - x + 1,
        # then zeros; clamped, it is a read-only table, reversed so that row horizon - x holds shift x
        rows = prefix[1:]
        for x in range(1, n_cols - 1):
            rows[x, : n_cols - x] = rows[x, x:]
            rows[x, n_cols - x :] = 0.0
        rows[:, 0] = 1.0
        rows *= self.constants.c_h
        np.minimum(rows, 1.0, out=rows)
        _running_min(rows)
        self._table = rows[::-1]
        self._table.flags.writeable = False

    def _check_n_max(self, n_max: int) -> None:
        """A table of P(S >= n) for n = 0..n_max needs n_max in 1..horizon."""
        check_n_max(n_max)
        if n_max > self.horizon:
            raise HorizonError(f"model horizon {self.horizon} < n_max {n_max}")

    def _envelopes(self, rows: slice, s: int, length: int, out=None) -> np.ndarray:
        """env[i, l] = clamped composed tail hhat at base offset t = rows.start + i, shift s - t, for
        l = 0..length: states of the anti-diagonal t + x = s.  A stationary model returns a read-only view
        of its table.  A nonstationary one builds them from prefix rows, in the flat buffer ``out`` if given."""
        x = s - rows.start
        top = x if self.family.stationary else s  # the largest shift, or prefix row, read
        if top > self.horizon or length > self.horizon - top + 1:
            raise HorizonError("conditional tail requested beyond the envelope table")
        if self.family.stationary:
            return self._table[self.horizon - x : self.horizon - x + rows.stop - rows.start, : length + 1]
        cols = slice(s + 1, s + length + 1)
        low = self._prefix[rows, cols]
        size = low.shape[0] * (length + 1)
        env = (np.empty(size) if out is None else out[:size]).reshape(-1, length + 1)
        env[:, 0] = 1.0  # finite, so that whole rows can be scaled and clamped (c_h >= 2)
        np.subtract(self._prefix[s + 1, cols], low, out=env[:, 1:])
        env *= self.constants.c_h
        np.minimum(env, 1.0, out=env)
        _running_min(env)
        return env

    def conditional_tail(self, t: int, x: int, length: int) -> np.ndarray:
        """env[l] = clamped composed tail hhat at base offset t, shift x,
        for l = 0..length (env[0] = 1); read-only for a stationary family."""
        if min(t, x, length) < 0:
            raise ParamError(f"conditional tail needs t, x, length >= 0, got ({t}, {x}, {length})")
        return self._envelopes(slice(t, t + 1), t + x, length)[0]


def _running_min(block: np.ndarray) -> None:
    """``np.minimum.accumulate(block, axis=1)`` in place, run only on the rows
    that rise: a nonincreasing row is its own running minimum, exactly."""
    flat, rise = block.reshape(-1), np.empty(block.shape, dtype=bool)
    np.greater(flat[1:], flat[:-1], out=rise.reshape(-1)[:-1])
    rise[:, -1] = False  # the next row's head against this row's end
    up = np.flatnonzero(rise.any(axis=1))
    block[up] = np.minimum.accumulate(block[up], axis=1)


def build_model(family: TailFamily, constants: CouplingConstants, horizon: int) -> CouplingModel:
    return CouplingModel(family, constants, horizon)


def _weighted_rows(coef: np.ndarray, block: np.ndarray) -> np.ndarray:
    """sum_i coef[i] * block[i] for a block of two or more columns, adding the
    products in row order, as repeated ``+=`` would: ``einsum`` keeps that
    order there, and unlike BLAS its sums do not depend on a thread count."""
    return np.einsum("i,ij->j", coef, block)


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

    The push law is linear: the states of anti-diagonal s push
    q[l] - q[l + 1] into row s, where q = sum_t coef[t] env[t, :] over their
    envelopes (:func:`_weighted_rows`).  Every env row is nonincreasing and
    every coef >= 0, so rounding keeps q nonincreasing and no push is
    negative.  The block comes from ``model._envelopes``: a view for a
    stationary family, else built in one buffer of (n_max + 3)**2 / 4 floats.
    The sums are not a per-state loop's: on the tests' families each row is
    within 1e-14 (relative) of a long double per-state DP's."""
    model._check_n_max(n_max)
    c = model.constants
    n0, th = c.n0, c.theta
    one_m = 1.0 - th
    rv = model.r_hat.values
    off = np.concatenate([[0], np.cumsum(np.arange(n_max + 1, 0, -1))])
    W = np.zeros(off[-1])
    xs = np.arange(n0, n_max + 1)
    W[xs] = rv[xs - n0] - rv[xs + 1 - n0]
    beyond = float(rv[n_max + 1 - n0]) if n_max + 1 - n0 >= 0 else 1.0
    # an anti-diagonal's block has (s - n0 + 1)(n_max - s - n0 + 2) <= (n_max + 3)**2 / 4 cells
    env_buf = None if model.family.stationary else np.empty((n_max + 3) ** 2 // 4)
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
        env = model._envelopes(slice(0, len(ts)), s, hi + 1, out=env_buf)
        row = W[off[s] : off[s + 1]]  # W[s, x] for x = 0..n_max - s
        coef = one_m * w[:m]
        if m:
            q = _weighted_rows(coef, env[:m])
            row[n0:] += q[:-1] - q[1:]
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
    live walker, in walker order, and inverts the envelope of its state:
    one ``searchsorted`` per distinct shift x for stationary families.
    Nonstationary walkers bisect their raw rows r(l) = c_h (P[s+1, s+l] -
    P[t, s+l]) of the prefix table P, _BLOCK walkers at a time.  With u < 1,
    the count c found, where r(c) > u, is hhat's unless r(l) <= u for an
    l < c: a rise of at least r(c) - u.  No computed row of anti-diagonal s
    rises that far when r(c) - u > Delta_s = 2 c_h ((2s + 3) 2**-52 P[s+1, s+1]
    + (s + 1) R), twice the exact rise, at most c_h (s + 1) R for R the
    largest total rise of an h row, plus two entry errors of at most c_h
    (2s + 3) 2**-53 P[s+1, s+1] each (Higham's bound for a sum of s + 1 terms
    added in order).  The other walkers recount on hhat."""
    model._check_n_max(n_max)
    if samples < 10**4:
        raise ParamError("samples must be >= 10**4")
    c = model.constants
    n0, th = c.n0, c.theta
    stationary = model.family.stationary
    gen = np.random.default_rng(_rng.child_seed(seed, "s-tail-mc"))
    taus = gen.geometric(th, size=samples)
    r_rev = model.r_hat.values[1:][::-1]  # ascending for binary search
    x = n0 + (len(r_rev) - np.searchsorted(r_rev, gen.uniform(size=samples), side="right"))
    t = np.zeros(samples, dtype=np.int64)
    s = x.copy()
    over = n_max + 1
    env_rev: dict[int, np.ndarray] = {}  # shift -> env[1:] reversed
    step = 1
    live = np.nonzero((taus > step) & (s <= n_max))[0]
    while live.size:
        u = gen.uniform(size=live.size)
        if stationary:  # a stable sort of 16-bit keys is a radix sort
            keys = x[live].astype(np.min_scalar_type(over))
            order = np.argsort(keys, kind="stable")
            uniq, starts = np.unique(keys[order], return_index=True)
            # each shift gets the longest envelope it can need: a walker whose
            # draw lands past its own room ends beyond n_max either way
            env_rev.update((key, model.conditional_tail(0, key, n_max - key + 1)[1:][::-1])
                           for key in uniq.tolist() if key not in env_rev)
            counts = np.empty(live.size, dtype=np.int64)
            for key, a, b in zip(uniq.tolist(), starts.tolist(), [*starts[1:].tolist(), live.size]):
                idx = order[a:b]
                counts[idx] = len(env_rev[key]) - env_rev[key].searchsorted(u[idx], side="right")
        else:
            counts = np.empty_like(live)
            for a in range(0, live.size, _BLOCK):  # so that the temporaries are block-sized
                b = slice(a, a + _BLOCK)
                counts[b] = _walk_counts(model, t[live[b]], s[live[b]], u[b], over)
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


def _walk_counts(model: CouplingModel, t: np.ndarray, s: np.ndarray, u: np.ndarray, over: int) -> np.ndarray:
    """#{l = 1..over - s: hhat(t, s - t)(l) > u} per walker: see :func:`s_tail_mc`."""
    flat, width, c_h = model._prefix.reshape(-1), model._prefix.shape[1], model.constants.c_h
    counts, length, hi, lo = np.zeros_like(t), over - s, (s + 1) * width + s, t * width + s
    for k in range(int(length.max()).bit_length() - 1, -1, -1):
        at = np.minimum(counts + (1 << k), length)  # counts <= the count < counts + 2**(k + 1), if r falls
        np.copyto(counts, at, where=c_h * (flat[hi + at] - flat[lo + at]) > u)
    doubt = (counts > 0) & (c_h * (flat[hi + counts] - flat[lo + counts]) - u <= model._rise[s])
    for i in np.flatnonzero(doubt).tolist():
        counts[i] = np.count_nonzero(model.conditional_tail(t[i], s[i] - t[i], length[i])[1:] > u[i])
    return counts


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
    with np.errstate(all="ignore"):  # numpy's power, where a float's raises OverflowError
        scale = np.float64(theta_star * k + 1.0) ** beta_prime
        ratios = ns**beta_prime * table.values[1:] / scale
    if not (scale < np.inf and np.all(np.isfinite(ratios))):
        raise ParamError(f"n**beta' P(S >= n) / (theta* k + 1)**beta' overflows: beta' = {beta_prime}, "
                         f"theta* k = {theta_star * k}")
    arg = int(np.argmax(ratios)) + 1
    return StailBoundReport(sup_ratio=float(np.max(ratios)), argmax_n=arg, ratios=ratios)
