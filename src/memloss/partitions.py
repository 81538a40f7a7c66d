"""Return-time partitions, tail tables, and power-law fits.

For a parameter sequence (T_k) the first-return structure to the family's
reference set Y_k is encoded by backward orbits of inverse branches:

* LSV/Cui: x_n(k) = g_k ... g_{k+n-1}(1) (left-branch pullbacks of 1) and
  y_n(k) = h_k(x_{n-1}(k+1)) with h_k the right inverse branch;
  Y = [1/2, 1].
* Pikovsky: right-branch pullbacks of 0 approach +1; tracked in shifted
  coordinates u_n = 1 - x_n^+, which obey u -> u - u**g / (2g) exactly.
  Y_k = (-1/(2 g_k), 1/(2 g_k)) minus the origin.
* GrossmannHorner (concrete instance): the left-branch pullbacks of 0 form
  a single nested chain e_m approaching -1; in shifted coordinates
  w_m = 1 + e_m they obey w -> w - w**2 / 4 exactly.  They bound the creep
  cells C_m = [e_{m+1}, e_m], which enter Y_k = (-1/4, 0) = C_0 after m
  steps, and the tail is a level sum over them: level j pulls every cell
  back through j right-branch steps.

Tails are exact: LSV, Cui and Pikovsky tails are read straight off the
orbits, GH tails complement resolved mass (so truncation never biases the
table); a Monte Carlo orbit sampler exists purely as an independent
cross-check oracle.

The backward orbits read the sequence once per call: one bulk index
lookup gives, for every base index of the window, the entry acting there,
and the fill runs on the gamma array gathered from it.  Nonstationary
windows are handled by an anti-diagonal layered fill (value at (base j,
depth n) pulls back the value at (j+1, n-1)), one array step per layer.
Windows of period P <= 15 (one map: P = 1) take P chains of depth
pulls; maps are told apart by value (all parameters, not gamma alone),
so a support that lists one map twice still runs the single chain.  A
chain pull returns the same float as the triangle's array pull, so
values do not depend on the fill chosen, and tails for nearby base
indices share one fill from the least of them, of depth n_max plus their
spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .errors import NonPositiveValue, ParamError, check_n_max
from .maps import (
    Branch,
    Family,
    MapParams,
    _lsv_left_chain,
    _lsv_left_inverse_array,
    eval_map_array,
    inverse_branch_array,
    state_interval,
)
from .sequences import ParamSequence, _entry_indices
from .tables import TailTable, empirical_tail


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float  # natural log of the prefactor
    r_squared: float


def fit_power_law(table: TailTable, n_min: int, n_max: int) -> PowerLawFit:
    """Ordinary least squares of log t(n) against log n over [n_min, n_max]."""
    if not (1 <= n_min < n_max <= table.n_max):
        raise ParamError(f"need 1 <= n_min < n_max <= {table.n_max}")
    vals = table.values[n_min : n_max + 1]
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise NonPositiveValue("fit window contains values that are not > 0 or not finite")
    x = np.log(np.arange(n_min, n_max + 1, dtype=float))
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(float(slope), float(intercept), r2)


def default_fit_window(n_available: int) -> tuple[int, int]:
    """Middle two decades of [1, n_available], never below n = 11."""
    if n_available < 30:
        return (max(2, n_available // 3), n_available)
    center = 0.5 * np.log10(n_available)
    lo = max(11, int(round(10 ** (center - 1.0))))
    hi = min(n_available, int(round(10 ** (center + 1.0))))
    if hi <= lo:
        lo, hi = max(11, n_available // 10), n_available
    return (lo, hi)


# -- layered backward recursions ------------------------------------------------


def _materialize(seq: ParamSequence, k: int, count: int) -> tuple[tuple[MapParams, ...], np.ndarray]:
    """The entries of seq and, for elements k .. k+count-1, the index of
    the first entry equal to each, so equal maps share an index."""
    first: dict[MapParams, int] = {}
    ids = np.array([first.setdefault(p, i) for i, p in enumerate(seq.entries)])
    return seq.entries, ids[_entry_indices(seq, k, count)]


def _fill_rows(
    entries: tuple[MapParams, ...],
    ids: np.ndarray,
    chain: Callable[[float, list[float], int], list[float]],
    pull_vec: Callable[[np.ndarray, np.ndarray], np.ndarray],
    depth: int,
    want: list[int],
) -> list[np.ndarray]:
    """Backward orbits of 1 in rows: the i-th row holds the values at (base
    k+r, depth n) for r = want[i] and n = 0..depth-r, where ``entries[ids[j]]``
    acts at base k+j.  ``want`` is increasing, with entries <= depth + 1.
    ``pull_vec`` takes (values, gammas); ``chain(x, gammas, n)`` returns x
    and its first n pulls, pull i by ``gammas[i % len(gammas)]``.

    A window of period P <= 15 (one map: P = 1) runs P chains of depth
    pulls: chain d holds (r, n) for r + n = d (mod P), its n-th pull by the
    map at base (d - n) mod P; other windows run the anti-diagonal triangle,
    one array pull per layer.  Maps are told apart by value, through ``ids``.
    """
    assert len(ids) == max(depth, 1)  # the maps the pulls read: layer n reads bases 0..depth - n
    gam = np.array([p.gamma for p in entries])[ids]
    want = np.asarray(want, dtype=np.int64)
    period = next((p for p in range(1, 16) if np.array_equal(ids[p:], ids[:-p])), 0)
    if period:
        pulls, cols = np.arange(1, period + 1), np.arange(depth + 1)
        chains = np.array([chain(1.0, gam[(d - pulls) % period].tolist(), depth) for d in range(period)])
        table = chains[(want[:, None] + cols) % period, cols]
        return [table[i, : depth + 1 - r] for i, r in enumerate(want)]
    # Row i is read to depth - want[i]; what a layer writes past that is cut off.
    table = np.empty((len(want), depth + 1))
    table[:, 0] = 1.0
    vals = np.ones(depth + 1)
    for n in range(1, depth + 1):
        m = depth + 1 - n
        vals = pull_vec(vals[1 : m + 1], gam[:m])
        reach = np.searchsorted(want, m)  # rows r < m reach depth n
        table[:reach, n] = vals[want[:reach]]
    return [table[i, : depth + 1 - r] for i, r in enumerate(want)]


def _pik_chain(u: float, gammas: list[float], n: int) -> list[float]:
    """u and its first n pulls, pull i by ``gammas[i % len(gammas)]``, on
    ``np.power`` with a one-element exponent: the triangle's floats."""
    cycle = [(float(g), np.array([g], dtype=float)) for g in gammas]
    out = [float(u)]
    for i in range(n):
        gamma, g = cycle[i % len(cycle)]
        out.append(out[-1] - np.power(out[-1], g).item() / (2.0 * gamma))
    return out


# family -> (chain, pull) of its backward orbit (see the module docstring)
_ORBITS = {
    Family.LSV: (_lsv_left_chain, _lsv_left_inverse_array),
    Family.CUI: (_lsv_left_chain, _lsv_left_inverse_array),
    Family.PIKOVSKY: (_pik_chain, lambda u, g: u - u**g / (2.0 * g)),
}


@dataclass(frozen=True)
class PartitionEndpoints:
    """The backward orbit at base k, ``x[n]`` for n = 0..n_max (LSV/Cui:
    x_n(k); Pikovsky: u_n), the same at base k+1 to depth n_max - 1, and
    the map acting at k.  GrossmannHorner tails need none."""

    params: MapParams
    k: int
    x: np.ndarray
    x_next: np.ndarray


def _fill_groups(ks: list[int], n_max: int) -> list[list[int]]:
    """Increasing base indices split into runs that share one backward fill.
    A run grows while its fill, of depth n_max + span, costs no more than a
    fill per index: (n_max + span)^2 <= count * n_max^2."""
    groups: list[list[int]] = []
    for k in ks:
        if groups and (n_max + k - groups[-1][0]) ** 2 <= (len(groups[-1]) + 1) * n_max**2:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _points(seq: ParamSequence, ks, n_max: int) -> list[PartitionEndpoints]:
    """Endpoints at each base index in ``ks``, in order; nearby indices read one fill."""
    chain, pull = _ORBITS[seq.family]
    points = {}
    for group in _fill_groups(sorted(set(ks)), n_max):
        # One fill from base k0, deep enough for every k's rows k and k+1.
        k0 = group[0]
        span = group[-1] - k0
        want = sorted({r for k in group for r in (k - k0, k - k0 + 1)})
        entries, ids = _materialize(seq, k0, max(n_max, 1) + span)  # the maps the pulls read, and each k's
        rows = dict(zip(want, _fill_rows(entries, ids, chain, pull, n_max + span, want)))
        for k in group:
            r = k - k0
            points[k] = PartitionEndpoints(entries[ids[r]], k, rows[r][: n_max + 1], rows[r + 1][:n_max])
    return [points[k] for k in ks]


def lsv_preimage_points(seq: ParamSequence, k: int, n_max: int) -> PartitionEndpoints:
    """The left-branch orbits of an LSV/Cui sequence at bases k and k+1."""
    if seq.family not in (Family.LSV, Family.CUI):
        raise ParamError("lsv_preimage_points needs an LSV or Cui sequence")
    return _points(seq, [k], n_max)[0]


def pikovsky_endpoints(seq: ParamSequence, k: int, n_max: int) -> PartitionEndpoints:
    """The orbits u_n of a Pikovsky sequence at bases k and k+1."""
    if seq.family is not Family.PIKOVSKY:
        raise ParamError("pikovsky_endpoints needs a Pikovsky sequence")
    return _points(seq, [k], n_max)[0]


# -- reference sets ----------------------------------------------------------------


def reference_set(params: MapParams) -> tuple[float, float]:
    """The reference set Y the return time targets: one interval (lo, hi) inside the state interval."""
    if params.family in (Family.LSV, Family.CUI):
        return (0.5, 1.0)
    if params.family is Family.PIKOVSKY:
        a = 1.0 / (2.0 * params.gamma)
        return (-a, a)
    return (-0.25, 0.0)


# -- exact tails --------------------------------------------------------------------


def _check_tail_args(n_max: int, base: str) -> None:
    check_n_max(n_max)
    if base not in ("m_k", "lebesgue"):
        raise ParamError(f"base must be 'm_k' or 'lebesgue', got {base!r}")


def return_time_tail(seq: ParamSequence, k: int, n_max: int, base: str = "m_k") -> TailTable:
    """Exact tail of the first return/entry time to the reference sets.

    ``base="m_k"`` conditions on the reference set (normalized Lebesgue on
    Y_k), ``base="lebesgue"`` starts from normalized Lebesgue on the whole
    state interval.  LSV, Cui and Pikovsky tails are read straight off the
    backward orbit (:func:`_tail_table`), so they keep relative accuracy
    where they are small.  GH tails complement the resolved creep-cell
    mass, so the unresolved remainder beyond n_max adds no truncation bias.
    """
    _check_tail_args(n_max, base)
    if seq.family is not Family.GROSSMANN_HORNER:
        return _tail_table(_points(seq, [k], n_max)[0], base)
    entries, ids = _materialize(seq, k, n_max)
    return _tail(_gh_tail(entries[ids[0]], n_max, base), k, base)


def _return_time_tails(seq: ParamSequence, ks, n_max: int, base: str = "m_k") -> list[TailTable]:
    """:func:`return_time_tail` for each base index in ``ks``, in order.  Several
    LSV, Cui or Pikovsky indices read backward fills shared by nearby indices
    (:func:`_fill_groups`); each table equals its one-index table bit for bit."""
    _check_tail_args(n_max, base)
    if seq.family is Family.GROSSMANN_HORNER or len(ks) == 1:
        return [return_time_tail(seq, k, n_max, base) for k in ks]
    return [_tail_table(ep, base) for ep in _points(seq, ks, n_max)]


def _tail_table(ep: PartitionEndpoints, base: str) -> TailTable:
    """t(n), n >= 1, read off the orbit.  {tau >= n} covers the share
    t_mk(n) = q_k(x_{n-1}(k+1)) of Y_k, with q_k the identity for LSV,
    x^(1/beta) for Cui and u^gamma for Pikovsky, and a length x_n(k) |X|
    outside it, so the Lebesgue tail is x_n(k) + t_mk(n) |Y_k| / |X|."""
    p = ep.params
    if p.family is Family.PIKOVSKY:
        t, share = ep.x_next**p.gamma, 2.0 * p.gamma  # share = |X| / |Y_k|
    elif p.family is Family.CUI:
        t, share = ep.x_next ** (1.0 / p.beta), 2.0
    else:
        t, share = ep.x_next, 2.0
    if base == "lebesgue":
        t = ep.x[1:] + t / share
    return _tail(np.concatenate([[1.0], t]), ep.k, base)


def _gh_tail(gh: MapParams, n_max: int, base: str) -> np.ndarray:
    """t(0..n_max) for the concrete Grossmann-Horner map, as a level sum
    over its creep cells C_m = [e_{m+1}, e_m], which reach Y = C_0 after m
    steps.

    A point of Y returns at tau = 1 + j + m after one left step into (0, 1),
    j right-branch steps and m creep steps: it lies in g_L g_R^j (C_m).  T is
    even, so g_L = -g_R, and that cell mirrors the positive cell
    g_R^(j+1) (C_m), which has the same return time.  Level j pulls every
    endpoint once more through g_R.  The Lebesgue base also counts the
    positive cells and the creep cells (tau = m).  g_R contracts toward
    3 - 2 sqrt(2), so the cells of a level round to one point (after 43
    levels at n_max = 2000) and the first level that adds exactly 0.0 ends
    the loop; no level past n_max - 1 reaches tau < n_max.
    """
    w = [1.0]  # w_m = 1 + e_m
    for _ in range(n_max):
        w.append(w[-1] - w[-1] * w[-1] / 4.0)
    p = np.array(w) - 1.0
    mass = np.zeros(n_max)  # mass[tau] for tau < n_max
    if base == "lebesgue":
        mass[1:] = -np.diff(p)[1:]
    for j in range(1, n_max):
        p = inverse_branch_array(gh, Branch.RIGHT, p[: n_max - j + 1])
        cells = np.abs(np.diff(p))  # g_R^j (C_m) for tau = j + m < n_max
        if not cells.any():
            break
        # each cell is positive, and mirrored in Y from level 2 on
        mass[j:] += ((base == "lebesgue") + (j >= 2)) * cells
    return np.concatenate([[1.0], 1.0 - np.cumsum(mass) / (0.25 if base == "m_k" else 2.0)])


def _tail(t: np.ndarray, k: int, base: str) -> TailTable:
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    t = np.minimum.accumulate(t)  # wash out 1-ulp wobble
    return TailTable(values=t, k=k, label="h_k" if base == "m_k" else "lebesgue")


# -- Monte Carlo oracle ---------------------------------------------------------------


def return_time_tail_mc(
    seq: ParamSequence,
    k: int,
    n_max: int,
    samples: int,
    seed: int,
    base: str = "m_k",
) -> TailTable:
    """Monte Carlo tail: sample the base measure (uniform on Y_k for
    ``base="m_k"``, on the state interval for ``"lebesgue"``), iterate maps
    forward, record the first entry into the moving reference set Y_{k+n}.

    Returns the empirical tail with binomial standard errors.  Orbits not
    returned before n_max are censored there: t(n_max) = P(tau >= n_max)
    needs no later step, so the maps at k .. k + n_max - 1 are all it reads.
    """
    if samples < 1000:
        raise ParamError("samples must be >= 1000")
    _check_tail_args(n_max, base)
    entries, ids = _materialize(seq, k, n_max)
    params = [entries[i] for i in ids]
    gen = np.random.default_rng(_rng.child_seed(seed, f"return-mc-{k}-{base}"))
    lo, hi = reference_set(params[0]) if base == "m_k" else state_interval(params[0])
    x = gen.uniform(lo, hi, size=samples)
    tau = np.full(samples, n_max + 1, dtype=np.int64)
    alive = np.arange(samples)
    for n in range(1, n_max):
        if alive.size == 0:
            break
        x = eval_map_array(params[n - 1], x)
        lo, hi = reference_set(params[n])
        hit = (x >= lo) & (x <= hi)
        tau[alive[hit]] = n
        alive = alive[~hit]
        x = x[~hit]
    return empirical_tail(tau, n_max, k)


def mc_zscores(exact: TailTable, mc: TailTable) -> np.ndarray:
    """z-scores of an MC tail against an exact one, NaN where the exact
    tail is outside (10 / samples, 1 - 10 / samples) and the comparison is
    Poisson-noisy or trivially clamped."""
    samples = mc.notes.get("samples")
    if samples is None:
        raise ParamError("the MC table has no sample count (notes['samples'])")
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ParamError(f"the MC table's sample count must be a positive integer, got {samples!r}")
    n = min(exact.n_max, mc.n_max)
    p = exact.values[: n + 1]
    q = mc.values[: n + 1]
    min_tail = 10.0 / samples
    se = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / samples)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (q - p) / se
    z[(p < min_tail) | (p > 1.0 - min_tail)] = np.nan
    return z
