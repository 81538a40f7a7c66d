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

Tails are evaluated exactly from endpoint lengths (complementing resolved
mass, so truncation never biases the table); a Monte Carlo orbit sampler
exists purely as an independent cross-check oracle.

The backward orbits read the sequence once per call: one bulk index
lookup gives, for every base index of the window, the entry acting there,
and the fill runs on the gamma array gathered from it.  Nonstationary
windows are handled by an anti-diagonal layered fill (value at (base j,
depth n) pulls back the value at (j+1, n-1)), one array step per layer.
Windows of one map and periodic windows take O(depth) and
O(period * depth) scalar chains; maps are told apart by value (all
parameters, not gamma alone), so a support that lists one map twice
still runs the single chain.  The LSV/Cui chain pull returns the same
float as the triangle's array pull, so those values do not depend on the
fill chosen, and LSV/Cui tails for nearby base indices share one fill from
the least of them, of depth n_max plus their spread.
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
    if np.any(vals <= 0.0):
        raise NonPositiveValue("fit window contains values <= 0")
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
    first = np.array([seq.entries.index(p) for p in seq.entries])
    return seq.entries, first[_entry_indices(seq, k, count)]


def _fill_rows(
    entries: tuple[MapParams, ...],
    ids: np.ndarray,
    x0: float,
    chain: Callable[[float, float, int], list[float]],
    pull_vec: Callable[[np.ndarray, np.ndarray], np.ndarray],
    depth: int,
    want: list[int],
) -> list[np.ndarray]:
    """Backward-orbit rows: the i-th row holds the values at (base k+r,
    depth n) for r = want[i] and n = 0..depth-r, where ``entries[ids[j]]``
    acts at base k+j.  ``want`` is increasing, with entries <= depth + 1.
    ``pull_vec`` takes (values, gammas); ``chain(x, gamma, n)`` returns x
    and its first n pulls.

    Windows of one map run a single chain, periodic ones a chain per
    residue class, everything else the full anti-diagonal triangle
    (vectorized per layer).  Maps are told apart by value, through ``ids``.
    """
    assert len(ids) >= depth + 1
    ids = ids[: depth + 1]
    gam = np.array([p.gamma for p in entries])[ids]
    want = np.asarray(want, dtype=np.int64)
    if np.all(ids == ids[0]):
        row = np.array(chain(x0, float(gam[0]), depth))
        return [row[: depth + 1 - r] for r in want]
    period = next((p for p in range(2, min(16, depth)) if np.array_equal(ids[p:], ids[:-p])), 0)
    # Row i is read to depth - want[i]; what a layer writes past that is cut off.
    table = np.empty((len(want), depth + 1))
    table[:, 0] = x0
    if period:
        g = gam[:period].tolist()
        cur = [x0] * period
        for n in range(1, depth + 1):
            cur = [chain(cur[(c + 1) % period], g[c], 1)[1] for c in range(period)]
            table[:, n] = np.array(cur)[want % period]
    else:
        vals = np.full(depth + 1, x0)
        for n in range(1, depth + 1):
            m = depth + 1 - n
            vals = pull_vec(vals[1 : m + 1], gam[:m])
            reach = np.searchsorted(want, m)  # rows r < m reach depth n
            table[:reach, n] = vals[want[:reach]]
    return [table[i, : depth + 1 - r] for i, r in enumerate(want)]


def _pik_pull(u, g):
    return u - u**g / (2.0 * g)


def _pik_chain(u, g, n):
    out = [u]
    for _ in range(n):
        out.append(_pik_pull(out[-1], g))
    return out


# -- endpoint containers ---------------------------------------------------------


@dataclass(frozen=True)
class PartitionEndpoints:
    """Endpoint arrays of the return-time partition at base index k.

    Field population depends on the family (GrossmannHorner tails come
    from its creep cells and need none):

    * LSV/Cui: ``x[n]``, ``y[n]`` for n = 0..n_max.
    * Pikovsky: ``u[n] = 1 - x_n^+`` for n = 0..n_max+1 at base k,
      ``u_next`` the same chain at base k+1 (to depth n_max), and
      ``delta_bound[n] = |g_minus(1 - u_next[n-1])|``, the outer
      boundary of the union of little cells with return time >= n.
    """

    family: Family
    k: int
    n_max: int
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    u: np.ndarray | None = None
    u_next: np.ndarray | None = None
    delta_bound: np.ndarray | None = None
    gamma_k: float | None = None


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


def _lsv_points(seq: ParamSequence, ks, n_max: int) -> list[PartitionEndpoints]:
    points = {}
    for group in _fill_groups(sorted(set(ks)), n_max):
        # One fill from base k0, deep enough for every k's rows k and k+1.
        k0 = group[0]
        span = group[-1] - k0
        want = sorted({r for k in group for r in (k - k0, k - k0 + 1)})
        entries, ids = _materialize(seq, k0, n_max + span + 2)
        rows = dict(zip(want, _fill_rows(entries, ids, 1.0, _lsv_left_chain,
                                         _lsv_left_inverse_array, n_max + span, want)))
        for k in group:
            r = k - k0
            # y_n(k) = h_k(x_{n-1}(k+1)); y_0 = 1 by convention.
            y = np.concatenate([[1.0], inverse_branch_array(entries[ids[r]], Branch.RIGHT, rows[r + 1][:n_max])])
            points[k] = PartitionEndpoints(seq.family, k, n_max, x=rows[r][: n_max + 1], y=y)
    return [points[k] for k in ks]


def lsv_preimage_points(seq: ParamSequence, k: int, n_max: int) -> PartitionEndpoints:
    """x_n(k) and y_n(k) for LSV/Cui sequences, n = 0..n_max."""
    if seq.family not in (Family.LSV, Family.CUI):
        raise ParamError("lsv_preimage_points needs an LSV or Cui sequence")
    return _lsv_points(seq, [k], n_max)[0]


def pikovsky_endpoints(seq: ParamSequence, k: int, n_max: int) -> PartitionEndpoints:
    if seq.family is not Family.PIKOVSKY:
        raise ParamError("pikovsky_endpoints needs a Pikovsky sequence")
    entries, ids = _materialize(seq, k, n_max + 3)
    # chain at base k+1, depth n_max+1
    u_next = _fill_rows(entries, ids[1:], 1.0, _pik_chain, _pik_pull, n_max + 1, [0])[0]
    g_k = entries[ids[0]].gamma
    step = u_next[: n_max + 1] ** g_k / (2.0 * g_k)
    u = np.concatenate([[1.0], u_next[: n_max + 1] - step])
    delta_bound = np.concatenate([[np.nan], step])
    return PartitionEndpoints(seq.family, k, n_max, u=u, u_next=u_next, delta_bound=delta_bound, gamma_k=g_k)


# -- reference sets ----------------------------------------------------------------


def reference_set(params: MapParams) -> list[tuple[float, float]]:
    """The reference set the return time targets, as a list of intervals."""
    if params.family in (Family.LSV, Family.CUI):
        return [(0.5, 1.0)]
    if params.family is Family.PIKOVSKY:
        a = 1.0 / (2.0 * params.gamma)
        return [(-a, a)]
    return [(-0.25, 0.0)]


# -- exact tails --------------------------------------------------------------------


def _check_tail_args(n_max: int, base: str) -> None:
    check_n_max(n_max)
    if base not in ("m_k", "lebesgue"):
        raise ParamError(f"base must be 'm_k' or 'lebesgue', got {base!r}")


def return_time_tail(seq: ParamSequence, k: int, n_max: int, base: str = "m_k") -> TailTable:
    """Exact tail of the first return/entry time to the reference sets.

    ``base="m_k"`` conditions on the reference set (normalized Lebesgue on
    Y_k), ``base="lebesgue"`` starts from normalized Lebesgue on the whole
    state interval.  Values are exact from endpoint (GH: creep-cell)
    lengths; the unresolved remainder beyond n_max is handled by
    complementing resolved mass, so no truncation bias enters.
    """
    _check_tail_args(n_max, base)
    fam = seq.family
    if fam in (Family.LSV, Family.CUI):
        return _tail_table(lsv_preimage_points(seq, k, n_max), base)
    if fam is Family.PIKOVSKY:
        return _tail_table(pikovsky_endpoints(seq, k, n_max), base)
    entries, ids = _materialize(seq, k, n_max + 1)
    return _tail(_gh_tail(entries[ids[0]], n_max, base), k, base)


def _return_time_tails(seq: ParamSequence, ks, n_max: int, base: str = "m_k") -> list[TailTable]:
    """:func:`return_time_tail` for each base index in ``ks``, in order.  Several
    LSV/Cui indices read backward fills shared by nearby indices
    (:func:`_fill_groups`); each table equals its one-index table bit for bit."""
    _check_tail_args(n_max, base)
    if seq.family not in (Family.LSV, Family.CUI) or len(ks) == 1:
        return [return_time_tail(seq, k, n_max, base) for k in ks]
    return [_tail_table(ep, base) for ep in _lsv_points(seq, ks, n_max)]


def _tail_table(ep: PartitionEndpoints, base: str) -> TailTable:
    n_max = ep.n_max
    t = np.empty(n_max + 1)
    t[0] = 1.0
    if ep.family in (Family.LSV, Family.CUI):
        if base == "m_k":
            t[1:] = 2.0 * (ep.y[1:] - 0.5)
        else:
            t[1:] = ep.x[1:] + ep.y[1:] - 0.5
    else:
        g = ep.gamma_k
        if base == "m_k":
            t[1:] = ep.u_next[: n_max] ** g
        else:
            t[1:] = ep.u[1 : n_max + 1] + ep.u_next[: n_max] ** g / (2.0 * g)
    return _tail(t, ep.k, base)


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


def _sample_base(
    intervals: list[tuple[float, float]], samples: int, gen: np.random.Generator
) -> np.ndarray:
    lens = np.array([hi - lo for lo, hi in intervals])
    total = lens.sum()
    u = gen.uniform(0.0, total, size=samples)
    out = np.empty(samples)
    start = 0.0
    for (lo, hi), ln in zip(intervals, lens):
        m = (u >= start) & (u < start + ln)
        out[m] = lo + (u[m] - start)
        start += ln
    return out


def _in_sets(x: np.ndarray, intervals: list[tuple[float, float]]) -> np.ndarray:
    hit = np.zeros(x.shape, dtype=bool)
    for lo, hi in intervals:
        hit |= (x >= lo) & (x <= hi)
    return hit


def return_time_tail_mc(
    seq: ParamSequence,
    k: int,
    n_max: int,
    samples: int,
    seed: int,
    base: str = "m_k",
) -> TailTable:
    """Monte Carlo tail: sample the base measure, iterate maps forward,
    record the first entry into the moving reference set.

    Returns the empirical tail with binomial standard errors.  Orbits not
    returned by n_max are censored there (the tail values for n <= n_max
    are unaffected).
    """
    if samples < 1000:
        raise ParamError("samples must be >= 1000")
    _check_tail_args(n_max, base)
    entries, ids = _materialize(seq, k, n_max + 1)
    params = [entries[i] for i in ids]
    sets = [reference_set(p) for p in params]
    gen = np.random.default_rng(_rng.child_seed(seed, f"return-mc-{k}-{base}"))
    if base == "m_k":
        x = _sample_base(sets[0], samples, gen)
    else:
        lo, hi = state_interval(params[0])
        x = gen.uniform(lo, hi, size=samples)
    tau = np.full(samples, n_max + 1, dtype=np.int64)
    alive = np.arange(samples)
    for n in range(1, n_max + 1):
        if alive.size == 0:
            break
        x = eval_map_array(params[n - 1], x)
        hit = _in_sets(x, sets[n]) if n < len(sets) else _in_sets(x, sets[-1])
        tau[alive[hit]] = n
        alive = alive[~hit]
        x = x[~hit]
    return empirical_tail(tau, n_max, k)


def mc_zscores(exact: TailTable, mc: TailTable, min_tail: float | None = None) -> np.ndarray:
    """z-scores of an MC tail against an exact one, NaN where the exact
    tail is outside (min_tail, 1 - min_tail) and the comparison is
    Poisson-noisy or trivially clamped."""
    samples = mc.notes.get("samples")
    if samples is None:
        raise ParamError("the MC table has no sample count (notes['samples'])")
    n = min(exact.n_max, mc.n_max)
    p = exact.values[: n + 1]
    q = mc.values[: n + 1]
    if min_tail is None:
        min_tail = 10.0 / samples
    se = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / samples)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (q - p) / se
    z[(p < min_tail) | (p > 1.0 - min_tail)] = np.nan
    return z
