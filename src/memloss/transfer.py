"""Density evolution through nonstationary compositions, in total variation.

Densities are piecewise constant on N equal cells (N a power of two).  One
step of evolution replaces a density by the cell averages of its exact
pushforward: for each output cell [a, b] and each inverse branch g, the
transported mass is the exact integral of the density over [g(a), g(b)],
evaluated through the prefix integral (piecewise linear, so interpolating
it linearly is exact).  The discrete one-step operator is therefore a
composition of two Markov operators (pushforward, then conditional
expectation onto the grid): it conserves mass to rounding and contracts
total variation exactly, for arbitrarily rough cell data.  The inverse
branches are closed-form except the LSV/Cui left branch, which is
root-found at cell edges only.

A step has two parts: the map's interpolation plan, which depends only on
the map and the grid, and its application to a density.  Per branch, the
plan holds each clipped edge image u's cell j (edges[j] <= u < edges[j+1]),
found arithmetically because every allowed grid's edges are exactly lo + i w
with w a power of two, and the fraction (u - edges[j]) / w.  Applied in
blocks of 2**14 edges, it reproduces ``np.interp``'s arithmetic on the
prefix integral float for float.  :func:`evolve`, :func:`memory_loss_curve`
and :func:`mixing_mass` compute each distinct map's plan at its first step
and drop it after its last, holding four arrays of N+1 per distinct map
still ahead.  Nothing is cached between calls.

:func:`memory_loss_curve` pushes the signed difference h = f - g (the
operator is linear), keeping each branch's orientation sign where a density
step takes absolute values: the TV at step n is half the L1 norm of h_n,
free of the cancellation of subtracting two evolved O(1) densities.

Total variation here is half the L1 distance of densities, so it lies in
[0, 1] for probability densities.
"""

from __future__ import annotations

import itertools
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParamError, ShapeMismatch, check_n_max
from .maps import Branch, MapParams, inverse_branch_array, state_interval
from .partitions import reference_set
from .sequences import ParamSequence, param_at
from .tables import TailTable

_MIN_CELLS = 2**10
_MAX_CELLS = 2**20


def _check_cells(n: int) -> None:
    if n < _MIN_CELLS or n > _MAX_CELLS or (n & (n - 1)) != 0:
        raise ParamError(f"cell count must be a power of two in [2**10, 2**20], got {n}")


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative cell averages on N equal cells over ``interval``."""

    values: np.ndarray
    interval: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        _check_cells(len(v))
        if not isinstance(self, _SignedGrid) and np.any(v < -1e-12):
            raise ParamError("density values must be nonnegative")
        if self.interval[1] <= self.interval[0]:
            raise ParamError("empty interval")

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @property
    def cell_width(self) -> float:
        lo, hi = self.interval
        return (hi - lo) / self.n_cells

    @property
    def mass(self) -> float:
        return float(np.sum(self.values)) * self.cell_width

    def edges(self) -> np.ndarray:
        lo, hi = self.interval
        return np.linspace(lo, hi, self.n_cells + 1)

    def midpoints(self) -> np.ndarray:
        e = self.edges()
        return 0.5 * (e[:-1] + e[1:])


class _SignedGrid(GridDensity):
    """Signed cell values on a GridDensity grid (a difference of densities)."""


def _require_same_grid(f: GridDensity, g: GridDensity) -> None:
    if f.n_cells != g.n_cells or f.interval != g.interval:
        raise ShapeMismatch(
            f"grids differ: {f.n_cells} on {f.interval} vs {g.n_cells} on {g.interval}"
        )


# -- density construction ------------------------------------------------------


def make_density(
    kind: str,
    n_cells: int,
    interval: tuple[float, float] = (0.0, 1.0),
    *,
    profile: int = 1,
    beta: float = 0.5,
) -> GridDensity:
    """Normalized seed densities.

    kind = "uniform";
    kind = "holder": the fixed closed form 1 + (1 + cos(2 pi p t)) / 4 on the
    unit coordinate t, with p = ``profile`` (distinct profiles give distinct
    densities);
    kind = "cone": exact cell averages of c * x**(-beta) on (0, 1], the
    extremal member of the decreasing-density cone with that exponent.
    """
    _check_cells(n_cells)
    lo, hi = interval
    if kind == "uniform":
        vals = np.full(n_cells, 1.0 / (hi - lo))
        return GridDensity(vals, interval)
    if kind == "holder":
        t = (np.arange(n_cells) + 0.5) / n_cells
        base = 0.5 * (1.0 + np.cos(2.0 * np.pi * profile * t))
        vals = 1.0 + 0.5 * base
        d = GridDensity(vals, interval)
        return GridDensity(vals / d.mass, interval)
    if kind == "cone":
        if interval != (0.0, 1.0):
            raise ParamError("cone densities live on (0, 1]")
        if not (0.0 < beta < 1.0):
            raise ParamError("cone exponent beta must lie in (0, 1)")
        e = np.linspace(0.0, 1.0, n_cells + 1)
        q = 1.0 - beta
        cell_ints = np.diff(e**q) / q
        vals = cell_ints / (1.0 / n_cells)
        d = GridDensity(vals, interval)
        return GridDensity(vals / d.mass, interval)
    raise ParamError(f"unknown density kind {kind!r}")


@dataclass(frozen=True)
class ConeReport:
    """Outcome of the four decreasing-cone conditions on grid data.

    Monotonicity violations up to one grid cell's share of the quantity's
    range are attributed to discretization.
    """

    nonnegative: bool
    nonincreasing: bool
    weighted_nondecreasing: bool
    pointwise_bound: bool
    worst_negative: float
    worst_increase: float
    worst_weighted_decrease: float
    worst_bound_excess: float

    @property
    def passed(self) -> bool:
        return (
            self.nonnegative
            and self.nonincreasing
            and self.weighted_nondecreasing
            and self.pointwise_bound
        )


def cone_membership(f: GridDensity, beta: float, a_beta: float) -> ConeReport:
    """Check membership in the cone of decreasing densities with pointwise
    bound f(x) <= a_beta * x**(-beta) * mass, on cell midpoints."""
    if a_beta <= 2.0**beta * (beta + 2.0):
        warnings.warn(
            f"a_beta = {a_beta} is not above 2**beta * (beta + 2); "
            "the cone may not contain the family's invariant densities",
            stacklevel=2,
        )
    v = f.values
    x = f.midpoints()
    worst_negative = float(max(0.0, -np.min(v)))
    slack = (np.max(v) - np.min(v)) / f.n_cells + 1e-12
    incr = np.diff(v)
    worst_increase = float(max(0.0, np.max(incr, initial=0.0)))
    weighted = x ** (beta + 1.0) * v
    wslack = (np.max(weighted) - np.min(weighted)) / f.n_cells + 1e-12
    decr = -np.diff(weighted)
    worst_weighted_decrease = float(max(0.0, np.max(decr, initial=0.0)))
    left = f.edges()[:-1]
    with np.errstate(divide="ignore"):
        bound = a_beta * np.where(left > 0.0, left ** (-beta), np.inf) * f.mass
    excess = v - bound
    worst_bound_excess = float(max(0.0, np.max(excess, initial=0.0)))
    return ConeReport(
        nonnegative=worst_negative <= 1e-12,
        nonincreasing=worst_increase <= slack,
        weighted_nondecreasing=worst_weighted_decrease <= wslack,
        pointwise_bound=worst_bound_excess <= 1e-9,
        worst_negative=worst_negative,
        worst_increase=worst_increase,
        worst_weighted_decrease=worst_weighted_decrease,
        worst_bound_excess=worst_bound_excess,
    )


# -- transfer steps --------------------------------------------------------------


# Interpolation plans of the maps of the stepping run in progress (see _steps),
# keyed by map; None outside a step, so a direct push_density call computes
# its own.  Passing them this way keeps push_density (params, f) the one step
# function, so whatever wraps or observes it still sees every step of a run.
_run_plans: ContextVar[dict[MapParams, tuple] | None] = ContextVar("_run_plans", default=None)

_BLOCK = 2**14  # edges per block of _apply_images, so its temporaries stay small


def _edge_images(params: MapParams, f: GridDensity) -> tuple[tuple[float, np.ndarray], ...]:
    """Inverse-branch images of f's cell edges under one map, clipped to the
    state interval: per (monotone) branch, its orientation sign and N+1 floats."""
    lo, hi = state_interval(params)
    if f.interval != (lo, hi):
        raise ShapeMismatch(f"density lives on {f.interval}, map on {(lo, hi)}")
    edges = f.edges()
    images = (np.clip(inverse_branch_array(params, b, edges), lo, hi) for b in Branch)
    return tuple((1.0 if u[-1] >= u[0] else -1.0, u) for u in images)


def _edge_plan(params: MapParams, f: GridDensity) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
    """Per branch: its sign, the cell j of each edge image u (N for u = hi)
    and the fraction (u - edges[j]) / w, over u.  The edges are exactly
    lo + i w, so the rounded (u - lo) / w is u's cell or the next one."""
    images = _edge_images(params, f)  # first, so its root-find runs without a second edges array
    lo, w, edges = f.interval[0], f.cell_width, f.edges()
    plan = []
    for sign, u in images:
        j = np.clip(np.floor((u - lo) / w), 0, f.n_cells).astype(np.intp)
        j -= edges[j] > u
        u -= edges[j]
        u /= w
        plan.append((sign, j, u))
    return tuple(plan)


def _apply_images(plan: tuple[tuple[float, np.ndarray, np.ndarray], ...], f: GridDensity) -> GridDensity:
    """One transfer step of f, given its map's plan: output cell mass is the
    prefix integral P's increment between the images of the cell edges.
    (P[j+1] - P[j]) * t + P[j] is np.interp's slope * (u - edges[j]) + P[j]:
    t is exact, so the product has the same real value and rounding."""
    n, w = f.n_cells, f.cell_width
    pre = np.empty(n + 2)
    pre[0] = 0.0
    np.multiply(np.cumsum(f.values), w, out=pre[1:-1])
    pre[-1] = pre[-2]  # an image at hi has j = N and t = 0
    rise = pre[1:] - pre[:-1]  # once per cell, not per edge image
    out = np.zeros(n)
    signed = isinstance(f, _SignedGrid)
    for sign, j, t in plan:
        for s in range(0, n, _BLOCK):
            js = j[s : s + _BLOCK + 1]
            p = rise[js]
            p *= t[s : s + _BLOCK + 1]
            p += pre[js]
            d = p[1:] - p[:-1]
            if signed and sign < 0:
                np.negative(d, out=d)
            out[s : s + _BLOCK] += d if signed else np.abs(d, out=d)
    out /= w
    return type(f)(out, f.interval)


def push_density(params: MapParams, f: GridDensity) -> GridDensity:
    """Cell averages of the pushforward density (transfer operator step).

    Exact branchwise preimage integration: output cell mass is the input
    integral between inverse-branch images of the cell edges.  A direct
    call computes the map's plan and applies it once; within a step of
    :func:`evolve`, :func:`memory_loss_curve` or :func:`mixing_mass` the
    plan comes from that call's store."""
    store = _run_plans.get()
    if store is None:
        return _apply_images(_edge_plan(params, f), f)
    if params not in store:
        store[params] = _edge_plan(params, f)
    return _apply_images(store[params], f)


def _steps(
    maps: list[MapParams], densities: tuple[GridDensity, ...]
) -> Iterator[tuple[GridDensity, ...]]:
    """Push all densities (one grid) through the maps in order, yielding
    them after each step.  A map's plan is computed at its first step and
    dropped after its last."""
    last = {p: j for j, p in enumerate(maps)}
    store: dict[MapParams, tuple] = {}
    for j, p in enumerate(maps):
        token = _run_plans.set(store)
        try:
            densities = tuple(push_density(p, d) for d in densities)
        finally:
            _run_plans.reset(token)
        if last[p] == j:
            del store[p]
        yield densities


def _maps(seq: ParamSequence, start: int, n: int) -> list[MapParams]:
    return [param_at(seq, start + j) for j in range(n)]


def evolve(seq: ParamSequence, f: GridDensity, n: int, start: int = 1) -> GridDensity:
    """n-fold composition of transfer steps with the maps at times
    start, start+1, ..., start+n-1; n = 0 returns the input."""
    if n < 0:
        raise ParamError("n must be >= 0")
    for (f,) in _steps(_maps(seq, start, n), (f,)):
        pass
    return f


def _half_l1(h: GridDensity) -> float:
    return 0.5 * float(np.sum(np.abs(h.values))) * h.cell_width


def tv_distance(f: GridDensity, g: GridDensity) -> float:
    """Half the L1 distance; exact for piecewise-constant densities."""
    _require_same_grid(f, g)
    return _half_l1(_SignedGrid(f.values - g.values, f.interval))


def memory_loss_curve(
    seq: ParamSequence, f: GridDensity, g: GridDensity, n_max: int, start: int = 1
) -> TailTable:
    """tv_distance between the evolved densities, n = 0..n_max (pushes f - g)."""
    _require_same_grid(f, g)
    h = _SignedGrid(f.values - g.values, f.interval)
    evolved = itertools.chain([(h,)], _steps(_maps(seq, start, n_max), (h,)))
    vals = np.array([_half_l1(h) for (h,) in evolved])
    return TailTable(values=vals, k=start, label="memloss")


# -- reference-set mass under evolution -------------------------------------------


def _snap_intervals(
    intervals: list[tuple[float, float]], density: GridDensity
) -> tuple[list[tuple[int, int]], float]:
    lo, _ = density.interval
    w = density.cell_width
    snapped = []
    worst = 0.0
    for a, b in intervals:
        ia = int(round((a - lo) / w))
        ib = int(round((b - lo) / w))
        worst = max(worst, abs(lo + ia * w - a), abs(lo + ib * w - b))
        ia = min(max(ia, 0), density.n_cells)
        ib = min(max(ib, ia), density.n_cells)
        snapped.append((ia, ib))
    return snapped, worst


def mixing_mass(seq: ParamSequence, k: int, n_max: int, n_cells: int = 2**12) -> TailTable:
    """Mass the evolved reference measure puts back on the moving
    reference set: start from the normalized indicator density of Y_k and
    tabulate its integral over Y_{k+n} for n = 0..n_max.

    Reference-set boundaries snap to the nearest cell edge; the worst snap
    distance is reported in the table notes."""
    check_n_max(n_max)
    maps = _maps(seq, k, n_max + 1)
    lo, hi = state_interval(maps[0])
    proto = make_density("uniform", n_cells, (lo, hi))
    cells0, snap0 = _snap_intervals(reference_set(maps[0]), proto)
    vals = np.zeros(n_cells)
    for ia, ib in cells0:
        vals[ia:ib] = 1.0
    total = float(np.sum(vals)) * proto.cell_width
    f = GridDensity(vals / total, (lo, hi))
    evolved = itertools.chain([(f,)], _steps(maps[:n_max], (f,)))
    out = np.empty(n_max + 1)
    worst_snap = snap0
    for n, (pn, (f,)) in enumerate(zip(maps, evolved)):
        cells, snap = _snap_intervals(reference_set(pn), f)
        worst_snap = max(worst_snap, snap)
        out[n] = sum(float(np.sum(f.values[ia:ib])) * f.cell_width for ia, ib in cells)
    out = np.clip(out, 0.0, None)
    return TailTable(
        values=np.minimum(out, 1.0 + 1e-9),
        k=k,
        label="mixing",
        notes={"worst_snap": worst_snap, "raw_max": float(np.max(out))},
    )
