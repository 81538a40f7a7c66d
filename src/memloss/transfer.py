"""Density evolution through nonstationary compositions, in total variation.

Densities are piecewise constant on N equal cells (N a power of two).  One
step of evolution replaces a density by the cell averages of its exact
pushforward: for each output cell [a, b] and each inverse branch g, the
transported mass is the exact integral of the density over [g(a), g(b)].
The discrete one-step operator is therefore a composition of two Markov
operators (pushforward, then conditional expectation onto the grid): it
conserves mass to rounding and contracts total variation exactly, for
arbitrarily rough cell data.  The inverse branches are closed-form except
the LSV/Cui left branch, which is root-found at cell edges only.

A step has two parts: the map's interpolation plan, which depends only on
the map and the grid, and its application to a density.  Per branch, the
plan holds each clipped edge image u's cell j (edges[j] <= u < edges[j+1]),
found arithmetically because every allowed grid's edges are exactly lo + i w
with w a power of two, the fraction t = (u - edges[j]) / w, and which cells'
preimages cross a cell edge or span whole cells.  A step forms no prefix
integral (see :func:`_apply_images`).  Plans are built and applied in blocks
of 2**14 edges.  A run of steps (:func:`evolve`, :func:`memory_loss_curve`,
:func:`mixing_mass`) computes each distinct map's plan at its first step and
drops it after its last, holding about 3.25 arrays of N+1 per distinct map
still ahead (j is a 4-byte index), and makes its step arrays once: the
block rows and two outputs, each step writing the one not holding its
input, so a step allocates nothing of size N.  Nothing is cached between
calls.  A run checks only what it hands back, not each step: the operator
is positive, and a non-finite value spreads (NaN times 0 is NaN).

:func:`memory_loss_curve` pushes the signed difference h = f - g (the
operator is linear): the TV at step n is half the L1 norm of h_n, free of
the cancellation of subtracting two evolved O(1) densities.

Total variation here is half the L1 distance of densities, so it lies in
[0, 1] for probability densities.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParamError, ShapeMismatch, check_n_max
from .maps import Branch, MapParams, inverse_branch_array, state_interval
from .partitions import reference_set
from .sequences import ParamSequence, _entry_indices
from .tables import TailTable

_MIN_CELLS = 2**10
_MAX_CELLS = 2**20


def _check_cells(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < _MIN_CELLS or n > _MAX_CELLS or (n & (n - 1)) != 0:
        raise ParamError(f"cell count must be a power of two in [2**10, 2**20], got {n}")


@dataclass(frozen=True)
class GridDensity:
    """Finite, nonnegative cell averages on N equal cells over ``interval``."""

    values: np.ndarray
    interval: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        _check_cells(len(v))
        if not -np.inf < self.interval[0] < self.interval[1] < np.inf:  # false for a NaN end too
            raise ParamError(f"interval must be finite and nonempty, got {self.interval}")
        bottom, top = v.min(), v.max()  # NaN if any value is, which fails every comparison
        if not -np.inf < bottom <= top < np.inf:
            raise ParamError("density values must be finite")
        if not isinstance(self, _SignedGrid) and bottom < -1e-12:
            raise ParamError("density values must be nonnegative")

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
    unit coordinate t, with p = ``profile`` >= 1 (distinct profiles give
    distinct densities);
    kind = "cone": exact cell averages of c * x**(-beta) on (0, 1], the
    extremal member of the decreasing-density cone with that exponent.
    """
    _check_cells(n_cells)
    lo, hi = interval
    if kind == "uniform":
        vals = np.full(n_cells, 1.0 / (hi - lo))
        return GridDensity(vals, interval)
    if kind == "holder":
        if profile < 1:  # 0 is uniform, and -p repeats p
            raise ParamError(f"holder profile must be >= 1, got {profile}")
        t = (np.arange(n_cells) + 0.5) / n_cells
        base = 0.5 * (1.0 + np.cos(2.0 * np.pi * profile * t))
        vals = 1.0 + 0.5 * base
    elif kind == "cone":
        if interval != (0.0, 1.0):
            raise ParamError("cone densities live on (0, 1]")
        if not (0.0 < beta < 1.0):
            raise ParamError("cone exponent beta must lie in (0, 1)")
        e = np.linspace(0.0, 1.0, n_cells + 1)
        q = 1.0 - beta
        cell_ints = np.diff(e**q) / q
        vals = cell_ints / (1.0 / n_cells)
    else:
        raise ParamError(f"unknown density kind {kind!r}")
    mass = float(np.sum(vals)) * ((hi - lo) / n_cells)  # GridDensity(vals, interval).mass
    return GridDensity(vals / mass, interval)


# -- transfer steps --------------------------------------------------------------


# The stepping run in progress (see _steps): its maps' interpolation plans, keyed
# by map, and its step arrays on its one grid, made at first use: the block rows,
# then two outputs used in turn.  None outside a step, so a direct push_density
# call makes its own.  Passing them this way keeps push_density (params, f) the
# one step function, so whatever wraps or observes it still sees every step of
# a run.
_run: ContextVar[tuple[dict[MapParams, tuple], list[np.ndarray]] | None] = ContextVar("_run", default=None)

_BLOCK = 2**14  # edges per block of _edge_plan and _apply_images, so their temporaries stay small


def _edge_images(params: MapParams, f: GridDensity) -> tuple[tuple[float, np.ndarray], ...]:
    """Inverse-branch images of f's cell edges under one map, clipped to the
    state interval: per (monotone) branch, its orientation sign and N+1 floats."""
    lo, hi = state_interval(params)
    if f.interval != (lo, hi):
        raise ShapeMismatch(f"density lives on {f.interval}, map on {(lo, hi)}")
    edges = f.edges()
    images = [np.empty_like(edges) for _ in Branch]  # filled a block at a time: see rootfind
    for (b, u), s in itertools.product(zip(Branch, images), range(0, len(edges), _BLOCK)):
        np.clip(inverse_branch_array(params, b, edges[s : s + _BLOCK]), lo, hi, out=u[s : s + _BLOCK])
    return tuple((1.0 if u[-1] >= u[0] else -1.0, u) for u in images)


def _edge_plan(params: MapParams, f: GridDensity) -> tuple[tuple, ...]:
    """Per branch: its sign, the cell j of each edge image u (N for u = hi),
    the fraction t = (u - edges[j]) / w, whether each cell's preimage crosses
    one cell edge, and the cells whose preimage spans whole cells, with their
    np.add.reduceat spans.  The edges are exactly lo + i w, so the rounded
    (u - lo) / w is u's cell or the next one."""
    lo, w, n = f.interval[0], f.cell_width, f.n_cells
    plan = []
    for sign, u in _edge_images(params, f):
        j, cross, wide = np.empty(len(u), np.int32), np.empty(len(u) - 1, np.bool_), []  # j <= N <= 2**20
        for s in range(0, len(u), _BLOCK):  # u turns into t in place
            us, js = u[s : s + _BLOCK], j[s : s + _BLOCK]
            js[:] = np.clip(np.floor((us - lo) / w), 0, n)
            js -= js * w + lo > us  # the edges, exactly
            us -= js * w + lo
            us /= w
        for s in range(0, len(cross), _BLOCK):  # the cells j_lo .. j_up - 1 lie under a preimage
            rise = np.abs(np.subtract(j[1:][s : s + _BLOCK], j[:-1][s : s + _BLOCK]))  # j_up - j_lo
            np.equal(rise, 1, out=cross[s : s + _BLOCK])
            wide.append(np.flatnonzero(rise > 1) + s)
        cells = np.concatenate(wide)[:: int(sign)]  # ascending in j_lo: a span ending at N is the last
        spans = np.sort(np.column_stack((j[cells], j[cells + 1]))).ravel()
        plan.append((sign, j, u, cross, cells, spans[:-1] if len(spans) and spans[-1] == n else spans))
    return tuple(plan)


def _apply_images(plan: tuple[tuple, ...], f: GridDensity) -> GridDensity:
    """One transfer step of f, given its map's plan.  With a = f[j] and p = t a
    at each edge image, a branch sends cell i, divided by w, p_up - p_lo +
    f[j_lo] + ... + f[j_up - 1], lo and up the images of the lower and upper
    ends of its preimage: the prefix integral's increment, with the common
    prefix cancelled.  The sum is a_lo for a preimage that crosses one edge."""
    n, v = f.n_cells, f.values
    _, arrays = _run.get() or ({}, [])
    if not arrays:  # the block rows are shared by the blocks, which then allocate nothing
        arrays += [*np.empty((2, min(n, _BLOCK) + 1)), np.empty(min(n, _BLOCK))]
    a, p, d, *outs = arrays
    out = next((o for o in outs if o is not v), None)
    if out is None:  # a run's second output is made at its second step, once the start is freed
        arrays.append(out := np.empty(n))
    for b, (sign, j, t, cross, cells, spans) in enumerate(plan):
        lo, up, a_lo = (p[:-1], p[1:], a[:-1]) if sign > 0 else (p[1:], p[:-1], a[1:])
        for s in range(0, n, _BLOCK):  # an image at hi has j = N and t = 0: clipped, it adds nothing
            np.take(v, j[s : s + _BLOCK + 1], out=a, mode="clip")  # "raise" buffers
            np.multiply(a, t[s : s + _BLOCK + 1], out=p)
            o = d if b else out[s : s + _BLOCK]  # the first branch writes the output
            np.copyto(o, cross[s : s + _BLOCK])  # a cast, then a product: a mixed-type product buffers
            o *= a_lo
            o -= lo
            o += up
            if b:
                out[s : s + _BLOCK] += d
        out[cells] += np.add.reduceat(v, spans)[::2]
    g = object.__new__(type(f))  # not checked again: see the module docstring
    g.__dict__.update(values=out, interval=f.interval)
    return g


def push_density(params: MapParams, f: GridDensity) -> GridDensity:
    """Cell averages of the pushforward density (transfer operator step).

    Exact branchwise preimage integration: output cell mass is the input
    integral between inverse-branch images of the cell edges.  A direct
    call computes the map's plan and applies it once; within a step of
    :func:`evolve`, :func:`memory_loss_curve` or :func:`mixing_mass` the
    plan and the step's arrays come from that call's run."""
    run = _run.get()
    if run is None:
        g = _apply_images(_edge_plan(params, f), f)
        return type(g)(g.values, g.interval)  # checked: see the module docstring
    plans, _ = run
    if params not in plans:
        plans[params] = _edge_plan(params, f)
    return _apply_images(plans[params], f)


def _steps(maps: list[MapParams], f: GridDensity) -> Iterator[GridDensity]:
    """Push f through the maps in order, yielding it after each step.  A
    map's plan is computed at its first step and dropped after its last.
    The run writes its densities into two arrays in turn, so a yielded
    density's values are overwritten two steps later: every caller reads
    them before it advances."""
    last = {p: j for j, p in enumerate(maps)}
    plans, arrays = {}, []
    for j, p in enumerate(maps):
        token = _run.set((plans, arrays))
        try:
            f = push_density(p, f)
        finally:
            _run.reset(token)
        if last[p] == j:
            del plans[p]
        yield f


def _maps(seq: ParamSequence, start: int, n: int) -> list[MapParams]:
    return [seq.entries[i] for i in _entry_indices(seq, start, n).tolist()]


def evolve(seq: ParamSequence, f: GridDensity, n: int, start: int = 1) -> GridDensity:
    """n-fold composition of transfer steps with the maps at times
    start, start+1, ..., start+n-1; n = 0 returns the input."""
    if n < 0:
        raise ParamError("n must be >= 0")
    for f in _steps(_maps(seq, start, n), f):
        pass
    return type(f)(f.values, f.interval)


def _half_l1(h: GridDensity, out: np.ndarray | None = None) -> float:
    return 0.5 * float(np.sum(np.abs(h.values, out=out))) * h.cell_width


def tv_distance(f: GridDensity, g: GridDensity) -> float:
    """Half the L1 distance; exact for piecewise-constant densities."""
    _require_same_grid(f, g)
    return _half_l1(_SignedGrid(f.values - g.values, f.interval))


def memory_loss_curve(
    seq: ParamSequence, f: GridDensity, g: GridDensity, n_max: int, start: int = 1
) -> TailTable:
    """tv_distance between the evolved densities, n = 0..n_max (pushes f - g)."""
    check_n_max(n_max)
    _require_same_grid(f, g)
    h = _SignedGrid(f.values - g.values, f.interval)
    evolved = itertools.chain([h], _steps(_maps(seq, start, n_max), h))
    absh = np.empty(h.n_cells)  # |h| of every step, for its norm
    vals = np.array([_half_l1(h, absh) for h in evolved])
    if not np.all(np.isfinite(vals)):
        raise ParamError("density values must be finite")
    return TailTable(values=vals, k=start, label="memloss")


# -- reference-set mass under evolution -------------------------------------------


def _snap(interval: tuple[float, float], lo: float, w: float) -> tuple[slice, float]:
    """The cells an interval inside the grid (left end lo, cell width w) covers, and its larger end snap."""
    a, b = interval
    ia, ib = int(round((a - lo) / w)), int(round((b - lo) / w))
    return slice(ia, ib), max(abs(lo + ia * w - a), abs(lo + ib * w - b))


def mixing_mass(seq: ParamSequence, k: int, n_max: int, n_cells: int = 2**12) -> TailTable:
    """Mass the evolved reference measure puts back on the moving
    reference set: start from the normalized indicator density of Y_k and
    tabulate its integral over Y_{k+n} for n = 0..n_max, clipped to [0, 1 + 1e-9].

    Each Y snaps to its nearest cell edges; notes hold the worst snap and the unclipped maximum."""
    check_n_max(n_max)
    maps = _maps(seq, k, n_max + 1)
    _check_cells(n_cells)
    lo, hi = state_interval(maps[0])
    w = (hi - lo) / n_cells
    vals = np.zeros(n_cells)
    cells, worst_snap = _snap(reference_set(maps[0]), lo, w)
    vals[cells] = 1.0
    f = GridDensity(vals / (float(np.sum(vals)) * w), (lo, hi))
    evolved = itertools.chain([f], _steps(maps[:n_max], f))
    out = np.empty(n_max + 1)
    for n, (pn, f) in enumerate(zip(maps, evolved)):
        cells, snap = _snap(reference_set(pn), lo, w)
        worst_snap = max(worst_snap, snap)
        out[n] = float(np.sum(f.values[cells])) * w
    GridDensity(f.values, f.interval)  # the last density, checked
    out = np.clip(out, 0.0, None)
    return TailTable(
        values=np.minimum(out, 1.0 + 1e-9),
        k=k,
        label="mixing",
        notes={"worst_snap": worst_snap, "raw_max": float(np.max(out))},
    )
