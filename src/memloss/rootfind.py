"""Root finding for strictly monotone functions.

Two schemes run in the package:

* :func:`bisect_newton` and its elementwise form :func:`vec_bisect_newton`
  -- bisection down to a fixed bracket width (1e-14) followed by at most
  five Newton refinements clamped to the final bracket.  Used for the
  forward evaluation of the Pikovsky map, which is defined implicitly.
* :func:`vec_newton_from_above` -- elementwise Newton for an increasing
  convex function started above its root, capped at 60 iterations.  Used
  for the LSV/Cui left inverse branch on arrays; the scalar left inverse in
  :mod:`memloss.maps` runs the same iteration inline.

The vector variants run one iteration on the whole array.
:func:`vec_bisect_newton` keeps each bracket as its lower end ``lo`` plus
a width ``w`` that halves every step, and moves ``lo`` by ``w`` where f is
still <= 0 at ``lo + w``: no ``hi`` array and no ``np.where``.  On dyadic
brackets such as [0, 1] and [-1, 0], ``lo + w`` is exact and equals the
textbook midpoint ``0.5 * (lo + hi)``, so the brackets are the same to the
bit.  The Pikovsky forward map solves each half of [-1, 1] on its own,
with that half's branch formula: the half is the first bisection step on
[-1, 1], and the Newton phase stops when no element changes, a rule that
holds for each element separately, so the split solve gives the same
roots as one solve on [-1, 1].
"""

from __future__ import annotations

from typing import Callable

import numpy as np

BISECT_WIDTH = 1e-14
MAX_NEWTON = 5


def bisect_newton(f, df, lo, hi, *, width=BISECT_WIDTH, max_newton=MAX_NEWTON):
    """Root of increasing f on [lo, hi] with f(lo) <= 0 <= f(hi).

    Bisects until hi - lo <= width, then applies at most ``max_newton``
    Newton refinements clamped to the final bracket.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(max_newton):
        d = df(x)
        if d == 0.0:
            break
        step = f(x) / d
        x_new = x - step
        if not (lo <= x_new <= hi):
            break
        if x_new == x:
            break
        x = x_new
    return x


def vec_bisect_newton(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    width: float = BISECT_WIDTH,
    max_newton: int = MAX_NEWTON,
) -> np.ndarray:
    """Elementwise version of :func:`bisect_newton`.

    f must be increasing in each component with f(lo) <= 0 <= f(hi).  The
    bracket is ``lo`` plus a halving width (see the module docstring).
    """
    lo = np.array(lo, dtype=float, copy=True)
    w = np.asarray(hi, dtype=float) - lo
    span = float(np.max(w, initial=0.0))
    n_bisect = max(0, int(np.ceil(np.log2(max(span, width) / width))))
    for _ in range(n_bisect):
        w = 0.5 * w
        lo += (f(lo + w) <= 0.0) * w
    hi = lo + w
    x = lo + 0.5 * w
    for _ in range(max_newton):
        d = df(x)
        step = np.where(d != 0.0, f(x) / np.where(d != 0.0, d, 1.0), 0.0)
        x_new = np.clip(x - step, lo, hi)
        if np.array_equal(x_new, x):
            break
        x = x_new
    return x


def vec_newton_from_above(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lo: np.ndarray | float,
    *,
    tol: float = 1e-16,
    max_iter: int = 60,
) -> np.ndarray:
    """Elementwise Newton for increasing convex f started where f(x0) >= 0.

    Convexity makes the iteration decrease monotonically onto the root, so
    no bracket maintenance is needed; ``lo`` only guards against rounding.
    """
    x = np.array(x0, dtype=float, copy=True)
    for _ in range(max_iter):
        d = df(x)
        step = f(x) / d
        x_new = np.maximum(x - step, lo)
        if float(np.max(np.abs(x_new - x), initial=0.0)) <= tol:
            x = x_new
            break
        x = x_new
    return x
