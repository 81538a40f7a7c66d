"""Root finding for increasing convex functions.

One scheme runs in the package: elementwise Newton started above the root,
:func:`vec_newton_from_above`.  For an increasing convex f with f(x0) >= 0
the exact Newton iterates decrease monotonically onto the root, so each
element stops the first time its iterate does not decrease (or its
derivative is not positive).  Floating point can always meet that test:
near the root the iterates either stall or step back up.  A stop on the
largest step over the batch can instead cycle at 1-2 ulp until the cap,
and makes an element's root depend on its batch.  Under the per-element
rule a sub-batch solved alone gives the same floats.  Used for the LSV/Cui
left inverse branch.

:func:`vec_bisect_newton` first halves each bracket a fixed number of
times (``BISECTIONS``, the same for every element), keeping it as its
lower end ``lo`` plus a width ``w`` and moving ``lo`` by ``w`` where f is
still <= 0 at ``lo + w``; then Newton runs from the bracket's upper end
with its lower end as the guard.  Used for the positive half of the
Pikovsky forward map; its negative half has a closed form (see
:mod:`memloss.maps`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

MAX_ITER = 60
BISECTIONS = 2


def vec_bisect_newton(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray | float,
) -> np.ndarray:
    """Root of increasing convex f on [lo, hi] with f(lo) <= 0 <= f(hi),
    elementwise: ``BISECTIONS`` halvings of the bracket, then
    :func:`vec_newton_from_above` from its upper end."""
    lo = np.array(lo, dtype=float, copy=True)
    w = np.asarray(hi, dtype=float) - lo
    for _ in range(BISECTIONS):
        w = 0.5 * w
        lo += (f(lo + w) <= 0.0) * w
    return vec_newton_from_above(lambda x: (f(x), df(x)), lo + w, lo)


def vec_newton_from_above(
    fdf: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    lo: np.ndarray | float,
) -> np.ndarray:
    """Elementwise Newton for increasing convex f started where f(x0) >= 0;
    ``fdf(x)`` returns ``(f(x), f'(x))``, called once per iteration.

    An element moves while its derivative is positive and its iterate,
    kept >= ``lo`` against rounding, decreases; it stops the first time
    either fails (a zero or NaN derivative included).  fdf must act
    elementwise: a stopped element is evaluated again at the same point,
    so it stays stopped.  The loop ends when no element moves, or after
    ``MAX_ITER`` iterations.
    """
    x = np.array(x0, dtype=float, copy=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            fx, d = fdf(x)
            x_new = np.divide(fx, d)
            np.subtract(x, x_new, out=x_new)
            np.maximum(x_new, lo, out=x_new)
            move = x_new < x
            move &= d > 0.0
            if not move.any():
                break
            np.copyto(x, x_new, where=move)
    return x
