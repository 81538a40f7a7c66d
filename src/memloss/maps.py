"""The four intermittent map families: evaluation, derivatives, inverse branches.

Families and state intervals
----------------------------
``LSV`` on [0, 1]::

    T(x) = x (1 + 2**g * x**g)   on [0, 1/2)        (neutral fixed point at 0)
    T(x) = 2 (x - 1/2)           on [1/2, 1]

``Cui`` on [0, 1]: left branch as LSV, right branch ``2**b (x - 1/2)**b``
with b >= 1, which contracts near the critical point 1/2 when b > 1.

``Pikovsky`` on [-1, 1]: odd, both branches increasing, defined implicitly
through the explicit inverse of the right branch::

    g_plus(t) = (1 + t)**g / (2 g)        t in [-1, 0]
    g_plus(t) = t + (1 - t)**g / (2 g)    t in [0, 1]

``T(x)`` for x > 0 solves ``g_plus(T) = x``; ``T(-x) = -T(x)``.  Neutral
fixed points at +-1, infinite derivative at 0.

``GrossmannHorner``: the concrete representative ``T(x) = 1 - 2 sqrt(|x|)``
on [-1, 1], mirror-symmetric branches (T(-x) = T(x)), neutral fixed point
at -1, infinite derivative at 0.  Left branch increasing, right branch
decreasing.

All operations are pure functions of immutable parameter records and are
safe to call concurrently.  The ``*_array`` kernels operate elementwise on
numpy arrays and assume their inputs are valid.  Each scalar entry point
(:func:`derivative`, :func:`inverse_branch`) is a domain check plus its array
kernel on a one-element array, so it returns the float the kernel returns for
that element in any batch.  Evaluation has only its kernel, :func:`eval_map_array`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParamError, SingularPoint
from .rootfind import MAX_ITER, vec_bisect_newton, vec_newton_from_above


class Family(enum.Enum):
    LSV = "lsv"
    CUI = "cui"
    PIKOVSKY = "pikovsky"
    GROSSMANN_HORNER = "gh"


class Branch(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class MapParams:
    """Parameters selecting one map from one family.

    ``beta`` is meaningful for Cui only.
    Use the factory functions to get validated records.
    """

    family: Family
    gamma: float
    beta: float | None = None

    @property
    def has_acip(self) -> bool | None:
        """Cui maps preserve an absolutely continuous probability measure
        iff gamma * beta < 1; None for other families."""
        if self.family is not Family.CUI:
            return None
        return self.gamma * self.beta < 1.0


def lsv(gamma: float) -> MapParams:
    p = MapParams(Family.LSV, float(gamma))
    validate_params(p)
    return p


def cui(gamma: float, beta: float) -> MapParams:
    p = MapParams(Family.CUI, float(gamma), beta=float(beta))
    validate_params(p)
    return p


def pikovsky(gamma: float) -> MapParams:
    p = MapParams(Family.PIKOVSKY, float(gamma))
    validate_params(p)
    return p


def grossmann_horner() -> MapParams:
    """The fixed concrete instance: gamma = 2, eta = 1/2, T(x) = 1 - 2 sqrt(|x|)."""
    p = MapParams(Family.GROSSMANN_HORNER, 2.0)
    validate_params(p)
    return p


def validate_params(params: MapParams) -> None:
    """Check parameter ranges; raise ParamError naming the violated constraint."""
    fam = params.family
    g = params.gamma
    if fam in (Family.LSV, Family.CUI):
        if not (0.0 < g < 1.0):
            raise ParamError(f"gamma must lie in (0,1), got {g}")
        if fam is Family.CUI:
            if params.beta is None or not (params.beta >= 1.0):
                raise ParamError(f"beta must be >= 1, got {params.beta}")
    elif fam is Family.PIKOVSKY:
        if not (1.0 < g < 3.0):
            raise ParamError(f"gamma must lie in (1,3), got {g}")
    elif fam is Family.GROSSMANN_HORNER:
        if g != 2.0:
            raise ParamError(f"gamma must equal 2 for the concrete instance, got {g}")
    else:
        raise ParamError(f"unknown family {fam!r}")


def state_interval(params: MapParams) -> tuple[float, float]:
    if params.family in (Family.LSV, Family.CUI):
        return (0.0, 1.0)
    return (-1.0, 1.0)


def _check_domain(params: MapParams, name: str, v: float) -> None:
    lo, hi = state_interval(params)
    if not (lo <= v <= hi):
        raise DomainError(f"{name} = {v} outside state interval [{lo}, {hi}]")


# -- Pikovsky right inverse branch (explicit) and its derivative -------------


def _pik_g_neg(t, gamma):
    return (1.0 + t) ** gamma / (2.0 * gamma)


def _pik_g_pos(t, gamma):
    return t + (1.0 - t) ** gamma / (2.0 * gamma)


def _pik_g_neg_deriv(t, gamma):
    return (1.0 + t) ** (gamma - 1.0) / 2.0


def _pik_g_pos_deriv(t, gamma):
    return 1.0 - (1.0 - t) ** (gamma - 1.0) / 2.0


def _pik_g_plus(t, gamma):
    t = np.asarray(t, dtype=float)
    neg = _pik_g_neg(np.minimum(t, 0.0), gamma)
    return np.where(t < 0.0, neg, _pik_g_pos(np.maximum(t, 0.0), gamma))


def _pik_g_plus_deriv(t, gamma):
    t = np.asarray(t, dtype=float)
    neg = _pik_g_neg_deriv(np.minimum(t, 0.0), gamma)
    return np.where(t < 0.0, neg, _pik_g_pos_deriv(np.maximum(t, 0.0), gamma))


def _pik_forward_array(x: np.ndarray, gamma: float) -> np.ndarray:
    # Solve g_plus(t) = x for x in [0, 1].  Below x = 1/(2 gamma) = g_plus(0)
    # the root is on the negative half, where g_plus is a pure power (and
    # 2 gamma x rounds to at most 1, so t <= 0).  Above it g_pos is
    # increasing and convex on [0, 1].
    right = x >= 1.0 / (2.0 * gamma)
    t = np.empty_like(x)
    t[~right] = (2.0 * gamma * x[~right]) ** (1.0 / gamma) - 1.0
    xr = x[right]
    f = lambda s: _pik_g_pos(s, gamma) - xr
    df = lambda s: _pik_g_pos_deriv(s, gamma)
    t[right] = vec_bisect_newton(f, df, np.zeros_like(xr), 1.0)
    return t


# -- LSV/Cui left inverse branch (root-found) ---------------------------------
# u (1 + (2u)**g) = y on [0, 1/2], increasing and convex in u; 2u is exact.
# np.power always gets one exponent per element: with a shared scalar
# exponent it takes shortcuts (a square root for 0.5) that round
# differently, and an element's root would depend on whether gamma was
# shared.


def _lsv_left_inverse_array(y: np.ndarray, gamma) -> np.ndarray:
    g = np.full_like(y, gamma)
    g1 = 1.0 + np.asarray(gamma, dtype=float)

    def fdf(u):
        p = (2.0 * u) ** g
        d = g1 * p
        d += 1.0
        p += 1.0
        p *= u
        p -= y
        return p, d
    x0 = np.minimum(np.maximum(y, 0.0), 0.5)
    return vec_newton_from_above(fdf, x0, 0.0)


def _lsv_left_chain(y: float, gammas: list[float], n: int) -> list[float]:
    """y and its first n left-inverse pulls, pull i by the map of gamma
    ``gammas[i % len(gammas)]``, in scalar arithmetic: the iteration of
    :func:`_lsv_left_inverse_array` (same operations, start, stop rule and
    cap), so the same floats, at a fraction of a one-element array call.  A
    pull starts at the last root, so while gamma repeats it reuses the power
    computed there; single-map tail chains make 10^4 pulls."""
    cycle = [(float(g), np.array([g], dtype=float)) for g in gammas]
    y = float(y)
    out = [y]
    u = min(max(y, 0.0), 0.5)
    last = None
    for i in range(n):
        gamma, g = cycle[i % len(cycle)]
        if gamma != last:  # a fresh power at the start point, as the array kernel takes
            p = np.power(2.0 * u, g).item()
            g1, last = 1.0 + gamma, gamma
        for _ in range(MAX_ITER):
            u_new = max(u - (u * (1.0 + p) - y) / (1.0 + g1 * p), 0.0)
            if not u_new < u:
                break
            u = u_new
            p = np.power(2.0 * u, g).item()
        out.append(u)
        y = u
    return out


def _lsv_slope(x, gamma):
    return 1.0 + 2.0**gamma * (1.0 + gamma) * x**gamma


def _at(kernel, *args) -> float:
    # A scalar entry's value: the array kernel on a one-element array.
    return float(kernel(*args[:-1], np.array([args[-1]], dtype=float))[0])


# -- forward evaluation --------------------------------------------------------


def eval_map_array(params: MapParams, x: np.ndarray) -> np.ndarray:
    """Elementwise T(x); assumes x valid and nonzero for Pikovsky/GH."""
    x = np.asarray(x, dtype=float)
    fam = params.family
    if fam in (Family.LSV, Family.CUI):
        g = params.gamma
        left = x * (1.0 + 2.0**g * x**g)
        if fam is Family.LSV:
            right = 2.0 * (x - 0.5)
        else:
            right = 2.0**params.beta * np.maximum(x - 0.5, 0.0) ** params.beta
        return np.where(x < 0.5, left, right)
    if fam is Family.PIKOVSKY:
        t = _pik_forward_array(np.abs(x), params.gamma)
        return np.negative(t, out=t, where=x <= 0.0)
    return 1.0 - 2.0 * np.sqrt(np.abs(x))


def derivative(params: MapParams, x: float) -> float:
    """T'(x), signed.  SingularPoint at x = 0 for Pikovsky/GH (infinite)
    and at the interior branch boundary 1/2 for LSV/Cui (one-sided
    derivatives differ)."""
    _check_domain(params, "x", x)
    if params.family in (Family.LSV, Family.CUI):
        if x == 0.5:
            raise SingularPoint("one-sided derivatives differ at x = 1/2")
    elif x == 0.0:
        raise SingularPoint("derivative is infinite at x = 0")
    return _at(_derivative_array, params, x)


def _derivative_array(params: MapParams, x: np.ndarray) -> np.ndarray:
    fam = params.family
    g = params.gamma
    if fam in (Family.LSV, Family.CUI):
        if fam is Family.LSV:
            right = np.full_like(x, 2.0)
        else:
            b = params.beta
            right = b * 2.0**b * np.maximum(x - 0.5, 0.0) ** (b - 1.0)
        return np.where(x < 0.5, _lsv_slope(x, g), right)
    if fam is Family.PIKOVSKY:
        return 1.0 / _pik_g_plus_deriv(_pik_forward_array(np.abs(x), g), g)
    # d/dx [1 - 2 sqrt(|x|)] = -sign(x) / sqrt(|x|)
    return -np.copysign(1.0 / np.sqrt(np.abs(x)), x)


# -- inverse branches ----------------------------------------------------------


def inverse_branch(params: MapParams, branch: Branch, y: float) -> float:
    """The preimage of y under the selected branch.

    Closed form everywhere except the LSV/Cui left branch, which is
    root-found (Newton from above)."""
    _check_domain(params, "y", y)  # every branch maps onto the state interval
    return _at(inverse_branch_array, params, branch, y)


def inverse_branch_array(params: MapParams, branch: Branch, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    fam = params.family
    if fam in (Family.LSV, Family.CUI):
        if branch is Branch.LEFT:
            return _lsv_left_inverse_array(y, params.gamma)
        if fam is Family.LSV:
            return 0.5 * (y + 1.0)
        return 0.5 + 0.5 * np.maximum(y, 0.0) ** (1.0 / params.beta)
    if fam is Family.PIKOVSKY:
        if branch is Branch.RIGHT:
            return _pik_g_plus(y, params.gamma)
        return -_pik_g_plus(-y, params.gamma)
    gp = (1.0 - y) ** 2 / 4.0
    return gp if branch is Branch.RIGHT else -gp
