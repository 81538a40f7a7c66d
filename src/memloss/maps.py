"""The four intermittent map families: evaluation, derivatives, inverse branches.

Families and state intervals
----------------------------
``LSV`` on [0, 1]::

    T(x) = x (1 + 2**g * x**g)   on [0, 1/2)        (neutral fixed point at 0)
    T(x) = 2 (x - 1/2)           on [1/2, 1]

``Cui`` on [0, 1］: left branch as LSV, right branch ``2**b (x - 1/2)**b``
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
safe to call concurrently.  Scalars in and out are 64-bit floats; the
``*_array`` variants operate elementwise on numpy arrays and assume their
inputs are valid (domain checks live in the scalar wrappers).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParamError, SingularPoint
from .rootfind import bisect_newton, vec_bisect_newton, vec_newton_from_above


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

    ``beta`` is meaningful for Cui only, ``eta`` for GrossmannHorner only.
    Use the factory functions to get validated records.
    """

    family: Family
    gamma: float
    beta: float | None = None
    eta: float | None = None

    @property
    def has_acip(self) -> bool | None:
        """Cui maps preserve an absolutely continuous probability measure
        iff gamma * beta < 1; None for other families."""
        if self.family is not Family.CUI:
            return None
        return self.gamma * self.beta < 1.0


@dataclass(frozen=True)
class ValidationReport:
    family: Family
    ok: bool
    has_acip: bool | None
    messages: tuple[str, ...] = ()


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
    p = MapParams(Family.GROSSMANN_HORNER, 2.0, eta=0.5)
    validate_params(p)
    return p


def validate_params(params: MapParams) -> ValidationReport:
    """Check parameter ranges; raise ParamError naming the violated constraint."""
    fam = params.family
    g = params.gamma
    if fam in (Family.LSV, Family.CUI):
        if not (0.0 < g < 1.0):
            raise ParamError(f"gamma must lie in (0,1), got {g}")
        if fam is Family.CUI:
            if params.beta is None or not (params.beta >= 1.0):
                raise ParamError(f"beta must be >= 1, got {params.beta}")
            return ValidationReport(fam, True, params.has_acip)
        return ValidationReport(fam, True, None)
    if fam is Family.PIKOVSKY:
        if not (1.0 < g < 3.0):
            raise ParamError(f"gamma must lie in (1,3), got {g}")
        return ValidationReport(fam, True, None)
    if fam is Family.GROSSMANN_HORNER:
        if g != 2.0:
            raise ParamError(f"gamma must equal 2 for the concrete instance, got {g}")
        if params.eta != 0.5:
            raise ParamError(f"eta must equal 1/2 for the concrete instance, got {params.eta}")
        return ValidationReport(fam, True, None)
    raise ParamError(f"unknown family {fam!r}")


def state_interval(params: MapParams) -> tuple[float, float]:
    if params.family in (Family.LSV, Family.CUI):
        return (0.0, 1.0)
    return (-1.0, 1.0)


def _check_state(params: MapParams, x: float) -> None:
    lo, hi = state_interval(params)
    if not (lo <= x <= hi):
        raise DomainError(f"x = {x} outside state interval [{lo}, {hi}]")


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


def _pik_forward_scalar(x: float, gamma: float) -> float:
    # Solve g_plus(t) = x for t in [-1, 1]; g_plus is strictly increasing.
    f = lambda t: float(_pik_g_plus(t, gamma)) - x
    df = lambda t: float(_pik_g_plus_deriv(t, gamma))
    return bisect_newton(f, df, -1.0, 1.0)


def _pik_forward_half(x: np.ndarray, gamma: float, lo: float, g, dg) -> np.ndarray:
    f = lambda t: g(t, gamma) - x
    df = lambda t: dg(t, gamma)
    return vec_bisect_newton(f, df, np.full_like(x, lo), np.full_like(x, lo + 1.0))


def _pik_forward_array(x: np.ndarray, gamma: float) -> np.ndarray:
    # Solve g_plus(t) = x on the half of [-1, 1] that the first bisection
    # step picks, f(0) = 1/(2 gamma) - x <= 0, with that half's formula.
    right = x >= 1.0 / (2.0 * gamma)
    t = np.empty_like(x)
    t[right] = _pik_forward_half(x[right], gamma, 0.0, _pik_g_pos, _pik_g_pos_deriv)
    t[~right] = _pik_forward_half(x[~right], gamma, -1.0, _pik_g_neg, _pik_g_neg_deriv)
    return t


# -- LSV/Cui left inverse branch (root-found) ---------------------------------


def _lsv_left_inverse_scalar(y: float, gamma: float) -> float:
    # u (1 + 2**g u**g) = y on [0, 1/2]; increasing and convex in u.
    c = 2.0**gamma
    f = lambda u: u * (1.0 + c * u**gamma) - y
    df = lambda u: 1.0 + c * (1.0 + gamma) * u**gamma
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return 0.5
    x0 = min(y, 0.5)
    u = x0
    for _ in range(60):
        step = f(u) / df(u)
        u_new = max(u - step, 0.0)
        if abs(u_new - u) <= 1e-16:
            return u_new
        u = u_new
    return u


def _lsv_left_inverse_array(y: np.ndarray, gamma) -> np.ndarray:
    c = 2.0**gamma
    f = lambda u: u * (1.0 + c * u**gamma) - y
    df = lambda u: 1.0 + c * (1.0 + gamma) * u**gamma
    x0 = np.minimum(np.maximum(y, 0.0), 0.5)
    return vec_newton_from_above(f, df, x0, 0.0)


# -- forward evaluation --------------------------------------------------------


def eval_map(params: MapParams, x: float) -> float:
    """T(x).  Raises DomainError outside the state interval and
    SingularPoint at the jump point x = 0 of Pikovsky/GH maps."""
    _check_state(params, x)
    fam = params.family
    if fam is Family.LSV:
        return x * (1.0 + 2.0**params.gamma * x**params.gamma) if x < 0.5 else 2.0 * (x - 0.5)
    if fam is Family.CUI:
        if x < 0.5:
            return x * (1.0 + 2.0**params.gamma * x**params.gamma)
        return 2.0**params.beta * (x - 0.5) ** params.beta
    if x == 0.0:
        raise SingularPoint("x = 0 is a jump discontinuity")
    if fam is Family.PIKOVSKY:
        t = _pik_forward_scalar(abs(x), params.gamma)
        return t if x > 0.0 else -t
    # GrossmannHorner concrete instance, mirror-symmetric branches.
    return 1.0 - 2.0 * math.sqrt(abs(x))


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
        return np.where(x > 0.0, t, -t)
    return 1.0 - 2.0 * np.sqrt(np.abs(x))


def derivative(params: MapParams, x: float) -> float:
    """T'(x), signed.  SingularPoint at x = 0 for Pikovsky/GH (infinite)
    and at the interior branch boundary 1/2 for LSV/Cui (one-sided
    derivatives differ)."""
    _check_state(params, x)
    fam = params.family
    g = params.gamma
    if fam in (Family.LSV, Family.CUI):
        if x == 0.5:
            raise SingularPoint("one-sided derivatives differ at x = 1/2")
        if x < 0.5:
            return 1.0 + 2.0**g * (1.0 + g) * x**g
        if fam is Family.LSV:
            return 2.0
        b = params.beta
        return b * 2.0**b * (x - 0.5) ** (b - 1.0)
    if x == 0.0:
        raise SingularPoint("derivative is infinite at x = 0")
    if fam is Family.PIKOVSKY:
        t = _pik_forward_scalar(abs(x), g)
        return 1.0 / float(_pik_g_plus_deriv(t, g))
    # d/dx [1 - 2 sqrt(|x|)] = -sign(x) / sqrt(|x|)
    return -math.copysign(1.0 / math.sqrt(abs(x)), x)


# -- inverse branches ----------------------------------------------------------


def _branch_image(params: MapParams) -> tuple[float, float]:
    return state_interval(params)


def inverse_branch(params: MapParams, branch: Branch, y: float) -> float:
    """The preimage of y under the selected branch.

    Closed form everywhere except the LSV/Cui left branch, which is
    root-found (monotone, bracketed)."""
    lo, hi = _branch_image(params)
    if not (lo <= y <= hi):
        raise DomainError(f"y = {y} outside branch image [{lo}, {hi}]")
    fam = params.family
    if fam in (Family.LSV, Family.CUI):
        if branch is Branch.LEFT:
            return _lsv_left_inverse_scalar(y, params.gamma)
        if fam is Family.LSV:
            return 0.5 * (y + 1.0)
        return 0.5 + 0.5 * y ** (1.0 / params.beta)
    if fam is Family.PIKOVSKY:
        if branch is Branch.RIGHT:
            return float(_pik_g_plus(y, params.gamma))
        return -float(_pik_g_plus(-y, params.gamma))
    gp = (1.0 - y) ** 2 / 4.0
    return gp if branch is Branch.RIGHT else -gp


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


def inverse_branch_derivative(params: MapParams, branch: Branch, y: float) -> float:
    """|d/dy inverse_branch(y)| = 1 / |T'(inverse_branch(y))|."""
    lo, hi = _branch_image(params)
    if not (lo <= y <= hi):
        raise DomainError(f"y = {y} outside branch image [{lo}, {hi}]")
    fam = params.family
    g = params.gamma
    if fam in (Family.LSV, Family.CUI):
        if branch is Branch.LEFT:
            u = _lsv_left_inverse_scalar(y, g)
            return 1.0 / (1.0 + 2.0**g * (1.0 + g) * u**g)
        if fam is Family.LSV:
            return 0.5
        b = params.beta
        if y == 0.0 and b > 1.0:
            raise SingularPoint("T' vanishes at the critical point for beta > 1")
        return y ** (1.0 / b - 1.0) / (2.0 * b)
    if fam is Family.PIKOVSKY:
        t = y if branch is Branch.RIGHT else -y
        if t == -1.0:
            raise SingularPoint("T' is infinite at the branch preimage of -1")
        return float(_pik_g_plus_deriv(t, g))
    if y == 1.0:
        raise SingularPoint("T' is infinite at x = 0")
    return (1.0 - y) / 2.0
