import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memloss import errors
from memloss.maps import (
    Branch,
    Family,
    MapParams,
    cui,
    derivative,
    eval_map_array,
    grossmann_horner,
    inverse_branch,
    inverse_branch_array,
    lsv,
    pikovsky,
    state_interval,
    validate_params,
)

ALL_PARAMS = [lsv(0.5), cui(0.6, 2.0), pikovsky(1.5), grossmann_horner()]


def _t(params, x):
    return float(eval_map_array(params, np.array([x]))[0])


class TestEval:
    def test_lsv_right_branch_linear(self):
        assert _t(lsv(0.5), 0.75) == pytest.approx(0.5, abs=1e-15)

    def test_lsv_neutral_fixed_point(self):
        assert _t(lsv(0.5), 0.0) == 0.0

    def test_pikovsky_branch_boundary_maps_to_zero(self):
        p = pikovsky(1.5)
        assert _t(p, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_pikovsky_neutral_fixed_points(self):
        p = pikovsky(1.5)
        assert _t(p, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert _t(p, -1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_gh_quarter(self):
        # 1 - 2 sqrt(0.25); cross-check the inverse relation x = (1 - T)**2 / 4
        gh = grossmann_horner()
        t = _t(gh, 0.25)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert (1.0 - t) ** 2 / 4.0 == pytest.approx(0.25, abs=1e-14)

    def test_cui_right_branch(self):
        p = cui(0.6, 2.0)
        assert _t(p, 0.75) == pytest.approx(4.0 * 0.25**2, abs=1e-15)


class TestDerivative:
    def test_lsv_neutral(self):
        assert derivative(lsv(0.5), 0.0) == 1.0
        assert derivative(lsv(0.5), 1e-12) == pytest.approx(1.0, abs=1e-5)

    def test_pikovsky_at_branch_boundary(self):
        assert derivative(pikovsky(1.5), 1.0 / 3.0) == pytest.approx(2.0, abs=1e-10)

    def test_pikovsky_near_one_is_neutral(self):
        p = pikovsky(1.5)
        assert derivative(p, 1.0 - 1e-8) == pytest.approx(1.0, abs=1e-3)
        assert derivative(p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_lsv_branch_joint_singular(self):
        with pytest.raises(errors.SingularPoint):
            derivative(lsv(0.5), 0.5)

    def test_gh_signed(self):
        gh = grossmann_horner()
        assert derivative(gh, 0.25) == pytest.approx(-2.0, abs=1e-14)
        assert derivative(gh, -0.25) == pytest.approx(2.0, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(errors.DomainError):
            derivative(lsv(0.5), 1.5)

    @pytest.mark.parametrize("params", [pikovsky(1.5), grossmann_horner()])
    def test_singular_at_zero(self, params):
        with pytest.raises(errors.SingularPoint):
            derivative(params, 0.0)


class TestInverse:
    def test_lsv_right(self):
        assert inverse_branch(lsv(0.5), Branch.RIGHT, 0.0) == 0.5

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_lsv_left_endpoint(self, gamma):
        assert inverse_branch(lsv(gamma), Branch.LEFT, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_pikovsky_right_at_zero(self):
        assert inverse_branch(pikovsky(1.5), Branch.RIGHT, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("y", [0.4, -0.4])
    def test_pikovsky_left_mirror(self, y):
        p = pikovsky(1.5)
        g_minus = inverse_branch(p, Branch.LEFT, y)
        g_plus = inverse_branch(p, Branch.RIGHT, -y)
        assert g_minus == pytest.approx(-g_plus, abs=1e-15)

    def test_image_error(self):
        with pytest.raises(errors.DomainError):
            inverse_branch(lsv(0.5), Branch.LEFT, 1.5)


@pytest.mark.parametrize(
    "call, name",
    [(lambda: derivative(lsv(0.5), 1.5), "x"), (lambda: inverse_branch(lsv(0.5), Branch.LEFT, 1.5), "y")],
    ids=["derivative", "inverse_branch"],
)
def test_domain_error_names_the_argument_its_value_and_the_interval(call, name):
    with pytest.raises(errors.DomainError, match=re.escape(f"{name} = 1.5 outside state interval [0.0, 1.0]")):
        call()


def _inverse_derivative(params, branch, y):
    return 1.0 / abs(derivative(params, inverse_branch(params, branch, y)))


class TestInverseDerivative:
    """|d/dy inverse_branch(y)| = 1 / |T'(inverse_branch(y))|."""

    def test_lsv_right_half(self):
        assert _inverse_derivative(lsv(0.7), Branch.RIGHT, 0.3) == 0.5

    def test_pikovsky_at_zero(self):
        assert _inverse_derivative(pikovsky(1.5), Branch.RIGHT, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_pikovsky_near_one(self):
        v = _inverse_derivative(pikovsky(1.5), Branch.RIGHT, 1.0 - 1e-10)
        assert v == pytest.approx(1.0, abs=1e-4)

    def test_matches_reciprocal_forward_derivative(self):
        h = 1e-6
        for params in ALL_PARAMS:
            for branch in Branch:
                for y in (-0.63, -0.2, 0.11, 0.57, 0.9):
                    lo, hi = state_interval(params)
                    if not (lo <= y <= hi):
                        continue
                    x = inverse_branch(params, branch, y)
                    if x == 0.0 and params.family in (Family.PIKOVSKY, Family.GROSSMANN_HORNER):
                        continue
                    if params.family in (Family.LSV, Family.CUI) and x == 0.5:
                        continue
                    up, down = (inverse_branch(params, branch, y + d) for d in (h, -h))
                    slope = (up - down) / (2 * h)
                    assert abs(slope) == pytest.approx(1.0 / abs(derivative(params, x)), rel=1e-6)


class TestValidate:
    def test_lsv_ok(self):
        assert validate_params(lsv(0.5)) is None
        assert lsv(0.5).has_acip is None

    def test_pikovsky_range(self):
        with pytest.raises(errors.ParamError, match=r"\(1,3\)"):
            validate_params(MapParams(Family.PIKOVSKY, 3.5))

    def test_cui_acip_flag(self):
        assert validate_params(cui(0.6, 2.0)) is None
        assert cui(0.6, 2.0).has_acip is False
        assert cui(0.3, 2.0).has_acip is True

    def test_gh_fixed_instance(self):
        with pytest.raises(errors.ParamError):
            validate_params(MapParams(Family.GROSSMANN_HORNER, 1.5))


class TestProperties:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.family.value)
    def test_round_trip(self, params):
        lo, hi = state_interval(params)
        rng = np.random.default_rng(7)
        y = rng.uniform(lo + 1e-9, hi - 1e-9, size=1000)
        for branch in Branch:
            x = inverse_branch_array(params, branch, y)
            back = eval_map_array(params, x)
            assert np.max(np.abs(back - y)) <= 1e-10

    def test_expansion(self):
        # |T'| >= 1 wherever defined, equality only at the neutral points.
        # Cui right branches with beta > 1 genuinely contract near the
        # critical point, so only the Cui left branch is checked.
        rng = np.random.default_rng(3)
        for params in [lsv(0.25), lsv(0.75), pikovsky(1.3), pikovsky(2.5), grossmann_horner()]:
            lo, hi = state_interval(params)
            xs = rng.uniform(lo, hi, size=400)
            for x in xs:
                if abs(x) < 1e-12 or abs(x - 0.5) < 1e-12:
                    continue
                assert abs(derivative(params, x)) >= 1.0
        for x in np.linspace(1e-6, 0.499, 100):
            assert derivative(cui(0.6, 2.0), x) >= 1.0

    def test_pikovsky_odd(self):
        p = pikovsky(1.7)
        xs = np.linspace(1e-6, 1.0, 500)
        fwd = eval_map_array(p, xs)
        bwd = eval_map_array(p, -xs)
        assert np.max(np.abs(fwd + bwd)) <= 1e-12

    def test_gh_even(self):
        # Mirror-symmetric branches: T(-x) = T(x).
        gh = grossmann_horner()
        xs = np.linspace(1e-6, 1.0, 500)
        assert np.max(np.abs(eval_map_array(gh, xs) - eval_map_array(gh, -xs))) <= 1e-15

    def test_branch_monotonicity(self):
        grids = {
            Family.LSV: {(Branch.LEFT, +1): np.linspace(0.0, 0.5 - 1e-9, 300),
                         (Branch.RIGHT, +1): np.linspace(0.5, 1.0, 300)},
            Family.CUI: {(Branch.LEFT, +1): np.linspace(0.0, 0.5 - 1e-9, 300),
                         (Branch.RIGHT, +1): np.linspace(0.5, 1.0, 300)},
            Family.PIKOVSKY: {(Branch.LEFT, +1): np.linspace(-1.0, -1e-9, 300),
                              (Branch.RIGHT, +1): np.linspace(1e-9, 1.0, 300)},
            Family.GROSSMANN_HORNER: {(Branch.LEFT, +1): np.linspace(-1.0, -1e-9, 300),
                                      (Branch.RIGHT, -1): np.linspace(1e-9, 1.0, 300)},
        }
        for params in ALL_PARAMS:
            for (branch, sign), xs in grids[params.family].items():
                vals = eval_map_array(params, xs)
                assert np.all(sign * np.diff(vals) > 0), (params.family, branch)

    def test_pikovsky_implicit_relation_residual(self):
        # After forward evaluation, the defining relation g_plus(T(x)) = x
        # holds to root-finder tolerance on (0, 1].
        from memloss.maps import _pik_g_plus

        p = pikovsky(2.0)
        xs = np.linspace(1e-8, 1.0, 1000)
        t = eval_map_array(p, xs)
        assert np.max(np.abs(_pik_g_plus(t, p.gamma) - xs)) <= 1e-13


def _reference_pik_forward(x, gamma):
    """The two-branch solve: bisection on [-1, 1] with the textbook
    midpoint and np.where updates, then clamped Newton, on g_plus."""
    from memloss.maps import _pik_g_plus, _pik_g_plus_deriv

    f = lambda t: _pik_g_plus(t, gamma) - x
    df = lambda t: _pik_g_plus_deriv(t, gamma)
    lo, hi = np.full_like(x, -1.0), np.full_like(x, 1.0)
    for _ in range(int(np.ceil(np.log2(2.0 / 1e-14)))):
        mid = 0.5 * (lo + hi)
        neg = f(mid) <= 0.0
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
    t = 0.5 * (lo + hi)
    for _ in range(5):
        d = df(t)
        t_new = np.clip(t - np.where(d != 0.0, f(t) / np.where(d != 0.0, d, 1.0), 0.0), lo, hi)
        if np.array_equal(t_new, t):
            break
        t = t_new
    return t


class TestPikovskyForwardPerBranch:
    @pytest.mark.parametrize("gamma", [1.01, 1.5, 2.0, 2.5, 2.99])
    def test_bit_identical_to_two_branch_solve(self, gamma):
        from memloss.maps import _pik_forward_array

        a = 1.0 / (2.0 * gamma)  # the branch point: T(a) = 0
        steps = np.arange(1, 40)
        near_a = np.concatenate([np.nextafter(a, 0.0) - steps * 2e-17, [np.nextafter(a, 0.0), a,
                                 np.nextafter(a, 1.0)], np.nextafter(a, 1.0) + steps * 2e-17])
        tiny = np.concatenate([[0.0, 5e-324, 1e-300, 1e-16, 1e-15], np.geomspace(1e-300, 1e-15, 200)])
        x = np.concatenate([np.random.default_rng(1).uniform(0.0, 1.0, 100_000), near_a, tiny,
                            [np.nextafter(1.0, 0.0), 1.0]])
        new = _pik_forward_array(x, gamma)
        ref = _reference_pik_forward(x, gamma)
        # An accuracy oracle, not a bit pin: the closed-form negative half
        # and Newton's per-element stop move roots at the ulp level.
        assert np.max(np.abs(new - ref)) <= 2.0**-51
        assert np.all(new[x >= a] >= 0.0) and np.all(new[x < a] <= 0.0)


@st.composite
def _any_map(draw):
    family = draw(st.sampled_from(["lsv", "cui", "pikovsky", "gh"]))
    if family == "lsv":
        return lsv(draw(st.floats(0.01, 0.99)))
    if family == "cui":
        return cui(draw(st.floats(0.01, 0.99)), draw(st.floats(1.0, 3.0)))
    if family == "pikovsky":
        return pikovsky(draw(st.floats(1.01, 2.99)))
    return grossmann_horner()


def _same_float(scalar_call, array_value):
    try:
        got = scalar_call()
    except errors.SingularPoint:
        return True
    return np.float64(got).view(np.int64) == np.float64(array_value).view(np.int64)


class TestScalarEntriesMatchArrays:
    @settings(max_examples=80, deadline=2000)
    @given(params=_any_map(), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_bit_for_bit(self, params, u):
        from memloss.maps import _derivative_array

        lo, hi = state_interval(params)
        pts = np.concatenate([lo + (hi - lo) * np.array(u), [lo, 0.5 * (lo + hi), hi]])
        with np.errstate(divide="ignore"):  # the kernels see the singular points too
            der = _derivative_array(params, pts)
            inv = {b: inverse_branch_array(params, b, pts) for b in Branch}
        for i, v in enumerate(pts.tolist()):
            assert _same_float(lambda: derivative(params, v), der[i]), ("derivative", v)
        for branch in Branch:
            for i, v in enumerate(pts.tolist()):
                assert _same_float(lambda: inverse_branch(params, branch, v), inv[branch][i]), (branch, v)

    @settings(max_examples=60, deadline=2000)
    @given(
        y=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
        gammas=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=60),
    )
    def test_tail_chain_pull_matches_the_array_kernel(self, y, gammas):
        # The tail chains pull one scalar at a time.
        from memloss.maps import _lsv_left_chain, _lsv_left_inverse_array

        g = np.resize(np.array(gammas), len(y))
        want = _lsv_left_inverse_array(np.array(y), g)
        got = np.array([_lsv_left_chain(v, [w], 1)[1] for v, w in zip(y, g.tolist())])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
