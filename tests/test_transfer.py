import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from memloss import errors, transfer
from memloss import sequences as seqs
from memloss.maps import Branch, cui, grossmann_horner, inverse_branch_array, lsv, pikovsky, state_interval
from memloss.partitions import fit_power_law, reference_set, return_time_tail, return_time_tail_mc
from memloss.transfer import (
    GridDensity,
    _apply_images,
    _edge_images,
    _edge_plan,
    _SignedGrid,
    _snap,
    evolve,
    make_density,
    memory_loss_curve,
    mixing_mass,
    push_density,
    tv_distance,
)

N = 2**10


class TestGridDensity:
    def test_cell_count_guard(self):
        with pytest.raises(errors.ParamError, match="power of two"):
            GridDensity(np.ones(1000), (0.0, 1.0))
        with pytest.raises(errors.ParamError):
            GridDensity(np.ones(2**9), (0.0, 1.0))

    def test_mass(self):
        d = GridDensity(np.full(N, 2.0), (0.0, 1.0))
        assert d.mass == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("grid", [GridDensity, _SignedGrid])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_are_a_param_error(self, grid, bad):
        v = np.ones(N)
        v[N // 3] = bad
        with pytest.raises(errors.ParamError, match="finite"):
            grid(v, (0.0, 1.0))

    @pytest.mark.parametrize("interval", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (1.0, 1.0)])
    def test_nan_infinite_or_empty_interval_is_a_param_error(self, interval):
        with pytest.raises(errors.ParamError, match="interval"):
            GridDensity(np.ones(N), interval)

    def test_the_interval_is_checked_before_the_values(self):
        with pytest.raises(errors.ParamError, match="interval"):
            GridDensity(np.full(N, -1.0), (1.0, 0.0))


class TestMakeDensity:
    def test_uniform(self):
        d = make_density("uniform", 1024)
        assert np.all(d.values == d.values[0])
        assert d.mass == pytest.approx(1.0, abs=1e-12)

    def test_holder_normalized(self):
        d = make_density("holder", N, profile=2)
        assert d.mass == pytest.approx(1.0, abs=1e-12)
        assert not np.all(d.values == d.values[0])

    def test_cone_sample_in_cone(self):
        # nonincreasing, and under a_beta * x**(-beta) at each cell's left edge
        d = make_density("cone", N, beta=0.5)
        a_beta = 2.0**0.5 * 2.5 + 1.0
        assert np.all(np.diff(d.values) <= 0.0)
        assert np.all(d.values[1:] <= a_beta * d.edges()[1:-1] ** -0.5)

    def test_unknown_kind(self):
        with pytest.raises(errors.ParamError):
            make_density("spline", N)

    def test_reversed_interval_reports_the_interval(self):
        with pytest.raises(errors.ParamError, match="interval"):
            make_density("uniform", 1024, (1.0, 0.0))

    def test_float_cell_count_is_a_param_error(self):
        with pytest.raises(errors.ParamError, match="power of two"):
            make_density("uniform", 1024.0)

    @pytest.mark.parametrize("profile", [0, -1, -2])
    def test_holder_profile_below_one_is_a_param_error(self, profile):
        # profile 0 would be the uniform density and -p the same as p
        with pytest.raises(errors.ParamError, match="profile"):
            make_density("holder", N, profile=profile)


class TestPushDensity:
    def test_pikovsky_preserves_uniform(self):
        u = make_density("uniform", 2**12, (-1.0, 1.0))
        pu = push_density(pikovsky(1.5), u)
        assert np.max(np.abs(pu.values - u.values)) <= 1e-6

    def test_lsv_indicator_maps_to_uniform(self):
        vals = np.concatenate([np.zeros(N // 2), np.full(N // 2, 2.0)])
        f = GridDensity(vals, (0.0, 1.0))
        out = push_density(lsv(0.5), f)
        assert np.max(np.abs(out.values - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "params", [lsv(0.5), lsv(0.8), pikovsky(1.7), grossmann_horner()],
        ids=["lsv05", "lsv08", "pik", "gh"],
    )
    def test_mass_conservation_rough_densities(self, params):
        lo, hi = state_interval(params)
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.uniform(0.0, 2.0, size=N)
            d = GridDensity(v / (np.sum(v) * (hi - lo) / N), (lo, hi))
            out = push_density(params, d)
            assert abs(out.mass - d.mass) <= 1e-8

    def test_interval_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            push_density(pikovsky(1.5), make_density("uniform", N, (0.0, 1.0)))


class TestTvDistance:
    def test_zero_on_equal(self):
        f = make_density("holder", N)
        assert tv_distance(f, f) == 0.0

    def test_half_for_half_overlap(self):
        u = make_density("uniform", N)
        half = GridDensity(np.concatenate([np.full(N // 2, 2.0), np.zeros(N // 2)]), (0.0, 1.0))
        assert tv_distance(u, half) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_supports(self):
        a = GridDensity(np.concatenate([np.full(N // 2, 2.0), np.zeros(N // 2)]), (0.0, 1.0))
        b = GridDensity(np.concatenate([np.zeros(N // 2), np.full(N // 2, 2.0)]), (0.0, 1.0))
        assert tv_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            tv_distance(make_density("uniform", 2**10), make_density("uniform", 2**11))


class TestEvolve:
    def test_identity_at_zero_steps(self):
        f = make_density("holder", N)
        out = evolve(seqs.constant(lsv(0.5)), f, 0)
        assert np.array_equal(out.values, f.values)

    def test_semigroup(self):
        s = seqs.periodic([lsv(0.5), lsv(0.7)])
        f = make_density("holder", N)
        whole = evolve(s, f, 5)
        part = evolve(s, evolve(s, f, 2), 3, start=3)
        assert np.max(np.abs(whole.values - part.values)) <= 1e-10

    def test_tv_contraction(self):
        rng = np.random.default_rng(3)
        s = seqs.constant(lsv(0.6))
        for _ in range(20):
            a = rng.uniform(0, 2, size=N)
            b = rng.uniform(0, 2, size=N)
            f = GridDensity(a / np.sum(a) * N, (0.0, 1.0))
            g = GridDensity(b / np.sum(b) * N, (0.0, 1.0))
            before = tv_distance(f, g)
            after = tv_distance(push_density(lsv(0.6), f), push_density(lsv(0.6), g))
            assert after <= before + 1e-6

    def test_pikovsky_even_density_stays_even(self):
        t = np.linspace(-1, 1, N, endpoint=False) + 1.0 / N
        vals = 1.0 + 0.3 * np.cos(np.pi * t * 3)  # even in x
        d = GridDensity(vals / (np.sum(vals) * 2.0 / N), (-1.0, 1.0))
        out = evolve(seqs.constant(pikovsky(1.6)), d, 3)
        assert np.max(np.abs(out.values - out.values[::-1])) <= 1e-9


class TestMemoryLossCurve:
    @pytest.mark.parametrize("n_max", [-5, -1, 0])
    def test_n_max_below_one_is_a_param_error(self, n_max):
        f, g = make_density("holder", N, profile=1), make_density("holder", N, profile=2)
        with pytest.raises(errors.ParamError, match=f"n_max must be >= 1, got {n_max}"):
            memory_loss_curve(seqs.constant(lsv(0.5)), f, g, n_max)

    def test_equal_inputs_identically_zero(self):
        f = make_density("holder", N)
        curve = memory_loss_curve(seqs.constant(lsv(0.5)), f, f, 10)
        assert np.all(curve.values == 0.0)

    def test_nonincreasing(self):
        f = make_density("holder", N, profile=1)
        g = make_density("holder", N, profile=2)
        curve = memory_loss_curve(seqs.constant(lsv(0.5)), f, g, 40)
        assert np.all(np.diff(curve.values) <= 1e-12)

    def test_slope_small_grid(self):
        # coarse-grid sanity run; the acceptance suite fits at 2**15
        s = seqs.constant(lsv(0.5))
        f = make_density("holder", 2**13, profile=1)
        g = make_density("holder", 2**13, profile=2)
        curve = memory_loss_curve(s, f, g, 120)
        fit = fit_power_law(curve, 10, 120)
        assert -2.4 <= fit.slope <= -1.6

    def test_grid_refinement_gate(self):
        s = seqs.constant(lsv(0.5))
        curves = []
        for n in (2**11, 2**12):
            f = make_density("holder", n, profile=1)
            g = make_density("holder", n, profile=2)
            curves.append(memory_loss_curve(s, f, g, 60).values)
        assert np.max(np.abs(curves[0] - curves[1])) <= 1e-4


class TestMixingMass:
    def test_starts_at_one(self):
        mm = mixing_mass(seqs.constant(lsv(0.5)), 1, 5, n_cells=N)
        assert mm.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        mm = mixing_mass(seqs.constant(lsv(0.5)), 1, 60, n_cells=N)
        assert np.all(mm.values >= 0.0) and np.all(mm.values <= 1.0 + 1e-8)

    def test_lsv_floor(self):
        mm = mixing_mass(seqs.constant(lsv(0.5)), 1, 100, n_cells=2**12)
        assert np.min(mm.values[2:]) >= 0.05

    @pytest.mark.parametrize("params", [lsv(0.5), cui(0.5, 2.0), pikovsky(2.0), grossmann_horner()],
                             ids=lambda p: p.family.value)
    @pytest.mark.parametrize("n_max", [-5, -1, 0])
    def test_n_max_below_one_is_a_param_error(self, params, n_max):
        with pytest.raises(errors.ParamError):
            mixing_mass(seqs.constant(params), 1, n_max, n_cells=N)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), log2_cells=st.integers(10, 20))
    def test_reference_interval_lies_inside_the_state_interval(self, data, log2_cells):
        # _snap takes no clamps: Y's snapped cells must stay on every allowed grid
        open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        params = data.draw(st.one_of(
            open_unit.map(lsv), st.tuples(open_unit, st.floats(1.0, 1e6)).map(lambda gb: cui(*gb)),
            st.floats(1.0, 3.0, exclude_min=True, exclude_max=True).map(pikovsky), st.just(grossmann_horner())))
        (a, b), (lo, hi) = reference_set(params), state_interval(params)
        assert lo <= a < b <= hi
        w = (hi - lo) / 2**log2_cells
        cells, snap = _snap((a, b), lo, w)
        assert 0 <= cells.start < cells.stop <= 2**log2_cells
        assert 0.0 <= snap <= 0.5 * w * (1.0 + 1e-12)

    def test_pikovsky_snap_reported(self):
        mm = mixing_mass(seqs.constant(pikovsky(1.7)), 1, 10, n_cells=N)
        assert mm.notes["worst_snap"] <= mm.values.size and mm.notes["worst_snap"] >= 0.0
        assert mm.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_worst_snap_covers_every_map(self):
        # gamma 2's Y = (-1/4, 1/4) lies on cell edges; gamma 1.5's (-1/3, 1/3) does not
        seq = seqs.periodic([pikovsky(2.0), pikovsky(1.5)])
        edges = np.linspace(-1.0, 1.0, 2**12 + 1)
        assert np.min(np.abs(edges - 0.25)) == 0.0
        third = max(np.min(np.abs(edges - 1.0 / 3.0)), np.min(np.abs(edges + 1.0 / 3.0)))
        assert mixing_mass(seq, 1, 2, n_cells=2**12).notes["worst_snap"] == pytest.approx(third, rel=1e-12)


# -- the shared stepping path against a loop of push_density -----------------------

_PAIRS = {
    "lsv": (lsv(0.5), lsv(0.8)),
    "cui": (cui(0.4, 2.0), cui(0.7, 1.5)),
    "pikovsky": (pikovsky(1.5), pikovsky(2.5)),
    "gh": (grossmann_horner(), grossmann_horner()),
}
_KINDS = {
    "constant": lambda a, b: seqs.constant(a),
    "periodic": lambda a, b: seqs.periodic([a, b]),
    "iid": lambda a, b: seqs.iid([a, b], [0.4, 0.6], seed=11),
    "explicit": lambda a, b: seqs.explicit([a, b, b, a, b, a, a, a, b, b, a, b, a]),
}
STEPS = 12  # the explicit sequence has STEPS + 1 entries


def _sequence(family, kind):
    return _KINDS[kind](*_PAIRS[family])


def _pushed(seq, f, n, start=1):
    """Reference: f after each of n push_density steps."""
    out = []
    for j in range(n):
        f = push_density(seqs.param_at(seq, start + j), f)
        out.append(f)
    return out


def _holder_pair(family):
    interval = state_interval(_PAIRS[family][0])
    return (make_density("holder", N, interval, profile=1),
            make_density("holder", N, interval, profile=2))


def _half_l1(h):
    return 0.5 * float(np.sum(np.abs(h.values))) * h.cell_width


def _pair_curve(seq, f, g, n):
    """Reference: TV of f and g pushed separately, then subtracted."""
    return np.array([tv_distance(f, g)] + [
        tv_distance(a, b) for a, b in zip(_pushed(seq, f, n), _pushed(seq, g, n))])


# Each pushed cell value is a branch's two end products t * f[j] and its
# crossing cell value, added: a few roundings of eps of the cell values per
# branch, with no prefix integral to difference.  A step is an L1
# contraction, so the L1 errors of f, g and h add up over the steps, at most
# about 4 eps per cell per step each; TV is half of L1.
_PAIR_BOUND = 0.5 * 3 * 4 * STEPS * N * np.finfo(float).eps


def _mixing_reference(seq, k, n_max, n_cells):
    """mixing_mass as a loop of push_density."""
    p0 = seqs.param_at(seq, k)
    lo, hi = state_interval(p0)
    w = (hi - lo) / n_cells
    vals = np.zeros(n_cells)
    vals[_snap(reference_set(p0), lo, w)[0]] = 1.0
    f = GridDensity(vals / (float(np.sum(vals)) * w), (lo, hi))
    out = []
    for n in range(n_max + 1):
        pn = seqs.param_at(seq, k + n)
        cells, _ = _snap(reference_set(pn), lo, f.cell_width)
        out.append(float(np.sum(f.values[cells])) * f.cell_width)
        if n < n_max:
            f = push_density(pn, f)
    return np.minimum(np.clip(np.array(out), 0.0, None), 1.0 + 1e-9)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("family", sorted(_PAIRS))
class TestSharedSteppingPath:
    def test_evolve_matches_push_loop(self, family, kind):
        seq = _sequence(family, kind)
        f = make_density("holder", N, state_interval(_PAIRS[family][0]), profile=1)
        assert np.array_equal(evolve(seq, f, STEPS).values, _pushed(seq, f, STEPS)[-1].values)
        part = evolve(seq, f, STEPS - 3, start=2)
        assert np.array_equal(part.values, _pushed(seq, f, STEPS - 3, start=2)[-1].values)

    def test_memory_loss_curve_matches_push_loop(self, family, kind):
        seq = _sequence(family, kind)
        f, g = _holder_pair(family)
        h = _SignedGrid(f.values - g.values, f.interval)
        ref = [_half_l1(d) for d in [h, *_pushed(seq, h, STEPS)]]
        curve = memory_loss_curve(seq, f, g, STEPS).values
        assert np.array_equal(curve, np.array(ref))
        # pushing f and g apart is the same operator, up to the rounding of
        # two O(1) densities that the final subtraction exposes
        assert np.max(np.abs(curve - _pair_curve(seq, f, g, STEPS))) <= _PAIR_BOUND

    def test_mixing_mass_matches_push_loop(self, family, kind):
        seq = _sequence(family, kind)
        table = mixing_mass(seq, 1, STEPS, n_cells=N)
        assert np.array_equal(table.values, _mixing_reference(seq, 1, STEPS, N))


class TestOneStepProperties:
    @settings(max_examples=60, deadline=2000)
    @given(
        params=st.sampled_from([lsv(0.3), lsv(0.9), cui(0.5, 3.0), pikovsky(1.2),
                                pikovsky(2.8), grossmann_horner()]),
        a=hnp.arrays(np.float64, N, elements=st.floats(0.0, 1e6)),
        b=hnp.arrays(np.float64, N, elements=st.floats(0.0, 1e6)),
    )
    def test_mass_conserved_and_tv_contracts(self, params, a, b):
        assume(np.sum(a) > 0.0 and np.sum(b) > 0.0)
        lo, hi = state_interval(params)
        # divide by the sum first: sum * (hi - lo) / N underflows to 0 when
        # the only mass is subnormal, which would make the density inf
        f = GridDensity(a / np.sum(a) * (N / (hi - lo)), (lo, hi))
        g = GridDensity(b / np.sum(b) * (N / (hi - lo)), (lo, hi))
        pf, pg = push_density(params, f), push_density(params, g)
        assert abs(pf.mass - f.mass) <= 1e-8
        assert tv_distance(pf, pg) <= tv_distance(f, g) + 1e-12


_FAMILY_MAPS = [lsv(0.3), lsv(0.9), cui(0.5, 3.0), pikovsky(1.2), pikovsky(2.8), grossmann_horner()]
_MAP_IDS = ["lsv0.3", "lsv0.9", "cui0.5", "pik1.2", "pik2.8", "gh"]


def _orientation_dropping_apply(plan, f):
    """Mutant of transfer._apply_images that drops each branch's orientation:
    a decreasing branch's cell masses land in the mirrored cells, and every
    branch's cell masses are taken in absolute value, as a step made for
    densities only would."""
    out = sum(np.abs(_apply_images((branch,), f).values[:: int(branch[0]) if branch else 1]) for branch in plan)
    return type(f)(out, f.interval)


def _reference_images(params, f):
    """transfer._edge_images, with every branch's images: a branch that
    halves the grid takes its clipped images from inverse_branch_array."""
    lo, hi = f.interval
    return tuple((sign, np.clip(inverse_branch_array(params, b, f.edges()), lo, hi) if u is None else u)
                 for b, (sign, u) in zip(Branch, transfer._edge_images(params, f)))


def _longdouble_step(images, edges, v):
    """One transfer step of the cell values v (np.longdouble) on the float64
    edge images: the prefix integral, its linear interpolation and each
    branch's differences times its orientation sign, all in np.longdouble."""
    e = edges.astype(np.longdouble)
    w = e[1] - e[0]
    prefix = np.concatenate([[np.longdouble(0)], np.cumsum(v) * w])
    new = np.zeros(len(v), dtype=np.longdouble)
    for sign, u in images:
        k = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(v) - 1)
        new += sign * np.diff(prefix[k] + (u - e[k]) * v[k])
    return new / w


def _longdouble_pair_curve(seq, f, g, n):
    """TV of f and g pushed separately through the same discrete operator
    (the float64 edge images), in np.longdouble."""
    edges = f.edges()
    w = np.longdouble(f.cell_width)
    pair = [f.values.astype(np.longdouble), g.values.astype(np.longdouble)]
    out = [0.5 * np.sum(np.abs(pair[0] - pair[1])) * w]
    for j in range(n):
        images = _reference_images(seqs.param_at(seq, 1 + j), f)
        pair = [_longdouble_step(images, edges, v) for v in pair]
        out.append(0.5 * np.sum(np.abs(pair[0] - pair[1])) * w)
    return np.array(out)


class TestSignedDifference:
    @settings(max_examples=80, deadline=2000)
    @given(
        params=st.sampled_from(_FAMILY_MAPS),
        a=hnp.arrays(np.float64, N, elements=st.floats(-1e6, 1e6)),
    )
    def test_signed_push_keeps_mass_and_contracts_l1(self, params, a):
        assume(np.sum(np.abs(a)) > 0.0)
        lo, hi = state_interval(params)
        h = _SignedGrid(a / np.sum(np.abs(a)) * (N / (hi - lo)), (lo, hi))
        ph = push_density(params, h)
        assert isinstance(ph, _SignedGrid)
        l1 = 2.0 * _half_l1(h)
        assert abs(ph.mass - h.mass) <= 1e-12 * l1
        assert 2.0 * _half_l1(ph) <= (1.0 + 1e-12) * l1

    @pytest.mark.parametrize("family", sorted(_PAIRS))
    def test_dropping_the_sign_fails_the_checks(self, family, monkeypatch):
        seq = seqs.constant(_PAIRS[family][0])
        f, g = _holder_pair(family)
        monkeypatch.setattr(transfer, "_apply_images", _orientation_dropping_apply)
        curve = memory_loss_curve(seq, f, g, STEPS).values
        assert np.max(np.abs(curve - _pair_curve(seq, f, g, STEPS))) > _PAIR_BOUND
        h = _SignedGrid(f.values - g.values, f.interval)
        assert abs(push_density(_PAIRS[family][0], h).mass) > 1e-12 * 2.0 * _half_l1(h)

    def test_signed_differences_are_not_densities(self):
        with pytest.raises(errors.ParamError, match="nonnegative"):
            GridDensity(np.full(N, -1.0), (0.0, 1.0))
        assert _SignedGrid(np.full(N, -1.0), (0.0, 1.0)).mass == pytest.approx(-1.0)
        with pytest.raises(errors.ParamError, match="power of two"):
            _SignedGrid(np.ones(1000), (0.0, 1.0))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is not wider than float64 here")
    @pytest.mark.parametrize("family", ["lsv", "pikovsky", "gh"])
    def test_signed_curve_is_closer_to_a_longdouble_reference(self, family):
        seq = seqs.constant(_PAIRS[family][0])
        f, g = _holder_pair(family)
        n = 100
        ref = _longdouble_pair_curve(seq, f, g, n)

        def worst(curve):
            return float(np.max(np.abs(curve - ref) / ref))

        assert worst(memory_loss_curve(seq, f, g, n).values) < worst(_pair_curve(seq, f, g, n))


# -- the interpolation plan against a np.longdouble step ------------------------------


def _assert_same_floats(got, ref):
    assert type(got) is type(ref)
    assert np.array_equal(got.values, ref.values)
    assert np.array_equal(np.signbit(got.values), np.signbit(ref.values))


def _assert_near_longdouble_step(params, f, plan=None):
    """The step of f is within 1e-14 of its largest cell value of the same
    step in np.longdouble, on the same edge images."""
    ref = _longdouble_step(_reference_images(params, f), f.edges(), f.values.astype(np.longdouble))
    got = _apply_images(plan or _edge_plan(params, f), f)
    assert type(got) is type(f)
    assert np.max(np.abs(got.values - ref)) <= 1e-14 * np.max(np.abs(ref))


_INTERVALS = [(0.0, 1.0), (-1.0, 1.0)]
_LONGDOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                                 reason="np.longdouble is not wider than float64 here")


class TestInterpolationPlan:
    @_LONGDOUBLE
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("params", _FAMILY_MAPS, ids=_MAP_IDS)
    def test_one_step_matches_a_longdouble_step(self, params, signed):
        # differencing the O(1) prefix integral at both ends of every image
        # misses this bound in 11 of these 12 cases, by up to 3e-12
        v = np.random.default_rng(5).uniform(-1.0 if signed else 0.0, 1.0, 2**15)
        _assert_near_longdouble_step(params, (_SignedGrid if signed else GridDensity)(v, state_interval(params)))

    @_LONGDOUBLE
    @pytest.mark.parametrize("signed", [False, True])
    def test_preimages_spanning_whole_cells(self, signed):
        # near its critical point 1/2 the Cui right branch stretches a cell's
        # preimage over many cells: a reduceat over f adds their values
        params, n = cui(0.5, 3.0), 2**10
        f = make_density("uniform", n)
        plan = _edge_plan(params, f)
        _, j, _, _, cells, _ = plan[1]  # the right branch
        assert len(cells) > 0 and np.max(np.diff(j)) >= 2
        v = np.random.default_rng(7).uniform(-1.0 if signed else 0.0, 1.0, n)
        _assert_near_longdouble_step(params, (_SignedGrid if signed else GridDensity)(v, f.interval), plan)

    @_LONGDOUBLE
    @pytest.mark.parametrize("interval", _INTERVALS)
    def test_wide_preimages_of_either_orientation_up_to_hi(self, interval, monkeypatch):
        # expanding images, one increasing and one decreasing, clipped at lo
        # and hi: wide preimages next to an image at hi (j = N) on both
        f = _SignedGrid(np.random.default_rng(3).uniform(-1.0, 1.0, N), interval)
        lo, hi = interval
        e = f.edges()
        mid = 0.5 * (lo + hi)
        images = ((1.0, np.clip(mid + 2.5 * (e - mid), lo, hi)), (-1.0, np.clip(mid - 3.0 * (e - mid), lo, hi)))
        monkeypatch.setattr(transfer, "_edge_images", lambda params, f: tuple((s, u.copy()) for s, u in images))
        plan = _edge_plan(None, f)
        for sign, j, _, _, cells, spans in plan:
            assert np.any(np.maximum(j[cells], j[cells + 1]) == N)  # a wide preimage reaches hi
            assert spans[-1] < N
        _assert_near_longdouble_step(None, f, plan)

    @settings(max_examples=30, deadline=None)
    @given(
        params=st.one_of(st.floats(0.01, 0.99).map(lsv), st.builds(cui, st.floats(0.01, 0.99), st.floats(1.0, 3.0)),
                         st.floats(1.01, 2.99).map(pikovsky), st.just(grossmann_horner())),
        n=st.sampled_from([2**10, 2**14, 2**15, 2**16]),  # 2**14: a one-edge last block
    )
    def test_block_filled_images_are_the_whole_array_images(self, params, n):
        f = make_density("uniform", n, state_interval(params))
        lo, hi = f.interval
        for branch, (_, u) in zip(Branch, _edge_images(params, f)):
            if u is None:  # a branch that halves the grid has no images
                continue
            whole = np.clip(inverse_branch_array(params, branch, f.edges()), lo, hi)
            assert np.array_equal(u.view(np.int64), whole.view(np.int64))

    def test_evolve_memory_peak(self):
        # the plan (an index, a fraction and a one-byte crossing flag per
        # branch) and the density in and out: about 6.4 arrays of N+1 floats,
        # where a step that kept a prefix integral took 7.3 and a per-cell
        # rise table with whole-array plan temporaries 9.1
        n = 2**18
        seq = seqs.constant(lsv(0.5))
        tracemalloc.start()
        try:
            evolve(seq, make_density("holder", n), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.0 * 8 * (n + 1)

    def test_evolve_memory_peak_with_int32_plan_indices(self):
        # measured 6.26 arrays of N+1 floats with a 4-byte plan index (7.01
        # with an 8-byte one); the bound leaves a margin of about 8%
        n = 2**16
        seq = seqs.constant(lsv(0.5))
        tracemalloc.start()
        try:
            evolve(seq, make_density("holder", n), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.75 * 8 * (n + 1)

    @pytest.mark.parametrize("interval", _INTERVALS)
    def test_grid_edges_are_exact_multiples_of_the_cell_width(self, interval):
        for k in range(10, 21):
            f = GridDensity(np.ones(2**k), interval)
            e = f.edges()
            assert np.all(np.diff(e) == f.cell_width)
            assert np.array_equal(e, interval[0] + np.arange(2**k + 1) * f.cell_width)

    @pytest.mark.parametrize("k", [10, 15, 20])
    @pytest.mark.parametrize("interval", _INTERVALS)
    def test_cell_index_is_the_search_index(self, interval, k, monkeypatch):
        f = GridDensity(np.ones(2**k), interval)
        e = f.edges()
        lo, hi = interval
        inside = np.random.default_rng(k).uniform(lo, hi, 2**k)
        u = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), inside,
                            np.full(3, lo), np.full(3, hi)])
        u = np.clip(u, lo, hi)
        monkeypatch.setattr(transfer, "_edge_images", lambda params, f: ((1.0, u.copy()),))
        ((_, j, t, *_),) = _edge_plan(None, f)
        assert j.dtype == np.int32
        assert np.array_equal(j, np.searchsorted(e, u, side="right") - 1)
        assert np.array_equal(t, (u - e[j]) / f.cell_width)
        assert np.all(j[u == hi] == f.n_cells) and np.all(t[u == hi] == 0.0)
        # u - edges[j] may round up to w on (-1, 1), as it does in np.interp
        assert np.all((t >= 0.0) & (t <= 1.0))

    @pytest.mark.parametrize("params", _FAMILY_MAPS, ids=_MAP_IDS)
    def test_cell_index_of_every_branch_image(self, params):
        f = make_density("uniform", 2**12, state_interval(params))
        images, plan = _edge_images(params, f), _edge_plan(params, f)
        for (sign, u), branch in zip(images, plan):
            if branch is None:  # a branch that halves the grid has no images and no plan
                assert u is None
                continue
            plan_sign, j, *_ = branch
            assert sign == plan_sign
            assert np.array_equal(j, np.searchsorted(f.edges(), u, side="right") - 1)
        # the GH right branch is decreasing
        assert [s for s, _ in images] == ([1.0, -1.0] if params == grossmann_horner() else [1.0, 1.0])

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("params", _FAMILY_MAPS, ids=_MAP_IDS)
    def test_the_step_reads_no_scratch_it_did_not_write(self, params, signed, monkeypatch):
        # every float np.empty hands out during the step is NaN, so a read of
        # an unwritten entry (say a block row past its last cell) shows up in
        # the output
        n = 2**15
        v = np.random.default_rng(5).uniform(-1.0 if signed else 0.0, 1.0, n)
        f = (_SignedGrid if signed else GridDensity)(v, state_interval(params))
        plan = _edge_plan(params, f)
        ref = _apply_images(plan, f)
        # some image sits at hi, or a branch that halves the grid reads up to the last cell
        assert any(branch is None or np.any(branch[1] == n) for branch in plan)
        empty = np.empty

        def poisoned(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        _assert_same_floats(_apply_images(plan, f), ref)


# -- the LSV right branch, stepped in closed form ------------------------------------

# signed zeros, subnormals (odd and even multiples of the least one), the
# least normal and O(1) values, of both signs
_SPECIAL = np.array([0.0, 5e-324, 1.5e-323, 1e-310, 2.2e-308, 1.0])
_SPECIAL = np.concatenate([_SPECIAL, -_SPECIAL])


class TestHalvingBranch:
    @settings(max_examples=20, deadline=None)
    @given(gammas=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=2),
           n=st.sampled_from([2**10, 2**14, 2**15]),  # 2**14: a one-edge last block
           special=st.floats(0.0, 1.0), scale=st.integers(-320, 0), seed=st.integers(0, 2**32 - 1))
    def test_every_step_is_the_generic_plans_step(self, gammas, n, special, scale, seed):
        # a share `special` of the cells special values, the rest uniform in
        # (-1, 1) times 10**scale: every |value| <= 1, so the TV stays <= 1/2
        rng = np.random.default_rng(seed)
        v = np.where(rng.uniform(size=n) < special, rng.choice(_SPECIAL, n), rng.uniform(-1.0, 1.0, n) * 10.0**scale)
        seq = seqs.periodic([lsv(g) for g in gammas])
        f, zero = _SignedGrid(v, (0.0, 1.0)), GridDensity(np.zeros(n))

        def calls():
            return (push_density(lsv(gammas[0]), f), evolve(seq, f, 3),
                    memory_loss_curve(seq, f, zero, 3), mixing_mass(seq, 1, 3, n_cells=n))

        closed_plan = _edge_plan(lsv(gammas[0]), f)
        assert [b is None for b in closed_plan] == [False, True]
        closed = calls()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "halves_grid", lambda params, branch: False)
            generic_plan = _edge_plan(lsv(gammas[0]), f)
            assert None not in generic_plan
            generic = calls()
        # the right branch alone writes its shares, signed zeros included
        _assert_same_floats(_apply_images(closed_plan[1:], f), _apply_images(generic_plan[1:], f))
        for got, ref in zip(closed[:2], generic[:2]):
            _assert_same_floats(got, ref)
        for got, ref in zip(closed[2:], generic[2:]):
            assert np.array_equal(got.values.view(np.int64), ref.values.view(np.int64))

    def test_evolve_memory_peak_with_one_plan_per_map(self):
        # one branch's plan (1.63 arrays of N+1), the held start, two outputs
        # and the block rows: measured 4.63 arrays of N+1 floats, where a plan
        # of both branches read 6.26
        n = 2**16
        seq, f = seqs.constant(lsv(0.5)), make_density("holder", n)
        tracemalloc.start()
        try:
            evolve(seq, f, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * 8 * (n + 1)


# -- a run's step arrays, made once and reused at every step -----------------------

_FAMILY_PARAMS = {
    "lsv": st.floats(0.01, 0.99).map(lsv),
    "cui": st.builds(cui, st.floats(0.01, 0.99), st.floats(1.0, 3.0)),
    "pikovsky": st.floats(1.01, 2.99).map(pikovsky),
    "gh": st.just(grossmann_horner()),  # the family's one map, so it alternates with itself
}


@st.composite
def _alternating_maps(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    a = draw(_FAMILY_PARAMS[family])
    b = draw(_FAMILY_PARAMS[family].filter(lambda q: q != a or family == "gh"))
    return [(a, b)[i % 2] for i in range(draw(st.integers(1, 6)))]


def _poison_empty(monkeypatch):
    """Make every float array np.empty hands out NaN, so a read of an entry
    the code did not write shows up in its output."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)


class TestHandOffChecks:
    """A run does not check the density of each step, only what it hands back."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @np.errstate(invalid="ignore")  # inf times a fraction 0
    def test_a_non_finite_start_is_a_param_error(self, bad, monkeypatch):
        seq = seqs.constant(lsv(0.5))
        f = make_density("holder", N)
        f.values[0] = bad  # after the check at construction
        with pytest.raises(errors.ParamError, match="finite"):
            push_density(lsv(0.5), f)
        steps = transfer._steps

        def poisoned(maps, start):  # the start a run steps from, past every check before the run
            start.values[0] = bad
            return steps(maps, start)

        monkeypatch.setattr(transfer, "_steps", poisoned)
        runs = {
            "evolve": lambda: evolve(seq, make_density("holder", N), 3),
            "memory_loss_curve": lambda: memory_loss_curve(seq, make_density("holder", N),
                                                           make_density("uniform", N), 3),
            "mixing_mass": lambda: mixing_mass(seq, 1, 3, n_cells=N),  # the start's cell 0 lies outside Y
        }
        for name, run in runs.items():
            with pytest.raises(errors.ParamError, match="finite"):
                run()

    @np.errstate(over="ignore", invalid="ignore")
    def test_a_step_that_overflows_is_a_param_error(self):
        # a finite start whose pushforward is not: LSV's two branches add about 1.5 x the cell values
        f = GridDensity(np.full(N, 1.5e308))
        for call in (lambda: push_density(lsv(0.5), f), lambda: evolve(seqs.constant(lsv(0.5)), f, 2)):
            with pytest.raises(errors.ParamError, match="finite"):
                call()


class TestRunArrays:
    @settings(max_examples=30, deadline=None)
    @given(maps=_alternating_maps(), n=st.sampled_from([2**10, 2**13, 2**15]), signed=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_every_yielded_density_is_a_chain_of_direct_pushes(self, maps, n, signed, seed):
        v = np.random.default_rng(seed).uniform(-1.0 if signed else 0.0, 1.0, n)
        start = (_SignedGrid if signed else GridDensity)(v, state_interval(maps[0]))
        before = start.values.copy()
        ref = prev = start
        for p, got in zip(maps, transfer._steps(maps, start), strict=True):
            _assert_same_floats(prev, ref)  # a step leaves its input as it was
            ref = push_density(p, ref)  # between steps no run is in progress: a direct call
            _assert_same_floats(got, ref)
            prev = got
        assert np.array_equal(start.values.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("family", sorted(_PAIRS))
    def test_runs_read_no_scratch_they_did_not_write(self, family, monkeypatch):
        seq = _sequence(family, "periodic")
        f, g = (make_density("holder", 2**15, state_interval(_PAIRS[family][0]), profile=p) for p in (1, 2))
        ref = memory_loss_curve(seq, f, g, 5).values, evolve(seq, f, 5), mixing_mass(seq, 1, 5, n_cells=2**15)
        _poison_empty(monkeypatch)
        assert np.array_equal(memory_loss_curve(seq, f, g, 5).values, ref[0])
        _assert_same_floats(evolve(seq, f, 5), ref[1])
        assert np.array_equal(mixing_mass(seq, 1, 5, n_cells=2**15).values, ref[2].values)

    def test_no_step_after_the_second_allocates_an_n_sized_array(self, monkeypatch):
        n = 2**15
        seq = _sequence("lsv", "periodic")  # two plans, made at steps 1 and 2
        f, g = make_density("holder", n, profile=1), make_density("holder", n, profile=2)
        step, big = [0], []
        push = transfer.push_density

        def counted_push(params, d):
            step[0] += 1
            return push(params, d)

        def counted(alloc):
            def wrapper(*args, **kwargs):
                out = alloc(*args, **kwargs)
                if out.size >= n:
                    big.append(step[0])
                return out

            return wrapper

        monkeypatch.setattr(transfer, "push_density", counted_push)
        monkeypatch.setattr(np, "empty", counted(np.empty))
        monkeypatch.setattr(np, "zeros", counted(np.zeros))
        memory_loss_curve(seq, f, g, 50)
        assert step[0] == 50
        assert [s for s in big if s > 2] == []

    def test_reruns_and_interleaved_runs_are_the_same(self):
        seq = _sequence("pikovsky", "iid")
        f, g = _holder_pair("pikovsky")
        first = memory_loss_curve(seq, f, g, 20).values
        assert np.array_equal(memory_loss_curve(seq, f, g, 20).values, first)
        # two runs advanced in turn each keep their own arrays
        maps = transfer._maps(seq, 1, 20)
        h = _SignedGrid(f.values - g.values, f.interval)
        for a, b in zip(transfer._steps(maps, h), transfer._steps(maps, h)):
            assert a.values is not b.values
            assert _half_l1(a) == _half_l1(b)
        assert np.array_equal([_half_l1(a) for a in transfer._steps(maps, h)], first[1:])


# -- stated depths: what each entry point reads of an explicit sequence ------------


def _holder_curve(seq, k, n_max):
    f, g = (make_density("holder", N, state_interval(seq.entries[0]), profile=p) for p in (1, 2))
    return memory_loss_curve(seq, f, g, n_max, start=k)


# each entry point run at base k to depth n, and the entries it reads past k + n - 1
_DEPTHS = {
    "return_time_tail": (lambda seq, k, n, base: return_time_tail(seq, k, n, base), 0),
    "return_time_tail_mc": (lambda seq, k, n, base: return_time_tail_mc(seq, k, n, 1000, 11, base), 0),
    "memory_loss_curve": (lambda seq, k, n, base: _holder_curve(seq, k, n), 0),
    "mixing_mass": (lambda seq, k, n, base: mixing_mass(seq, k, n, n_cells=N), 1),
}


@st.composite
def _explicit_maps(draw):
    """Maps of one family, long enough for every depth drawn with them."""
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    support = draw(st.lists(_FAMILY_PARAMS[family], min_size=1, max_size=3))
    k, n_max = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    maps = draw(st.lists(st.sampled_from(support), min_size=k + n_max + 5, max_size=k + n_max + 5))
    return maps, k, n_max


class TestStatedDepth:
    @pytest.mark.parametrize("entry", sorted(_DEPTHS))
    @settings(max_examples=60, deadline=None)
    @given(case=_explicit_maps(), base=st.sampled_from(["m_k", "lebesgue"]))
    def test_reads_exactly_its_stated_depth(self, entry, case, base):
        run, past = _DEPTHS[entry]
        maps, k, n_max = case
        depth = k - 1 + n_max + past  # entries 1 .. depth
        assume(depth > 1)
        longer = run(seqs.explicit(maps), k, n_max, base).values
        cut = run(seqs.explicit(maps[:depth]), k, n_max, base).values
        assert np.array_equal(cut.view(np.int64), longer.view(np.int64))
        with pytest.raises(errors.DepthError):
            run(seqs.explicit(maps[: depth - 1]), k, n_max, base)
