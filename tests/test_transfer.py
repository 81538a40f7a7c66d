import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from memloss import errors, transfer
from memloss import sequences as seqs
from memloss.maps import cui, grossmann_horner, lsv, pikovsky, state_interval
from memloss.partitions import fit_power_law, reference_set
from memloss.transfer import (
    GridDensity,
    _apply_images,
    _edge_images,
    _edge_plan,
    _SignedGrid,
    _snap_intervals,
    cone_membership,
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
        d = make_density("cone", N, beta=0.5)
        a_beta = 2.0**0.5 * 2.5 + 1.0
        assert cone_membership(d, 0.5, a_beta).passed

    def test_unknown_kind(self):
        with pytest.raises(errors.ParamError):
            make_density("spline", N)


class TestConeMembership:
    def test_constant_passes(self):
        d = GridDensity(np.ones(N), (0.0, 1.0))
        rep = cone_membership(d, 0.5, 4.0)
        assert rep.passed

    def test_increasing_fails_decreasing_flag(self):
        vals = np.linspace(0.5, 1.5, N)
        d = GridDensity(vals / GridDensity(vals).mass, (0.0, 1.0))
        rep = cone_membership(d, 0.5, 4.0)
        assert not rep.nonincreasing and rep.worst_increase > 0

    def test_low_a_beta_warns(self):
        d = GridDensity(np.ones(N), (0.0, 1.0))
        with pytest.warns(UserWarning):
            cone_membership(d, 0.5, 1.0)


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

    def test_pikovsky_snap_reported(self):
        mm = mixing_mass(seqs.constant(pikovsky(1.7)), 1, 10, n_cells=N)
        assert mm.notes["worst_snap"] <= mm.values.size and mm.notes["worst_snap"] >= 0.0
        assert mm.values[0] == pytest.approx(1.0, abs=1e-12)


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


# Each pushed cell mass is a difference of prefix integrals of size <= 1 (the
# mass): a few roundings of eps per branch, as neighbouring prefix values
# share their accumulated error.  A step is an L1 contraction, so the L1
# errors of f, g and h add up over the steps, at most about 4 eps per cell
# per step each; TV is half of L1.
_PAIR_BOUND = 0.5 * 3 * 4 * STEPS * N * np.finfo(float).eps


def _mixing_reference(seq, k, n_max, n_cells):
    """mixing_mass as a loop of push_density."""
    p0 = seqs.param_at(seq, k)
    lo, hi = state_interval(p0)
    proto = GridDensity(np.full(n_cells, 1.0 / (hi - lo)), (lo, hi))
    vals = np.zeros(n_cells)
    for ia, ib in _snap_intervals(reference_set(p0), proto)[0]:
        vals[ia:ib] = 1.0
    f = GridDensity(vals / (float(np.sum(vals)) * proto.cell_width), (lo, hi))
    out = []
    for n in range(n_max + 1):
        pn = seqs.param_at(seq, k + n)
        cells, _ = _snap_intervals(reference_set(pn), f)
        out.append(sum(float(np.sum(f.values[ia:ib])) * f.cell_width for ia, ib in cells))
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


def _unsigned_apply(plan, f):
    """Mutant of transfer._apply_images that drops the branch signs."""
    w = f.cell_width
    pre = np.concatenate([[0.0], np.cumsum(f.values) * w])
    pre = np.append(pre, pre[-1])
    out = sum(np.abs(np.diff((pre[j + 1] - pre[j]) * t + pre[j])) for _, j, t in plan)
    return type(f)(out / w, f.interval)


def _longdouble_pair_curve(seq, f, g, n):
    """TV of f and g pushed separately through the same discrete operator
    (the float64 edge images), with the prefix integral, the linear
    interpolation and the differences in np.longdouble."""
    edges = f.edges()
    e = edges.astype(np.longdouble)
    w = np.longdouble(f.cell_width)
    pair = [f.values.astype(np.longdouble), g.values.astype(np.longdouble)]
    out = [0.5 * np.sum(np.abs(pair[0] - pair[1])) * w]
    for j in range(n):
        images = _edge_images(seqs.param_at(seq, 1 + j), f)
        for i, v in enumerate(pair):
            prefix = np.concatenate([[np.longdouble(0)], np.cumsum(v) * w])
            new = np.zeros(len(v), dtype=np.longdouble)
            for _, u in images:
                k = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(v) - 1)
                r = prefix[k] + (u - e[k]) * (prefix[k + 1] - prefix[k]) / (e[k + 1] - e[k])
                new += np.abs(np.diff(r))
            pair[i] = new / w
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
        monkeypatch.setattr(transfer, "_apply_images", _unsigned_apply)
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


# -- the interpolation plan against np.interp -----------------------------------------


def _reference_apply(images, f):
    """transfer._apply_images before the interpolation plan: np.interp on the
    edge images."""
    edges = f.edges()
    prefix = np.concatenate([[0.0], np.cumsum(f.values) * f.cell_width])
    out = np.zeros(f.n_cells)
    for sign, u in images:
        d = np.diff(np.interp(u, edges, prefix))
        out += sign * d if isinstance(f, _SignedGrid) else np.abs(d)
    return type(f)(out / f.cell_width, f.interval)


def _assert_same_floats(got, ref):
    assert type(got) is type(ref)
    assert np.array_equal(got.values, ref.values)
    assert np.array_equal(np.signbit(got.values), np.signbit(ref.values))


_INTERVALS = [(0.0, 1.0), (-1.0, 1.0)]
_SPECIAL_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.finfo(float).tiny]


class TestInterpolationPlan:
    @settings(max_examples=40, deadline=None)
    @given(
        params=st.sampled_from(_FAMILY_MAPS),
        n=st.sampled_from([2**10, 2**14, 2**15, 2**16]),  # one block, its edge, two and four blocks
        signed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        special=st.sampled_from(_SPECIAL_CELLS),
        share=st.floats(0.0, 1.0),
        run=st.floats(0.0, 1.0),
    )
    # all cells -0.0: at images on exact edges np.interp returns the prefix
    # entry -0.0 where the plan gives -0.0 + 0 * slope = +0.0; the signs of
    # these zeros cancel in the cell differences and never reach the step
    @example(params=lsv(0.3), n=2**10, signed=False, seed=0, special=-0.0, share=0.0, run=1.0)
    @example(params=grossmann_horner(), n=2**15, signed=True, seed=0, special=-0.0, share=0.0, run=1.0)
    def test_plan_push_equals_np_interp(self, params, n, signed, seed, special, share, run):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.0 if signed else 0.0, 1.0, n)
        v[rng.random(n) < share] = special
        v[: int(run * n)] = special  # a prefix integral that is zero, -0.0 or subnormal
        f = (_SignedGrid if signed else GridDensity)(v, state_interval(params))
        _assert_same_floats(_apply_images(_edge_plan(params, f), f),
                            _reference_apply(_edge_images(params, f), f))

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
        ((_, j, t),) = _edge_plan(None, f)
        assert j.dtype == np.intp
        assert np.array_equal(j, np.searchsorted(e, u, side="right") - 1)
        assert np.array_equal(t, (u - e[j]) / f.cell_width)
        assert np.all(j[u == hi] == f.n_cells) and np.all(t[u == hi] == 0.0)
        # u - edges[j] may round up to w on (-1, 1), as it does in np.interp
        assert np.all((t >= 0.0) & (t <= 1.0))

    @pytest.mark.parametrize("params", _FAMILY_MAPS, ids=_MAP_IDS)
    def test_cell_index_of_every_branch_image(self, params):
        f = make_density("uniform", 2**12, state_interval(params))
        images, plan = _edge_images(params, f), _edge_plan(params, f)
        for (sign, u), (plan_sign, j, _) in zip(images, plan):
            assert sign == plan_sign
            assert np.array_equal(j, np.searchsorted(f.edges(), u, side="right") - 1)
        # the GH right branch is decreasing
        assert [s for s, _ in images] == ([1.0, -1.0] if params == grossmann_horner() else [1.0, 1.0])

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("params", _FAMILY_MAPS, ids=_MAP_IDS)
    def test_the_step_reads_no_scratch_it_did_not_write(self, params, signed, monkeypatch):
        # every float np.empty hands out during the step is NaN, so a read of
        # an unwritten entry (say the prefix past hi) shows up in the output
        n = 2**15
        v = np.random.default_rng(5).uniform(-1.0 if signed else 0.0, 1.0, n)
        f = (_SignedGrid if signed else GridDensity)(v, state_interval(params))
        plan, ref = _edge_plan(params, f), _reference_apply(_edge_images(params, f), f)
        assert any(np.any(j == n) for _, j, _ in plan)  # some image sits at hi
        empty = np.empty

        def poisoned(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        _assert_same_floats(_apply_images(plan, f), ref)
