"""Acceptance suite: one test per criterion, at full scale, with the
stated tolerances and runtime budgets.  Run with ``pytest -s`` to see the
per-criterion pass/fail lines."""

import math
import time

import numpy as np

from memloss import sequences as seqs
from memloss.coupling import (
    alpha_weights,
    build_model,
    check_stail_bound,
    degenerate_family,
    hat_envelope,
    make_constants,
    s_tail_dp,
    s_tail_mc,
    synthetic_poly_family,
)
from memloss.maps import grossmann_horner, lsv, pikovsky
from memloss.partitions import (
    TailTable,
    fit_power_law,
    lsv_preimage_points,
    mc_zscores,
    return_time_tail,
    return_time_tail_mc,
)
from memloss.transfer import make_density, memory_loss_curve, mixing_mass, push_density


def _report(num, desc, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {num:2d} [{desc}] {detail} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= limit, f"criterion {num} runtime {elapsed:.1f}s over {limit}s"


def test_criterion_01_lsv_endpoint_tails():
    t0 = time.perf_counter()
    ep = lsv_preimage_points(seqs.constant(lsv(0.5)), 1, 10_000)
    table = TailTable(values=np.minimum.accumulate(np.minimum(ep.x, 1.0)), label="r")
    fit = fit_power_law(table, 100, 10_000)
    elapsed = time.perf_counter() - t0
    ok = abs(fit.slope - (-2.0)) <= 0.10
    _report(1, "LSV endpoint decay", ok, f"slope={fit.slope:.3f} target -2.00+-0.10", elapsed, 1.0)


def test_criterion_02_pikovsky_lebesgue_invariance():
    t0 = time.perf_counter()
    s = seqs.constant(pikovsky(1.5))
    u = make_density("uniform", 2**12, (-1.0, 1.0))
    one = push_density(pikovsky(1.5), u)
    dev1 = float(np.max(np.abs(one.values - u.values)))
    f = u
    for _ in range(50):
        f = push_density(pikovsky(1.5), f)
    dev50 = float(np.max(np.abs(f.values - u.values)))
    elapsed = time.perf_counter() - t0
    ok = dev1 <= 1e-6 and dev50 <= 5e-5
    _report(2, "Pikovsky Lebesgue invariance", ok,
            f"one-step dev={dev1:.2e} (<=1e-6), 50-step dev={dev50:.2e} (<=5e-5)", elapsed, 10.0)


def test_criterion_03_pikovsky_return_tails():
    t0 = time.perf_counter()
    table = return_time_tail(seqs.constant(pikovsky(2.0)), 1, 2000, base="lebesgue")
    fit = fit_power_law(table, 100, 2000)
    elapsed = time.perf_counter() - t0
    ok = abs(fit.slope - (-1.0)) <= 0.15
    _report(3, "Pikovsky return tails", ok, f"slope={fit.slope:.3f} target -1.00+-0.15", elapsed, 5.0)


def test_criterion_04_gh_return_tails():
    t0 = time.perf_counter()
    s = seqs.constant(grossmann_horner())
    fit_m = fit_power_law(return_time_tail(s, 1, 2000, "m_k"), 100, 2000)
    fit_l = fit_power_law(return_time_tail(s, 1, 2000, "lebesgue"), 100, 2000)
    elapsed = time.perf_counter() - t0
    ok = abs(fit_m.slope - (-2.0)) <= 0.2 and abs(fit_l.slope - (-1.0)) <= 0.15
    _report(4, "GH return tails", ok,
            f"m_k slope={fit_m.slope:.3f} (-2.0+-0.2), lebesgue slope={fit_l.slope:.3f} (-1.0+-0.15)",
            elapsed, 10.0)


def test_criterion_05_memory_loss_stationary_lsv():
    t0 = time.perf_counter()
    s = seqs.constant(lsv(0.5))
    n_grid = 2**15
    f = make_density("holder", n_grid, profile=1)
    g = make_density("holder", n_grid, profile=2)
    c = make_density("cone", n_grid, beta=0.5)
    fit_pair = fit_power_law(memory_loss_curve(s, f, g, 200), 10, 200)
    fit_cone = fit_power_law(memory_loss_curve(s, f, c, 200), 10, 200)
    elapsed = time.perf_counter() - t0
    ok = -2.4 <= fit_pair.slope <= -1.6 and -1.3 <= fit_cone.slope <= -0.7
    _report(5, "LSV memory loss", ok,
            f"holder-pair slope={fit_pair.slope:.3f} in [-2.4,-1.6], "
            f"holder-cone slope={fit_cone.slope:.3f} in [-1.3,-0.7]", elapsed, 300.0)


def test_criterion_06_nonstationary_improvement():
    t0 = time.perf_counter()
    s = seqs.periodic([lsv(0.5), lsv(0.8)])
    n_grid = 2**15
    f = make_density("holder", n_grid, profile=1)
    g = make_density("holder", n_grid, profile=2)
    fit = fit_power_law(memory_loss_curve(s, f, g, 200), 10, 200)
    elapsed = time.perf_counter() - t0
    ok = fit.slope <= -1.5
    _report(6, "nonstationary improvement", ok,
            f"slope={fit.slope:.3f} <= -1.5 (worst-case uniform rate -1.25)", elapsed, 300.0)


def test_criterion_07_mixing_floor():
    t0 = time.perf_counter()
    table = mixing_mass(seqs.constant(lsv(0.5)), 1, 200, n_cells=2**12)
    floor = float(np.min(table.values[2:]))
    peak = table.notes["raw_max"]
    elapsed = time.perf_counter() - t0
    ok = floor >= 0.05 and peak <= 1.0 + 1e-8
    _report(7, "mixing floor", ok, f"min over [2,200]={floor:.3f} (>=0.05), max={peak:.6f}", elapsed, 60.0)


def test_criterion_08_coupling_exactness():
    t0 = time.perf_counter()
    c = make_constants(theta=0.5, n0=2, K=0.5)
    model = build_model(degenerate_family(n_rows=130, depth=150), c, horizon=120)
    dp = s_tail_dp(model, 120)
    worst = max(abs(dp.values[2 * m] - 0.5 ** (m - 1)) for m in range(1, 61))
    worst_z = 0.0
    for bp in (1.5, 2.0, 2.5):
        fam = synthetic_poly_family(bp, n_rows=230, depth=460)
        model = build_model(fam, make_constants(theta=0.25, n0=1, K=0.5), 220)
        dpb = s_tail_dp(model, 200)
        mcb = s_tail_mc(model, 200, 100_000, seed=17)
        z = mc_zscores(dpb, mcb)
        worst_z = max(worst_z, float(np.nanmax(np.abs(z))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_z <= 4.0
    _report(8, "coupling exactness", ok,
            f"degenerate max err={worst:.1e} (<=1e-12), DP-vs-MC max z={worst_z:.2f} (<=4)", elapsed, 60.0)


def test_criterion_09_stail_plateau():
    t0 = time.perf_counter()
    fam = synthetic_poly_family(2.0, n_rows=1010, depth=2030)
    model = build_model(fam, make_constants(theta=0.25, n0=1, K=0.5), 1001)
    dp = s_tail_dp(model, 1000)
    rep = check_stail_bound(dp, 2.0, 0.0, 1)
    monotone_after = bool(np.all(np.diff(rep.ratios[rep.argmax_n - 1 :]) <= 1e-9))
    elapsed = time.perf_counter() - t0
    ok = rep.argmax_n <= 500 and monotone_after
    _report(9, "random-sum tail plateau", ok,
            f"sup={rep.sup_ratio:.1f} at n={rep.argmax_n} (<=500), nonincreasing beyond={monotone_after}",
            elapsed, 120.0)


def test_criterion_10_weight_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst_sum = 0.0
    all_nonneg = True
    for _ in range(10):
        raw = np.sort(rng.uniform(0.0, 1.0, size=200))[::-1]
        raw[0] = 1.0
        w = alpha_weights(hat_envelope(raw), 1, 150)
        total = math.fsum(w.alphas.tolist()) + w.residual
        worst_sum = max(worst_sum, abs(total - 1.0))
        all_nonneg &= bool(np.all(w.alphas >= 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst_sum <= 1e-12 and all_nonneg
    _report(10, "weight completeness", ok,
            f"worst |sum-1|={worst_sum:.1e} (<=1e-12), nonneg={all_nonneg}", elapsed, 1.0)


def test_criterion_11_oracle_cross_checks():
    t0 = time.perf_counter()
    worst = 0.0
    s1 = seqs.constant(lsv(0.5))
    exact = return_time_tail(s1, 1, 400, "m_k")
    mc = return_time_tail_mc(s1, 1, 400, 100_000, seed=23, base="m_k")
    z1 = mc_zscores(exact, mc)  # 100k samples: a floor of 1e-4
    worst = max(worst, float(np.nanmax(np.abs(z1))))
    s2 = seqs.constant(pikovsky(2.0))
    exact2 = return_time_tail(s2, 1, 256, "lebesgue")
    mc2 = return_time_tail_mc(s2, 1, 256, 100_000, seed=29, base="lebesgue")
    z2 = mc_zscores(exact2, mc2)
    worst = max(worst, float(np.nanmax(np.abs(z2))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0
    _report(11, "exact vs MC tails", ok, f"max z={worst:.2f} (<=4) at tails >= 1e-4", elapsed, 120.0)
