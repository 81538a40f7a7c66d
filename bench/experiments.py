"""The benchmark's workloads: fixed lists of paper experiments.

A workload is built from a seed by :func:`build`, which writes the input
files (sequence and model configs) and returns the experiment list.  The
list is the same for every seed; the seed only changes the configs'
``seed`` fields and the seeds handed to Monte Carlo runs.

Each experiment runs through memloss's public entry points
(``memloss.cli.run_cli`` in process, or the library functions the README
shows) and checks its own result with the CLI's expectation gates or with
one of the package's oracles and invariants.  A failed check raises
:class:`CheckFailed`.  No check compares against a stored reference, so
every check holds for any seed.

Why these workloads:

* ``transfer-sweep``: the transfer operator and the LSV/Cui left-inverse
  root-find do the work.  Inputs vary in reuse (one map repeated, two maps
  alternating, random maps, two experiments on one (map, grid)) and in
  working set (grids from 2**12 to 2**18 cells, against a 4 MiB L2).
  Pikovsky and GH have closed-form inverses and bypass the root-finder.
  ``coupling`` is idle.
* ``tails-coupling-sweep``: exact tails, Monte Carlo orbit oracles and a
  10**5-row CSV (``partitions``, ``sequences``, ``csvio``, and ``maps`` in
  forward evaluation on shrinking arrays), then the random-sum DP and MC
  (``coupling``).  Stationary families hit the per-shift envelope cache of
  ``conditional_tail``; the nonstationary family bypasses it.
  ``transfer`` is idle, so a transfer-only change must leave it flat.
  Tails and coupling share one workload so that each run measures about
  as long as a transfer-sweep pass: on a shared 2-vCPU host, shorter runs
  spread too widely from run to run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import memloss
import memloss.cli
from memloss import csvio

Z_MAX = 4.0  # MC-vs-exact agreement gate of the package's acceptance suite


class CheckFailed(Exception):
    """An experiment's output failed its correctness check."""


@dataclass(frozen=True)
class Experiment:
    """One paper experiment: ``run(out_dir, **params)`` runs and checks it.

    ``params`` holds everything the workload seed chose for it (argv,
    seeds), so a run record names the exact inputs.
    """

    name: str
    run: Callable[..., None]
    params: dict
    known_defect: str | None = None

    def __call__(self, out: str) -> None:
        self.run(out, **self.params)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _summary(out: str, name: str) -> dict:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _column(path: str, name: str) -> np.ndarray:
    return csvio.read_csv(path)[1][name]


# -- experiments through the CLI -------------------------------------------------------


def cli(out: str, argv: list[str]) -> None:
    """Run one CLI experiment in process; exit code 0 is its expectation gate."""
    os.makedirs(out, exist_ok=True)
    code = memloss.cli.run_cli([*argv, "--out", out])
    _check(code == 0, f"memloss {argv[0]} exited {code}")


def memloss_curve(out: str, argv: list[str], max_slope: float | None = None) -> None:
    """``memloss memloss``; the TV curve must stay in [0, 1] and never rise."""
    cli(out, ["memloss", *argv])
    tv = _column(os.path.join(out, "memloss.csv"), "tv")
    _check(bool(np.all((tv >= 0.0) & (tv <= 1.0))), "TV curve leaves [0, 1]")
    _check(bool(np.all(np.diff(tv) <= 0.0)), "TV curve increases")
    if max_slope is not None:
        slope = _summary(out, "memloss_summary.json")["metrics"]["slope"]
        _check(slope <= max_slope, f"memory-loss slope {slope:.3f} > {max_slope}")


def tails(out: str, argv: list[str], files: list[str], mc_ks: list[int] = ()) -> None:
    """``memloss tails``; every table is a return-time tail (t(0) = t(1) = 1,
    nonincreasing, in [0, 1]) and each MC oracle agrees within Z_MAX."""
    cli(out, ["tails", *argv])
    for name in files:
        t = _column(os.path.join(out, name), "value")
        _check(t[0] == 1.0 and t[1] == 1.0, f"{name}: t(0), t(1) != 1")
        _check(bool(np.all((t >= 0.0) & (t <= 1.0))), f"{name}: leaves [0, 1]")
        _check(bool(np.all(np.diff(t) <= 0.0)), f"{name}: increases")
    summary = _summary(out, "tails_summary.json") if mc_ks else {}
    for k in mc_ks:
        z = summary[f"k{k}"]["max_mc_z"]
        _check(z <= Z_MAX, f"k={k}: exact vs MC max z = {z:.2f} > {Z_MAX}")


def evolve(out: str, argv: list[str]) -> None:
    """``memloss evolve`` on [0, 1]; the evolved density keeps mass 1."""
    cli(out, ["evolve", *argv])
    v = _column(os.path.join(out, "density.csv"), "value")
    mass = float(np.sum(v)) / len(v)
    _check(abs(mass - 1.0) <= 1e-8, f"evolved mass {mass!r} != 1")


# -- experiments through the library -----------------------------------------------------


def _dp_mc_agree(dp, mc) -> None:
    z = float(np.nanmax(np.abs(memloss.mc_zscores(dp, mc))))
    _check(z <= Z_MAX, f"DP vs MC max z = {z:.2f} > {Z_MAX}")


def dp_plateau(out: str, n_max: int) -> None:
    """Stationary DP with a zero remainder whose ratio n**2 P(S >= n)
    peaks in the first half and never rises after its peak."""
    fam = memloss.synthetic_poly_family(2.0, n_rows=n_max + 10, depth=2 * n_max + 30)
    model = memloss.build_model(fam, memloss.make_constants(theta=0.25, n0=1, K=0.5), n_max + 1)
    dp = memloss.s_tail_dp(model, n_max)
    rep = memloss.check_stail_bound(dp, 2.0, 0.0, 1)
    _check(dp.notes["remainder"] == 0.0, "DP remainder is not 0")
    _check(rep.argmax_n <= n_max // 2, f"plateau argmax {rep.argmax_n} > {n_max // 2}")
    _check(bool(np.all(np.diff(rep.ratios[rep.argmax_n - 1:]) <= 1e-9)), "ratio rises after its peak")


def dp_mc_poly(out: str, beta_prime: float, n_max: int, samples: int, seed: int) -> None:
    """Stationary DP against its Monte Carlo cross-check."""
    fam = memloss.synthetic_poly_family(beta_prime, n_rows=n_max + 30, depth=2 * n_max + 60)
    model = memloss.build_model(fam, memloss.make_constants(theta=0.25, n0=1, K=0.5), n_max + 20)
    _dp_mc_agree(memloss.s_tail_dp(model, n_max), memloss.s_tail_mc(model, n_max, samples, seed))


def degenerate_exact(out: str) -> None:
    """Every increment is n0 = 2, so P(S >= 2m) = 2**-(m-1) exactly."""
    c = memloss.make_constants(theta=0.5, n0=2, K=0.5)
    model = memloss.build_model(memloss.degenerate_family(n_rows=130, depth=150), c, horizon=120)
    dp = memloss.s_tail_dp(model, 120)
    worst = max(abs(dp.values[2 * m] - 0.5 ** (m - 1)) for m in range(1, 61))
    _check(worst <= 1e-12, f"degenerate DP misses its closed form by {worst:.1e}")


def nonstationary_family(horizon: int):
    """Row j has tail min(1, m**-(2 + 0.25 (j mod 3))): not stationary, so
    ``conditional_tail`` cannot use its per-shift cache."""
    m = np.arange(2 * horizon + 21, dtype=float)
    m[0] = 1.0

    def tail(exponent):
        return memloss.TailTable(values=np.minimum(1.0, m ** -exponent), label="r")

    rows = [tail(2.0 + 0.25 * (j % 3)) for j in range(1, horizon + 11)]
    return memloss.family_from_tables(1, tail(2.0), rows, beta=2.0, beta_prime=2.0,
                                      c_beta=1.0, c_beta_prime=1.0)


def nonstationary_dp_mc(out: str, dp_n: int, mc_n: int, samples: int, seed: int) -> None:
    """Nonstationary DP to dp_n, checked against MC to mc_n."""
    model = memloss.build_model(nonstationary_family(dp_n + 10), memloss.make_constants(), dp_n + 10)
    _check(not model.family.stationary, "family unexpectedly stationary")
    dp = memloss.s_tail_dp(model, dp_n)
    _dp_mc_agree(dp, memloss.s_tail_mc(model, mc_n, samples, seed))


# -- workloads -----------------------------------------------------------------------------


def _transfer_sweep(inputs: str, rng: random.Random) -> list[Experiment]:
    cui_iid = _write(inputs, "cui_iid.json", {
        "kind": "iid", "family": "cui",
        "support": [{"gamma": 0.4, "beta": 2.0}, {"gamma": 0.7, "beta": 1.5}],
        "probs": [0.5, 0.5], "seed": rng.randrange(2**31),
    })
    lsv_periodic = _write(inputs, "lsv_periodic.json", {
        "kind": "periodic", "family": "lsv", "cycle": [0.5, 0.8],
    })
    lsv = ["--family", "lsv", "--gamma", "0.5"]
    fit = ["--n-max", "200", "--fit-lo", "10", "--fit-hi", "200"]
    g15 = ["--grid", str(2**15)]

    def curve(name, argv, **kw):
        return Experiment(name, memloss_curve, {"argv": argv, **kw})

    return [
        curve("lsv-holder-pair",
              [*lsv, *g15, *fit, "--pair", "holder-holder", "--expect-slope", "-2", "--tol", "0.4"]),
        curve("lsv-holder-cone",
              [*lsv, *g15, *fit, "--pair", "holder-cone", "--expect-slope", "-1", "--tol", "0.3"]),
        curve("lsv-periodic", ["--config", lsv_periodic, *g15, *fit], max_slope=-1.5),
        curve("cui-iid", ["--config", cui_iid, "--grid", str(2**13), *fit]),
        curve("pikovsky-holder", ["--family", "pikovsky", "--gamma", "2.0", *g15, *fit]),
        curve("gh-holder", ["--family", "gh", *g15, *fit]),
        Experiment("lsv-mixing", cli, {"argv": [
            "mixing", *lsv, "--grid", str(2**12), "--n-max", "200", "--expect-floor", "0.05"]}),
        Experiment("lsv-evolve", evolve, {"argv": [*lsv, "--grid", str(2**18), "--steps", "4"]}),
    ]


def _tails(inputs: str, rng: random.Random) -> list[Experiment]:
    lsv_periodic = _write(inputs, "lsv_periodic.json", {
        "kind": "periodic", "family": "lsv", "cycle": [0.5, 0.8],
    })
    lsv_iid = _write(inputs, "lsv_iid.json", {
        "kind": "iid", "family": "lsv", "support": [0.5, 0.8],
        "probs": [0.3, 0.7], "seed": rng.randrange(2**31),
    })
    lsv_markov = _write(inputs, "lsv_markov.json", {
        "kind": "markov", "family": "lsv", "support": [0.4, 0.7],
        "transition": [[0.75, 0.25], [0.5, 0.5]], "seed": rng.randrange(2**31),
    })
    pik_markov = _write(inputs, "pikovsky_markov.json", {
        "kind": "markov", "family": "pikovsky", "support": [1.5, 2.5],
        "transition": [[0.5, 0.5], [0.25, 0.75]], "seed": rng.randrange(2**31),
    })

    def exact(name, argv, files):
        return Experiment(name, tails, {"argv": argv, "files": files})

    def oracle(name, argv, base, **kw):
        argv = [*argv, "--base", base, "--mc-samples", "100000", "--seed", str(rng.randrange(2**31))]
        return Experiment(name, tails, {"argv": argv, "files": [f"tails_k1_{base}.csv"], "mc_ks": [1]},
                          **kw)

    return [
        exact("lsv-const-exact", ["--family", "lsv", "--gamma", "0.5", "--n-max", "10000",
                                  "--expect-slope", "-2", "--tol", "0.15"], ["tails_k1_mk.csv"]),
        exact("lsv-periodic-exact", ["--config", lsv_periodic, "--n-max", "2000"], ["tails_k1_mk.csv"]),
        exact("lsv-iid-exact-k1-4", ["--config", lsv_iid, "--n-max", "2000", "--k", "1,2,3,4"],
              [f"tails_k{k}_mk.csv" for k in range(1, 5)]),
        exact("lsv-markov-exact", ["--config", lsv_markov, "--n-max", "2000"], ["tails_k1_mk.csv"]),
        exact("pikovsky-markov-lebesgue",
              ["--config", pik_markov, "--base", "lebesgue", "--n-max", "2000"],
              ["tails_k1_lebesgue.csv"]),
        oracle("lsv-mc-oracle", ["--family", "lsv", "--gamma", "0.5", "--n-max", "400"], "mk"),
        oracle("pikovsky-mc-oracle", ["--family", "pikovsky", "--gamma", "2.0", "--n-max", "256"],
               "lebesgue"),
        oracle("gh-mc-oracle", ["--family", "gh", "--n-max", "2000"], "lebesgue",
               known_defect="GH exact return-time tail disagrees with its MC oracle "
                            "(P(tau=2|Y): exact 0.367, MC and by hand 0.191)"),
        Experiment("lsv-iid-frequency", cli, {"argv": [
            "frequency", "--config", lsv_iid, "--threshold", "0.6", "--n-max", "100000",
            "--expect-a", "0.3", "--tol", "0.05"]}),
    ]


def _coupling(inputs: str, rng: random.Random) -> list[Experiment]:
    model = _write(inputs, "model.json", {
        "theta": 0.25, "n0": 1, "K": 0.5, "lambda": 2.0, "diam": 1.0, "delta0": 0.5,
        "beta": 2.0, "beta_prime": 2.0, "C_beta": 1.0, "C_beta_prime": 1.0, "Theta": 0.0,
        "tails": "synthetic:poly:2.0", "k": 1, "horizon": 620,
    })
    argv = ["coupling", "--model", model, "--n-max", "600", "--samples", "100000",
            "--check-plateau", "--seed", str(rng.randrange(2**31))]
    return [
        Experiment("cli-poly2-n600", cli, {"argv": argv}),
        Experiment("dp-plateau-n1000", dp_plateau, {"n_max": 1000}),
        *(Experiment(f"dp-mc-beta{bp}", dp_mc_poly, {
            "beta_prime": bp, "n_max": 200, "samples": 100_000, "seed": rng.randrange(2**31)})
          for bp in (1.5, 2.5)),
        Experiment("degenerate-exact", degenerate_exact, {}),
        Experiment("nonstationary-dp-mc", nonstationary_dp_mc, {
            "dp_n": 400, "mc_n": 200, "samples": 100_000, "seed": rng.randrange(2**31)}),
    ]


def _tails_coupling_sweep(inputs: str, rng: random.Random) -> list[Experiment]:
    return _tails(inputs, rng) + _coupling(inputs, rng)


WORKLOADS = {
    "transfer-sweep": _transfer_sweep,
    "tails-coupling-sweep": _tails_coupling_sweep,
}


def _write(inputs: str, name: str, config: dict) -> str:
    path = os.path.join(inputs, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True)
    return path


def build(workload: str, seed: int, inputs: str) -> list[Experiment]:
    """Write the workload's input files under ``inputs`` and return its
    experiment list; the seed changes the inputs, never the list."""
    os.makedirs(inputs, exist_ok=True)
    return WORKLOADS[workload](inputs, random.Random(f"{workload}/{seed}"))
