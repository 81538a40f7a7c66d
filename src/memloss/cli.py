"""Reproducible command-line front end.

One subcommand per experiment; JSON config in, CSV artifacts plus a JSON
summary out.  A computing subcommand writes its CSVs and returns its
summary; :func:`run_cli` alone adds ``command`` and ``pass`` (every gate
passed), writes ``<command>_summary.json`` and returns the exit code: 0
success, 1 an expectation gate failed, 2 usage or configuration error.
All randomness flows from ``--seed`` (derived streams are keyed by
purpose), so a config reruns to byte-identical artifacts.

Expectation gates (``--expect-slope``/``--tol`` and friends) live here,
not in the library, so library results stay assertion-free.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import csvio
from . import sequences as seqs
from .coupling import (
    build_model,
    check_stail_bound,
    family_from_tables,
    make_constants,
    s_tail_dp,
    s_tail_mc,
    synthetic_poly_family,
)
from .errors import ConfigError, MemlossError, check_config, check_n_max
from .maps import state_interval
from .partitions import (
    _return_time_tails,
    default_fit_window,
    fit_power_law,
    mc_zscores,
    return_time_tail_mc,
)
from .sequences import check_frequency, load_sequence, param_at, theta_profile
from .tables import TailTable
from .transfer import make_density, memory_loss_curve, mixing_mass, evolve


def _k_list(text: str) -> tuple[int, ...]:
    """``--k``: distinct base indices >= 1, comma separated."""
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if min(ks) < 1 or len(set(ks)) != len(ks):
        raise argparse.ArgumentTypeError(f"expected distinct indices >= 1, got {text!r}")
    return ks


def _sequence_from_args(args) -> seqs.ParamSequence:
    if getattr(args, "config", None):
        return load_sequence(args.config)
    if not getattr(args, "family", None):
        raise ConfigError("either --config or --family is required")
    entry = {"gamma": args.gamma} if args.beta is None else {"gamma": args.gamma, "beta": args.beta}
    return seqs.sequence_from_config({"kind": "periodic", "family": args.family, "cycle": [entry]})


def _fit_metrics(values: np.ndarray, fit_lo, fit_hi) -> dict:
    table = TailTable(values=values, label="mc")
    n_avail = len(values) - 1
    lo, hi = default_fit_window(n_avail)
    if fit_lo is not None:
        lo = fit_lo
    if fit_hi is not None:
        hi = fit_hi
    fit = fit_power_law(table, lo, hi)
    return {
        "fit_lo": int(lo),
        "fit_hi": int(hi),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
    }


def _max_mc_z(exact: TailTable, mc: TailTable) -> float | None:
    """Largest |z| of an MC tail against an exact one; None (JSON null) when
    no row is comparable (see :func:`mc_zscores`)."""
    z = np.abs(mc_zscores(exact, mc))
    z = z[~np.isnan(z)]
    return float(np.max(z)) if z.size else None


def _mixing_metrics(mass: np.ndarray) -> dict:
    """Least mass from n = 2 on (None, JSON null, for a shorter table) and
    the largest mass."""
    floor = float(np.min(mass[2:])) if len(mass) > 2 else None
    return {"floor_from_2": floor, "max": float(np.max(mass))}


def _gate(summary: dict, name: str, ok: bool, detail: dict) -> None:
    summary.setdefault("gates", []).append({"name": name, "pass": bool(ok), **detail})


def _slope_gate(summary: dict, name: str, slope: float, args) -> None:
    if args.expect_slope is not None:
        ok = abs(slope - args.expect_slope) <= args.tol
        _gate(summary, name, ok, {"expected": args.expect_slope, "tol": args.tol, "actual": slope})


# -- subcommand implementations -------------------------------------------------------


def _cmd_tails(args) -> dict:
    seq = _sequence_from_args(args)
    base = {"mk": "m_k", "lebesgue": "lebesgue"}[args.base]
    ks = args.k
    out_paths = {}
    exacts = _return_time_tails(seq, ks, args.n_max, base=base)
    mcs = [None] * len(ks)
    if args.mc_samples:
        mcs = [return_time_tail_mc(seq, k, args.n_max, args.mc_samples, args.seed, base=base)
               for k in ks]
    summary = {"base": args.base, "n_max": args.n_max, "k": list(ks)}
    for k, exact, mc in zip(ks, exacts, mcs):  # every fit before any CSV
        summary[f"k{k}"] = _fit_metrics(exact.values, args.fit_lo, args.fit_hi)
        if mc is not None:
            summary[f"k{k}"]["max_mc_z"] = _max_mc_z(exact, mc)
    for k, exact, mc in sorted(zip(ks, exacts, mcs), key=lambda job: job[0]):
        path = os.path.join(args.out, f"tails_k{k}_{args.base}.csv")
        csvio.write_tail_csv(path, exact)
        out_paths[k] = path
        if mc is not None:
            csvio.write_tail_csv(os.path.join(args.out, f"tails_k{k}_{args.base}_mc.csv"), mc)
        _slope_gate(summary, f"slope_k{k}", summary[f"k{k}"]["slope"], args)
    summary["artifacts"] = [os.path.basename(out_paths[k]) for k in ks]
    return summary


def _cmd_memloss(args) -> dict:
    seq = _sequence_from_args(args)
    lo, hi = state_interval(param_at(seq, 1))
    f = make_density("holder", args.grid, (lo, hi), profile=1)
    if args.pair == "holder-holder":
        g = make_density("holder", args.grid, (lo, hi), profile=2)
    else:
        g = make_density("cone", args.grid, (lo, hi), beta=args.cone_beta)
    curve = memory_loss_curve(seq, f, g, args.n_max)
    metrics = _fit_metrics(curve.values, args.fit_lo, args.fit_hi)  # before the CSV
    path = os.path.join(args.out, "memloss.csv")
    csvio.write_columns(path, "memloss", [np.arange(len(curve.values), dtype=float), curve.values])
    summary = {
        "pair": args.pair,
        "grid": args.grid,
        "n_max": args.n_max,
        "artifacts": [os.path.basename(path)],
        "metrics": metrics,
    }
    _slope_gate(summary, "slope", summary["metrics"]["slope"], args)
    return summary


def _cmd_mixing(args) -> dict:
    seq = _sequence_from_args(args)
    table = mixing_mass(seq, args.k, args.n_max, n_cells=args.grid)
    path = os.path.join(args.out, "mixing.csv")
    csvio.write_columns(path, "mixing", [np.arange(len(table.values), dtype=float), table.values])
    metrics = _mixing_metrics(table.values)
    summary = {
        "k": args.k,
        "n_max": args.n_max,
        "grid": args.grid,
        "metrics": {**metrics, "worst_snap": table.notes["worst_snap"]},
        "artifacts": [os.path.basename(path)],
    }
    if args.expect_floor is not None:
        floor = metrics["floor_from_2"]
        ok = floor is not None and floor >= args.expect_floor
        _gate(summary, "floor", ok, {"expected": args.expect_floor, "actual": floor})
    _gate(summary, "bounded_by_one", bool(metrics["max"] <= 1.0 + 1e-8), {"actual": metrics["max"]})
    return summary


def _cmd_evolve(args) -> dict:
    seq = _sequence_from_args(args)
    lo, hi = state_interval(param_at(seq, 1))
    out = evolve(seq, make_density(args.density, args.grid, (lo, hi), profile=args.profile,
                                   beta=args.cone_beta), args.steps)  # held nowhere else: freed after step 1
    path = os.path.join(args.out, "density.csv")
    csvio.write_columns(path, "density", [out.midpoints(), out.values])
    summary = {
        "steps": args.steps,
        "grid": args.grid,
        "metrics": {"mass": out.mass, "sup": float(np.max(out.values))},
        "artifacts": [os.path.basename(path)],
    }
    _gate(summary, "mass_conserved", abs(out.mass - 1.0) <= 1e-8, {"actual": out.mass})
    return summary


def _cmd_frequency(args) -> dict:
    seq = _sequence_from_args(args)
    window = check_frequency(seq, args.threshold, args.n_max)
    prof = theta_profile(seq, args.threshold, window.a, args.n_max)
    good = seqs._running_frequency(seq, args.threshold, args.n_max)
    path = os.path.join(args.out, "frequency.csv")
    csvio.write_columns(path, "frequency", [np.arange(1, args.n_max + 1, dtype=float), good])
    summary = {
        "threshold": args.threshold,
        "n_max": args.n_max,
        "metrics": {
            "a": window.a,
            "kappa": window.kappa,
            "N": window.N,
            "theta_sup_tail_last": float(prof.values[-1]),
        },
        "artifacts": [os.path.basename(path)],
    }
    if args.expect_a is not None:
        ok = abs(window.a - args.expect_a) <= args.tol
        _gate(summary, "a", ok, {"expected": args.expect_a, "tol": args.tol, "actual": window.a})
    return summary


_MODEL_KEYS = dict.fromkeys(["theta", "K", "lambda", "diam", "delta0", "beta", "beta_prime",
                             "C_beta", "C_beta_prime", "Theta"], "number")
_MODEL_KEYS.update(n0="integer", k="integer", horizon="integer", tails="string")


def _model_from_config(cfg: dict, horizon: int):
    if cfg.get("k", 1) < 1:
        raise ConfigError(f"model config: 'k' must be >= 1, got {cfg['k']}")
    constants = make_constants(
        theta=cfg.get("theta", 0.25),
        n0=cfg.get("n0", 1),
        K=cfg.get("K", 0.5),
        lam=cfg.get("lambda", 2.0),
        diam_x=cfg.get("diam", 1.0),
        delta0=cfg.get("delta0", 0.5),
    )
    beta = cfg.get("beta", 2.0)
    beta_prime = cfg.get("beta_prime", beta)
    spec = cfg.get("tails", f"synthetic:poly:{beta}")
    if spec.startswith("synthetic:poly:"):
        try:
            b = float(spec.split(":")[2])
        except ValueError:
            raise ConfigError(f"tails spec {spec!r} needs a number after 'synthetic:poly:'") from None
        for key, own in {"Theta": 0.0, "C_beta": 1.0, "C_beta_prime": 1.0}.items():  # the family's own
            if cfg.get(key, own) != own:
                raise ConfigError(f"model config: {key!r} must be {own} or absent with {spec!r} tails")
        fam = synthetic_poly_family(
            b, beta_prime=beta_prime, k=cfg.get("k", 1),
            n_rows=horizon + 10, depth=2 * horizon + 20,
        )
    elif spec.startswith("file:"):
        kind, cols = csvio.read_csv(spec[5:])
        if kind != "tails":
            raise ConfigError(f"{spec}: expected a tails CSV")
        vals = cols["value"]
        table = TailTable(values=np.minimum.accumulate(np.minimum(vals, 1.0)), label="r")
        fam = family_from_tables(
            cfg.get("k", 1), table, table,
            beta=beta, beta_prime=beta_prime,
            c_beta=cfg.get("C_beta", 1.0), c_beta_prime=cfg.get("C_beta_prime", 1.0),
            theta=cfg.get("Theta", 0.0),
        )
    else:
        raise ConfigError(f"unknown tails spec {spec!r}")
    return build_model(fam, constants, horizon), beta_prime


def _cmd_coupling(args) -> dict:
    check_n_max(args.n_max)
    cfg = check_config(seqs._load_json(args.model), _MODEL_KEYS, "model config") if args.model else {}
    horizon = cfg.get("horizon", args.n_max + 2)
    if horizon < args.n_max:
        raise ConfigError(f"horizon {horizon} below n_max {args.n_max}")
    model, beta_prime = _model_from_config(cfg, horizon)
    dp = s_tail_dp(model, args.n_max)
    mc = s_tail_mc(model, args.n_max, args.samples, args.seed)
    theta_star = float(np.max(model.family.theta_seq, initial=0.0))
    report = check_stail_bound(dp, beta_prime, theta_star, model.family.k)
    ratios = np.concatenate([[np.nan], report.ratios])
    path = os.path.join(args.out, "coupling.csv")
    n = np.arange(len(dp.values), dtype=float)
    csvio.write_columns(path, "coupling", [n, dp.values, mc.values, mc.stderr, ratios])
    max_z = _max_mc_z(dp, mc)
    summary = {
        "n_max": args.n_max,
        "samples": args.samples,
        "metrics": {
            "sup_ratio": report.sup_ratio,
            "argmax_n": report.argmax_n,
            "beta_prime": beta_prime,
            "max_mc_z": max_z,
            "dp_remainder": dp.notes["remainder"],
        },
        "artifacts": [os.path.basename(path)],
    }
    _gate(summary, "dp_mc_agree", max_z is not None and max_z <= 4.0, {"actual": max_z})
    if args.check_plateau:
        _gate(summary, "plateau", report.plateau(), {"argmax_n": report.argmax_n, "n_max": args.n_max})
    return summary


def _cmd_summarize(args) -> None:
    out = {}
    for path in args.paths:
        kind, cols = csvio.read_csv(path)
        entry = {"kind": kind}
        if kind in ("tails", "memloss"):  # fit the value column
            entry.update(_fit_metrics(cols[csvio.HEADERS[kind][1]], args.fit_lo, args.fit_hi))
        elif kind == "mixing":
            entry.update(_mixing_metrics(cols["mass"]))
        elif kind == "coupling":
            entry["max_ratio"] = float(np.nanmax(cols["ratio"]))
            entry["argmax_n"] = int(np.nanargmax(cols["ratio"]))
        elif kind == "frequency":
            entry["last_value"] = float(cols["value"][-1])
        out[path] = entry
    print(json.dumps(out, sort_keys=True, indent=2))


# -- parser ------------------------------------------------------------------------------


def _add_sequence_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(seqs._FAMILY_NAMES), help="stationary family")
    p.add_argument("--gamma", type=float, default=0.5, help="intermittency parameter")
    p.add_argument("--beta", type=float, default=None, help="cui right-branch exponent")
    p.add_argument("--config", help="sequence config JSON (overrides --family)")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fit-lo", type=int, default=None)
    p.add_argument("--fit-hi", type=int, default=None)
    p.add_argument("--expect-slope", type=float, default=None)
    p.add_argument("--tol", type=float, default=0.4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memloss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tails", help="exact return-time tails (optionally with an MC cross-check)")
    _add_sequence_flags(p)
    _add_fit_flags(p)
    p.add_argument("--k", type=_k_list, default="1",
                   help="base index, or a comma list of distinct base indices >= 1")
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--base", choices=["mk", "lebesgue"], default="mk")
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tails)

    p = sub.add_parser("memloss", help="total-variation memory loss between two seed densities")
    _add_sequence_flags(p)
    _add_fit_flags(p)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--grid", type=int, default=2**15)
    p.add_argument("--pair", choices=["holder-holder", "holder-cone"], default="holder-holder")
    p.add_argument("--cone-beta", type=float, default=0.5)
    p.set_defaults(func=_cmd_memloss)

    p = sub.add_parser("mixing", help="pushforward mass on the moving reference set")
    _add_sequence_flags(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--grid", type=int, default=2**12)
    p.add_argument("--expect-floor", type=float, default=None)
    p.set_defaults(func=_cmd_mixing)

    p = sub.add_parser("evolve", help="evolve a seed density and dump it")
    _add_sequence_flags(p)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--grid", type=int, default=2**12)
    p.add_argument("--density", choices=["uniform", "holder", "cone"], default="holder")
    p.add_argument("--profile", type=int, default=1)
    p.add_argument("--cone-beta", type=float, default=0.5)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("frequency", help="good-map frequency window and deviation profile")
    _add_sequence_flags(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--expect-a", type=float, default=None)
    p.add_argument("--tol", type=float, default=0.05)
    p.set_defaults(func=_cmd_frequency)

    p = sub.add_parser("coupling", help="exact and Monte Carlo tails of the coupled random sum")
    p.add_argument("--model", help="model config JSON")
    p.add_argument("--n-max", type=int, default=300)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-plateau", action="store_true")
    p.set_defaults(func=_cmd_coupling)

    p = sub.add_parser("summarize", help="recompute metrics from CSV artifacts alone")
    p.add_argument("paths", nargs="+")
    p.add_argument("--fit-lo", type=int, default=None)
    p.add_argument("--fit-hi", type=int, default=None)
    p.set_defaults(func=_cmd_summarize)
    for name, p in sub.choices.items():
        if name != "summarize":  # it prints
            p.add_argument("--out", default=".")
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    try:
        if getattr(args, "out", None):
            os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create --out directory: {e}", file=sys.stderr)
        return 2
    try:
        summary = args.func(args)
    except MemlossError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if summary is None:  # summarize prints its own output
        return 0
    summary["command"] = args.command
    summary["pass"] = all(g["pass"] for g in summary.get("gates", []))
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    csvio._atomic_write(os.path.join(args.out, f"{args.command}_summary.json"), [text])
    return 0 if summary["pass"] else 1


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
