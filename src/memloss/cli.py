"""Reproducible command-line front end.

One subcommand per experiment; JSON config in, CSV artifacts plus a JSON
summary out.  A computing subcommand only computes: it returns its summary
and its tables (file name -> CSV kind and columns).  :func:`run_cli` alone
writes files: it adds ``command`` and ``pass`` (every gate passed) to the
summary, writes the tables and then ``<command>_summary.json`` (all or
none), and returns the exit code: 0 success, 1 an expectation gate failed,
2 usage or configuration error, an output that cannot be written or memory
that runs out (one ``error:`` line, never a traceback).  All randomness flows
from ``--seed`` (derived streams are keyed by purpose), so a config
reruns to byte-identical artifacts.

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
from .errors import ConfigError, FormatError, MemlossError, NonPositiveValue, check_config, check_n_max
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


def _finite(text: str) -> float:
    """A float flag's value: finite, so every gate can fail and summaries stay strict JSON."""
    if not np.isfinite(value := float(text)):  # argparse reports a ValueError itself
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _sequence_from_args(args) -> seqs.ParamSequence:
    if getattr(args, "config", None):
        return load_sequence(args.config)
    if not getattr(args, "family", None):
        raise ConfigError("either --config or --family is required")
    gamma = 0.5 if args.gamma is None and args.family != "gh" else args.gamma  # gh has its one gamma
    entry = {key: value for key, value in (("gamma", gamma), ("beta", args.beta)) if value is not None}
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


def _near_gate(summary: dict, name: str, actual: float, expected: float | None, tol: float) -> None:
    """The gate |actual - expected| <= tol, added when an expectation is set."""
    if expected is not None:
        _gate(summary, name, abs(actual - expected) <= tol, {"expected": expected, "tol": tol, "actual": actual})


def _indexed(kind: str, values: np.ndarray, *rest) -> tuple[str, list]:
    """A table whose first column is n = 0 .. len(values) - 1."""
    return kind, [np.arange(len(values), dtype=float), values, *rest]


# -- subcommand implementations -------------------------------------------------------
# Each returns (summary, tables): tables map a file name in --out to (CSV kind, columns).


def _cmd_tails(args):
    seq = _sequence_from_args(args)
    base = {"mk": "m_k", "lebesgue": "lebesgue"}[args.base]
    exacts = _return_time_tails(seq, args.k, args.n_max, base=base)
    names = {k: f"tails_k{k}_{args.base}" for k in args.k}
    summary = {"base": args.base, "n_max": args.n_max, "k": list(args.k),
               "artifacts": [f"{names[k]}.csv" for k in args.k]}
    tables = {}
    for k, exact in sorted(zip(args.k, exacts), key=lambda job: job[0]):
        summary[f"k{k}"] = _fit_metrics(exact.values, args.fit_lo, args.fit_hi)
        tables[f"{names[k]}.csv"] = _indexed("tails", exact.values, exact.stderr)
        if args.mc_samples:
            mc = return_time_tail_mc(seq, k, args.n_max, args.mc_samples, args.seed, base=base)
            summary[f"k{k}"]["max_mc_z"] = _max_mc_z(exact, mc)
            tables[f"{names[k]}_mc.csv"] = _indexed("tails", mc.values, mc.stderr)
        _near_gate(summary, f"slope_k{k}", summary[f"k{k}"]["slope"], args.expect_slope, args.tol)
    return summary, tables


def _cmd_memloss(args):
    seq = _sequence_from_args(args)
    lo, hi = state_interval(param_at(seq, 1))
    f = make_density("holder", args.grid, (lo, hi), profile=1)
    if args.pair == "holder-holder":
        g = make_density("holder", args.grid, (lo, hi), profile=2)
    else:
        g = make_density("cone", args.grid, (lo, hi), beta=args.cone_beta)
    curve = memory_loss_curve(seq, f, g, args.n_max)
    metrics = _fit_metrics(curve.values, args.fit_lo, args.fit_hi)
    summary = {"pair": args.pair, "grid": args.grid, "n_max": args.n_max, "metrics": metrics}
    _near_gate(summary, "slope", metrics["slope"], args.expect_slope, args.tol)
    return summary, {"memloss.csv": _indexed("memloss", curve.values)}


def _cmd_mixing(args):
    seq = _sequence_from_args(args)
    table = mixing_mass(seq, args.k, args.n_max, n_cells=args.grid)
    metrics = _mixing_metrics(table.values)
    summary = {
        "k": args.k,
        "n_max": args.n_max,
        "grid": args.grid,
        "metrics": {**metrics, "worst_snap": table.notes["worst_snap"]},
    }
    if args.expect_floor is not None:
        floor = metrics["floor_from_2"]
        ok = floor is not None and floor >= args.expect_floor
        _gate(summary, "floor", ok, {"expected": args.expect_floor, "actual": floor})
    raw_max = table.notes["raw_max"]  # before mixing_mass clips at 1 + 1e-9
    _gate(summary, "bounded_by_one", raw_max <= 1.0 + 1e-8, {"actual": raw_max})
    return summary, {"mixing.csv": _indexed("mixing", table.values)}


def _cmd_evolve(args):
    seq = _sequence_from_args(args)
    lo, hi = state_interval(param_at(seq, 1))
    out = evolve(seq, make_density(args.density, args.grid, (lo, hi), profile=args.profile,
                                   beta=args.cone_beta), args.steps)  # held nowhere else: freed after step 1
    summary = {"steps": args.steps, "grid": args.grid,
               "metrics": {"mass": out.mass, "sup": float(np.max(out.values))}}
    _gate(summary, "mass_conserved", abs(out.mass - 1.0) <= 1e-8, {"actual": out.mass})
    return summary, {"density.csv": ("density", [out.midpoints(), out.values])}


def _cmd_frequency(args):
    seq = _sequence_from_args(args)
    window = check_frequency(seq, args.threshold, args.n_max)
    prof = theta_profile(seq, args.threshold, window.a, args.n_max)
    summary = {
        "threshold": args.threshold,
        "n_max": args.n_max,
        "metrics": {
            "a": window.a,
            "kappa": window.kappa,
            "N": window.N,
            "theta_sup_tail_last": float(prof.values[-1]),
        },
    }
    _near_gate(summary, "a", window.a, args.expect_a, args.tol)
    good = seqs._running_frequency(seq, args.threshold, args.n_max)
    return summary, {"frequency.csv": ("frequency", [np.arange(1, args.n_max + 1, dtype=float), good])}


_MODEL_KEYS = dict.fromkeys(["theta", "K", "lambda", "diam", "delta0", "beta", "beta_prime",
                             "C_beta", "C_beta_prime", "Theta"], "number")
_MODEL_KEYS.update(n0="integer", k="integer", horizon="integer", tails="string")
_CONSTANT_ARGS = {"theta": "theta", "n0": "n0", "K": "K", "lambda": "lam", "diam": "diam_x", "delta0": "delta0"}


def _model_from_config(cfg: dict, horizon: int):
    if cfg.get("k", 1) < 1:
        raise ConfigError(f"model config: 'k' must be >= 1, got {cfg['k']}")
    constants = make_constants(**{arg: cfg[key] for key, arg in _CONSTANT_ARGS.items() if key in cfg})
    beta = cfg.get("beta", 2.0)
    beta_prime = cfg.get("beta_prime", beta)
    spec = cfg.get("tails", f"synthetic:poly:{beta}")
    if spec.startswith("synthetic:poly:"):
        try:
            b = float(spec.removeprefix("synthetic:poly:"))
        except ValueError:
            raise ConfigError(f"tails spec {spec!r} needs exactly one number after 'synthetic:poly:'") from None
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


def _cmd_coupling(args):
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
    }
    _gate(summary, "dp_mc_agree", max_z is not None and max_z <= 4.0, {"actual": max_z})
    if args.check_plateau:
        _gate(summary, "plateau", report.plateau(), {"argmax_n": report.argmax_n, "n_max": args.n_max})
    ratios = np.concatenate([[np.nan], report.ratios])
    return summary, {"coupling.csv": _indexed("coupling", dp.values, mc.values, mc.stderr, ratios)}


def _finite_column(path: str, cols: dict[str, np.ndarray], name: str) -> np.ndarray:
    """Column ``name`` of the CSV read from ``path``; FormatError if a cell is empty or not finite."""
    if not np.isfinite(cols[name]).all():
        raise FormatError(f"{path}: a {name} cell is empty or not finite")
    return cols[name]


def _cmd_summarize(args) -> None:  # prints; returns no summary
    out = {}
    for path in args.paths:
        kind, cols = csvio.read_csv(path)
        entry = {"kind": kind}
        if kind in ("tails", "memloss"):  # fit the value column
            try:
                entry.update(_fit_metrics(cols[csvio.HEADERS[kind][1]], args.fit_lo, args.fit_hi))
            except NonPositiveValue as e:
                raise NonPositiveValue(f"{path}: {e}") from None
        elif kind == "mixing":
            entry.update(_mixing_metrics(_finite_column(path, cols, "mass")))
        elif kind == "coupling":
            if np.isnan(cols["ratio"]).all():  # row n = 0 has none
                raise FormatError(f"{path}: every ratio cell is empty")
            if np.isinf(cols["ratio"]).any():  # an empty cell is NaN
                raise FormatError(f"{path}: a ratio cell is not finite")
            entry["max_ratio"] = float(np.nanmax(cols["ratio"]))
            entry["argmax_n"] = int(np.nanargmax(cols["ratio"]))
        elif kind == "frequency":
            entry["last_value"] = float(_finite_column(path, cols, "value")[-1])
        out[path] = entry
    print(json.dumps(out, sort_keys=True, indent=2))


# -- parser ------------------------------------------------------------------------------


def _add_sequence_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(seqs._FAMILY_NAMES), help="stationary family")
    p.add_argument("--gamma", type=_finite, default=None, help="intermittency parameter (default 0.5; gh: 2)")
    p.add_argument("--beta", type=_finite, default=None, help="cui right-branch exponent")
    p.add_argument("--config", help="sequence config JSON (overrides --family)")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fit-lo", type=int, default=None)
    p.add_argument("--fit-hi", type=int, default=None)
    p.add_argument("--expect-slope", type=_finite, default=None)
    p.add_argument("--tol", type=_finite, default=0.4)


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
    p.add_argument("--cone-beta", type=_finite, default=0.5)
    p.set_defaults(func=_cmd_memloss)

    p = sub.add_parser("mixing", help="pushforward mass on the moving reference set")
    _add_sequence_flags(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--grid", type=int, default=2**12)
    p.add_argument("--expect-floor", type=_finite, default=None)
    p.set_defaults(func=_cmd_mixing)

    p = sub.add_parser("evolve", help="evolve a seed density and dump it")
    _add_sequence_flags(p)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--grid", type=int, default=2**12)
    p.add_argument("--density", choices=["uniform", "holder", "cone"], default="holder")
    p.add_argument("--profile", type=int, default=1)
    p.add_argument("--cone-beta", type=_finite, default=0.5)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("frequency", help="good-map frequency window and deviation profile")
    _add_sequence_flags(p)
    p.add_argument("--threshold", type=_finite, required=True)
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--expect-a", type=_finite, default=None)
    p.add_argument("--tol", type=_finite, default=0.05)
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


def _write_run(out: str, files: dict) -> None:
    """Write a run's files (name -> CSV kind and columns, or text) into ``out``,
    all or none: each under a temporary name once its own name is checked not
    to be a directory, then all under their own names.  A failure removes every
    file the run wrote and raises OSError("cannot write <file>: <reason>")."""
    paths = [os.path.join(out, name) for name in files]
    written = []
    try:
        for path, content in zip(paths, files.values()):
            if os.path.isdir(path):
                raise IsADirectoryError("Is a directory")
            written.append(temp := f"{path}.{os.getpid()}.tmp")
            if isinstance(content, str):
                csvio._write(temp, [content])
            else:
                csvio.write_columns(temp, *content)
        for i, path in enumerate(paths):
            os.replace(written[i], path)
            written[i] = path
    except BaseException as e:
        for done in filter(os.path.exists, written):
            os.unlink(done)
        if isinstance(e, OSError):
            raise OSError(f"cannot write {path}: {e.strerror or e}") from None
        raise


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    try:
        if getattr(args, "out", None):
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as e:
                raise ConfigError(f"cannot create --out directory: {e}") from None
        result = args.func(args)
        if result is None:  # summarize prints its own output
            return 0
        summary, tables = result
        summary.setdefault("artifacts", list(tables))
        summary["command"] = args.command
        summary["pass"] = all(g["pass"] for g in summary.get("gates", []))
        text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        _write_run(args.out, {**tables, f"{args.command}_summary.json": text})
    except (MemlossError, OSError, MemoryError) as e:  # MemoryError: a size the machine cannot hold
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(run_cli())
