"""memloss benchmark: paper experiment sweeps, timed end to end and per layer.

    python3 bench/run.py --workload tails-coupling-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; memloss is imported from its ``src``.
One closed-loop client runs the workload's experiment list back to back in
this process, for as many passes as fit ``--seconds`` at the seed commit's
speed (``PASS_SECONDS``).  ``MEMLOSS_THREADS`` is removed from the
environment, so the package's pool has one worker.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes that import memloss and write the workload's inputs),
``sweep_s`` (median pass time), ``experiment_p50_s`` (median over every
experiment run) and ``peak_rss_mb`` (through the first pass).
``--trace 1`` runs each experiment once untraced and once traced, back to
back, and reports the per-layer metrics of the traced runs (see
``tracer.py``), with the tracing overhead as traced over untraced time.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts experiments whose
correctness check failed; ``correct`` is false when any failure is not a
documented program defect (``Experiment.known_defect``).  A record of the
run, with provenance and, when traced, every span, is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7

# Seconds one pass of each workload took at the seed commit on a shared
# 2-vCPU host.  A run makes round(--seconds / PASS_SECONDS) passes, at least
# one, whatever the speed of the code or the host: every commit then
# measures the same passes, and a slow pass cannot shorten its own run.
PASS_SECONDS = {"transfer-sweep": 45.0, "tails-coupling-sweep": 22.0}

END_TO_END = {"setup_s": "s", "sweep_s": "s", "experiment_p50_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced runs: layer -> reported fields.  Which
# end-to-end metric each should move, and where:
# * maps, rootfind: sweep_s on transfer-sweep (inverse branches, Newton) and
#   tails-coupling-sweep (forward evaluation, bisection).  f_evals counts
#   calls of the solver's f, so wasted iterations show as a count.
# * transfer: sweep_s and peak_rss_mb on transfer-sweep only.
# * partitions, sequences: sweep_s on tails-coupling-sweep; a small share of
#   transfer-sweep.
# * coupling: sweep_s and peak_rss_mb on tails-coupling-sweep only.
# * csvio, cli: sweep_s on both workloads.
# * process.cpu_per_wall below 1 means the run lost the CPU, not program time.
_TIMES = ("self_s", "total_s")
LAYER_FIELDS = {
    "maps.inverse_branch_array": ("calls", "elements", *_TIMES),
    "maps.eval_map_array": ("calls", "elements", *_TIMES),
    "rootfind.vec_newton_from_above": ("calls", "f_evals", "f_evals_per_call", *_TIMES),
    "rootfind.vec_bisect_newton": ("calls", "f_evals", "f_evals_per_call", *_TIMES),
    "transfer.push_density": ("calls", "cells", *_TIMES),
    **{f"transfer.{n}": _TIMES for n in
       ("memory_loss_curve", "mixing_mass", "evolve", "make_density", "tv_distance")},
    **{f"partitions.{n}": ("calls", *_TIMES) for n in
       ("return_time_tail", "return_time_tail_mc", "lsv_preimage_points",
        "pikovsky_endpoints", "fit_power_law", "mc_zscores")},
    **{f"sequences.{n}": ("calls", *_TIMES) for n in ("param_at", "gammas", "check_frequency")},
    "coupling.build_model": ("calls", *_TIMES),
    "coupling.s_tail_dp": ("calls", *_TIMES),
    "coupling.s_tail_mc": ("calls", "samples", *_TIMES),
    "coupling.conditional_tail": ("calls", *_TIMES),
    "csvio.write_columns": ("calls", "rows", *_TIMES),
    "csvio.read_csv": ("calls", "rows", *_TIMES),
    "cli.run_cli": ("calls", *_TIMES),
}

# ROADMAP item 1's baseline rows: median duration of the spans that match.
ROADMAP_ROWS = {
    "roadmap.lsv_left_inverse_32769_s": ("maps.inverse_branch_array",
                                         {"family": "lsv", "branch": "left", "elements": 2**15 + 1}),
    "roadmap.push_density_lsv_32768_s": ("transfer.push_density", {"family": "lsv", "cells": 2**15}),
    "roadmap.push_density_pikovsky_32768_s": ("transfer.push_density",
                                              {"family": "pikovsky", "cells": 2**15}),
    "roadmap.return_time_tail_lsv_const_10000_s": ("partitions.return_time_tail", {
        "family": "lsv", "kind": "periodic", "entries": 1, "n_max": 10_000}),
    "roadmap.return_time_tail_lsv_iid_2000_s": ("partitions.return_time_tail",
                                                {"family": "lsv", "kind": "iid", "n_max": 2000}),
    "roadmap.s_tail_dp_1000_s": ("coupling.s_tail_dp", {"n_max": 1000}),
    "roadmap.s_tail_mc_200_s": ("coupling.s_tail_mc", {"n_max": 200, "stationary": True}),
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {f"{layer}.{f}": ("s" if f.endswith("_s") else "count")
             for layer, fields in LAYER_FIELDS.items() for f in fields}
    units.update({"process.cpu_s": "s", "process.cpu_per_wall": "ratio", "trace.overhead": "ratio"})
    units.update({name: "s" for name in ROADMAP_ROWS})
    return units


# -- running --------------------------------------------------------------------------


def run_experiment(exp, out: str, tracer=None, index: int = -1) -> dict:
    """Run and check one experiment; a failure is recorded, never raised."""
    from experiments import CheckFailed

    span = None
    if tracer is not None:
        tracer.experiment = index
        span = tracer.begin("bench.experiment", {"name": exp.name})
    t0 = time.perf_counter()
    try:
        exp(out)
        error = None
    except CheckFailed as e:
        error = str(e)
    except Exception as e:  # an experiment that crashes counts as failed; the sweep goes on
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if span is not None:
        tracer.end(span)
    return {"name": exp.name, "seconds": seconds, "error": error, "known_defect": exp.known_defect}


def _fresh(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)


def run_pass(exps, workdir: str, tracer=None) -> tuple[float, list[dict]]:
    """Run every experiment once, in order; returns (seconds, results)."""
    _fresh(workdir)
    t_pass = time.perf_counter()
    results = [run_experiment(exp, os.path.join(workdir, f"{i:02d}-{exp.name}"), tracer, i)
               for i, exp in enumerate(exps)]
    return time.perf_counter() - t_pass, results


def run_traced(exps, workdir: str, tracer) -> tuple[list[dict], list[dict], float]:
    """Run each experiment untraced and traced back to back, alternating which
    goes first, so drift in the host's speed hits both sides alike.
    Returns (untraced results, traced results, CPU seconds of the traced runs)."""
    _fresh(workdir)
    untraced, traced, cpu_s = [], [], 0.0
    for i, exp in enumerate(exps):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            out = os.path.join(workdir, f"{i:02d}-{exp.name}-{'traced' if with_trace else 'plain'}")
            if with_trace:
                cpu0 = _cpu_seconds()
                with tracer:
                    traced.append(run_experiment(exp, out, tracer, i))
                cpu_s += _cpu_seconds() - cpu0
            else:
                untraced.append(run_experiment(exp, out))
    return untraced, traced, cpu_s


def _setup_sample(workload: str, seed: int, inputs: str, env: dict) -> float:
    """Seconds a fresh process takes to import memloss and write the inputs."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
        "import experiments\n"
        f"experiments.build({workload!r}, {seed!r}, {inputs!r})\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# -- metrics ----------------------------------------------------------------------------


def _median_duration(spans, name: str, match: dict) -> float:
    times = [s[2] - s[1] for s in spans
             if s[0] == name and all(s[5].get(k) == v for k, v in match.items())]
    return statistics.median(times) if times else 0.0


def layer_metrics(tracer, traced_s: float, untraced_s: float, cpu_s: float) -> dict[str, float]:
    from tracer import layer_totals

    totals = layer_totals(tracer)
    values = {}
    for layer, fields in LAYER_FIELDS.items():
        row = totals.get(layer, {})
        for f in fields:
            if f == "f_evals_per_call":
                values[f"{layer}.{f}"] = row.get("f_evals", 0) / row["calls"] if row.get("calls") else 0.0
            elif f.endswith("_s"):
                values[f"{layer}.{f}"] = float(row.get(f, 0.0))
            else:
                values[f"{layer}.{f}"] = int(row.get(f, 0))
    values["process.cpu_s"] = cpu_s
    values["process.cpu_per_wall"] = cpu_s / traced_s
    values["trace.overhead"] = traced_s / untraced_s
    for name, (span_name, match) in ROADMAP_ROWS.items():
        values[name] = _median_duration(tracer.spans, span_name, match)
    return values


def provenance(workload: str, seed: int, inherited_threads: str | None) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "MEMLOSS_THREADS_inherited": inherited_threads,
        "workload": workload,
        "seed": seed,
    }


def _measure(args, exps, scratch: str):
    """Run the passes; returns (pass seconds, results, metrics measured here, tracer).
    Traced, the two "passes" are the summed untraced and traced experiment times."""
    workdir = os.path.join(scratch, "out")
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced, cpu_s = run_traced(exps, workdir, tracer)
        untraced_s, traced_s = (sum(r["seconds"] for r in rs) for rs in (untraced, traced))
        return [untraced_s, traced_s], untraced + traced, layer_metrics(tracer, traced_s, untraced_s, cpu_s), tracer
    passes, results = [], []
    for _ in range(max(1, round(args.seconds / PASS_SECONDS[args.workload]))):
        seconds, res = run_pass(exps, workdir)
        if not passes:  # later passes reuse freed memory unevenly; one pass keeps the peak comparable
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(seconds)
        results += res
    return passes, results, {"peak_rss_mb": peak_rss_mb}, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memloss" / "__init__.py").is_file():
        print(f"error: no memloss sources under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    inherited_threads = os.environ.pop("MEMLOSS_THREADS", None)
    sys.path[:0] = [str(BENCH), str(SRC)]
    import experiments
    import memloss

    if args.workload not in experiments.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(experiments.WORKLOADS)}")
    if Path(memloss.__file__).resolve().parent != SRC / "memloss":
        print(f"error: imported memloss from {memloss.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        inputs = os.path.join(scratch, "inputs")
        exps = experiments.build(args.workload, args.seed, inputs)
        input_files = {}
        for name in sorted(os.listdir(inputs)):
            with open(os.path.join(inputs, name), encoding="utf-8") as fh:
                input_files[name] = json.load(fh)
        setup = [] if args.trace else [
            _setup_sample(args.workload, args.seed, os.path.join(scratch, f"setup{i}"), dict(os.environ))
            for i in range(SETUP_SAMPLES)]
        passes, results, metrics, tracer = _measure(args, exps, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [r for r in results if r["error"] is not None]
    if args.trace:
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(passes),
            "experiment_p50_s": statistics.median(r["seconds"] for r in results),
            **metrics,
        }
        units = END_TO_END
    record = {
        "provenance": {**provenance(args.workload, args.seed, inherited_threads),
                       "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "trace": args.trace,
        "passes_s": passes,
        "setup_samples_s": setup,
        "inputs": {exp.name: exp.params for exp in exps},
        "input_files": input_files,
        "experiments": results,
        "metrics": metrics,
        "wait_s": "not applicable: no layer has a queue or a retry, and one worker never waits",
    }
    if tracer is not None:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [[n, a - t0, b - t0, p, e, attrs] for n, a, b, p, e, attrs in tracer.spans]
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)

    _report(args, record, failures, units)
    print(json.dumps({
        "correct": all(r["known_defect"] for r in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _report(args, record, failures, units) -> None:
    prov = record["provenance"]
    attempted = len(record["experiments"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(record['passes_s'])}  closed loop, 1 client, 1 worker")
    samples = {
        "setup_s": f"median of {len(record['setup_samples_s'])} fresh processes",
        "sweep_s": f"median of {len(record['passes_s'])} passes",
        "experiment_p50_s": f"median of {attempted} experiments",
    }
    for name, value in record["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {units[name]:6s} {samples.get(name, '')}")
    print(f"  {'failed_frac':44s} {len(failures) / attempted:14.6g} {'':6s} "
          f"{len(failures)} failed / {attempted} attempted")
    for name in dict.fromkeys(r["name"] for r in failures):
        runs = [r for r in failures if r["name"] == name]
        tag = f" [known defect: {runs[0]['known_defect']}]" if runs[0]["known_defect"] else ""
        print(f"  FAILED {name} x{len(runs)}: {runs[0]['error']}{tag}")
    print(f"  commit {prov['git_commit']}  nproc {prov['nproc']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  MEMLOSS_THREADS inherited={prov['MEMLOSS_THREADS_inherited']!r} "
          f"(unset for the run)  loadavg {prov['loadavg_before'][0]:.2f} -> {prov['loadavg_after'][0]:.2f}")


if __name__ == "__main__":
    sys.exit(main())
