"""Run alternating parent/change pairs of ``bench/run.py`` and summarize them.

    python3 tools/bench_pairs.py --parent REV --change REV --workload W --seeds 1-10 [--held-out 21-23]

Each revision is exported with ``git archive`` into ``parent`` and
``change`` under one fresh directory, so the two checkout paths have the
same length (timings follow the checkout path). For every seed both
checkouts run ``bench/run.py --trace 0`` in a fresh process, for the
``run_seconds`` of the parent's ``BENCHMARK.json``: the parent first at odd
seeds, the change first at even ones. Per end-to-end metric the summary
gives each side's median and q1-q3, how many pairs the change read lower,
and the relative change of the medians; ``resolved`` says whether the
medians differ by more than the parent's q1-q3 width. When one side's runs
fall into two clusters (as ``peak_rss_mb`` can, with heap layout), the
median and size of each cluster are printed too. The held-out seeds are
summarized on their own. Passing the same revision twice gives an A/A batch:
the drift of the host under the same rotation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"21,23"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def modes(values) -> list[tuple[float, int]]:
    """(median, size) of each cluster: two when the widest gap between sorted
    values is wider than the range of the values on either side of it, each
    side holding at least two of them; else one."""
    v = sorted(values)
    if len(v) >= 4:
        gap, cut = max((v[i] - v[i - 1], i) for i in range(2, len(v) - 1))
        if gap > max(v[cut - 1] - v[0], v[-1] - v[cut]):
            return [(statistics.median(v[:cut]), cut), (statistics.median(v[cut:]), len(v) - cut)]
    return [(statistics.median(v), len(v))]


def summarize(records: list[dict]) -> dict[str, dict]:
    """Per metric, from records ``{"parent": {metric: value}, "change": {...}}``
    (one per seed): each side's quartiles and modes, the number of pairs in
    which the change is lower, and the relative change of the medians."""
    out = {}
    for name in records[0]["parent"]:
        pairs = [(r["parent"][name], r["change"][name]) for r in records]
        side = {s: [p[i] for p in pairs] for i, s in enumerate(SIDES)}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(side[s]) for s in SIDES)
        out[name] = {
            "parent": (p1, pm, p3),
            "change": (c1, cm, c3),
            "lower": sum(c < p for p, c in pairs),
            "pairs": len(pairs),
            "relative": (cm - pm) / pm if pm else (0.0 if cm == pm else float("inf")),
            "resolved": abs(cm - pm) > p3 - p1,
            "modes": {s: modes(side[s]) for s in SIDES},
        }
    return out


def format_summary(title: str, summary: dict[str, dict]) -> str:
    lines = [title, f"  {'metric':20s} {'parent median (q1-q3)':>28s} {'change median (q1-q3)':>28s}"
                    "  lower  relative  resolved"]
    for name, m in summary.items():
        cells = [f"{q[1]:.4g} ({q[0]:.4g}-{q[2]:.4g})" for q in (m["parent"], m["change"])]
        lines.append(f"  {name:20s} {cells[0]:>28s} {cells[1]:>28s}  {m['lower']:2d}/{m['pairs']:<2d}"
                     f"  {m['relative']:+8.1%}  {'yes' if m['resolved'] else 'no'}")
        for s in SIDES:
            if len(m["modes"][s]) > 1:
                lines.append(f"    {s} modes: " + ", ".join(f"{c:.4g} (x{k})" for c, k in m["modes"][s]))
    return "\n".join(lines)


def export(rev: str, path: str) -> None:
    os.makedirs(path)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one fresh ``bench/run.py`` process, plus its failure count."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**{k: v["value"] for k, v in result["metrics"].items()}, "failed": result["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--held-out", type=parse_seeds, default=[])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        roots = {s: os.path.join(work, s) for s in SIDES}
        for s in SIDES:
            export(getattr(args, s), roots[s])
        with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
        records = []
        for seed in args.seeds + args.held_out:
            order = SIDES if seed % 2 else SIDES[::-1]
            record = {"seed": seed, **{s: run_bench(roots[s], args.workload, seed, seconds) for s in order}}
            print(json.dumps(record), flush=True)
            records.append(record)
    main_runs = [r for r in records if r["seed"] in args.seeds]
    print(format_summary(f"{args.workload}, seeds {args.seeds[0]}..{args.seeds[-1]}", summarize(main_runs)))
    held = [r for r in records if r["seed"] not in args.seeds]
    if held:
        print(format_summary(f"{args.workload}, held-out seeds {[r['seed'] for r in held]}", summarize(held)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
