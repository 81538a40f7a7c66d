"""Run alternating parent/change pairs of ``bench/run.py`` and give each metric a verdict.

    python3 tools/bench_pairs.py --parent REV --change REV --workload W --seeds 1-10 [--held-out 21-23]

Each revision is exported with ``git archive`` into ``parent`` and
``change`` under one fresh directory, so the two checkout paths have the
same length (timings follow the checkout path). For every seed both
checkouts run ``bench/run.py --trace 0`` in a fresh process, for the
``run_seconds`` of the parent's ``BENCHMARK.json``: the parent first at odd
seeds, the change first at even ones. Per end-to-end metric the summary
gives each side's median and q1-q3, how many pairs the change read better,
the relative change of the medians and one verdict, by the ``better`` and
``bound`` that the parent's ``BENCHMARK.json`` gives the metric:

* ``gain``: there are at least ten pairs (the acceptance rule's minimum),
  the change reads better in at least 9/10 of them (ties count for neither
  side), and its median is further from the parent's, in the better
  direction, than the parent's q1-q3 width;
* ``worse``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median (``failed``: the change failed more
  runs in total);
* ``unresolved``: neither, and the parent's q1-q3 width is more than
  ``bound`` times its median, unless every change run reads better than
  every parent run;
* ``within bound``: anything else.

When one side's runs fall into two clusters (as ``peak_rss_mb`` can, with
heap layout), the median and size of each cluster are printed too. The
held-out seeds are summarized on their own. Passing the same revision
twice gives an A/A batch: the drift of the host under the same rotation.
Every bench child inherits this process's environment, so an exported
``MALLOC_MMAP_THRESHOLD_`` pins glibc's mmap threshold on both sides of a
batch. A bench run that exits non-zero ends the tool with one line naming
its seed, side, exit code and last stderr line (exit status 1); the records
printed before it stay.
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
FAILED = {"better": "lower", "bound": None}  # a count: worse when the change fails more runs in total
MIN_PAIRS = 10  # no gain from fewer pairs


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
    """(median, size) of each cluster of the sorted values.  The gaps between
    neighbours are cut from the widest down, every gap at least as wide as the
    current one at once, until a cluster would hold one value only (once or
    more).  The clusters are those of the first such cut whose gaps are at
    least twice the widest gap left uncut and wider than the range of the
    cluster on either side; else one."""
    v = sorted(values)
    gaps, best = [v[i] - v[i - 1] for i in range(1, len(v))], [0, len(v)]
    for width in sorted(set(gaps), reverse=True):
        cuts = [0, *(i + 1 for i, gap in enumerate(gaps) if gap >= width), len(v)]
        if any(v[a] == v[b - 1] for a, b in zip(cuts, cuts[1:])):
            break
        if width >= 2 * max((gap for gap in gaps if gap < width), default=0.0) and all(
                v[i] - v[i - 1] > max(v[i - 1] - v[a], v[b - 1] - v[i]) for a, i, b in zip(cuts, cuts[1:], cuts[2:])):
            best = cuts
            break
    return [(statistics.median(v[a:b]), b - a) for a, b in zip(best, best[1:])]


def run_order(seed: int) -> tuple[str, str]:
    """The parent first at odd seeds, the change first at even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def verdict(pairs: list[tuple[float, float]], bound: float | None) -> str:
    """The verdict of the (parent, change) pairs of a metric that reads better
    lower, with ``bound`` None for a count of failed runs; see the module
    docstring."""
    parent, change = ([p[i] for p in pairs] for i in (0, 1))
    (p1, pm, p3), cm = quartiles(parent), statistics.median(change)
    if len(pairs) >= MIN_PAIRS and 10 * sum(c < p for p, c in pairs) >= 9 * len(pairs) and pm - cm > p3 - p1:
        return "gain"
    if (sum(change) > sum(parent)) if bound is None else (cm - pm > bound * abs(pm)):
        return "worse"
    if bound is not None and p3 - p1 > bound * abs(pm) and max(change) >= min(parent):
        return "unresolved"
    return "within bound"


def summarize(records: list[dict], specs: dict[str, dict]) -> dict[str, dict]:
    """Per metric, from records ``{"parent": {metric: value}, "change": {...}}``
    (one per seed) and the metric's ``better`` and ``bound`` in ``specs``:
    each side's quartiles and modes, the number of pairs in which the change
    reads better, the relative change of the medians and the verdict."""
    out = {}
    for name in records[0]["parent"]:
        pairs = [(r["parent"][name], r["change"][name]) for r in records]
        side = {s: [p[i] for p in pairs] for i, s in enumerate(SIDES)}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(side[s]) for s in SIDES)
        sign = 1.0 if specs[name]["better"] == "lower" else -1.0
        lower = [(sign * p, sign * c) for p, c in pairs]  # so that lower reads better
        out[name] = {
            "parent": (p1, pm, p3),
            "change": (c1, cm, c3),
            "better": sum(c < p for p, c in lower),
            "pairs": len(pairs),
            "relative": (cm - pm) / pm if pm else (0.0 if cm == pm else float("inf")),
            "verdict": verdict(lower, specs[name]["bound"]),
            "modes": {s: modes(side[s]) for s in SIDES},
        }
    return out


def format_summary(title: str, summary: dict[str, dict]) -> str:
    lines = [title, f"  {'metric':22s} {'parent median (q1-q3)':>28s} {'change median (q1-q3)':>28s}"
                    "  better  relative  verdict"]
    for name, m in summary.items():
        cells = [f"{q[1]:.4g} ({q[0]:.4g}-{q[2]:.4g})" for q in (m[s] for s in SIDES)]
        lines.append(f"  {name:22s} {cells[0]:>28s} {cells[1]:>28s}  {m['better']:2d}/{m['pairs']:<2d} "
                     f"  {m['relative']:+8.1%}  {m['verdict']}")
        for s in SIDES:
            if len(m["modes"][s]) > 1:
                lines.append(f"    {s} modes: " + ", ".join(f"{c:.4g} (x{k})" for c, k in m["modes"][s]))
    return "\n".join(lines)


def export(rev: str, path: str) -> None:
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", rev], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed")
    subprocess.run(["tar", "-x", "-C", path], input=archive.stdout, check=True)


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one fresh ``bench/run.py`` process in the
    checkout ``root``, plus its failure count.  The child inherits this
    process's environment."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise SystemExit(f"seed {seed}, {os.path.basename(root)}: bench/run.py exited {proc.returncode}: {last}")
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
    revs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        roots = {s: os.path.join(work, s) for s in revs}
        for s, rev in revs.items():
            export(rev, roots[s])
        with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds, specs = bench["run_seconds"], {**{m["name"]: m for m in bench["end_to_end"]}, "failed": FAILED}
        records = []
        for seed in args.seeds + args.held_out:
            record = {"seed": seed}
            for s in run_order(seed):
                record[s] = run_bench(roots[s], args.workload, seed, seconds)
            print(json.dumps(record), flush=True)
            records.append(record)
    main_runs = [r for r in records if r["seed"] in args.seeds]
    print(format_summary(f"{args.workload}, seeds {args.seeds[0]}..{args.seeds[-1]}", summarize(main_runs, specs)))
    held = [r for r in records if r["seed"] not in args.seeds]
    if held:
        print(format_summary(f"{args.workload}, held-out seeds {[r['seed'] for r in held]}", summarize(held, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
