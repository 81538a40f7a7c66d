"""Print the sha256 of every file a benchmark workload's experiments write.

    python3 tools/artifact_digests.py --root DIR --workload W --seed N > digests.txt

DIR is a checkout: its ``src`` and ``bench/experiments.py`` are imported.
Each experiment runs once into a fresh directory, and every file it writes
is printed as ``sha256  NN-experiment/file``, so the lists of two checkouts
compare with ``diff``; a failed check is printed as a ``#`` line.

Library experiments write no files, so every table that ``memloss.s_tail_dp``
and ``memloss.s_tail_mc`` return is printed too, as
``sha256  NN-experiment/function#i`` over its values, its stderr and its
``notes["beyond"]``.

The first line, ``# numpy <version> simd <found>``, names the numpy build
and the SIMD targets it dispatches to on this CPU (the ``found`` list of
``np.show_runtime()``): numpy's array ``power`` rounds differently from one
target to another, so LSV and Cui outputs are byte-identical only between
runs with the same line.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

_RECORDED = ("s_tail_dp", "s_tail_mc")


def _table_digest(table) -> str:
    h = hashlib.sha256(table.values.tobytes())
    if table.stderr is not None:
        h.update(table.stderr.tobytes())
    h.update(repr(table.notes.get("beyond")).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import experiments
    import memloss
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    print(f"# numpy {np.__version__} simd {[f for f in __cpu_dispatch__ if __cpu_features__[f]]}")

    tables: list[tuple[str, object]] = []

    def recorder(name, fn):
        def wrapper(*a, **kw):
            table = fn(*a, **kw)
            tables.append((name, table))
            return table

        return wrapper

    for name in _RECORDED:
        setattr(memloss, name, recorder(name, getattr(memloss, name)))

    with tempfile.TemporaryDirectory() as tmp:
        for i, exp in enumerate(experiments.build(args.workload, args.seed, os.path.join(tmp, "inputs"))):
            out = os.path.join(tmp, f"{i:02d}-{exp.name}")
            os.makedirs(out)
            tables.clear()
            try:
                exp(out)
            except experiments.CheckFailed as e:
                print(f"# {exp.name}: check failed: {e}")
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    print(f"{hashlib.sha256(fh.read()).hexdigest()}  {i:02d}-{exp.name}/{name}")
            for j, (name, table) in enumerate(tables):
                print(f"{_table_digest(table)}  {i:02d}-{exp.name}/{name}#{j}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
