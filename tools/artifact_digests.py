"""Print the sha256 of every file a benchmark workload's experiments write.

    python3 tools/artifact_digests.py --root DIR --workload W --seed N > digests.txt

DIR is a checkout: its ``src`` and ``bench/experiments.py`` are imported.
Each experiment runs once into a fresh directory, and every file it writes
is printed as ``sha256  NN-experiment/file``, so the lists of two checkouts
compare with ``diff``; a failed check is printed as a ``#`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import experiments

    with tempfile.TemporaryDirectory() as tmp:
        for i, exp in enumerate(experiments.build(args.workload, args.seed, os.path.join(tmp, "inputs"))):
            out = os.path.join(tmp, f"{i:02d}-{exp.name}")
            os.makedirs(out)  # library experiments write nothing
            try:
                exp(out)
            except experiments.CheckFailed as e:
                print(f"# {exp.name}: check failed: {e}")
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    print(f"{hashlib.sha256(fh.read()).hexdigest()}  {i:02d}-{exp.name}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
