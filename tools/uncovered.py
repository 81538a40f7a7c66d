"""Print every line of ``src/memloss`` that the Tier-1 tests never run.

    python3 tools/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process (by default with the Tier-1 arguments ``-q
--continue-on-collection-errors``) under ``sys.settrace``, tracing lines
only in frames of ``src/memloss/*.py``.  Every line of those modules' code
objects (``co_lines``) that never ran is printed as ``file:line``, and the
exit status is 1 if there is any (pytest's own status if it failed).  A
module-level ``if __name__ == "__main__":`` block only runs as a script, in
the tests' subprocesses, so it is not counted; its lines are printed as a
``#`` line.  Uses the standard library only.
"""

from __future__ import annotations

import ast
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PKG = os.path.join(_ROOT, "src", "memloss")


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _main_guards(tree: ast.Module) -> set[int]:
    """The lines of module-level ``if __name__ == "__main__":`` blocks."""
    guard, lines = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body), set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.dump(node.test) == guard:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if os.path.dirname(name) != _PKG:
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)  # the call line: a def's first line
        return local

    sys.path.insert(0, os.path.join(_ROOT, "src"))
    os.chdir(_ROOT)
    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(args or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    missed = 0
    for base in sorted(os.listdir(_PKG)):
        if not base.endswith(".py"):
            continue
        path = os.path.join(_PKG, base)
        with open(path) as fh:
            source = fh.read()
        guards = _main_guards(ast.parse(source))
        lines = _code_lines(compile(source, path, "exec")) - ran.get(path, set())
        rel = os.path.relpath(path, _ROOT)
        for line in sorted(lines - guards):
            print(f"{rel}:{line}")
            missed += 1
        if guards:
            print(f"# {rel}:{min(guards)}-{max(guards)}: __main__ guard, not counted")
    print(f"# {missed} uncovered lines in src/memloss")
    return int(status) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())
