"""CSV artifacts: fixed headers, 17 significant digits, rows formatted in
blocks of 2**14 and parsed by numpy's C parser into one table, or, in a file
it refuses (an empty cell, a ragged row, a cell that is not a number), in
blocks of 2**14.

Formats (one header row, '.' decimal separator, '\\n' line endings):

* tails:     ``n,value,stderr``   (stderr empty for exact tables)
* memloss:   ``n,tv``
* mixing:    ``n,mass``
* coupling:  ``n,p_dp,p_mc,stderr,ratio``
* frequency: ``n,value``
* density:   ``x,value``
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable

import numpy as np

from .errors import FormatError

_FMT = "%.17g"
_BLOCK = 2**14

HEADERS = {
    "tails": ["n", "value", "stderr"],
    "memloss": ["n", "tv"],
    "mixing": ["n", "mass"],
    "coupling": ["n", "p_dp", "p_mc", "stderr", "ratio"],
    "frequency": ["n", "value"],
    "density": ["x", "value"],
}


def _write(path: str, parts: Iterable[str]) -> None:
    """Write ``parts`` to ``path`` as ``open`` creates it (0o666 less the umask); a failed write removes it."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(parts)
    except BaseException:
        os.unlink(path)
        raise


def write_columns(path: str, kind: str, columns: list[np.ndarray | None]) -> None:
    """Write a ``kind`` CSV to ``path``; a None column is written as empty cells."""
    header = HEADERS[kind]
    if len(columns) != len(header):
        raise ValueError(f"{kind} needs {len(header)} columns")
    data = [np.asarray(c, dtype=float) for c in columns if c is not None]
    if any(len(c) != len(data[0]) for c in data):
        raise ValueError("columns differ in length")
    row = ",".join("" if c is None else _FMT for c in columns) + "\n"
    blocks = (np.column_stack([c[i : i + _BLOCK] for c in data]) for i in range(0, len(data[0]), _BLOCK))
    text = ((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)
    _write(path, itertools.chain([",".join(header) + "\n"], text))


def read_csv(path: str) -> tuple[str, dict[str, np.ndarray]]:
    """Read a CSV produced by this package; returns (kind, columns), each
    column a view of one (rows, columns) table.

    Blank lines are skipped and an empty cell reads as NaN.  Raises
    FormatError for empty files, headers this package never writes, ragged
    rows, cells that are not numbers and files with no data rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = iter(fh.readline, "")  # not iter(fh), which turns fh.tell() off
            header_line = next((ln.rstrip("\n") for ln in lines if ln != "\n"), None)
            if header_line is None:
                raise FormatError(f"{path}: empty file")
            header = header_line.split(",")
            kind = next((k for k, h in HEADERS.items() if h == header), None)
            if kind is None:
                raise FormatError(f"{path}: unrecognized header {header_line!r}")
            start = fh.tell()
            if all(ln == "\n" for ln in lines):  # so np.loadtxt never warns of no data
                raise FormatError(f"{path}: no data rows")
            fh.seek(start)
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                if table.shape[1] != len(header):
                    raise ValueError("rows wider or narrower than the header")
            except ValueError:  # the blocks name the fault, or read an empty cell as NaN
                fh.seek(start)
                lines, blocks = (ln.rstrip("\n") for ln in fh), [np.empty((0, len(header)))]
                while chunk := list(itertools.islice(lines, _BLOCK)):
                    rows = [ln for ln in chunk if ln]
                    ragged = next((ln for ln in rows if ln.count(",") != len(header) - 1), None)
                    if ragged is not None:
                        raise FormatError(f"{path}: ragged row {ragged!r}")
                    cells = np.array([c or "nan" for c in ",".join(rows).split(",")] if rows else [], dtype=float)
                    blocks.append(cells.reshape(-1, len(header)))  # its strings freed before the next block's
                table = np.concatenate(blocks)
    except FormatError:
        raise
    except (OSError, ValueError) as e:  # ValueError: a cell or byte that does not decode
        raise FormatError(f"{path}: {e}") from None
    return kind, dict(zip(header, table.T))
