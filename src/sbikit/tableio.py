"""Delimited text tables with a JSON metadata header.

The on-disk format of ``Dataset.save``/``Dataset.load``: comment lines
carry the metadata record, one header row names the columns, and data rows
are decimal with 17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import json

import numpy as np

_MAGIC = "# sbikit-table 1"


def write_table(path, array: np.ndarray, columns: list[str], meta: dict | None = None) -> None:
    array = np.atleast_2d(np.asarray(array, dtype=np.float64))
    if array.shape[1] != len(columns):
        raise ValueError(f"{len(columns)} column names for array with {array.shape[1]} columns")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MAGIC + "\n")
        fh.write("# meta: " + json.dumps(meta or {}, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in array:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_table(path) -> tuple[np.ndarray, list[str], dict]:
    meta: dict = {}
    columns: list[str] = []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != _MAGIC:
            raise ValueError(f"{path}: not a sbikit table (got {first!r})")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# meta: "):
                meta = json.loads(line[len("# meta: "):])
            elif line.startswith("#"):
                continue
            elif not columns:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    n_cols = len(columns)
    array = np.array(rows, dtype=np.float64).reshape(len(rows), n_cols)
    return array, columns, meta
