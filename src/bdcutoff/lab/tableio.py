"""Deterministic, versioned table persistence.

One schema comment line (# bdcutoff-v1) precedes the CSV header so
regression tooling can refuse files it does not understand. Floats are
serialized with repr (shortest round-trip form), non-finite values as
the tokens inf/-inf/nan, and every write goes through a temp file in
the target directory followed by an atomic rename.
"""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np

SCHEMA_TAG = "# bdcutoff-v1"


def format_value(v) -> str:
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, float):
        if v != v:
            return "nan"
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def parse_value(s: str, typ):
    if typ is float:
        return float(s)  # accepts inf/-inf/nan tokens
    if typ is bool:
        if s == "True":
            return True
        if s == "False":
            return False
        raise ValueError(f"not a boolean token: {s!r}")
    return typ(s)


def jsonable(obj):
    """A JSON-ready copy of a table value or a nested payload.

    Numpy scalars and arrays become plain Python values; non-finite
    floats become the same string tokens the CSV uses.
    """
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        # JSON has no literal for non-finite numbers; use the same tokens
        v = float(obj)
        return v if math.isfinite(v) else format_value(v)
    return obj


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    target = os.path.abspath(path)
    d = os.path.dirname(target)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".bdcutoff-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def render_csv(fieldnames, rows) -> str:
    """CSV text with the schema comment; rows are dicts."""
    fieldnames = list(fieldnames)
    buf = io.StringIO()
    buf.write(SCHEMA_TAG + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([format_value(row[k]) for k in fieldnames]
                     for row in rows)
    return buf.getvalue()


def render_json(fieldnames, rows) -> str:
    """JSON mirror of the CSV: an array of flat objects, same order."""
    out = [{k: jsonable(row[k]) for k in fieldnames} for row in rows]
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


def render_table(fieldnames, rows, fmt: str = "csv") -> str:
    if fmt == "csv":
        return render_csv(fieldnames, rows)
    if fmt == "json":
        return render_json(fieldnames, rows)
    raise ValueError(f"unknown format {fmt!r}")


def write_table(path: str, fieldnames, rows, fmt: str = "csv") -> None:
    atomic_write_text(path, render_table(fieldnames, rows, fmt))


def read_csv_rows(path: str):
    """Rows of a schema-tagged CSV as string dicts."""
    with open(path, newline="") as f:
        first = f.readline().rstrip("\n")
        if first != SCHEMA_TAG:
            raise ValueError(
                f"{path}: missing schema tag {SCHEMA_TAG!r} (got {first!r})")
        return list(csv.DictReader(f))
