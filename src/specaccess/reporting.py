"""CSV/JSON artifact writers with versioned schemas and embedded provenance.

Every artifact names its schema version and carries the caller's ``meta``
(comment lines of a CSV, top-level keys of a JSON document), so a rerun with
identical inputs is byte-identical and self-describing. Units for rate-like
columns are whatever the configuration declares (``rate_unit``).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


def write_csv(
    path: str | Path,
    schema: str,
    version: int,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    meta: Mapping[str, object],
) -> Path:
    buf = io.StringIO()
    buf.write(f"# schema: {schema} v{version}\n")
    for key in sorted(meta):
        buf.write(f"# {key}: {meta[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return write_text(path, buf.getvalue())


def write_json(
    path: str | Path,
    schema: str,
    version: int,
    payload: Mapping,
    meta: Mapping[str, object],
) -> Path:
    """One flat document, ``{"schema", "version", **meta, **payload}``, keys
    sorted; a NaN or infinite float, which JSON cannot hold, raises ValueError."""
    doc = {"schema": schema, "version": version, **meta, **payload}
    return write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_coerce) + "\n")


def write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _coerce(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"cannot serialise {type(x)}")


def fmt(x: float) -> str:
    """Stable float formatting for CSV cells: 10 significant digits, so a
    last-bit difference seldom shows."""
    return format(float(x), ".10g")
