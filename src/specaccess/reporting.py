"""CSV/JSON artifact writers with versioned schemas and embedded provenance.

Every artifact starts with comment lines naming its schema version, the
sha256 of the resolved configuration, and the master seed, so a rerun with
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


def render_csv(
    schema: str,
    version: int,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    meta: Mapping[str, object],
) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: {schema} v{version}\n")
    for key in sorted(meta):
        buf.write(f"# {key}: {meta[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_csv(
    path: str | Path,
    schema: str,
    version: int,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    meta: Mapping[str, object],
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(schema, version, columns, rows, meta))
    return path


def write_json(path: str | Path, payload: Mapping) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_coerce) + "\n")
    return path


def _coerce(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"cannot serialise {type(x)}")


def fmt(x: float, digits: int = 10) -> str:
    """Stable float formatting for CSV cells (repr round-trips, no noise)."""
    return format(float(x), f".{digits}g")
