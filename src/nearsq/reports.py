"""Deterministic report serialization: 12-significant-digit JSON, CSV and tables."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction


def sig12(x: float) -> float:
    """Round a float to 12 significant digits for stable, diffable output."""
    return float(f"{x:.12g}")


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _normalize(obj):
    if isinstance(obj, float):
        return sig12(obj)
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def json_report(obj: dict) -> str:
    """Stable JSON text: insertion-ordered keys, floats at 12 significant digits."""
    return json.dumps(_normalize(obj), indent=2) + "\n"


def flatten(obj, key: str = "") -> dict:
    """Nested dicts and lists as one level of dotted keys, such as ``config.N`` or
    ``values.0.u``; an empty dict or list stays a value."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return {key: obj}
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    return {k: v for i, x in items for k, v in flatten(x, f"{key}.{i}" if key else str(i)).items()}


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with a header row, comma separators, and LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def csv_report(obj: dict) -> str:
    """A report as one CSV row, one column per dotted key, floats at 12 significant digits."""
    flat = flatten(_normalize(obj))
    return csv_text(list(flat), [list(flat.values())])


def table_text(obj: dict) -> str:
    """Aligned listing of a report's dotted keys and values, for terminal viewing."""
    flat = flatten(_normalize(obj))
    width = max((len(k) for k in flat), default=0)
    lines = [f"{k.ljust(width)}  {json.dumps(v) if isinstance(v, (dict, list)) else v}"
             for k, v in flat.items()]
    return "\n".join(lines) + "\n"
