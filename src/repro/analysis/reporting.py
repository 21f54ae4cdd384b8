"""Result records and text/markdown table rendering for the benchmark harness.

Every benchmark produces a list of flat dict records (one per parameter
point).  This module renders them as aligned text tables (printed during the
benchmark run, mirroring the "rows the paper reports") and as markdown
tables, and offers small helpers for ratio columns against the theoretical
bounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_value", "render_table", "render_markdown_table", "add_ratio_column"]


def format_value(value, precision: int = 3) -> str:
    """Human-friendly rendering of ints, floats, and everything else."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{precision}g}"
    return str(value)


def _columns(records: Sequence[Mapping], columns: Optional[Sequence[str]]) -> List[str]:
    if columns is not None:
        return list(columns)
    seen: List[str] = []
    for record in records:
        for key in record:
            if key not in seen:
                seen.append(key)
    return seen


def render_table(records: Sequence[Mapping], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render records as an aligned plain-text table."""
    if not records:
        return (title + "\n" if title else "") + "(no records)"
    cols = _columns(records, columns)
    rows = [[format_value(record.get(col, "")) for col in cols] for record in records]
    widths = [max(len(col), *(len(row[i]) for row in rows)) for i, col in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(cols)))
    lines.append("  ".join("-" * widths[i] for i in range(len(cols))))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


def render_markdown_table(records: Sequence[Mapping],
                          columns: Optional[Sequence[str]] = None) -> str:
    """Render records as a GitHub-flavoured markdown table."""
    if not records:
        return "(no records)"
    cols = _columns(records, columns)
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for record in records:
        lines.append("| " + " | ".join(format_value(record.get(col, "")) for col in cols) + " |")
    return "\n".join(lines)


def add_ratio_column(records: Iterable[Dict], numerator: str, denominator: str,
                     name: Optional[str] = None) -> List[Dict]:
    """Add ``record[name] = record[numerator] / record[denominator]`` to each record."""
    name = name if name is not None else f"{numerator}/{denominator}"
    result = []
    for record in records:
        record = dict(record)
        num = record.get(numerator)
        den = record.get(denominator)
        record[name] = (num / den) if num is not None and den else float("nan")
        result.append(record)
    return result
