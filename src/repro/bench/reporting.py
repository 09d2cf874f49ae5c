"""Plain-text reporting helpers for benchmarks and examples.

The benchmark suite prints the same rows/series the paper's figures show;
these helpers keep that formatting in one place and dependency-free.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence


def format_table(rows: Sequence[Dict[str, object]],
                 columns: Sequence[str] = None,
                 title: str = "") -> str:
    """Render dictionaries as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(_fmt(row.get(column))))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(" | ".join(
            _fmt(row.get(column)).ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count (MB/GB) for RAM-footprint reports."""
    units = ["B", "KB", "MB", "GB", "TB"]
    value = float(num_bytes)
    for unit in units:
        if value < 1024 or unit == units[-1]:
            return f"{value:.2f} {unit}"
        value /= 1024
    return f"{value:.2f} TB"


def format_seconds(seconds: float) -> str:
    """Human-readable duration for recovery-time reports."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120:
        return f"{seconds:.2f} s"
    return f"{seconds / 60:.1f} min"


def print_report(title: str, rows: Iterable[Dict[str, object]],
                 columns: Sequence[str] = None) -> None:
    """Print a table with a separating banner (used by the CLI and benchmarks)."""
    banner = "=" * max(20, len(title))
    print(f"\n{banner}\n{title}\n{banner}")
    print(format_table(list(rows), columns))
