"""ASCII table/series formatting for benchmark output."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str | None = None,
) -> str:
    """Render rows as a padded ASCII table (the benches print these)."""
    str_rows = []
    for row in rows:
        str_rows.append(
            [
                f"{cell:.4g}" if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in str_rows)
    return "\n".join(lines)


def format_series(
    name: str,
    points: Sequence[tuple[float, float]],
    y_label: str = "metric",
    max_points: int = 40,
) -> str:
    """Render an (x, y) series compactly, subsampling long curves."""
    pts = list(points)
    if len(pts) > max_points:
        stride = (len(pts) + max_points - 1) // max_points
        kept = pts[::stride]
        if kept[-1] != pts[-1]:
            kept.append(pts[-1])
        pts = kept
    body = "  ".join(f"({x:.4g},{y:.4g})" for x, y in pts)
    return f"{name} [time_s -> {y_label}]: {body}"


__all__ = ["format_series", "format_table"]
