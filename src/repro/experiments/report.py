"""Plain-text rendering of the reproduced tables and figures.

Every builder renders its result through these helpers; ``cli <key>
-o benchmarks/out`` saves it there so EXPERIMENTS.md can quote real
runs.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Monospace table with column auto-sizing."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row]
                                 for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    for row in str_rows:
        parts.append(line(row))
    return "\n".join(parts) + "\n"


def _fmt(cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        if abs(cell) < 1e-3 or abs(cell) >= 1e5:
            return f"{cell:.2e}"
        return f"{cell:.4g}"
    return str(cell)


def render_series(title: str, series: dict,
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render named (x, y) series as aligned columns."""
    lines = [title, "=" * len(title)]
    for name in sorted(series):
        lines.append(f"-- {name} --")
        lines.append(f"{x_label:>10}  {y_label}")
        for x, y in series[name]:
            lines.append(f"{x:>10g}  {_fmt(y)}")
    return "\n".join(lines) + "\n"


def save_output(directory: str, name: str, text: str) -> str:
    """Write a rendered artefact under ``directory``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path
