"""Result-table rendering.

The benchmark harness prints the same tables and figure series the paper
reports (Tables 4.3–4.5, Figures 4.9–4.11).  These helpers turn the raw
measurements into aligned plain-text tables and simple ASCII bar charts so a
bench run is directly comparable with the published numbers.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "render_table",
    "render_bar_chart",
    "format_seconds",
    "paper_reference_table_45",
    "paper_reference_table_44",
]


def format_seconds(seconds: float) -> str:
    """Format a duration the way the paper does (h/m/s)."""
    if seconds >= 3600:
        hours, remainder = divmod(seconds, 3600)
        minutes, secs = divmod(remainder, 60)
        return f"{int(hours)}h{int(minutes)}m{secs:05.2f}s"
    if seconds >= 60:
        minutes, secs = divmod(seconds, 60)
        return f"{int(minutes)}m{secs:05.2f}s"
    return f"{seconds:.2f}s"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as an aligned plain-text table."""
    materialized = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in materialized)
    return "\n".join(lines)


#: Characters in the longest bar of :func:`render_bar_chart`.
BAR_CHART_WIDTH = 50


def render_bar_chart(
    series: Mapping[str, float],
    *,
    title: str | None = None,
    unit: str = "s",
) -> str:
    """Render a horizontal ASCII bar chart (used for the figure benches)."""
    lines = []
    if title:
        lines.append(title)
    if not series:
        return "\n".join(lines + ["(no data)"])
    label_width = max(len(label) for label in series)
    maximum = max(series.values()) or 1.0
    for label, value in series.items():
        bar_length = int(round(BAR_CHART_WIDTH * value / maximum)) if maximum else 0
        bar = "#" * max(bar_length, 1 if value > 0 else 0)
        lines.append(f"{label.ljust(label_width)} | {bar} {value:.3f}{unit}")
    return "\n".join(lines)


def paper_reference_table_45() -> dict[int, dict[int, float]]:
    """The published Table 4.5 runtimes, in seconds ({experiment: {query: s}})."""
    return {
        1: {7: 15.71, 21: 33.77, 46: 198.0, 50: 26.08},
        2: {7: 7.30, 21: 26.84, 46: 63.93, 50: 52.61},
        3: {7: 0.62, 21: 0.17, 46: 3.43, 50: 1.25},
        4: {7: 37.02, 21: 159.0, 46: 665.0, 50: 117.0},
        5: {7: 22.55, 21: 107.0, 46: 376.0, 50: 276.0},
        6: {7: 2.71, 21: 0.52, 46: 11.12, 50: 5.12},
    }


def paper_reference_table_44() -> dict[str, dict[int, float]]:
    """The published Table 4.4 selectivities, in MB ({scale: {query: MB}})."""
    return {
        "small": {7: 0.60, 21: 0.34, 46: 2.48, 50: 0.003},
        "large": {7: 2.28, 21: 1.55, 46: 11.84, 50: 0.003},
    }
