"""Plain-text table rendering for CLI and experiment output."""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ConfigurationError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render rows as a fixed-width ASCII table.

    Floats go through ``float_format``; everything else through ``str``.
    """
    if not headers:
        raise ConfigurationError("a table needs at least one column")

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(headers[c])
        for c in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
