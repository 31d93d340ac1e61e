"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark prints the rows/series of the paper artifact it
regenerates, and asserts the paper's qualitative *shape* (who wins, by
roughly what factor, where crossovers fall). Absolute numbers differ
from the paper's physical testbed by design — see DESIGN.md §2.
"""

from __future__ import annotations


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """One paper-style results table as text, title line first."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines = [f"=== {title} ===", header_line, "-" * len(header_line)]
    lines += ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one paper-style results table to stdout."""
    print("\n" + format_table(title, headers, rows))


def append_table(path: str, title: str, headers: list[str],
                 rows: list[list]) -> None:
    """Append one table to a text file such as ``bench_tables.txt``."""
    with open(path, "a") as fh:
        fh.write("\n" + format_table(title, headers, rows) + "\n")
    print(f"appended table to {path}")
