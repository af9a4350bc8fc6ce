"""Result tables for the benchmarks.

Every benchmark regenerates one table or figure of the paper.  Since the
interesting output is a *series* (e.g. solve time vs. number of possible
dependencies) rather than a single number, each harness prints its rows and
writes them to ``benchmarks/results/<name>.txt``, so the data survives the
pytest run and can be compared against the paper.  Performance is measured
by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def format_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def record(name: str, title: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Print one result table and write it to ``results/<name>.txt``;
    returns the formatted text."""
    text = format_table(title, header, rows)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as stream:
        stream.write(text + "\n")
    print("\n" + text)
    return text
