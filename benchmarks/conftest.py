"""Shared harness for the reproduction benchmarks.

Every benchmark regenerates one row of the paper's evaluation (a table,
figure, theorem, or claim) and

* times the real implementation via pytest-benchmark,
* asserts the paper's bound/shape on the *measured I/O counts*, and
* writes a human-readable result table to ``benchmarks/results/<id>.md``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Deterministic seed printed in every table for reproducibility.
SEED = 0x5EED

#: Default benchmark geometry: N=64Ki records, 8 disks, 16-record blocks,
#: 2Ki-record memory -- big enough for meaningful pass structure, small
#: enough for quick runs.
BENCH_GEOMETRY = dict(N=2**16, B=2**4, D=2**3, M=2**11)

#: Smaller geometry for potential-tracked runs (per-I/O bookkeeping).
POTENTIAL_GEOMETRY = dict(N=2**12, B=2**3, D=2**2, M=2**7)


def write_result(experiment_id: str, title: str, headers: list[str], rows: list[list]) -> str:
    """Format a result table, persist it, and return the text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [f"# {experiment_id}: {title}", ""]
    lines.append("| " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)) + " |")
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(str(v).ljust(w) for v, w in zip(row, widths)) + " |"
        )
    lines.append("")
    lines.append(f"seed = {SEED:#x}")
    text = "\n".join(lines)
    (RESULTS_DIR / f"{experiment_id}.md").write_text(text + "\n")
    return text


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def fresh_system(geometry, **kwargs):
    from repro.pdm.system import ParallelDiskSystem

    s = ParallelDiskSystem(geometry, **kwargs)
    s.fill_identity(0)
    return s
