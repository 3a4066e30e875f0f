"""The Vitter-Shriver parallel disk model (PDM), simulated.

``N`` records are striped over ``D`` disks in blocks of ``B`` records; a
RAM holds ``M`` records; one *parallel I/O* transfers at most one block
per disk (Section 1 of the paper, Figures 1-2).  The simulator stores
actual record payloads, enforces the model's two hard rules (one block
per disk per operation, never more than ``M`` records resident), counts
every operation, and classifies each as *striped* (same location on each
disk) or *independent*.

The paper's only cost metric is the number of parallel I/Os, so a
simulator that enforces exactly the model's rules measures exactly what
the theorems bound.
"""

from repro.pdm.geometry import DiskGeometry
from repro.pdm.memory import Memory
from repro.pdm.stats import IOStats, PassStats
from repro.pdm.system import ParallelDiskSystem
from repro.pdm.layout import render_figure1, render_figure2, render_portion
from repro.pdm.schedule import IOPlan, IOStep, PassColumns, PlanBuilder, PlanPass
from repro.pdm.engine import (
    ENGINES,
    STREAM_AUTO_RECORDS,
    ExecReport,
    PlanCheck,
    audit_plan,
    execute_plan,
    validate_plan,
)
from repro.pdm.optimize import OptimizedPlan, OptimizeReport, optimize_plan
from repro.pdm.cache import (
    CacheInfo,
    CompiledPlan,
    PlanCache,
    cached_execute,
    compile_plan,
    plan_key,
)

__all__ = [
    "DiskGeometry",
    "Memory",
    "IOStats",
    "PassStats",
    "ParallelDiskSystem",
    "render_figure1",
    "render_figure2",
    "render_portion",
    "IOPlan",
    "IOStep",
    "PassColumns",
    "PlanBuilder",
    "PlanPass",
    "ENGINES",
    "STREAM_AUTO_RECORDS",
    "ExecReport",
    "PlanCheck",
    "audit_plan",
    "execute_plan",
    "validate_plan",
    "OptimizedPlan",
    "OptimizeReport",
    "optimize_plan",
    "CacheInfo",
    "CompiledPlan",
    "PlanCache",
    "cached_execute",
    "compile_plan",
    "plan_key",
]
