"""repro: BMMC permutations on parallel disk systems, reproduced.

A faithful, executable reproduction of

    Thomas H. Cormen, Thomas Sundquist, Leonard F. Wisniewski,
    "Asymptotically Tight Bounds for Performing BMMC Permutations on
    Parallel Disk Systems", SPAA 1993 / Dartmouth PCS-TR94-223.

Layering (see the Layout table in README.md):

* :mod:`repro.bits` -- GF(2) bit-matrix linear algebra (the substrate
  every permutation class is defined over);
* :mod:`repro.pdm`  -- the Vitter-Shriver parallel disk model as a
  rule-enforcing, I/O-counting simulator;
* :mod:`repro.perms` -- BMMC / BPC / MRC / MLD permutation classes and
  a library of named permutations;
* :mod:`repro.core` -- the paper's algorithms (one-pass MRC and MLD,
  the Section 5 factoring algorithm of Theorem 21, run-time detection
  of Section 6), the general-permutation baseline, every closed-form
  bound, and the executable potential-function argument.

Quick start::

    import numpy as np
    from repro import DiskGeometry, ParallelDiskSystem, perform_permutation
    from repro.perms import library

    g = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**8)
    system = ParallelDiskSystem(g)
    system.fill_identity(0)
    report = perform_permutation(system, library.bit_reversal(g.n))
    print(report.summary())
"""

from repro.errors import (
    BlockStateError,
    DetectionError,
    DimensionError,
    DiskConflictError,
    MemoryCapacityError,
    NotInClassError,
    ReproError,
    SingularMatrixError,
    ValidationError,
)
from repro.bits.matrix import BitMatrix
from repro.pdm import DiskGeometry, ParallelDiskSystem
from repro.perms import (
    BMMCPermutation,
    BPCPermutation,
    ExplicitPermutation,
    PermClass,
    classify,
)
from repro.core import (
    bounds,
    detect_bmmc,
    factor_bmmc,
    perform_bmmc,
    perform_general_sort,
    perform_mld_pass,
    perform_mrc_pass,
    perform_permutation,
    plan_bmmc_passes,
    store_target_vector,
)
from repro.serve import (
    PermutationRequest,
    PermutationService,
    ServiceResult,
    synthetic_mix,
)

__version__ = "1.0.0"

__all__ = [
    "BitMatrix",
    "DiskGeometry",
    "ParallelDiskSystem",
    "BMMCPermutation",
    "BPCPermutation",
    "ExplicitPermutation",
    "PermClass",
    "classify",
    "bounds",
    "detect_bmmc",
    "factor_bmmc",
    "perform_bmmc",
    "perform_general_sort",
    "perform_mld_pass",
    "perform_mrc_pass",
    "perform_permutation",
    "plan_bmmc_passes",
    "store_target_vector",
    "PermutationRequest",
    "PermutationService",
    "ServiceResult",
    "synthetic_mix",
    "ReproError",
    "ValidationError",
    "DimensionError",
    "SingularMatrixError",
    "NotInClassError",
    "DiskConflictError",
    "MemoryCapacityError",
    "BlockStateError",
    "DetectionError",
    "__version__",
]
