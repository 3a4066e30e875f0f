"""Classification of permutations into the paper's class lattice.

Given a geometry, a BMMC permutation may additionally be BPC (structural
property of ``A``), MRC, and/or MLD (properties relative to ``b`` and
``m``).  The classes overlap but do not nest linearly; for algorithm
dispatch the relevant *cost* order is

    identity (0 passes)  <  MRC / MLD (1 pass)  <  general BMMC.

Every MRC permutation is MLD (end of Section 3), so the dispatcher
prefers MRC (striped writes) over MLD (independent writes) when both
hold.

:func:`fit_bmmc` recovers ``(A, c)`` from an explicit target vector by
the two observations of Section 6 (``c = pi(0)``, columns from unit
vectors) -- this is the *algebraic* fitting step; the I/O-faithful
schedule lives in :mod:`repro.core.detect`.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.bits import bitops, linalg
from repro.bits.matrix import BitMatrix
from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.perms.base import ExplicitPermutation, Permutation
from repro.perms.bmmc import BMMCPermutation
from repro.perms.mld import is_mld
from repro.perms.mrc import is_mrc

__all__ = ["PermClass", "classify", "classify_matrix", "fit_bmmc"]


class PermClass(enum.Enum):
    IDENTITY = "identity"
    MRC = "mrc"
    MLD = "mld"
    INVERSE_MLD = "inverse-mld"
    BPC = "bpc"
    BMMC = "bmmc"
    NON_BMMC = "non-bmmc"


def classify_matrix(
    matrix: BitMatrix, complement: int, geometry: DiskGeometry
) -> set[PermClass]:
    """All classes a (validated-nonsingular) characteristic matrix falls in."""
    from repro.core.inverse_mld import is_inverse_mld

    labels = {PermClass.BMMC}
    if matrix.is_identity and complement == 0:
        labels.add(PermClass.IDENTITY)
    if matrix.is_permutation_matrix:
        labels.add(PermClass.BPC)
    if is_mrc(matrix, geometry.m):
        labels.add(PermClass.MRC)
        labels.add(PermClass.MLD)  # every MRC permutation is MLD (Section 3)
    elif is_mld(matrix, geometry.b, geometry.m):
        labels.add(PermClass.MLD)
    if is_inverse_mld(matrix, geometry.b, geometry.m):
        # Section 7: the inverse of a one-pass permutation is one-pass.
        labels.add(PermClass.INVERSE_MLD)
    return labels


def classify(perm: Permutation, geometry: DiskGeometry) -> set[PermClass]:
    """Classes of any permutation; explicit permutations are fitted first."""
    if perm.N != geometry.N:
        raise ValidationError(
            f"permutation acts on {perm.N} records but geometry has {geometry.N}"
        )
    if isinstance(perm, BMMCPermutation):
        return classify_matrix(perm.matrix, perm.complement, geometry)
    fitted = fit_bmmc(perm.target_vector())
    if fitted is None:
        labels = {PermClass.NON_BMMC}
        if perm.is_identity():
            labels.add(PermClass.IDENTITY)
        return labels
    matrix, complement = fitted
    return classify_matrix(matrix, complement, geometry)


def fit_bmmc(targets: np.ndarray) -> tuple[BitMatrix, int] | None:
    """Recover ``(A, c)`` from a target vector, or ``None`` if not BMMC.

    Builds the unique candidate (``c = targets[0]``,
    ``A_k = targets[2^k] (+) c``), requires it nonsingular, then
    verifies ``y = A x (+) c`` for *all* addresses (vectorized).
    """
    targets = np.asarray(targets, dtype=np.int64)
    size = targets.shape[0]
    if size == 0 or size & (size - 1):
        return None
    n = size.bit_length() - 1
    c = int(targets[0])
    columns = [int(targets[1 << k]) ^ c for k in range(n)]
    matrix = BitMatrix.from_int_columns(columns, n)
    if not linalg.is_nonsingular(matrix):
        return None
    if not (bitops.affine_image(matrix, c) == targets).all():
        return None
    return matrix, c
