"""BPC permutations and cross-ranks (eqs. 2-3 of the paper).

A bit-permute/complement permutation's characteristic matrix is a
permutation matrix: target address bits are a fixed permutation of
source address bits, optionally complemented.  The prior-art BPC bound
of [4] is written in terms of the *cross-rank*

    ``rho(A) = max(rho_b(A), rho_m(A))``,
    ``rho_k(A) = rank A[k..n-1, 0..k-1] = rank A[0..k-1, k..n-1]``

which for a permutation matrix counts the source bits below position
``k`` that map to positions at or above ``k``.  This paper's Theorem 21
obviates the cross-rank, but the benchmarks still report it for the
Table 1 comparison.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bits import linalg
from repro.bits.matrix import BitMatrix
from repro.errors import ValidationError
from repro.perms.bmmc import BMMCPermutation

__all__ = ["BPCPermutation", "k_cross_rank", "cross_rank"]


class BPCPermutation(BMMCPermutation):
    """A bit-permute/complement permutation.

    ``target_of[j]`` is the target bit position of source bit ``j``;
    the characteristic matrix has ``A[target_of[j], j] = 1``.
    """

    def __init__(self, target_of: Sequence[int], complement: int = 0) -> None:
        matrix = BitMatrix.permutation(list(target_of))
        super().__init__(matrix, complement, validate=False)
        self.target_of = list(int(t) for t in target_of)

    @classmethod
    def from_matrix(cls, matrix: BitMatrix, complement: int = 0) -> "BPCPermutation":
        if not matrix.is_permutation_matrix:
            raise ValidationError("BPC requires a permutation characteristic matrix")
        return cls([int(t) for t in matrix.permutation_targets()], complement)

    def apply(self, x: int) -> int:
        y = 0
        for j, t in enumerate(self.target_of):
            if (x >> j) & 1:
                y |= 1 << t
        return y ^ self.complement

    def _build_inverse(self) -> "BPCPermutation":
        """The inverse bit permutation, built once per object by
        :meth:`BMMCPermutation.inverse` (which returns it on every call)."""
        inv = [0] * self.n
        for j, t in enumerate(self.target_of):
            inv[t] = j
        # inverse complement: x = A^{-1}(y xor c); A^{-1} permutes c's bits
        c = 0
        for j, t in enumerate(self.target_of):
            if (self.complement >> t) & 1:
                c |= 1 << j
        return BPCPermutation(inv, c)

    def cross_rank(self, b: int, m: int) -> int:
        """``rho(A) = max(rho_b, rho_m)`` (eq. 3)."""
        return cross_rank(self.matrix, b, m)

    def __repr__(self) -> str:
        return f"BPCPermutation(target_of={self.target_of}, c={self.complement:#x})"


def k_cross_rank(matrix: BitMatrix, k: int) -> int:
    """``rho_k(A) = rank A[k..n-1, 0..k-1]`` (eq. 2).

    For permutation matrices the two expressions of eq. 2 agree; the
    implementation works for any matrix and the tests check the
    symmetry on permutation matrices.
    """
    n = matrix.num_rows
    if not (0 <= k <= n):
        raise ValidationError(f"cross-rank index {k} out of range for n={n}")
    if k in (0, n):
        return 0
    return linalg.rank(matrix[k:n, 0:k])


def cross_rank(matrix: BitMatrix, b: int, m: int) -> int:
    """``rho(A) = max(rho_b(A), rho_m(A))`` (eq. 3)."""
    return max(k_cross_rank(matrix, b), k_cross_rank(matrix, m))
