"""``BMMCPermutation``: ``y = A x (+) c`` over GF(2).

The class stores the characteristic matrix ``A`` (validated nonsingular)
and the integer-encoded complement vector ``c``, and implements the
algebra the paper builds on:

* Lemma 1 / Corollary 2 -- composition is matrix product (complement
  vectors compose as ``c = A_2 c_1 (+) c_2``);
* inverse -- ``x = A^{-1} y (+) A^{-1} c``, built once per object;
* Lemma 9's fixed-point machinery -- ``|Pre(A (+) I, c)|`` counts the
  fixed points, which is how the tests validate the universal lower
  bound's "at least N/2 records move" argument.
"""

from __future__ import annotations

import numpy as np

from repro.bits import bitops, linalg
from repro.bits.matrix import BitMatrix
from repro.errors import SingularMatrixError, ValidationError
from repro.perms.base import Permutation

__all__ = ["BMMCPermutation"]


class BMMCPermutation(Permutation):
    """A bit-matrix-multiply/complement permutation."""

    def __init__(self, matrix: BitMatrix, complement: int = 0, validate: bool = True) -> None:
        if not matrix.is_square:
            raise ValidationError(f"characteristic matrix must be square, got {matrix.shape}")
        super().__init__(matrix.num_rows)
        if int(complement) >> self.n or int(complement) < 0:
            raise ValidationError(f"complement vector must fit in {self.n} bits")
        if validate and not linalg.is_nonsingular(matrix):
            raise SingularMatrixError(
                "characteristic matrix is singular; BMMC permutations require "
                "a nonsingular matrix over GF(2)"
            )
        self.matrix = matrix
        self.complement = int(complement)
        self._inverse: BMMCPermutation | None = None

    # -------------------------------------------------------------- protocol
    def apply(self, x: int) -> int:
        return self.matrix.mulvec(x) ^ self.complement

    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        return bitops.apply_affine(self.matrix, self.complement, np.asarray(xs))

    def target_vector(self) -> np.ndarray:
        return bitops.affine_image(self.matrix, self.complement)

    def inverse(self) -> "BMMCPermutation":
        """``x = A^{-1} y (+) A^{-1} c``, the same object on every call.

        Built on the first call and kept, so a shared permutation (the
        named ones :func:`~repro.serve.requests.make_permutation` memoizes)
        pays the GF(2) inversion once.  Only the ``n x n`` matrix is
        kept, never the ``N``-entry image.  Two threads that race on the
        first call build equal inverses; either one may be kept.
        """
        inv = self._inverse
        if inv is None:
            inv = self._inverse = self._build_inverse()
        return inv

    def _build_inverse(self) -> "BMMCPermutation":
        inv = linalg.inverse(self.matrix)
        return BMMCPermutation(inv, inv.mulvec(self.complement), validate=False)

    def compose(self, first: Permutation) -> Permutation:
        """``self o first`` (apply ``first``, then ``self``).

        When ``first`` is BMMC the result is BMMC with matrix
        ``A_self A_first`` (Lemma 1) and complement
        ``A_self c_first (+) c_self``; otherwise falls back to the
        explicit representation.
        """
        if isinstance(first, BMMCPermutation):
            if first.n != self.n:
                raise ValidationError("cannot compose permutations of different sizes")
            return BMMCPermutation(
                self.matrix @ first.matrix,
                self.matrix.mulvec(first.complement) ^ self.complement,
                validate=False,
            )
        return super().compose(first)

    def is_identity(self) -> bool:
        return self.matrix.is_identity and self.complement == 0

    # ----------------------------------------------------- paper's quantities
    def gamma(self, b: int) -> BitMatrix:
        """The paper's ``gamma = A[b..n-1, 0..b-1]`` (Theorem 3's submatrix)."""
        return self.matrix[b : self.n, 0:b]

    def rank_gamma(self, b: int) -> int:
        """``rank gamma``: the quantity both tight bounds are written in."""
        return linalg.rank(self.gamma(b))

    def leading_rank(self, m: int) -> int:
        """Rank of the leading ``m x m`` submatrix (the old bound's ``r``)."""
        return linalg.rank(self.matrix[0:m, 0:m])

    def fixed_point_count(self) -> int:
        """Number of addresses with ``A x (+) c = x`` (Lemma 9's analysis).

        Equals ``|Pre(A (+) I, c)|``: zero if ``c`` is outside the range
        of ``A (+) I``, else ``2^{n - rank(A (+) I)}``; the identity
        permutation fixes all ``N``.
        """
        if self.is_identity():
            return self.N
        a_xor_i = self.matrix ^ BitMatrix.identity(self.n)
        return linalg.preimage_size(a_xor_i, self.complement)

    def is_bpc(self) -> bool:
        return self.matrix.is_permutation_matrix

    def __repr__(self) -> str:
        return (
            f"BMMCPermutation(n={self.n}, c={self.complement:#x})\n{self.matrix!r}"
        )
