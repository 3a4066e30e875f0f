"""``BitMatrix``: a dense 0-1 matrix over GF(2).

The class is a thin, validated wrapper around a ``numpy.uint8`` array.
Matrices in this library are at most ``lg N x lg N`` (so ~64x64), which
keeps every operation cheap; the wrapper exists for correctness, not
speed.  Indexing follows the paper: ``A[r0:r1, c0:c1]`` is the submatrix
``A_{r0..r1-1, c0..c1-1}``; indexing by a single slice selects *columns*
("when a matrix is indexed by just one set rather than two, the set
indexes column numbers").
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.bits import bitops
from repro.errors import DimensionError, ValidationError

__all__ = ["BitMatrix"]


def _coerce(array) -> np.ndarray:
    a = np.asarray(array)
    if a.ndim == 1:
        a = a.reshape(-1, 1)  # vectors are 1-column matrices, as in the paper
    if a.ndim != 2:
        raise DimensionError(f"BitMatrix needs a 2-D array, got ndim={a.ndim}")
    if (
        a.dtype != np.uint8
        and not np.issubdtype(a.dtype, np.integer)
        and a.dtype != np.bool_
    ):
        raise ValidationError(f"BitMatrix entries must be integers, got dtype {a.dtype}")
    a = a.astype(np.uint8, copy=True)
    if (a > 1).any():
        raise ValidationError("BitMatrix entries must be drawn from {0, 1}")
    return a


class BitMatrix:
    """An immutable-by-convention GF(2) matrix.

    All mutating access goes through :meth:`with_entry` /
    :meth:`with_column`, which return new matrices; arithmetic operators
    (``@`` for GF(2) product, ``^`` for entrywise XOR) also return new
    matrices.  This keeps characteristic matrices safely shareable
    between permutation objects and factoring passes.
    """

    __slots__ = ("_a", "__dict__")

    def __init__(self, array: Iterable) -> None:
        self._a = _coerce(array)
        self._a.setflags(write=False)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "BitMatrix":
        """Wrap a 2-D 0-1 ``uint8`` array that no caller can write:
        a fresh result of this class's own arithmetic or a view of a
        matrix's read-only array.  Skips :func:`_coerce`'s copy and
        check, which such arrays pass by construction."""
        a.setflags(write=False)
        matrix = cls.__new__(cls)
        matrix._a = a
        return matrix

    # ---------------------------------------------------------------- basics
    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, p: int, q: int) -> "BitMatrix":
        return cls(np.zeros((p, q), dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        return cls(np.array(rows, dtype=np.uint8))

    @classmethod
    def from_int_columns(cls, columns: Sequence[int], p: int) -> "BitMatrix":
        """Build a ``p x len(columns)`` matrix from integer-encoded columns."""
        a = np.zeros((p, len(columns)), dtype=np.uint8)
        for j, c in enumerate(columns):
            a[:, j] = bitops.int_to_bits(c, p)
        return cls(a)

    @classmethod
    def column_vector(cls, value: int, p: int) -> "BitMatrix":
        """A single ``p``-bit column vector from its integer encoding."""
        return cls(bitops.int_to_bits(value, p).reshape(-1, 1))

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["BitMatrix"]]) -> "BitMatrix":
        """Assemble a matrix from a 2-D grid of blocks (row-major)."""
        rows = [np.hstack([b.to_array() for b in row]) for row in blocks]
        return cls(np.vstack(rows))

    @classmethod
    def permutation(cls, target_of: Sequence[int]) -> "BitMatrix":
        """Permutation matrix sending source bit ``j`` to target bit ``target_of[j]``.

        The resulting ``A`` has ``A[target_of[j], j] = 1``, so
        ``(A x)_{target_of[j]} = x_j`` -- the BPC convention of Section 1.
        """
        n = len(target_of)
        if sorted(target_of) != list(range(n)):
            raise ValidationError("target_of must be a permutation of 0..n-1")
        a = np.zeros((n, n), dtype=np.uint8)
        for j, i in enumerate(target_of):
            a[i, j] = 1
        return cls(a)

    # ------------------------------------------------------------ inspection
    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def num_rows(self) -> int:
        return self._a.shape[0]

    @property
    def num_cols(self) -> int:
        return self._a.shape[1]

    @property
    def is_square(self) -> bool:
        p, q = self._a.shape
        return p == q

    def to_array(self) -> np.ndarray:
        """Read-only view of the underlying uint8 array."""
        return self._a

    @cached_property
    def column_ints(self) -> list[int]:
        """Columns encoded as integers (see :func:`repro.bits.bitops.column_ints`)."""
        return bitops.column_ints(self)

    @cached_property
    def row_ints(self) -> list[int]:
        """Rows encoded as integers (bit ``j`` of entry ``i`` is ``A[i, j]``)."""
        weights = 1 << np.arange(self._a.shape[1], dtype=np.uint64)
        return ((self._a != 0).astype(np.uint64) @ weights).tolist()

    def __getitem__(self, key) -> "BitMatrix | int":
        if isinstance(key, tuple):
            if len(key) != 2:
                raise DimensionError("BitMatrix indexing takes [rows, cols]")
            r, c = key
            if isinstance(r, (int, np.integer)) and isinstance(c, (int, np.integer)):
                return int(self._a[int(r), int(c)])
            return BitMatrix._wrap(self._a[_as_index(r), :][:, _as_index(c)])
        # single index selects *columns*, per the paper's convention
        return BitMatrix._wrap(self._a[:, _as_index(key)])

    def column(self, j: int) -> int:
        """Column ``j`` as an integer-encoded bit vector."""
        return self.column_ints[int(j)]

    def with_entry(self, i: int, j: int, value: int) -> "BitMatrix":
        a = self._a.copy()
        a[i, j] = int(value) & 1
        return BitMatrix._wrap(a)

    def with_column(self, j: int, column: int) -> "BitMatrix":
        a = self._a.copy()
        a[:, j] = bitops.int_to_bits(column, a.shape[0])
        return BitMatrix(a)

    def with_columns_swapped(self, i: int, j: int) -> "BitMatrix":
        a = self._a.copy()
        a[:, [i, j]] = a[:, [j, i]]
        return BitMatrix._wrap(a)

    # ------------------------------------------------------------ arithmetic
    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if not isinstance(other, BitMatrix):
            return NotImplemented
        if self.num_cols != other.num_rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape} over GF(2)"
            )
        prod = (self._a.astype(np.int64) @ other._a.astype(np.int64)) & 1
        return BitMatrix._wrap(prod.astype(np.uint8))

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if not isinstance(other, BitMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"cannot XOR {self.shape} with {other.shape}")
        return BitMatrix._wrap(self._a ^ other._a)

    def mulvec(self, x: int) -> int:
        """GF(2) matrix-vector product with an integer-encoded vector."""
        return bitops.apply_linear_scalar(self.column_ints, int(x))

    @property
    def T(self) -> "BitMatrix":
        return BitMatrix._wrap(self._a.T)

    # ------------------------------------------------------------ predicates
    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and bool((self._a == other._a).all())

    def __hash__(self) -> int:
        return hash((self.shape, self._a.tobytes()))

    @property
    def is_identity(self) -> bool:
        return self.is_square and bool((self._a == np.eye(self.num_rows, dtype=np.uint8)).all())

    @property
    def is_zero(self) -> bool:
        return not self._a.any()

    @property
    def is_permutation_matrix(self) -> bool:
        """Exactly one 1 per row and per column (the BPC restriction)."""
        if not self.is_square:
            return False
        return bool((self._a.sum(axis=0) == 1).all() and (self._a.sum(axis=1) == 1).all())

    def permutation_targets(self) -> np.ndarray:
        """For a permutation matrix, ``target_of[j] = i`` with ``A[i, j] = 1``."""
        if not self.is_permutation_matrix:
            raise ValidationError("matrix is not a permutation matrix")
        return np.argmax(self._a, axis=0)

    # ---------------------------------------------------------------- output
    def __repr__(self) -> str:
        body = "\n".join(" ".join(str(v) for v in row) for row in self._a)
        return f"BitMatrix({self.num_rows}x{self.num_cols}):\n{body}"


def _as_index(key):
    """Normalize a row/column selector to something numpy can fancy-index."""
    if isinstance(key, slice):
        return key
    if isinstance(key, (int, np.integer)):
        return [int(key)]
    return list(key)
