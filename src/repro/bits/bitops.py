"""Scalar and vectorized operations on addresses as GF(2) bit vectors.

Addresses are plain Python/numpy integers; bit ``k`` of the integer is
coordinate ``x_k`` of the paper's column vector ``x = (x_0 ... x_{n-1})``
(least significant bit first, Figure 2).  Two vectorized evaluators
of ``y = A x (+) c`` carry the library's hot paths.
:func:`apply_affine` maps an arbitrary numpy array of addresses with
one XOR-fold per matrix column instead of one GF(2) matrix-vector
product per record.  :func:`affine_image` builds the image of the
*whole* address space by doubling, one XOR per record; it is what makes
full-disk verification and whole-pass planning cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bits.matrix import BitMatrix

__all__ = [
    "int_to_bits",
    "bits_to_int",
    "popcount",
    "parity",
    "column_ints",
    "apply_affine",
    "affine_image",
    "apply_linear_scalar",
]


def int_to_bits(x: int, n: int) -> np.ndarray:
    """Expand integer ``x`` into an LSB-first length-``n`` 0/1 vector.

    ``int_to_bits(x, n)[k]`` is the paper's address bit ``x_k``.
    """
    x = int(x)
    if x < 0:
        raise ValidationError(f"addresses are nonnegative, got {x}")
    if n < 0:
        raise ValidationError(f"bit length must be nonnegative, got {n}")
    if x >> n:
        raise ValidationError(f"{x} does not fit in {n} bits")
    return np.array([(x >> k) & 1 for k in range(n)], dtype=np.uint8)


def bits_to_int(bits: Sequence[int] | np.ndarray) -> int:
    """Fold an LSB-first 0/1 vector back into an integer."""
    out = 0
    for k, bit in enumerate(bits):
        bit = int(bit)
        if bit not in (0, 1):
            raise ValidationError(f"bit vector entries must be 0/1, got {bit}")
        out |= bit << k
    return out


def popcount(x: int) -> int:
    """Number of set bits of a nonnegative integer."""
    return int(x).bit_count()


def parity(x: int) -> int:
    """Parity (sum over GF(2)) of the bits of ``x``."""
    return int(x).bit_count() & 1


def column_ints(matrix: "BitMatrix") -> list[int]:
    """Integer encodings of a matrix's columns.

    Column ``j`` of ``A`` becomes the integer ``sum_i A[i, j] << i``.
    Since ``y = A x`` over GF(2) is the XOR of the columns ``A_j`` with
    ``x_j = 1``, these integers let :func:`apply_affine` evaluate the map
    with word-level XORs.
    """
    a = matrix.to_array()
    weights = 1 << np.arange(a.shape[0], dtype=np.uint64)
    return (weights @ (a != 0).astype(np.uint64)).tolist()


def apply_affine(
    matrix: "BitMatrix",
    complement: int,
    addresses: np.ndarray | Sequence[int] | int,
) -> np.ndarray | int:
    """Evaluate ``y = A x (+) c`` for one address or an array of them.

    ``matrix`` is ``p x q``; addresses must fit in ``q`` bits and results
    are ``p``-bit integers.  The array path costs ``O(q)`` vectorized XOR
    passes over the input; for the image of every address use
    :func:`affine_image`, which costs one.
    """
    scalar = np.isscalar(addresses) or isinstance(addresses, int)
    xs = np.asarray(addresses, dtype=np.uint64).reshape(-1)
    p, q = matrix.shape
    if q < 64 and xs.size and int(xs.max(initial=0)) >> q:
        raise ValidationError(f"address does not fit in {q} bits")
    cols = matrix.column_ints
    ys = np.full(xs.shape, np.uint64(int(complement)), dtype=np.uint64)
    one = np.uint64(1)
    for j in range(q):
        if cols[j]:
            mask = -((xs >> np.uint64(j)) & one)  # all-ones where bit j set
            ys ^= mask & np.uint64(cols[j])
    if scalar:
        return int(ys[0])
    return ys


def affine_image(matrix: "BitMatrix", complement: int) -> np.ndarray:
    """``[A x (+) c for x in range(2^q)]`` as int64, for a ``p x q`` matrix.

    Built by doubling: ``y[0] = c``, and the addresses ``2^j .. 2^(j+1)-1``
    are those below ``2^j`` with bit ``j`` set, so their images are
    ``y[:2^j] (+) A_j``.  That is one XOR per record, against
    :func:`apply_affine`'s one pass per column.
    """
    q = matrix.num_cols
    ys = np.empty(1 << q, dtype=np.int64)
    ys[0] = complement
    for j, column in enumerate(matrix.column_ints):
        half = 1 << j
        np.bitwise_xor(ys[:half], column, out=ys[half : 2 * half])
    return ys


def apply_linear_scalar(columns: Sequence[int], x: int) -> int:
    """Evaluate ``y = A x`` from precomputed column integers, scalar path."""
    y = 0
    j = 0
    x = int(x)
    while x:
        if x & 1:
            y ^= columns[j]
        x >>= 1
        j += 1
    return y
