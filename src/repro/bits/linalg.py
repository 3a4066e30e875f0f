"""GF(2) linear algebra: elimination, rank, inverse, kernels, preimages.

Elimination is done on *row-packed* integers (each matrix row becomes one
Python integer, bit ``j`` = column ``j``), so a full reduction of an
``n x n`` matrix costs ``O(n^2)`` word operations -- the ``O(lg^3 N)``
serial work the paper quotes for its on-line computations.

The functions here implement, verbatim, the linear-algebra facts the
paper proves for completeness:

* Lemma 7  -- ``|R(A) (+) c| = 2^rank(A)`` (:func:`matrix_range_size`);
* Lemma 8  -- ``|Pre(A, y)| = 2^{q - rank(A)}`` (:func:`preimage_size`,
  :func:`preimage`);
* Lemma 11 -- row space / kernel orthogonality is exercised by the tests
  through :func:`kernel_basis` and :func:`row_space_basis`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.bits.matrix import BitMatrix
from repro.errors import DimensionError, SingularMatrixError, ValidationError

__all__ = [
    "rank",
    "is_nonsingular",
    "inverse",
    "solve",
    "kernel_basis",
    "row_space_basis",
    "independent_columns",
    "express_in_column_basis",
    "complete_column_basis",
    "matrix_range_size",
    "in_range",
    "range_iter",
    "preimage_size",
    "preimage",
    "preimage_iter",
]


# --------------------------------------------------------------------------
# row-packed elimination core
# --------------------------------------------------------------------------

def _packed_rows(matrix: BitMatrix) -> list[int]:
    return list(matrix.row_ints)


def _echelon(rows: list[int], q: int) -> tuple[list[int], list[int]]:
    """Reduce packed rows to *reduced* row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped.
    Pivot search scans columns left to right (column 0 = bit 0), matching
    the paper's left-to-right choice of "a maximal set of linearly
    independent columns".
    """
    rows = [r for r in rows]
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(q):
        mask = 1 << col
        pivot_row = None
        for idx, r in enumerate(rows):
            if r & mask:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        piv = rows.pop(pivot_row)
        rows = [r ^ piv if r & mask else r for r in rows]
        reduced = [r ^ piv if r & mask else r for r in reduced]
        reduced.append(piv)
        pivots.append(col)
        if not rows:
            break
    return reduced, pivots


def rank(matrix: BitMatrix) -> int:
    """Rank of a 0-1 matrix over GF(2)."""
    _, pivots = _echelon(_packed_rows(matrix), matrix.num_cols)
    return len(pivots)


def is_nonsingular(matrix: BitMatrix) -> bool:
    """True iff the matrix is square and invertible over GF(2)."""
    return matrix.is_square and rank(matrix) == matrix.num_rows


def inverse(matrix: BitMatrix) -> BitMatrix:
    """Inverse over GF(2); raises :class:`SingularMatrixError` otherwise."""
    if not matrix.is_square:
        raise DimensionError(f"only square matrices invert; got {matrix.shape}")
    n = matrix.num_rows
    # Augment each packed row with the corresponding identity row above bit n.
    rows = [r | (1 << (n + i)) for i, r in enumerate(_packed_rows(matrix))]
    reduced, pivots = _echelon_augmented(rows, n)
    if len(pivots) != n:
        raise SingularMatrixError("matrix is singular over GF(2)")
    inv_rows = [0] * n
    for piv_col, r in zip(pivots, reduced):
        inv_rows[piv_col] = r >> n
    bits = np.array(inv_rows, dtype=np.uint64)[:, None] >> np.arange(n, dtype=np.uint64)
    return BitMatrix._wrap((bits & 1).astype(np.uint8))


def _echelon_augmented(rows: list[int], q: int) -> tuple[list[int], list[int]]:
    """Like :func:`_echelon` but only the low ``q`` bits are pivot columns."""
    rows = [r for r in rows]
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(q):
        mask = 1 << col
        pivot_row = None
        for idx, r in enumerate(rows):
            if r & mask:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        piv = rows.pop(pivot_row)
        rows = [r ^ piv if r & mask else r for r in rows]
        reduced = [r ^ piv if r & mask else r for r in reduced]
        reduced.append(piv)
        pivots.append(col)
    return reduced, pivots


# --------------------------------------------------------------------------
# solving and subspaces
# --------------------------------------------------------------------------

def solve(matrix: BitMatrix, y: int) -> int | None:
    """One solution ``x`` of ``A x = y`` over GF(2), or ``None`` if none exists.

    ``y`` is an integer-encoded ``p``-bit vector; the result is a
    ``q``-bit integer.  All solutions are ``x (+) k`` for ``k`` in the
    kernel (see :func:`preimage_iter`).
    """
    p, q = matrix.shape
    if int(y) >> p:
        raise ValidationError(f"target vector does not fit in {p} bits")
    # Solve via the transpose trick: eliminate on columns by transposing.
    at = matrix.T
    rows = _packed_rows(at)  # row i of A^T = column i of A, packed over p bits
    # Augment each "column row" with its index marker above bit p.
    aug = [r | (1 << (p + i)) for i, r in enumerate(rows)]
    # Also append y as a row to test dependence.
    reduced: list[int] = []
    for r in aug:
        cur = r
        for red in reduced:
            low = red & ((1 << p) - 1)
            if low and cur & (low & -low):
                cur ^= red
        if cur & ((1 << p) - 1):
            reduced.append(cur)
    # Reduce y against the basis.
    cur = int(y)
    marker = 0
    for red in reduced:
        low = red & ((1 << p) - 1)
        if low and cur & (low & -low):
            cur ^= low
            marker ^= red >> p
    if cur != 0:
        return None
    return marker


def kernel_basis(matrix: BitMatrix) -> BitMatrix:
    """Basis of ``ker A = {x : A x = 0}`` as the columns of a ``q x k`` matrix.

    ``k = q - rank(A)``; the zero kernel yields a ``q x 0`` matrix.
    """
    p, q = matrix.shape
    reduced, pivots = _echelon(_packed_rows(matrix), q)
    pivot_set = set(pivots)
    free_cols = [j for j in range(q) if j not in pivot_set]
    basis = np.zeros((q, len(free_cols)), dtype=np.uint8)
    for k, j in enumerate(free_cols):
        basis[j, k] = 1
        # Back-substitute: pivot variable x_{pc} = sum of free entries in its row.
        for pc, row in zip(pivots, reduced):
            if (row >> j) & 1:
                basis[pc, k] = 1
    return BitMatrix(basis) if free_cols else BitMatrix(np.zeros((q, 0), dtype=np.uint8))


def row_space_basis(matrix: BitMatrix) -> BitMatrix:
    """Basis of the row space, one basis vector per matrix row."""
    reduced, _ = _echelon(_packed_rows(matrix), matrix.num_cols)
    q = matrix.num_cols
    a = np.zeros((len(reduced), q), dtype=np.uint8)
    for i, r in enumerate(reduced):
        for j in range(q):
            a[i, j] = (r >> j) & 1
    return BitMatrix(a) if reduced else BitMatrix(np.zeros((0, q), dtype=np.uint8))


def independent_columns(
    matrix: BitMatrix, order: Iterable[int] | None = None
) -> list[int]:
    """Greedy maximal set of linearly independent column indices.

    Columns are examined in ``order`` (default: left to right, the
    paper's convention); a column joins the set iff it is independent of
    those already chosen.  The returned indices are in examination order.
    """
    p = matrix.num_rows
    cols = matrix.column_ints
    order = range(matrix.num_cols) if order is None else list(order)
    basis: list[int] = []  # reduced representatives
    chosen: list[int] = []
    for j in order:
        cur = cols[j]
        for b in basis:
            if cur & (b & -b):
                cur ^= b
        if cur:
            # keep basis reduced so each vector owns a distinct lowest bit
            basis = [b ^ cur if b & (cur & -cur) else b for b in basis]
            basis.append(cur)
            chosen.append(j)
            if len(chosen) == p:
                break
    return chosen


def express_in_column_basis(
    matrix: BitMatrix, basis_cols: Sequence[int], target: int
) -> list[int] | None:
    """Indices ``S`` within ``basis_cols`` with ``XOR of those columns == target``.

    Returns ``None`` when ``target`` is outside the span.  Used by the
    reducer construction of Section 5 to zero out dependent columns.
    """
    sub = matrix[:, list(basis_cols)]
    coeffs = solve(sub, target)
    if coeffs is None:
        return None
    return [basis_cols[t] for t in range(len(basis_cols)) if (coeffs >> t) & 1]


def complete_column_basis(
    matrix: BitMatrix,
    primary: Sequence[int],
    candidates: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Extend an independent set of ``primary`` columns using ``candidates``.

    Returns ``(kept_primary, added_candidates)``: the greedy maximal
    independent subset of ``primary`` (in order) plus the candidate
    columns that extend it.  This is exactly the Gaussian-elimination
    step of Section 5's trailer construction ("a maximal set V of
    linearly independent columns in delta and a set W of columns ...
    that, along with V, comprise a set of n-m linearly independent
    columns").
    """
    chosen = independent_columns(matrix, order=list(primary) + list(candidates))
    primary_set = set(primary)
    kept = [j for j in chosen if j in primary_set]
    added = [j for j in chosen if j not in primary_set]
    return kept, added


# --------------------------------------------------------------------------
# ranges and preimages (Lemmas 7 and 8)
# --------------------------------------------------------------------------

def matrix_range_size(matrix: BitMatrix) -> int:
    """``|R(A)| = 2^rank(A)`` (Lemma 7; XORing a constant keeps the size)."""
    return 1 << rank(matrix)


def in_range(matrix: BitMatrix, y: int) -> bool:
    """Whether ``y`` is in ``R(A)``."""
    return solve(matrix, y) is not None


def range_iter(matrix: BitMatrix) -> Iterator[int]:
    """Iterate ``R(A)`` (all ``2^rank`` values) without repeats.

    Enumerates XOR-combinations of an independent column subset; only
    call for small ranks.
    """
    idx = independent_columns(matrix)
    cols = [matrix.column_ints[j] for j in idx]
    r = len(cols)
    for bits in range(1 << r):
        y = 0
        t = bits
        k = 0
        while t:
            if t & 1:
                y ^= cols[k]
            t >>= 1
            k += 1
        yield y


def preimage_size(matrix: BitMatrix, y: int) -> int:
    """``|Pre(A, y)|``: ``2^{q-rank}`` if ``y`` is in range, else 0 (Lemma 8)."""
    if not in_range(matrix, y):
        return 0
    return 1 << (matrix.num_cols - rank(matrix))


def preimage(matrix: BitMatrix, y: int) -> int | None:
    """One element of ``Pre(A, y)`` or ``None``."""
    return solve(matrix, y)


def preimage_iter(matrix: BitMatrix, y: int) -> Iterator[int]:
    """Iterate the whole preimage set ``{x : A x = y}``.

    Combines one particular solution with every kernel element; only
    call when ``q - rank`` is small.
    """
    x0 = solve(matrix, y)
    if x0 is None:
        return
    ker = kernel_basis(matrix)
    kcols = ker.column_ints
    k = len(kcols)
    for bits in range(1 << k):
        x = x0
        t = bits
        i = 0
        while t:
            if t & 1:
                x ^= kcols[i]
            t >>= 1
            i += 1
        yield x
