"""Unit tests for the BitMatrix wrapper."""

import numpy as np
import pytest

from repro.bits import linalg
from repro.bits.matrix import BitMatrix
from repro.errors import DimensionError, ValidationError


class TestConstruction:
    def test_from_rows(self):
        m = BitMatrix.from_rows([[1, 0], [0, 1]])
        assert m.is_identity

    def test_identity(self):
        assert BitMatrix.identity(5).shape == (5, 5)
        assert BitMatrix.identity(5).is_identity

    def test_zeros(self):
        z = BitMatrix.zeros(3, 4)
        assert z.shape == (3, 4) and z.is_zero

    def test_vector_coercion(self):
        v = BitMatrix(np.array([1, 0, 1], dtype=np.uint8))
        assert v.shape == (3, 1)  # vectors are 1-column matrices (paper convention)

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            BitMatrix(np.array([[2, 0], [0, 1]]))

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            BitMatrix(np.array([[0.5, 0.0], [0.0, 1.0]]))

    def test_rejects_3d(self):
        with pytest.raises(DimensionError):
            BitMatrix(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_from_int_columns(self):
        m = BitMatrix.from_int_columns([0b01, 0b10], 2)
        assert m.is_identity

    def test_column_vector(self):
        v = BitMatrix.column_vector(0b101, 3)
        assert v.shape == (3, 1)
        assert v.column(0) == 0b101

    def test_from_blocks(self):
        a = BitMatrix.identity(2)
        z = BitMatrix.zeros(2, 2)
        m = BitMatrix.from_blocks([[a, z], [z, a]])
        assert m.is_identity and m.shape == (4, 4)

    def test_permutation(self):
        p = BitMatrix.permutation([2, 0, 1])
        # source bit 0 -> target bit 2, etc.
        assert p[2, 0] == 1 and p[0, 1] == 1 and p[1, 2] == 1
        assert p.is_permutation_matrix

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(ValidationError):
            BitMatrix.permutation([0, 0, 1])


class TestImmutability:
    def test_underlying_array_readonly(self):
        m = BitMatrix.identity(3)
        with pytest.raises(ValueError):
            m.to_array()[0, 0] = 0

    def test_derived_matrices_readonly_and_valid(self):
        """Products, slices, transposes and inverses skip revalidation;
        each is still read-only and equal to a validated copy."""
        a = BitMatrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        derived = [
            a @ a, a ^ a.T, a.T, a[0:2, 1:3], a[[2, 0], :][:, [1]], a[1:],
            a.with_entry(0, 0, 0), a.with_columns_swapped(0, 2),
            linalg.inverse(a),
        ]
        for d in derived:
            with pytest.raises(ValueError):
                d.to_array()[0, 0] = 1
            assert d == BitMatrix(d.to_array().copy())
        assert linalg.inverse(a) @ a == BitMatrix.identity(3)

    def test_with_entry_returns_new(self):
        m = BitMatrix.zeros(2, 2)
        m2 = m.with_entry(0, 1, 1)
        assert m.is_zero and m2[0, 1] == 1

    def test_with_column(self):
        m = BitMatrix.zeros(3, 2)
        m2 = m.with_column(1, 0b101)
        assert m2.column(1) == 0b101 and m.is_zero

    def test_with_columns_swapped(self):
        m = BitMatrix.from_rows([[1, 0], [0, 1]])
        s = m.with_columns_swapped(0, 1)
        assert s[0, 1] == 1 and s[1, 0] == 1


class TestIndexing:
    def test_paper_submatrix_convention(self):
        m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        sub = m[1:3, 0:2]
        assert sub.shape == (2, 2)
        assert sub.to_array().tolist() == [[0, 1], [1, 0]]

    def test_single_index_selects_columns(self):
        m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        cols = m[[0, 2]]
        assert cols.shape == (2, 2)
        assert cols.to_array().tolist() == [[1, 0], [0, 1]]

    def test_scalar_entry(self):
        m = BitMatrix.from_rows([[1, 0], [0, 1]])
        assert m[0, 0] == 1 and m[0, 1] == 0

    def test_column_int(self):
        m = BitMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
        assert m.column(0) == 0b011 and m.column(1) == 0b110


class TestArithmetic:
    def test_matmul_mod_2(self):
        a = BitMatrix.from_rows([[1, 1], [0, 1]])
        assert (a @ a).to_array().tolist() == [[1, 0], [0, 1]]  # involution

    def test_matmul_dimension_check(self):
        with pytest.raises(DimensionError):
            BitMatrix.identity(2) @ BitMatrix.identity(3)

    def test_xor(self):
        a = BitMatrix.identity(3)
        assert (a ^ a).is_zero

    def test_xor_shape_check(self):
        with pytest.raises(DimensionError):
            BitMatrix.identity(2) ^ BitMatrix.identity(3)

    def test_mulvec(self):
        a = BitMatrix.from_rows([[0, 1], [1, 0]])  # swap bits
        assert a.mulvec(0b01) == 0b10
        assert a.mulvec(0b10) == 0b01

    def test_transpose(self):
        m = BitMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
        assert m.T.shape == (3, 2)
        assert m.T.to_array().tolist() == [[1, 0], [1, 0], [0, 1]]

    def test_matmul_associativity_spot(self):
        rng = np.random.default_rng(1)
        a = BitMatrix(rng.integers(0, 2, (4, 4), dtype=np.uint8))
        b = BitMatrix(rng.integers(0, 2, (4, 4), dtype=np.uint8))
        c = BitMatrix(rng.integers(0, 2, (4, 4), dtype=np.uint8))
        assert (a @ b) @ c == a @ (b @ c)


class TestPredicates:
    def test_equality_and_hash(self):
        a = BitMatrix.identity(3)
        b = BitMatrix.identity(3)
        assert a == b and hash(a) == hash(b)
        assert a != BitMatrix.zeros(3, 3)

    def test_is_permutation_matrix(self):
        assert BitMatrix.identity(4).is_permutation_matrix
        assert not BitMatrix.zeros(3, 3).is_permutation_matrix
        assert not BitMatrix.from_rows([[1, 1], [0, 1]]).is_permutation_matrix

    def test_permutation_targets_roundtrip(self):
        p = BitMatrix.permutation([3, 1, 0, 2])
        assert list(p.permutation_targets()) == [3, 1, 0, 2]

    def test_permutation_targets_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            BitMatrix.from_rows([[1, 1], [0, 1]]).permutation_targets()

    def test_row_ints(self):
        m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 0]])
        assert m.row_ints == [0b101, 0b010]

    def test_repr_contains_entries(self):
        assert "1" in repr(BitMatrix.identity(2))
