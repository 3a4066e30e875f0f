"""Unit tests for address <-> bit-vector conversions and affine application."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bits import bitops
from repro.bits.matrix import BitMatrix
from repro.bits.random import random_nonsingular
from repro.errors import ValidationError
from repro.perms.bmmc import BMMCPermutation


class TestIntToBits:
    def test_lsb_first(self):
        bits = bitops.int_to_bits(0b1101, 4)
        assert list(bits) == [1, 0, 1, 1]

    def test_zero(self):
        assert list(bitops.int_to_bits(0, 5)) == [0, 0, 0, 0, 0]

    def test_zero_width(self):
        assert bitops.int_to_bits(0, 0).size == 0

    def test_full_width(self):
        assert list(bitops.int_to_bits(0b111, 3)) == [1, 1, 1]

    def test_overflow_rejected(self):
        with pytest.raises(ValidationError):
            bitops.int_to_bits(8, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            bitops.int_to_bits(-1, 4)

    def test_negative_width_rejected(self):
        with pytest.raises(ValidationError):
            bitops.int_to_bits(0, -1)


class TestBitsToInt:
    def test_roundtrip(self):
        for x in [0, 1, 5, 127, 2**20 - 3]:
            assert bitops.bits_to_int(bitops.int_to_bits(x, 21)) == x

    def test_accepts_lists(self):
        assert bitops.bits_to_int([1, 0, 1]) == 0b101

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            bitops.bits_to_int([0, 2, 1])


class TestPopcountParity:
    def test_popcount(self):
        assert bitops.popcount(0) == 0
        assert bitops.popcount(0b1011) == 3

    def test_parity(self):
        assert bitops.parity(0) == 0
        assert bitops.parity(0b1011) == 1
        assert bitops.parity(0b11) == 0


class TestColumnInts:
    def test_identity_columns(self):
        cols = bitops.column_ints(BitMatrix.identity(4))
        assert cols == [1, 2, 4, 8]

    def test_zero_matrix(self):
        assert bitops.column_ints(BitMatrix.zeros(3, 2)) == [0, 0]

    def test_explicit(self):
        m = BitMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
        # column 0 = (1,1,0) -> 0b011; column 1 = (0,1,1) -> 0b110
        assert bitops.column_ints(m) == [0b011, 0b110]


class TestApplyAffine:
    def test_identity(self):
        eye = BitMatrix.identity(6)
        xs = np.arange(64, dtype=np.uint64)
        assert (bitops.apply_affine(eye, 0, xs) == xs).all()

    def test_complement_only(self):
        eye = BitMatrix.identity(6)
        xs = np.arange(64, dtype=np.uint64)
        ys = bitops.apply_affine(eye, 0b111111, xs)
        assert (ys == (xs ^ np.uint64(63))).all()

    def test_scalar_path(self):
        a = random_nonsingular(7, np.random.default_rng(5))
        y = bitops.apply_affine(a, 3, 19)
        assert isinstance(y, int)
        assert y == a.mulvec(19) ^ 3

    def test_matches_mulvec_elementwise(self):
        a = random_nonsingular(9, np.random.default_rng(6))
        c = 0b101010101
        xs = np.arange(512, dtype=np.uint64)
        ys = bitops.apply_affine(a, c, xs)
        for x in [0, 1, 2, 100, 511]:
            assert int(ys[x]) == a.mulvec(x) ^ c

    def test_rectangular_projection(self):
        # 2x4 matrix projecting onto the low two bits.
        a = BitMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
        xs = np.arange(16, dtype=np.uint64)
        ys = bitops.apply_affine(a, 0, xs)
        assert (ys == (xs & np.uint64(3))).all()
        assert (bitops.affine_image(a, 0) == ys.astype(np.int64)).all()

    def test_address_overflow_rejected(self):
        a = BitMatrix.identity(3)
        with pytest.raises(ValidationError):
            bitops.apply_affine(a, 0, np.array([8], dtype=np.uint64))

    def test_is_permutation_when_nonsingular(self):
        a = random_nonsingular(8, np.random.default_rng(7))
        for ys in (
            bitops.apply_affine(a, 0b1010, np.arange(256, dtype=np.uint64)),
            BMMCPermutation(a, 0b1010).target_vector(),
        ):
            assert np.unique(np.asarray(ys)).size == 256

    @given(st.integers(0, 12), st.integers(0, 2**31))
    @example(0, 0)
    @settings(max_examples=60, deadline=None)
    def test_target_vector_matches_apply_affine(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_nonsingular(n, rng)
        c = int(rng.integers(0, 1 << n))
        image = BMMCPermutation(a, c).target_vector()
        expected = bitops.apply_affine(a, c, np.arange(1 << n, dtype=np.uint64))
        assert image.dtype == np.int64
        assert (image == np.asarray(expected, dtype=np.int64)).all()


class TestApplyLinearScalar:
    def test_matches_matrix(self):
        a = random_nonsingular(6, np.random.default_rng(8))
        cols = a.column_ints
        for x in range(64):
            assert bitops.apply_linear_scalar(cols, x) == a.mulvec(x)

    def test_empty(self):
        assert bitops.apply_linear_scalar([], 0) == 0
