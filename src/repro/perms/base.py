"""Permutation protocol and the explicit (target-vector) representation.

A permutation here is always on the address space ``{0, ..., N-1}`` with
``N = 2^n``.  The abstract interface deliberately exposes *vectorized*
application -- algorithms and verification never loop over records in
Python.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ValidationError

__all__ = ["Permutation", "ExplicitPermutation", "identity_permutation"]


class Permutation(ABC):
    """A bijection on ``{0, ..., 2^n - 1}``."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValidationError(f"address width must be nonnegative, got {n}")
        self.n = int(n)

    @property
    def N(self) -> int:
        """Number of records the permutation acts on."""
        return 1 << self.n

    @abstractmethod
    def apply(self, x: int) -> int:
        """Target address of source address ``x``."""

    @abstractmethod
    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`apply` over a numpy array of addresses."""

    @abstractmethod
    def inverse(self) -> "Permutation":
        """The inverse bijection."""

    def target_vector(self) -> np.ndarray:
        """The full image ``[apply(0), ..., apply(N-1)]`` as int64."""
        return np.asarray(
            self.apply_array(np.arange(self.N, dtype=np.uint64)), dtype=np.int64
        )

    def compose(self, first: "Permutation") -> "Permutation":
        """``self o first``: perform ``first``, then ``self`` (paper order)."""
        if first.n != self.n:
            raise ValidationError("cannot compose permutations of different sizes")
        mine = self.target_vector()
        theirs = first.target_vector()
        return ExplicitPermutation(mine[theirs])

    def is_identity(self) -> bool:
        return bool((self.target_vector() == np.arange(self.N)).all())

    def __call__(self, x: int) -> int:
        return self.apply(x)


class ExplicitPermutation(Permutation):
    """A permutation given by its length-``N`` vector of target addresses.

    This is the input representation of Section 6's run-time detector:
    "if instead the permutation is given by a vector of N target
    addresses".
    """

    def __init__(self, targets: np.ndarray) -> None:
        targets = np.asarray(targets, dtype=np.int64)
        size = targets.shape[0]
        if targets.ndim != 1 or size == 0 or size & (size - 1):
            raise ValidationError("target vector length must be a positive power of two")
        super().__init__(size.bit_length() - 1)
        seen = np.zeros(size, dtype=bool)
        if targets.min() < 0 or targets.max() >= size:
            raise ValidationError("target addresses out of range")
        seen[targets] = True
        if not seen.all():
            raise ValidationError("target vector is not a bijection")
        self._targets = targets

    def apply(self, x: int) -> int:
        return int(self._targets[int(x)])

    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        return self._targets[np.asarray(xs, dtype=np.int64)]

    def target_vector(self) -> np.ndarray:
        return self._targets.copy()

    def inverse(self) -> "ExplicitPermutation":
        inv = np.empty_like(self._targets)
        inv[self._targets] = np.arange(self.N, dtype=np.int64)
        return ExplicitPermutation(inv)


def identity_permutation(n: int) -> ExplicitPermutation:
    """The identity on ``2^n`` addresses."""
    return ExplicitPermutation(np.arange(1 << n, dtype=np.int64))
