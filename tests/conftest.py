"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.bits.matrix import BitMatrix
from repro.pdm.geometry import DiskGeometry


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running property suites (deselect with -m 'not slow')"
    )


# --------------------------------------------------------------------------
# geometries
# --------------------------------------------------------------------------

#: The paper's Figure 1 geometry (N=64, B=2, D=8; M chosen minimal legal).
FIGURE1_GEOMETRY = dict(N=64, B=2, D=8, M=32)

#: The paper's Figure 2 geometry (n=13, b=3, d=4, m=8, s=6).
FIGURE2_GEOMETRY = dict(N=2**13, B=2**3, D=2**4, M=2**8)

#: Default geometry for algorithm tests: big enough to be interesting,
#: small enough for potential tracking. n=12 b=3 d=2 m=7.
SMALL_GEOMETRY = dict(N=2**12, B=2**3, D=2**2, M=2**7)

#: A sweep of valid geometries covering corner cases:
#: single disk, B=1, BD=M (memory exactly one parallel I/O), deep stripes.
GEOMETRY_SWEEP = [
    dict(N=2**10, B=2**3, D=2**2, M=2**7),
    dict(N=2**12, B=2**3, D=2**2, M=2**7),
    dict(N=2**10, B=2**2, D=2**0, M=2**6),   # one disk
    dict(N=2**10, B=2**0, D=2**2, M=2**5),   # one-record blocks
    dict(N=2**11, B=2**3, D=2**3, M=2**6),   # BD == M
    dict(N=2**12, B=2**4, D=2**1, M=2**6),   # m - b = 2 (many passes)
    dict(N=2**14, B=2**2, D=2**3, M=2**9),
]


@pytest.fixture
def small_geometry() -> DiskGeometry:
    return DiskGeometry(**SMALL_GEOMETRY)


@pytest.fixture(params=GEOMETRY_SWEEP, ids=lambda p: f"N{p['N']}-B{p['B']}-D{p['D']}-M{p['M']}")
def any_geometry(request) -> DiskGeometry:
    return DiskGeometry(**request.param)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xB33C)


# --------------------------------------------------------------------------
# hypothesis strategies
# --------------------------------------------------------------------------

def bit_matrices(max_rows: int = 8, max_cols: int = 8):
    """Arbitrary 0-1 matrices (not necessarily square or nonsingular)."""
    return st.builds(
        lambda rows, cols, seed: BitMatrix(
            np.random.default_rng(seed).integers(0, 2, size=(rows, cols), dtype=np.uint8)
        ),
        st.integers(1, max_rows),
        st.integers(1, max_cols),
        st.integers(0, 2**31),
    )


def nonsingular_matrices(max_n: int = 8):
    """Random nonsingular square matrices over GF(2)."""
    from repro.bits.random import random_nonsingular

    return st.builds(
        lambda n, seed: random_nonsingular(n, np.random.default_rng(seed)),
        st.integers(1, max_n),
        st.integers(0, 2**31),
    )


def geometry_strategy():
    """Valid small geometries as hypothesis draws."""

    def build(b, extra_d, extra_m, extra_n, seed):
        d = extra_d
        m = b + extra_m
        if b + d > m:
            m = b + d
        if m - b < 1:
            m = b + 1
        n = m + extra_n
        return DiskGeometry(N=2**n, B=2**b, D=2**d, M=2**m)

    return st.builds(
        build,
        st.integers(0, 3),   # b
        st.integers(0, 2),   # d
        st.integers(1, 4),   # m - b (at least 1)
        st.integers(1, 4),   # n - m (at least 1)
        st.integers(0, 2**31),
    )
