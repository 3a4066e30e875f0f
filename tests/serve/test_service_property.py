"""Property: serving a request mix concurrently equals running it
sequentially through :func:`repro.serve.run_sequential` -- reports,
IOStats and final portion bytes included.

Hypothesis draws arbitrary mixes (planner family, method, seed, engine,
optimize knob); on failure it shrinks toward a minimal request list --
typically the two-request pair whose interaction broke isolation.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pdm.geometry import DiskGeometry
from repro.serve import PermutationRequest, PermutationService, run_sequential

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)

#: (perm template, methods it supports) -- every family the service
#: multiplexes, including the adaptive randomized one.
_FAMILIES = [
    ("random-mld", ["mld", "auto"]),
    ("random-mrc", ["mrc", "auto"]),
    ("random-bmmc", ["bmmc", "auto"]),
    ("bit-reversal", ["bmmc", "auto", "distribution"]),
    ("transpose", ["bmmc", "distribution"]),
    ("gray", ["auto"]),
    ("random", ["general", "distribution"]),
]


@st.composite
def requests_strategy(draw):
    family = draw(st.integers(0, len(_FAMILIES) - 1))
    perm, methods = _FAMILIES[family]
    method = draw(st.sampled_from(methods))
    return PermutationRequest(
        perm=perm,
        method=method,
        seed=draw(st.integers(0, 2)),
        engine=draw(st.sampled_from(["strict", "fast"])),
        optimize=draw(st.booleans()),
        verify=True,
        capture_portion=True,
    )


@pytest.mark.slow
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(requests_strategy(), min_size=1, max_size=6))
def test_service_equals_sequential_runner(requests):
    sequential = run_sequential(GEOMETRY, requests)
    with PermutationService(GEOMETRY, workers=4) as service:
        served = service.run(requests)
    assert len(served) == len(sequential)
    for got, want in zip(served, sequential):
        assert got.ok == want.ok, (got.summary(), want.summary())
        if not want.ok:
            assert type(got.error) is type(want.error)
            continue
        assert got.report.method == want.report.method
        assert got.report.classes == want.report.classes
        assert got.report.passes == want.report.passes
        assert got.report.io == want.report.io
        assert got.report.final_portion == want.report.final_portion
        assert got.report.verified and want.report.verified
        assert got.digest == want.digest


@pytest.mark.slow
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(requests_strategy(), min_size=1, max_size=4))
def test_engine_choice_invisible_in_service(requests):
    """Serving a mix with every request forced strict equals serving it
    forced fast: the engines stay indistinguishable under concurrency."""
    with PermutationService(GEOMETRY, workers=3) as service:
        strict = service.run(
            [replace(r, engine="strict", optimize=False) for r in requests]
        )
    with PermutationService(GEOMETRY, workers=3) as service:
        fast = service.run([replace(r, engine="fast") for r in requests])
    for a, b in zip(strict, fast):
        assert a.ok and b.ok
        assert a.digest == b.digest
        assert a.report.io == b.report.io
