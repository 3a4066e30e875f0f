"""Optimizer/cache equivalence: compiled execution is indistinguishable.

The optimizer's contract extends the engine's: for any plan, fast
execution -- which runs the optimizer, cached or not -- produces
byte-identical portion contents and identical I/O accounting to strict
execution of the plan.
Quantified over random geometries and random MRC/MLD/inverse-MLD/BMMC/
general instances (Hypothesis), with the cache exercised by running
every workload twice -- the second run must hit and still match.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import perform_permutation
from repro.pdm.cache import PlanCache
from repro.pdm.system import ParallelDiskSystem

from tests.conftest import geometry_strategy
from tests.core.test_engine_equivalence import (
    assert_equivalent,
    fresh,
    make_instance,
)


@given(
    geometry_strategy(),
    st.sampled_from(["mrc", "mld", "inv-mld", "bmmc", "bmmc-unmerged", "general"]),
    st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_optimized_cached_equals_strict_everywhere(geometry, method, seed):
    g = geometry
    if method == "general" and 4 * g.B * g.D > g.M:
        return  # merge sort needs (K+2) BD <= M with K >= 2
    perm = make_instance(method, g, seed)
    strict = fresh(g)
    report_strict = perform_permutation(strict, perm, method=method, engine="strict")

    cache = PlanCache()
    for round_ in range(2):  # round 2 is the cache hit (general never caches)
        fast = fresh(g)
        report_fast = perform_permutation(
            fast, perm, method=method, engine="fast", cache=cache
        )
        assert report_strict.verified and report_fast.verified
        assert report_strict.passes == report_fast.passes
        assert report_strict.final_portion == report_fast.final_portion
        assert report_strict.io == report_fast.io
        assert_equivalent(strict, fast)
    if method != "general":
        assert cache.info().hits == 1


@given(geometry_strategy(), st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_streamed_execution_equals_strict(geometry, seed):
    """Tiny stream budgets force chunked fast execution; still identical."""
    g = geometry
    perm = make_instance("bmmc", g, seed)
    strict = fresh(g)
    perform_permutation(strict, perm, method="bmmc", engine="strict")

    from repro.core.bmmc_algorithm import plan_bmmc_io, plan_bmmc_passes
    from repro.pdm.engine import execute_plan

    plan, final = plan_bmmc_io(g, plan_bmmc_passes(perm, g))
    fast = fresh(g)
    execute_plan(fast, plan, engine="fast", stream_records=g.records_per_stripe)
    assert_equivalent(strict, fast)
    assert fast.verify_permutation(perm, np.arange(g.N), final)
