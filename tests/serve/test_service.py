"""Unit tests for :mod:`repro.serve` and its shared plan cache.

Single-threaded behavior first: request construction, per-request
isolation, result bookkeeping, and the PlanCache's compile-once and
counter semantics.  The concurrency suites (stress, property,
fault-injection) build on these.
"""

import json

import pytest

from repro.errors import InjectedFault, NotInClassError, ValidationError
from repro.pdm.cache import PlanCache, compile_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import PlanBuilder
from repro.serve import (
    FaultPlan,
    PermutationRequest,
    PermutationService,
    load_requests,
    make_permutation,
    request_from_dict,
    run_sequential,
    synthetic_mix,
)

GEOMETRY = dict(N=2**10, B=2**3, D=2**2, M=2**7)


@pytest.fixture
def geometry():
    return DiskGeometry(**GEOMETRY)


def _trivial_compiled(geometry, label="p"):
    builder = PlanBuilder(geometry)
    builder.begin_pass(label)
    slots = builder.read(0, [0])
    builder.write(1, [0], slots)
    return compile_plan(geometry, builder.build())


# --------------------------------------------------------------------------
# PlanCache semantics
# --------------------------------------------------------------------------

class TestShardedPlanCache:
    def test_get_or_compile_compiles_once(self, geometry):
        cache = PlanCache(maxsize=8)
        calls = []

        def compile_fn():
            calls.append(1)
            return _trivial_compiled(geometry)

        first, hit1 = cache.get_or_compile(("k",), compile_fn)
        second, hit2 = cache.get_or_compile(("k",), compile_fn)
        assert (hit1, hit2) == (False, True)
        assert first is second
        assert ("k",) in cache and len(cache) == 1
        assert len(calls) == 1
        info = cache.info()
        assert (info.hits, info.misses) == (1, 1)

    def test_failed_compile_leaves_cache_clean(self, geometry):
        cache = PlanCache(maxsize=8)

        def boom():
            raise RuntimeError("planner exploded")

        with pytest.raises(RuntimeError):
            cache.get_or_compile(("k",), boom)
        assert len(cache) == 0
        # no latch left behind: the same key compiles cleanly afterwards
        compiled, hit = cache.get_or_compile(
            ("k",), lambda: _trivial_compiled(geometry)
        )
        assert not hit and compiled is not None
        assert len(cache) == 1
        assert cache.info().misses == 2  # the failed attempt counted too

    def test_plancache_get_or_compile_parity(self, geometry):
        """The base PlanCache exposes the same protocol the wrappers use."""
        cache = PlanCache(maxsize=4)
        compiled, hit = cache.get_or_compile(
            ("k",), lambda: _trivial_compiled(geometry)
        )
        again, hit2 = cache.get_or_compile(("k",), lambda: 1 / 0)
        assert (hit, hit2) == (False, True)
        assert again is compiled


# --------------------------------------------------------------------------
# requests and results
# --------------------------------------------------------------------------

class TestRequests:
    def test_request_from_dict_geometry_mapping(self):
        req = request_from_dict(
            {"perm": "gray", "method": "auto", "geometry": GEOMETRY}
        )
        assert req.geometry.N == GEOMETRY["N"]
        assert req.perm == "gray"

    def test_request_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown request fields"):
            request_from_dict({"perm": "gray", "engnie": "fast"})

    def test_load_requests_json_lines_and_array(self, tmp_path):
        lines = tmp_path / "reqs.jsonl"
        lines.write_text(
            '{"perm": "gray"}\n\n{"perm": "transpose", "method": "bmmc"}\n'
        )
        reqs = load_requests(lines)
        assert [r.perm for r in reqs] == ["gray", "transpose"]

        array = tmp_path / "reqs.json"
        array.write_text(json.dumps([{"perm": "shuffle", "seed": 3}]))
        (req,) = load_requests(array)
        assert req.perm == "shuffle" and req.seed == 3

    def test_synthetic_mix_is_deterministic_and_mixed(self):
        a = synthetic_mix(24, seed=7)
        b = synthetic_mix(24, seed=7)
        assert a == b
        methods = {r.method for r in a}
        assert {"mld", "mrc", "bmmc", "distribution"} <= methods

    def test_make_permutation_deterministic(self, geometry):
        p1 = make_permutation("random-bmmc", geometry, seed=5)
        p2 = make_permutation("random-bmmc", geometry, seed=5)
        assert p1.matrix == p2.matrix and p1.complement == p2.complement


# --------------------------------------------------------------------------
# the service itself (single-worker semantics)
# --------------------------------------------------------------------------

class TestPermutationService:
    def test_basic_run_matches_sequential(self, geometry):
        requests = synthetic_mix(12, capture_portion=True)
        with PermutationService(geometry, workers=2) as service:
            served = service.run(requests)
        reference = run_sequential(geometry, requests)
        assert all(r.ok for r in served)
        for s, ref in zip(served, reference):
            assert s.index == ref.index
            assert s.report.method == ref.report.method
            assert s.report.io == ref.report.io
            assert s.report.verified and ref.report.verified
            assert s.digest == ref.digest

    def test_results_in_request_order(self, geometry):
        requests = synthetic_mix(9)
        with PermutationService(geometry, workers=3) as service:
            results = service.run(requests)
        assert [r.index for r in results] == list(range(9))
        assert [r.request for r in results] == requests

    def test_per_request_stats_isolated(self, geometry):
        """A worker's pooled system must not leak I/O counters between
        requests: serving the same request twice reports identical stats."""
        req = PermutationRequest(perm="gray", method="auto")
        with PermutationService(geometry, workers=1) as service:
            first, second = service.run([req, req])
        assert first.report.io == second.report.io
        assert first.report.passes == second.report.passes

    def test_cache_disabled_with_false(self, geometry):
        with PermutationService(geometry, workers=1, cache=False) as service:
            results = service.run(synthetic_mix(6))
            assert service.cache is None
            assert service.cache_info() is None
        assert all(r.ok for r in results)

    def test_single_worker_serves_from_plancache(self, geometry):
        with PermutationService(geometry, workers=1, cache=PlanCache()) as svc:
            (result,) = svc.run([PermutationRequest(perm="gray")])
        assert result.ok

    def test_uncached_run_records_its_stages(self, geometry):
        (result,) = run_sequential(geometry, [PermutationRequest(perm="gray")])
        assert result.ok
        assert "plan" in result.timings and "execute" in result.timings
        # no cache, so no compiled entry and no audit
        assert "compile" not in result.timings

    def test_failed_plan_still_records_its_stage(self):
        """A request whose planner raises reports the time it spent in
        ``plan``, not only its queue wait."""
        geometry = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**7)
        request = PermutationRequest(perm="random-bmmc", method="mld")
        with PermutationService(geometry, workers=1) as service:
            (result,) = service.run([request])
        assert isinstance(result.error, NotInClassError)
        assert set(result.timings) == {"queue_wait", "plan"}
        assert result.timings["plan"] > 0

    def test_submit_after_close_raises(self, geometry):
        service = PermutationService(geometry, workers=1)
        service.close()
        with pytest.raises(ValidationError):
            service.submit(PermutationRequest(perm="gray"))

    def test_map_unordered_yields_every_result(self, geometry):
        requests = synthetic_mix(6)
        with PermutationService(geometry, workers=3) as service:
            results = list(service.map_unordered(requests))
        assert sorted(r.index for r in results) == list(range(6))
        assert all(r.ok for r in results)

    def test_per_request_geometry_override(self, geometry):
        other = DiskGeometry(N=2**9, B=2**2, D=2**1, M=2**6)
        requests = [
            PermutationRequest(perm="gray"),
            PermutationRequest(perm="gray", geometry=other),
        ]
        with PermutationService(geometry, workers=1) as service:
            base, overridden = service.run(requests)
        assert base.ok and overridden.ok
        # 2N/BD parallel I/Os per pass differ between the two geometries
        assert base.report.io.parallel_ios != overridden.report.io.parallel_ios

    def test_failure_is_captured_not_raised(self, geometry):
        bad = PermutationRequest(perm="gray", method="definitely-not-a-method")
        with PermutationService(geometry, workers=1) as service:
            (result,) = service.run([bad])
            assert not result.ok
            assert isinstance(result.error, ValidationError)
            assert "FAILED" in result.summary()
            # pool survives: a good request on the same worker still runs
            (good,) = service.run([PermutationRequest(perm="gray")])
        assert good.ok and good.report.verified

    @pytest.mark.parametrize(
        "faults,perm,error",
        [
            (FaultPlan(seed=3, kernel_failures=1.0), "random-mrc", InjectedFault),
            # a non-MRC permutation: deterministic NotInClassError
            (None, "bit-reversal", NotInClassError),
        ],
        ids=["injected-kernel-fault", "not-in-class"],
    )
    def test_failed_request_executes_once(self, geometry, faults, perm, error):
        with PermutationService(geometry, workers=1, faults=faults) as service:
            (result,) = service.run([PermutationRequest(perm=perm, method="mrc")])
            stats = service.stats()
        assert isinstance(result.error, error)
        assert result.attempts == 1
        assert stats.failed == stats.completed == 1
