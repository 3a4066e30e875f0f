"""Unit tests for :mod:`repro.serve.workload`.

Four layers, bottom up: the JSONL trace format (canonical bytes,
validation on load), the deterministic generator (byte-reproducible
specs, skew/burst shapes, golden-trace drift), recording (offered
load, pre-admission), and replay as the determinism oracle (identical
digests, IOStats, and exactly reconciled counters across replays).
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    FaultPlan,
    PermutationService,
    ServiceMetrics,
    synthetic_mix,
)
from repro.serve.workload import (
    TraceEvent,
    TraceRecorder,
    WorkloadSpec,
    WorkloadTrace,
    generate_trace,
    geometry_variants,
    mix_trace,
    reconcile_replay,
    replay_trace,
)

GEOMETRY = dict(N=2**10, B=2**3, D=2**2, M=2**7)
WORKLOADS_DIR = pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "workloads"


@pytest.fixture
def geometry():
    return DiskGeometry(**GEOMETRY)


def small_spec(**overrides):
    base = dict(
        count=12,
        seed=7,
        arrival="uniform",
        rate=400.0,
        popularity="uniform",
        key_space=4,
        geometry=GEOMETRY,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


# --------------------------------------------------------------------------
# trace format
# --------------------------------------------------------------------------

class TestTraceFormat:
    def test_event_roundtrip(self):
        request = synthetic_mix(1)[0]
        event = TraceEvent(at=0.1234567891234, request=request)
        assert event.at == round(0.1234567891234, 9)
        again = TraceEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert again == event

    def test_event_rejects_negative_offset_and_unknown_fields(self):
        request = synthetic_mix(1)[0]
        with pytest.raises(ValidationError):
            TraceEvent(at=-0.5, request=request)
        with pytest.raises(ValidationError, match="unknown trace event"):
            TraceEvent.from_dict({"at": 0.0, "request": {}, "extra": 1})
        with pytest.raises(ValidationError, match="needs both"):
            TraceEvent.from_dict({"at": 0.0})

    def test_dumps_loads_byte_roundtrip(self, geometry, tmp_path):
        trace = generate_trace(small_spec())
        text = trace.dumps()
        again = WorkloadTrace.loads(text)
        assert again.dumps() == text
        assert again.name == trace.name
        assert again.geometry == geometry
        assert again.requests() == trace.requests()
        path = tmp_path / "t.jsonl"
        trace.save(path)
        assert WorkloadTrace.load(path).dumps() == text

    def test_loads_rejects_garbage(self):
        with pytest.raises(ValidationError, match="empty"):
            WorkloadTrace.loads("")
        with pytest.raises(ValidationError, match="malformed header"):
            WorkloadTrace.loads("{not json")
        with pytest.raises(ValidationError, match="not a workload trace"):
            WorkloadTrace.loads('{"format":"something-else","version":1}')
        with pytest.raises(ValidationError, match="reads version 1"):
            WorkloadTrace.loads('{"format":"repro-workload-trace","version":99}')

    def test_loads_rejects_disorder_and_truncation(self):
        trace = generate_trace(small_spec())
        lines = trace.dumps().splitlines()
        # swap two events out of arrival order
        disordered = "\n".join([lines[0], lines[5], lines[1]] + lines[6:])
        with pytest.raises(ValidationError, match="non-decreasing"):
            WorkloadTrace.loads(disordered)
        truncated = "\n".join(lines[:-2])
        with pytest.raises(ValidationError, match="truncated or concatenated"):
            WorkloadTrace.loads(truncated)

    def test_duration_and_describe(self):
        trace = generate_trace(small_spec(count=8, rate=100.0))
        assert trace.duration == pytest.approx(7 / 100.0)
        text = trace.describe()
        assert "8 events" in text and "N=1024" in text


# --------------------------------------------------------------------------
# spec validation
# --------------------------------------------------------------------------

class TestWorkloadSpec:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(count=0),
            dict(arrival="lumpy"),
            dict(popularity="hot"),
            dict(rate=0.0),
            dict(zipf_alpha=0.0),
            dict(key_space=0),
            dict(burst_size=0),
            dict(duplicates=0),
            dict(duplicates=-2),
            dict(geometry=dict(N=3, B=8, D=4, M=128)),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises((ValidationError, ValueError)):
            small_spec(**bad)

    def test_dict_roundtrip(self, geometry):
        spec = small_spec(
            popularity="zipf",
            zipf_alpha=1.3,
            geometries=(GEOMETRY, dict(N=2**9, B=2**3, D=2**2, M=2**7)),
            timeout=1.5,
        )
        again = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_rejects_unknown_spec_fields(self):
        # "optimize" is gone: the fast engine always runs the optimizer
        for field, value in (("flavour", "spicy"), ("optimize", True)):
            with pytest.raises(ValidationError, match=f"unknown workload spec.*{field}"):
                WorkloadSpec.from_dict({"count": 4, field: value})

    def test_geometry_variants(self, geometry):
        variants = geometry_variants(geometry, 3)
        assert len(variants) == 3
        assert variants[0] == geometry
        assert variants[1].N == geometry.N // 2
        assert all(v.M < v.N for v in variants)
        # clamps once halving would break M < N, repeating the smallest
        many = geometry_variants(geometry, 10)
        assert len(many) == 10
        assert many[-1] == many[-2]
        with pytest.raises(ValidationError):
            geometry_variants(geometry, 0)


# --------------------------------------------------------------------------
# the generator
# --------------------------------------------------------------------------

class TestGenerator:
    def test_same_spec_same_bytes(self):
        spec = small_spec(arrival="poisson", popularity="zipf")
        assert generate_trace(spec).dumps() == generate_trace(spec).dumps()

    def test_different_seed_different_trace(self):
        spec = small_spec(arrival="poisson")
        assert (
            generate_trace(spec).dumps()
            != generate_trace(replace(spec, seed=spec.seed + 1)).dumps()
        )

    def test_spec_dict_in_header_regenerates(self):
        trace = generate_trace(small_spec(popularity="zipf", zipf_alpha=1.6))
        again = generate_trace(WorkloadSpec.from_dict(trace.spec))
        assert again.dumps() == trace.dumps()

    def test_zipf_concentrates_on_the_head(self):
        spec = small_spec(
            count=200, popularity="zipf", zipf_alpha=2.0, key_space=8
        )
        trace = generate_trace(spec)
        counts: dict = {}
        for req in trace.requests():
            counts[(repr(req.perm), req.seed)] = (
                counts.get((repr(req.perm), req.seed), 0) + 1
            )
        hottest = max(counts.values())
        # alpha=2 over 8 ranks puts ~62% of mass on rank 1; a uniform
        # draw would put 12.5% -- 40% is a safe statistical floor
        assert hottest >= 0.40 * spec.count
        assert len(counts) <= spec.key_space

    def test_uniform_spreads(self):
        spec = small_spec(count=200, key_space=4)
        counts: dict = {}
        for req in generate_trace(spec).requests():
            key = (repr(req.perm), req.seed)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 4
        assert max(counts.values()) <= 0.5 * spec.count

    def test_poisson_offsets_are_non_decreasing_and_positive(self):
        trace = generate_trace(small_spec(count=50, arrival="poisson"))
        offsets = [event.at for event in trace]
        assert offsets == sorted(offsets)
        assert offsets[0] > 0

    def test_bursty_clusters_arrivals(self):
        spec = small_spec(
            count=32, arrival="bursty", burst_size=8, burst_gap=0.5
        )
        trace = generate_trace(spec)
        offsets = [event.at for event in trace]
        assert offsets == sorted(offsets)
        # every event lands within jitter of its burst start: the gaps
        # *between* bursts dominate the gaps inside them
        inside = [
            b - a for a, b in zip(offsets, offsets[1:]) if b - a < 0.1
        ]
        between = [
            b - a for a, b in zip(offsets, offsets[1:]) if b - a >= 0.1
        ]
        assert len(between) == 3  # 32 events / 8 per burst -> 4 bursts
        assert len(inside) == 28

    def test_geometry_diversity_assigns_stable_overrides(self, geometry):
        variants = geometry_variants(geometry, 2)
        spec = small_spec(
            count=40,
            key_space=4,
            geometries=tuple(
                {"N": v.N, "B": v.B, "D": v.D, "M": v.M} for v in variants
            ),
        )
        trace = generate_trace(spec)
        seen = {}
        for req in trace.requests():
            key = (repr(req.perm), req.seed)
            assert req.geometry in variants
            # same key -> same geometry, always
            assert seen.setdefault(key, req.geometry) == req.geometry

    def test_timeout_stamped_on_every_request(self):
        trace = generate_trace(small_spec(timeout=2.5))
        assert all(event.request.timeout == 2.5 for event in trace)


class TestDuplicates:
    """The ``duplicates`` knob: duplicate-heavy traffic for single-flight
    coalescing, grafted onto the generator without moving a byte of the
    existing traces."""

    def test_duplicates_repeat_back_to_back_at_the_same_offset(self):
        spec = small_spec(count=16, duplicates=4)
        events = list(generate_trace(spec))
        for start in range(0, 16, 4):
            group = events[start : start + 4]
            assert len({event.at for event in group}) == 1
            assert all(
                event.request == group[0].request for event in group
            ), "duplicates must be byte-identical requests"

    def test_count_not_divisible_truncates(self):
        trace = generate_trace(small_spec(count=10, duplicates=4))
        assert len(trace) == 10

    def test_duplicates_one_matches_the_undecorated_generator(self):
        # explicit duplicates=1 is the default: byte-for-byte identical
        spec = small_spec(count=12)
        assert (
            generate_trace(replace(spec, duplicates=1)).dumps()
            == generate_trace(spec).dumps()
        )

    def test_default_is_omitted_from_the_wire_spec(self):
        # committed golden traces predate the knob; serializing the
        # default would move every header line
        assert "duplicates" not in small_spec().to_dict()
        assert small_spec(duplicates=8).to_dict()["duplicates"] == 8

    def test_spec_roundtrips_and_regenerates(self):
        spec = small_spec(count=16, duplicates=4, popularity="zipf")
        trace = generate_trace(spec)
        again = generate_trace(WorkloadSpec.from_dict(trace.spec))
        assert again.dumps() == trace.dumps()

    def test_duplicate_base_draw_matches_the_plain_spec(self):
        """The duplicated trace is the duplicates=1 trace of the same
        spec with each event repeated: the underlying draw sequence is
        shared, not a different stream."""
        spec = small_spec(count=16, duplicates=4)
        base = list(generate_trace(replace(spec, count=4, duplicates=1)))
        expanded = list(generate_trace(spec))
        for i, event in enumerate(expanded):
            assert event.request == base[i // 4].request
            assert event.at == base[i // 4].at


# --------------------------------------------------------------------------
# the shared mix builder
# --------------------------------------------------------------------------

class TestMixTrace:
    def test_matches_synthetic_mix(self):
        trace = mix_trace(12, seed=3, distinct_seeds=2, verify=False)
        assert trace.requests() == synthetic_mix(
            12, seed=3, distinct_seeds=2, verify=False
        )
        assert trace.duration == 0.0

    def test_rate_spaces_events(self):
        trace = mix_trace(8, rate=100.0)
        assert [event.at for event in trace] == pytest.approx(
            [i / 100.0 for i in range(8)]
        )


# --------------------------------------------------------------------------
# golden traces must not drift from their own specs
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name",
    [
        "uniform",
        "zipf-hot-key",
        "bursty-overload",
        "mixed-chaos",
        "duplicate-heavy",
    ],
)
def test_golden_trace_matches_its_spec(name):
    path = WORKLOADS_DIR / f"{name}.jsonl"
    committed = path.read_text()
    trace = WorkloadTrace.loads(committed, path=str(path))
    assert trace.name == name
    assert trace.spec is not None, "golden traces must embed their spec"
    regenerated = generate_trace(WorkloadSpec.from_dict(trace.spec))
    assert regenerated.dumps() == committed, (
        f"{path} drifted from its embedded spec -- regenerate it with "
        "benchmarks/workloads/make_golden.py instead of hand-editing"
    )


# --------------------------------------------------------------------------
# recording
# --------------------------------------------------------------------------

class TestRecorder:
    def test_records_offered_load_including_shed(self, geometry):
        recorder = TraceRecorder(name="offered", geometry=geometry)
        requests = synthetic_mix(8, distinct_seeds=2, verify=False)
        # one worker + tiny queue + injected latency: some of the 8
        # must shed, and the trace must contain them anyway
        with PermutationService(
            geometry,
            workers=1,
            queue_capacity=1,
            queue_policy="reject",
            faults=FaultPlan(seed=1, slow_passes=1.0, slow_seconds=0.01),
            recorder=recorder,
        ) as service:
            results = service.run(requests)
            stats = service.stats()
        assert stats.shed > 0
        trace = recorder.trace()
        assert len(trace) == len(requests) == stats.submitted
        assert trace.requests() == requests
        offsets = [event.at for event in trace]
        assert offsets == sorted(offsets) and offsets[0] == 0.0
        assert any(not r.ok for r in results)

    def test_unserializable_requests_are_skipped_not_fatal(self, geometry):
        from repro.serve import PermutationRequest, make_permutation

        recorder = TraceRecorder()
        ready = make_permutation("transpose", geometry)
        recorder.record(PermutationRequest(perm=ready))
        recorder.record(synthetic_mix(1)[0])
        assert recorder.skipped == 1
        assert len(recorder.trace()) == 1

    def test_roundtrip_through_file(self, geometry, tmp_path):
        recorder = TraceRecorder(name="session", geometry=geometry)
        for request in synthetic_mix(4, verify=False):
            recorder.record(request)
        path = tmp_path / "session.jsonl"
        recorder.trace().save(path)
        again = WorkloadTrace.load(path)
        assert again.requests() == recorder.trace().requests()
        assert again.geometry == geometry


# --------------------------------------------------------------------------
# replay: the determinism oracle
# --------------------------------------------------------------------------

def _replay_fresh(trace, **service_knobs):
    knobs = dict(workers=2, cache_maxsize=64)
    knobs.update(service_knobs)
    metrics = ServiceMetrics()
    with PermutationService(trace.geometry, **knobs) as service:
        report = replay_trace(service, trace, as_fast_as_possible=True)
        problems = reconcile_replay(service, metrics)
    return report, problems


class TestReplayOracle:
    def test_two_replays_are_byte_identical(self):
        trace = generate_trace(
            small_spec(count=16, popularity="zipf", arrival="poisson")
        )
        first, problems1 = _replay_fresh(trace)
        second, problems2 = _replay_fresh(trace)
        assert problems1 == problems2 == []
        assert first.failed == second.failed == 0
        assert len(first.digests) == len(trace)
        assert first.digests == second.digests
        assert first.workload_digest == second.workload_digest
        io = lambda rep: {
            r.index: (r.report.method, r.report.passes, r.report.io.parallel_ios)
            for r in rep.results
        }
        assert io(first) == io(second)
        s1, s2 = first.stats, second.stats
        assert (s1.submitted, s1.admitted, s1.completed, s1.shed) == (
            s2.submitted, s2.admitted, s2.completed, s2.shed
        )
        c1, c2 = first.cache, second.cache
        assert (c1.hits, c1.misses, c1.evictions) == (c2.hits, c2.misses, c2.evictions)
        assert c1.evictions == 0
        assert c1.misses <= trace.spec["key_space"]

    def test_replay_matches_sequential_reference(self, geometry):
        from repro.serve import run_sequential

        trace = generate_trace(small_spec(count=8))
        reference = run_sequential(
            geometry,
            [replace(r, capture_portion=True) for r in trace.requests()],
        )
        report, _ = _replay_fresh(trace)
        for got, want in zip(
            sorted(report.results, key=lambda r: r.index), reference
        ):
            assert got.digest == want.digest

    def test_paced_replay_honors_offsets(self):
        trace = generate_trace(small_spec(count=6, rate=40.0))
        metrics = ServiceMetrics()
        with PermutationService(trace.geometry, workers=2) as service:
            report = replay_trace(service, trace)
            assert reconcile_replay(service, metrics) == []
        assert report.paced
        assert report.wall_seconds >= trace.duration

    def test_speed_scales_pacing_and_validates(self):
        trace = generate_trace(small_spec(count=4, rate=20.0))
        with PermutationService(trace.geometry, workers=2) as service:
            report = replay_trace(service, trace, speed=10.0)
        assert report.wall_seconds >= trace.duration / 10.0
        with PermutationService(trace.geometry, workers=2) as service:
            with pytest.raises(ValidationError, match="speed"):
                replay_trace(service, trace, speed=0.0)

    def test_capture_flag_forces_digests(self):
        trace = mix_trace(4, verify=False, capture_portion=False)
        trace.geometry = DiskGeometry(**GEOMETRY)
        with PermutationService(trace.geometry, workers=2) as service:
            bare = replay_trace(service, trace, as_fast_as_possible=True)
        assert bare.digests == {}
        with PermutationService(trace.geometry, workers=2) as service:
            captured = replay_trace(
                service, trace, as_fast_as_possible=True, capture=True
            )
        assert len(captured.digests) == len(trace)

    def test_summary_dict_shape(self):
        trace = generate_trace(small_spec(count=6))
        report, _ = _replay_fresh(trace)
        summary = report.summary_dict()
        for key in (
            "events", "ok", "failed", "throughput_rps", "wall_seconds",
            "latency_p50_ms", "latency_p99_ms", "hit_rate", "cache_hits",
            "cache_misses", "cache_evictions", "shed", "deadline_exceeded",
            "workload_digest",
        ):
            assert key in summary
        assert summary["events"] == summary["ok"] == 6
        assert "replayed" in report.summary()
