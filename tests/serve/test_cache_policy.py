"""Eviction-policy regression under the zipf-hot-key golden trace.

The serving claim behind :class:`PlanCache`'s LRU policy is that
*skewed* traffic keeps a small cache useful: the hot head stays
resident while the cold tail churns through the victim slots.  This
suite pins that behavior with the committed ``zipf-hot-key`` golden
trace (64 events, Zipf alpha=1.5 over 16 keys) pushed through the
service's own cache at 4 entries -- a quarter of the key space.

Configuration is deliberately ``workers=1``: one worker makes the
request order the submission order, and the cache's one LRU order
depends on nothing else, so the counter arithmetic is exact and
reproducible under any ``PYTHONHASHSEED``, not merely floored.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.serve import PermutationService
from repro.serve.workload import WorkloadTrace, replay_trace

WORKLOADS_DIR = pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "workloads"

CACHE_SIZE = 4

#: (hits, misses, evictions, size) of the zipf-hot-key replay above.
ZIPF_COUNTERS = (49, 15, 11, CACHE_SIZE)


def _replay_through_small_cache(trace):
    with PermutationService(
        trace.geometry, workers=1, cache_maxsize=CACHE_SIZE
    ) as service:
        report = replay_trace(service, trace, as_fast_as_possible=True)
        info = service.cache.info()
    return report, info


@pytest.fixture(scope="module")
def zipf_trace():
    return WorkloadTrace.load(WORKLOADS_DIR / "zipf-hot-key.jsonl")


@pytest.fixture(scope="module")
def uniform_trace():
    return WorkloadTrace.load(WORKLOADS_DIR / "uniform.jsonl")


def test_books_balance_exactly(zipf_trace):
    report, info = _replay_through_small_cache(zipf_trace)
    assert report.failed == 0
    # one lookup per request, counted exactly once (hit or miss)
    assert info.hits + info.misses == len(zipf_trace)
    # every miss inserts; every insert past capacity evicts: once the
    # cache has filled, evictions and misses move in lockstep
    assert info.size == CACHE_SIZE
    assert info.evictions == info.misses - info.size
    assert info.misses <= zipf_trace.spec["key_space"] + info.evictions


def test_skew_keeps_a_small_cache_useful(zipf_trace):
    _, info = _replay_through_small_cache(zipf_trace)
    # Zipf(1.5) over 16 keys puts ~75% of mass on the top 4; LRU must
    # convert that into a healthy hit rate even at 1/4 key-space
    # capacity.  The committed trace measures ~0.75; 0.4 is the floor
    # that catches a policy regression (FIFO-like churn, broken LRU
    # touch ordering) without flaking on trace regeneration.
    assert info.hit_rate >= 0.4, (
        f"hot-key hit rate {info.hit_rate:.2f} under a {CACHE_SIZE}-entry "
        "cache -- LRU stopped protecting the hot head"
    )
    assert info.evictions > 0, "the scenario must actually pressure the cache"


def test_skew_beats_uniform_through_the_same_cache(zipf_trace, uniform_trace):
    _, skewed = _replay_through_small_cache(zipf_trace)
    _, flat = _replay_through_small_cache(uniform_trace)
    # uniform traffic over 12 keys through 4 slots mostly churns; the
    # gap is the policy's whole value proposition under skew
    assert skewed.hit_rate > flat.hit_rate, (
        f"zipf hit rate {skewed.hit_rate:.2f} should exceed uniform "
        f"{flat.hit_rate:.2f} through the same {CACHE_SIZE}-entry cache"
    )


def test_counters_are_deterministic_across_replays(zipf_trace):
    first_report, first = _replay_through_small_cache(zipf_trace)
    second_report, second = _replay_through_small_cache(zipf_trace)
    assert (first.hits, first.misses, first.evictions, first.size) == (
        second.hits, second.misses, second.evictions, second.size
    )
    assert first_report.workload_digest == second_report.workload_digest


_REPLAY_IN_CHILD = f"""
import json, pathlib, sys
from repro.serve import PermutationService
from repro.serve.workload import WorkloadTrace, replay_trace

trace = WorkloadTrace.load(pathlib.Path(sys.argv[1]))
with PermutationService(trace.geometry, workers=1, cache_maxsize={CACHE_SIZE}) as service:
    replay_trace(service, trace, as_fast_as_possible=True)
    info = service.cache.info()
print(json.dumps([info.hits, info.misses, info.evictions, info.size]))
"""


@pytest.mark.parametrize("hash_seed", ["0", "4"])
def test_counters_do_not_depend_on_the_hash_seed(hash_seed):
    """Plan keys hold strings, whose hashes change with PYTHONHASHSEED;
    which plans evict each other must not."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY_IN_CHILD,
         str(WORKLOADS_DIR / "zipf-hot-key.jsonl")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert tuple(json.loads(done.stdout)) == ZIPF_COUNTERS
