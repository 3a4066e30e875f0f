"""Differential conformance matrix: every planner under every executor.

General PDM sorting is exactly where schedule correctness is subtlest
(Guidesort, arXiv:1807.11328; PEM simulation, arXiv:1001.3364), so this
suite holds the *whole* stack to one contract: for every planner --
MLD, MRC, inverse-MLD, MLD-composition, multi-pass BMMC, general merge
sort, distribution sort, and run-time detection -- execution
must produce byte-identical portions and identical
:class:`~repro.pdm.stats.IOStats` (pass tables and memory envelope
included) across the full combination matrix

    {strict, fast} x {cache cold/warm} x {streamed/unstreamed}

over several geometries.  The fast engine always runs the plan
optimizer (:mod:`repro.pdm.optimize`).  The reference cell is strict /
uncached / unstreamed -- the per-operation replay with full model-rule
enforcement, i.e. the hand-written performers' semantics.

Knobs a planner does not support collapse to no-ops for that planner
(the general sort's schedule is data-dependent and uncached; detection
takes only the engine knob); the matrix still executes those cells and
asserts they change nothing observable.
"""

import itertools

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix, random_mrc_matrix, random_nonsingular
from repro.core.bmmc_algorithm import perform_bmmc
from repro.core.detect import detect_bmmc, store_target_vector
from repro.core.distribution import perform_distribution_sort
from repro.core.general import perform_general_sort
from repro.core.inverse_mld import (
    perform_inverse_mld_pass,
    perform_mld_composition_pass,
)
from repro.core.mld_algorithm import perform_mld_pass
from repro.core.mrc_algorithm import perform_mrc_pass
from repro.pdm.cache import PlanCache
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import ExplicitPermutation
from repro.perms.bmmc import BMMCPermutation

SEED = 0x5EED

#: Several geometries: the default shape, a wider-disk shape, and a
#: small one with deep stripes.  All admit every planner in the matrix
#: (merge sort needs M >= 4BD; the distribution sort must tune).
GEOMETRIES = [
    dict(N=2**10, B=2**2, D=2**2, M=2**7),
    dict(N=2**12, B=2**3, D=2**2, M=2**8),
    dict(N=2**11, B=2**2, D=2**3, M=2**8),
]

ENGINES = ("strict", "fast")

#: The full combination matrix.  ``cached`` cells execute twice through
#: one fresh PlanCache -- cold (miss, compile, store) then warm (hit).
MATRIX = list(itertools.product(ENGINES, (False, True), (False, True)))


def _combo_id(combo):
    engine, cached, streamed = combo
    return (
        f"{engine}-{'cached' if cached else 'uncached'}-"
        f"{'streamed' if streamed else 'whole'}"
    )


def identity_system(g: DiskGeometry) -> ParallelDiskSystem:
    s = ParallelDiskSystem(g)
    s.fill_identity(0)
    return s


def assert_same_observable_state(ref: ParallelDiskSystem, got: ParallelDiskSystem, tag):
    for portion in range(ref.num_portions):
        assert (
            ref.portion_values(portion) == got.portion_values(portion)
        ).all(), f"{tag}: portion {portion} differs"
    assert ref.stats.snapshot() == got.stats.snapshot(), f"{tag}: stats differ"
    assert ref.stats.passes == got.stats.passes, f"{tag}: pass tables differ"
    assert ref.memory.peak == got.memory.peak, f"{tag}: memory peak differs"
    assert ref.memory.in_use == got.memory.in_use, f"{tag}: resident records differ"


# --------------------------------------------------------------------------
# planner specs
# --------------------------------------------------------------------------

class Spec:
    """One planner's conformance adapter.

    ``run`` executes the planner with the combo's knobs on a fresh
    system and returns a comparable result summary (or None).  Knobs
    the underlying wrapper does not expose are dropped here, which *is*
    the conformance claim for those cells: the knob must be a no-op.
    """

    name: str
    supports_cache = True

    def fresh(self, g: DiskGeometry) -> ParallelDiskSystem:
        return identity_system(g)

    def run(self, system, g, engine, cache, stream_records):
        raise NotImplementedError


class MLDSpec(Spec):
    name = "mld"

    def run(self, system, g, engine, cache, stream_records):
        rng = np.random.default_rng(SEED)
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))
        perform_mld_pass(
            system, perm, engine=engine, cache=cache,
            stream_records=stream_records,
        )
        return None


class MRCSpec(Spec):
    name = "mrc"

    def run(self, system, g, engine, cache, stream_records):
        rng = np.random.default_rng(SEED)
        perm = BMMCPermutation(random_mrc_matrix(g.n, g.m, rng), 3 % g.N)
        perform_mrc_pass(
            system, perm, engine=engine, cache=cache,
            stream_records=stream_records,
        )
        return None


class InverseMLDSpec(Spec):
    name = "inv-mld"

    def run(self, system, g, engine, cache, stream_records):
        rng = np.random.default_rng(SEED)
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng)).inverse()
        perform_inverse_mld_pass(
            system, perm, engine=engine, cache=cache,
            stream_records=stream_records,
        )
        return None


class CompositionSpec(Spec):
    name = "composition"

    def run(self, system, g, engine, cache, stream_records):
        rng = np.random.default_rng(SEED)
        x = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))
        y = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))
        composed = perform_mld_composition_pass(
            system, y, x, engine=engine, cache=cache,
            stream_records=stream_records,
        )
        return (composed.matrix, composed.complement)


class BMMCSpec(Spec):
    name = "bmmc"

    def run(self, system, g, engine, cache, stream_records):
        rng = np.random.default_rng(SEED)
        perm = BMMCPermutation(random_nonsingular(g.n, rng), 5 % g.N)
        result = perform_bmmc(
            system, perm, engine=engine, cache=cache,
            stream_records=stream_records,
        )
        return (result.final_portion, result.parallel_ios, len(result.steps))


class GeneralSortSpec(Spec):
    name = "general-sort"
    supports_cache = False  # schedule is data-dependent, never cached

    def run(self, system, g, engine, cache, stream_records):
        perm = ExplicitPermutation(np.random.default_rng(SEED).permutation(g.N))
        result = perform_general_sort(
            system, perm, engine=engine, stream_records=stream_records
        )
        return (result.final_portion, result.passes, result.parallel_ios)


class DistributionSortSpec(Spec):
    name = "distribution-sort"

    def run(self, system, g, engine, cache, stream_records):
        perm = ExplicitPermutation(np.random.default_rng(SEED).permutation(g.N))
        result = perform_distribution_sort(
            system, perm, seed=11, engine=engine, cache=cache,
            stream_records=stream_records,
        )
        return (result.final_portion, result.passes, result.parallel_ios)


class DetectionSpec(Spec):
    name = "detection"
    supports_cache = False  # engine knob only

    def fresh(self, g: DiskGeometry) -> ParallelDiskSystem:
        # Non-consuming inspection needs simple_io off; input is a BMMC
        # target vector so both engines run the full verification scan.
        s = ParallelDiskSystem(g, simple_io=False)
        perm = BMMCPermutation(random_nonsingular(g.n, np.random.default_rng(SEED)))
        store_target_vector(s, perm)
        return s

    def run(self, system, g, engine, cache, stream_records):
        # Pin the chunking so strict and fast issue identical plans.
        result = detect_bmmc(
            system, engine=engine, verify_chunk=g.stripes_per_memoryload
        )
        assert result.is_bmmc
        return (
            result.matrix,
            result.complement,
            result.formation_reads,
            result.verification_reads,
        )


SPECS = [
    MLDSpec(),
    MRCSpec(),
    InverseMLDSpec(),
    CompositionSpec(),
    BMMCSpec(),
    GeneralSortSpec(),
    DistributionSortSpec(),
    DetectionSpec(),
]


# --------------------------------------------------------------------------
# the matrix
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "geom", GEOMETRIES, ids=lambda p: f"N{p['N']}-B{p['B']}-D{p['D']}-M{p['M']}"
)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_conformance_matrix(spec, geom):
    g = DiskGeometry(**geom)
    ref_system = spec.fresh(g)
    ref_result = spec.run(ref_system, g, "strict", None, 0)

    for combo in MATRIX:
        engine, cached, streamed = combo
        tag = f"{spec.name}/{_combo_id(combo)}"
        cache = PlanCache() if (cached and spec.supports_cache) else None
        stream = g.M if streamed else 0
        rounds = 2 if cached else 1  # cold miss, then warm hit
        for i in range(rounds):
            system = spec.fresh(g)
            result = spec.run(system, g, engine, cache, stream)
            round_tag = f"{tag}/{'warm' if i else 'cold'}"
            assert_same_observable_state(ref_system, system, round_tag)
            assert result == ref_result, f"{round_tag}: results differ"
        if cache is not None:
            info = cache.info()
            assert info.misses >= 1 and info.hits >= 1, (
                f"{tag}: expected a cold miss and a warm hit, got {info}"
            )


def test_streamed_cells_actually_stream():
    """The matrix's streamed cells must exercise the chunked path, not
    silently run whole (which would make the dimension vacuous)."""
    from repro.pdm.engine import execute_plan
    from repro.core.mld_algorithm import plan_mld_pass

    g = DiskGeometry(**GEOMETRIES[1])
    perm = BMMCPermutation(
        random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(SEED))
    )
    plan = plan_mld_pass(g, perm)
    for engine in ENGINES:
        s = identity_system(g)
        report = execute_plan(s, plan, engine=engine, stream_records=g.M)
        assert report.streamed_passes == 1, engine
        assert report.host_peak_records <= g.M


def test_matrix_covers_every_combination():
    """8 cells: 2 engines x 2 cache x 2 streaming."""
    assert len(MATRIX) == 8
    assert len(set(MATRIX)) == 8

