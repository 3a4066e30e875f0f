"""Classification-driven dispatch: run any permutation the cheapest way.

This is the "practical" entry point Section 6 motivates: given a
permutation (BMMC object or explicit target vector), classify it, pick
the fastest applicable algorithm, run it on the simulator, verify the
result, and report measured I/Os next to every relevant bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.core import bounds
from repro.core.bmmc_algorithm import perform_bmmc
from repro.core.general import perform_general_sort
from repro.core.mld_algorithm import perform_mld_pass
from repro.core.mrc_algorithm import perform_mrc_pass
from repro.errors import ValidationError
from repro.pdm.cache import PlanCache
from repro.pdm.stats import StatsSnapshot
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import Permutation
from repro.perms.bmmc import BMMCPermutation
from repro.perms.bpc import cross_rank
from repro.perms.classify import PermClass, classify, fit_bmmc

__all__ = [
    "RunReport",
    "perform_permutation",
    "perform_pipeline",
]

#: Entries in the memo of BMMC classes and bound tables
#: (:func:`perform_permutation`).
ANALYSIS_MEMO_SIZE = 64


@dataclass
class RunReport:
    """Everything an experiment row needs about one run."""

    method: str
    classes: set[PermClass]
    passes: int
    io: StatsSnapshot
    final_portion: int
    verified: bool
    bounds: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        cls = "/".join(sorted(c.value for c in self.classes))
        lines = [
            f"method={self.method} classes={cls} passes={self.passes} "
            f"parallel I/Os={self.io.parallel_ios} verified={self.verified}",
        ]
        for name, value in self.bounds.items():
            lines.append(f"  {name}: {value:.2f}")
        return "\n".join(lines)


def perform_permutation(
    system: ParallelDiskSystem,
    perm: Permutation,
    method: str = "auto",
    source_portion: int = 0,
    target_portion: int = 1,
    verify: bool = True,
    engine: str = "strict",
    cache: PlanCache | None = None,
    seed: int = 0,
) -> RunReport:
    """Run ``perm`` on ``system`` and report.

    ``method``: ``auto`` (classify, pick cheapest), ``mrc``, ``mld``,
    ``inv-mld``, ``bmmc`` (Theorem 21 algorithm), ``bmmc-unmerged`` (the
    ablation without Theorem 17/18 factor grouping), ``general``
    (merge-sort baseline), or ``distribution`` (randomized-placement
    distribution sort); the last two work for any permutation.

    ``engine`` selects plan execution: ``strict`` replays every parallel
    I/O through the rule-checked simulator path, ``fast`` runs the same
    plan through :mod:`repro.pdm.optimize`, one numpy gather per
    whole-portion unit of passes (identical portions and stats).  Every
    method's plan runs through :func:`~repro.pdm.cache.cached_execute`,
    which records its ``plan`` and ``execute`` stages.  The two sorts'
    schedules are data-dependent: each is planned as one static plan by
    simulating forward from the source's record values (and, for the
    distribution sort, its seeded placement RNG).

    ``cache`` -- a :class:`~repro.pdm.cache.PlanCache` -- serves
    repeated (geometry, matrix, method) workloads from compiled plans,
    skipping classification, planning, fusing, and validation, and
    leaves portions and :class:`~repro.pdm.stats.IOStats` identical to
    an uncached strict run.  The general sort's plan follows the source
    the system holds and is never cached; the distribution sort caches
    the plan of the canonical source keyed by the RNG seed (that input
    makes the schedule a pure function of the seed and knobs).

    ``seed`` feeds the distribution sort's placement RNG (other methods
    are deterministic and ignore it).

    The source portion must already hold the canonical payloads
    (``fill_identity``); nothing copies it.  Verification checks
    ``target[pi(x)] == x`` afterwards
    (:meth:`~repro.pdm.system.ParallelDiskSystem.verify_permutation` with
    ``source_values=None``): a BMMC permutation by one sequential compare
    of the target with its inverse image, an explicit one by a gather.
    Either way every record of the answer is read.  A source that breaks
    the precondition reads ``verified=False`` under every method that
    routes records by address (all but ``general`` and ``distribution``,
    which route each record by ``pi`` of its payload).

    A BMMC permutation's classes and bound table depend only on
    ``(A, c, geometry)``; the last :data:`ANALYSIS_MEMO_SIZE` of them
    are memoized, and every report gets its own copies.
    """
    classes, bperm, table = _analyze(perm, system.geometry)

    chosen = method
    if method == "auto":
        if PermClass.MRC in classes:
            chosen = "mrc"
        elif PermClass.MLD in classes:
            chosen = "mld"
        elif PermClass.INVERSE_MLD in classes:
            chosen = "inv-mld"
        elif PermClass.BMMC in classes:
            chosen = "bmmc"
        else:
            chosen = "general"

    before = system.stats.snapshot()
    passes_before = len(system.stats.passes)
    if chosen == "mrc":
        perform_mrc_pass(
            system, _require_bmmc(bperm, chosen), source_portion, target_portion,
            engine=engine, cache=cache,
        )
        final = target_portion
    elif chosen == "mld":
        perform_mld_pass(
            system, _require_bmmc(bperm, chosen), source_portion, target_portion,
            engine=engine, cache=cache,
        )
        final = target_portion
    elif chosen == "inv-mld":
        from repro.core.inverse_mld import perform_inverse_mld_pass

        perform_inverse_mld_pass(
            system, _require_bmmc(bperm, chosen), source_portion, target_portion,
            engine=engine, cache=cache,
        )
        final = target_portion
    elif chosen in ("bmmc", "bmmc-unmerged"):
        result = perform_bmmc(
            system,
            _require_bmmc(bperm, chosen),
            source_portion,
            target_portion,
            merge_factors=(chosen == "bmmc"),
            engine=engine,
            cache=cache,
        )
        final = result.final_portion
    elif chosen == "general":
        result = perform_general_sort(
            system, perm, source_portion, target_portion, engine=engine
        )
        final = result.final_portion
    elif chosen == "distribution":
        from repro.core.distribution import perform_distribution_sort

        result = perform_distribution_sort(
            system, perm, source_portion, target_portion, seed=seed,
            engine=engine, cache=cache,
        )
        final = result.final_portion
    else:
        raise ValidationError(f"unknown method {method!r}")
    io = system.stats.snapshot() - before
    passes = len(system.stats.passes) - passes_before

    verified = True
    if verify:
        verified = system.verify_permutation(perm, None, final)

    return RunReport(
        method=chosen,
        classes=classes,
        passes=passes,
        io=io,
        final_portion=final,
        verified=verified,
        bounds=table,
    )


def perform_pipeline(
    system: ParallelDiskSystem,
    perms: list[Permutation],
    source_portion: int = 0,
    target_portion: int = 1,
    verify: bool = True,
    engine: str = "strict",
    cache: PlanCache | None = None,
) -> RunReport:
    """Perform a sequence of permutations as *one* composed run.

    Lemma 1 made operational: instead of running ``pi_1`` then ``pi_2``
    (each paying its own passes), compose their characteristic matrices
    and run the single BMMC permutation ``pi_k o ... o pi_1``.  Data-
    parallel programs chain relayouts constantly (e.g. Gray-code then
    transpose); composition frequently collapses several multi-pass
    permutations into fewer passes than their sum -- sometimes into a
    single one-pass class.

    All stages must be BMMC (or fitted explicit vectors); otherwise the
    composition falls back to an explicit permutation run by the
    general sorter.
    """
    if not perms:
        raise ValidationError("pipeline needs at least one permutation")
    composed: Permutation = perms[0]
    for nxt in perms[1:]:
        composed = nxt.compose(composed)
    return perform_permutation(
        system,
        composed,
        source_portion=source_portion,
        target_portion=target_portion,
        verify=verify,
        engine=engine,
        cache=cache,
    )


def _analyze(
    perm: Permutation, g
) -> tuple[set[PermClass], BMMCPermutation | None, dict[str, float]]:
    """``(classes, perm as BMMC or None, bound table)``, fresh containers."""
    if isinstance(perm, BMMCPermutation):
        classes, table = _bmmc_analysis(perm.matrix, perm.complement, g)
        return set(classes), perm, dict(table)
    classes = classify(perm, g)
    bperm = _as_bmmc(perm, classes)
    return classes, bperm, _bound_table(g, bperm, classes)


@functools.lru_cache(maxsize=ANALYSIS_MEMO_SIZE)
def _bmmc_analysis(matrix, complement: int, g):
    perm = BMMCPermutation(matrix, complement, validate=False)
    classes = classify(perm, g)
    return frozenset(classes), MappingProxyType(_bound_table(g, perm, classes))


def _as_bmmc(perm: Permutation, classes: set[PermClass]) -> BMMCPermutation | None:
    if PermClass.BMMC in classes:
        fitted = fit_bmmc(perm.target_vector())
        if fitted is not None:
            return BMMCPermutation(fitted[0], fitted[1], validate=False)
    return None


def _require_bmmc(bperm: BMMCPermutation | None, method: str) -> BMMCPermutation:
    if bperm is None:
        raise ValidationError(f"method {method!r} needs a BMMC permutation")
    return bperm


def _bound_table(g, bperm: BMMCPermutation | None, classes: set[PermClass]) -> dict[str, float]:
    table: dict[str, float] = {
        "one_pass_ios": float(g.one_pass_ios),
        "general_permutation_bound": bounds.general_permutation_bound(g),
    }
    if bperm is not None:
        rg = bperm.rank_gamma(g.b)
        table["rank_gamma"] = float(rg)
        table["theorem3_lower_bound"] = bounds.theorem3_lower_bound(g, rg)
        table["sharpened_lower_bound"] = bounds.sharpened_lower_bound(g, rg)
        table["theorem21_upper_bound"] = float(bounds.theorem21_upper_bound(g, rg))
        table["predicted_ios"] = float(bounds.predicted_ios(bperm.matrix, g))
        table["old_bmmc_bound_ios"] = float(
            bounds.old_bmmc_bound_ios(g, bperm.leading_rank(g.m))
        )
        if PermClass.BPC in classes:
            table["old_bpc_bound_ios"] = float(
                bounds.old_bpc_bound_ios(g, cross_rank(bperm.matrix, g.b, g.m))
            )
    return table
