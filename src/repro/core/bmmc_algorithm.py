"""The asymptotically optimal BMMC algorithm (Section 5, Theorem 21).

Planning: classify first -- an MRC or MLD matrix runs in one direct pass
-- otherwise factor per :mod:`repro.core.factoring` and execute the
``g + 1`` merged one-pass factors right-to-left, ping-ponging between
the source and target portions.  The complement vector rides on the
*final* pass ("If the complement vector c is nonzero, we include it as
part of the MRC permutation characterized by the leftmost factor F");
because our one-pass performers handle full affine maps, a direct
MRC/MLD shortcut also carries its complement.

Two planning layers: :func:`plan_bmmc_passes` picks the sequence of
one-pass permutations (the paper's factor schedule), and
:func:`plan_bmmc_io` lowers that schedule to a concrete multi-pass
:class:`~repro.pdm.schedule.IOPlan` -- one plan object for the whole
run, executable strictly or fused.

``merge_factors=False`` is the reproduction's stand-in for the prior
BMMC/BPC algorithms of [4]: every factor of eq. 18 becomes its own pass
(``2g + 2`` passes instead of ``g + 1``), exhibiting the "innermost
factor of 2" that this paper removes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits.colops import is_mld_form, is_mrc_form
from repro.core.factoring import factor_bmmc
from repro.core.mld_algorithm import plan_mld_pass
from repro.core.mrc_algorithm import plan_mrc_pass
from repro.errors import ValidationError
from repro.pdm.cache import PlanCache, cached_execute, plan_key
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation

__all__ = [
    "PlanStep",
    "plan_bmmc_passes",
    "plan_bmmc_io",
    "perform_bmmc",
    "BMMCRunResult",
]


@dataclass(frozen=True)
class PlanStep:
    """One pass of the plan: an affine one-pass permutation plus its class."""

    perm: BMMCPermutation
    kind: str  # "mrc", "mld", or "inv-mld"
    name: str


@dataclass
class BMMCRunResult:
    """Outcome of :func:`perform_bmmc`."""

    steps: list[PlanStep]
    final_portion: int
    parallel_ios: int

    @property
    def passes(self) -> int:
        return len(self.steps)


def plan_bmmc_passes(
    perm: BMMCPermutation,
    geometry: DiskGeometry,
    merge_factors: bool = True,
    check: bool = True,
) -> list[PlanStep]:
    """Plan the sequence of one-pass permutations realizing ``perm``.

    The composition of the returned steps (first step applied first)
    equals ``perm`` exactly; with ``check=True`` this is verified by
    matrix recomposition.
    """
    if perm.n != geometry.n:
        raise ValidationError(
            f"permutation is on 2^{perm.n} records, geometry on 2^{geometry.n}"
        )
    b, m = geometry.b, geometry.m
    matrix, c = perm.matrix, perm.complement

    # Direct one-pass shortcuts; MRC preferred (striped both ways), then
    # MLD (Theorem 15), then inverse-MLD (Section 7's one-pass catalog).
    if is_mrc_form(matrix, m):
        return [PlanStep(perm, "mrc", "direct-mrc")]
    if is_mld_form(matrix, b, m):
        return [PlanStep(perm, "mld", "direct-mld")]
    from repro.core.inverse_mld import is_inverse_mld

    if is_inverse_mld(matrix, b, m):
        return [PlanStep(perm, "inv-mld", "direct-inv-mld")]

    fact = factor_bmmc(matrix, b, m, check=check)
    factors = fact.merged if merge_factors else fact.apply_order
    steps: list[PlanStep] = []
    for i, factor in enumerate(factors):
        complement = c if i == len(factors) - 1 else 0
        steps.append(
            PlanStep(
                BMMCPermutation(factor.matrix, complement, validate=False),
                factor.kind,
                factor.name,
            )
        )
    if check:
        composed = steps[0].perm
        for step in steps[1:]:
            composed = step.perm.compose(composed)
        if composed.matrix != matrix or composed.complement != c:
            raise AssertionError("planned passes do not compose to the input permutation")
    return steps


def plan_bmmc_io(
    geometry: DiskGeometry,
    steps: list[PlanStep],
    source_portion: int = 0,
    target_portion: int = 1,
) -> tuple[IOPlan, int]:
    """Lower a pass schedule to one multi-pass I/O plan.

    Passes ping-pong between the two portions; returns the combined
    plan and the portion holding the final output.
    """
    from repro.core.inverse_mld import plan_inverse_mld_pass

    plans: list[IOPlan] = []
    current = source_portion
    for step in steps:
        out = target_portion if current == source_portion else source_portion
        if step.kind == "mrc":
            plans.append(plan_mrc_pass(geometry, step.perm, current, out, label=step.name))
        elif step.kind == "mld":
            plans.append(plan_mld_pass(geometry, step.perm, current, out, label=step.name))
        elif step.kind == "inv-mld":
            plans.append(
                plan_inverse_mld_pass(geometry, step.perm, current, out, label=step.name)
            )
        else:  # pragma: no cover - schedules only emit known kinds
            raise ValidationError(f"unknown pass kind {step.kind!r}")
        current = out
    return IOPlan.concatenate(plans), current


def perform_bmmc(
    system: ParallelDiskSystem,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    merge_factors: bool = True,
    plan: list[PlanStep] | None = None,
    engine: str = "strict",
    cache: PlanCache | None = None,
    stream_records=None,
) -> BMMCRunResult:
    """Perform a BMMC permutation on the simulator (Theorem 21's algorithm).

    Passes ping-pong between ``source_portion`` and ``target_portion``;
    the returned result reports which portion holds the output (equal to
    ``target_portion`` when the number of passes is odd).

    ``cache`` keys the compiled multi-pass plan (factoring included) by
    (geometry, matrix, complement); repeated workloads skip
    classification, factoring, planning, fusing, and validation.  An
    explicit ``plan`` (a step list) is not part of that key, so such a
    run bypasses the cache.  The fast engine runs the ping-pong chain
    as one physical gather (stats are unchanged).
    """
    before = system.stats.parallel_ios
    key = plan_key(
        "bmmc", system.geometry, perm.matrix, perm.complement,
        source_portion, target_portion, merge_factors,
        system.num_portions, system.simple_io,
    )

    def build():
        steps = plan
        if steps is None:
            steps = plan_bmmc_passes(perm, system.geometry, merge_factors=merge_factors)
        io_plan, final = plan_bmmc_io(
            system.geometry, steps, source_portion, target_portion
        )
        return io_plan, {"steps": steps, "final": final}

    meta, _, _ = cached_execute(
        system, cache if plan is None else None, key, build,
        engine=engine, stream_records=stream_records,
    )
    return BMMCRunResult(
        steps=meta["steps"],
        final_portion=meta["final"],
        parallel_ios=system.stats.parallel_ios - before,
    )
