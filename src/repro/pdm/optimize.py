"""Plan-level optimization: rewrite *how* a plan executes, not what it does.

The paper counts parallel I/Os; the simulator additionally pays host
work to move every record through the portion arrays.  A pass of any
of the paper's algorithms (MRC, MLD, inverse MLD, each factor of the
Theorem 21 chain, each sort round) reads every address of one portion
and writes every address of another, so on the host it is one
permutation of one portion onto another.  :func:`optimize_plan` finds
these *whole-portion units* statically -- a single such pass, or a
chain of them that ping-pongs through portions -- and makes one
rewrite: it composes each unit's address maps into one ``pull`` index,
on the unit's first gather.
Pass ``k+1`` reads (consuming) the whole portion pass ``k`` wrote, so
the write/read round trip through the portion array becomes a
composition of two address maps, and a chain of ``p`` passes becomes
one gather.  An :class:`OptimizedPlan` moves each unit's data with one
``np.take(data[p_in], pull, out=data[p_out])``, while still reporting
pass-by-pass :class:`~repro.pdm.stats.IOStats` and memory peaks exactly
as the plan itself would, and firing one ``pass`` checkpoint per member
(all before the gather), as the per-pass engines do.  The fast engine
(:func:`~repro.pdm.engine.execute_plan` with ``engine="fast"``) runs
every plan this way.

Equivalence is by construction, and :meth:`OptimizedPlan.verify` checks
the construction cheaply: every unit's members read and write whole
portions, every pull index maps one portion into itself, and the
per-pass I/O counters the optimized executor will report are the
original plan's own fused counters.  The executed result is
byte-identical in portions and identical in stats to strict execution
(property-tested in ``tests/pdm/test_optimize.py``).

Simple-I/O discipline makes a unit sound and its checks row-wide.  The
first member consumes every record of ``p_in``, so ``p_in`` must hold
no empty record; each member writes a whole target portion, which must
be empty at that moment -- for ``p_in`` that is guaranteed by the
consume, for every other target it is its state before the unit runs.
Each intermediate portion is written whole and consumed whole, so it
ends as empty as never materializing it would leave it.  Plans that
are not made of whole-portion passes (hand-built test plans, plans
outside simple I/O) run pass by pass through the fast engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import BlockStateError, PlanError, ValidationError
from repro.pdm.cancel import checkpoint
from repro.pdm.engine import (
    ENGINES,
    ExecReport,
    _FusedPass,
    _check_memory,
    _check_pass,
    _execute_fast,
    _execute_strict,
    _finish_pass,
    _fuse_pass,
    _run_fused_pass,
    _stream_budget,
)
from repro.pdm.schedule import IOPlan
from repro.pdm.system import ParallelDiskSystem

__all__ = ["OptimizeReport", "OptimizedPlan", "optimize_plan"]


@dataclass(frozen=True)
class OptimizeReport:
    """What the optimizer found and rewrote."""

    passes: int                     # original plan passes
    physical_passes: int            # gather/scatter units after fusion
    fused_groups: int               # chains of >= 2 passes fused into one
    fused_links: int                # eliminated write->read round trips

    def summary(self) -> str:
        return (
            f"{self.passes} passes -> {self.physical_passes} physical "
            f"({self.fused_groups} fused groups, {self.fused_links} links "
            "eliminated)"
        )


class _Group:
    """One physical execution unit covering >= 1 original passes.

    A whole-portion unit (``p_in`` set) moves its data as
    ``data[p_out] = data[p_in][pull]``.  Its N-entry ``pull`` index is
    composed on the unit's first gather (:func:`_unit_pull`) and kept,
    so an execution that streams the unit's members instead never holds
    it.  Once every unit of a plan has its pull, :meth:`OptimizedPlan.slim`
    can copy the plan keeping only the pulls and each member's counters;
    a cached plan swaps that copy in (:mod:`repro.pdm.cache`).  Any other
    group runs its members pass by pass through the fast engine.
    """

    __slots__ = ("members", "pull", "p_in", "p_out", "targets", "lock")

    def __init__(self, members, p_in=None, p_out=None, targets=()):
        self.members = members          # list[_FusedPass], plan order
        self.pull = None                # output address -> p_in address
        self.p_in = p_in                # the portion the first member consumes
        self.p_out = p_out              # the portion the last member writes
        self.targets = targets          # member targets != p_in, once each
        # Compiled plans are shared between workers; one composes.
        self.lock = threading.Lock()


def _row(g, portions: np.ndarray, ids: np.ndarray) -> int | None:
    """The portion a block stream covers whole, else ``None``.

    ``N/B`` blocks (``N`` records) in one portion touch every block
    exactly once, because ``_check_pass`` rejects a block written twice
    and a consumed block read twice (callers only ask about consuming
    reads).
    """
    if ids.size * g.B != g.N or (portions != portions[0]).any():
        return None
    return int(portions[0])


def _rows(g, f, simple_io: bool) -> tuple[int, int] | None:
    """``(read portion, write portion)`` when, under simple I/O, the pass
    consumes one whole portion (discarding nothing) and writes another
    whole, else ``None``.  Both are decided on record counts
    (blocks x B)."""
    if (
        not simple_io
        or not f.resolved_consume(simple_io).all()
        or f.read_discard.any()
    ):
        return None
    src = _row(g, f.read_portions, f.read_ids)
    dst = _row(g, f.write_portions, f.write_ids)
    return None if src is None or dst is None else (src, dst)


def _check_pull(grp: _Group, pull: np.ndarray, N: int) -> None:
    """The pull index must map one portion into itself (``np.take`` runs
    it unchecked, with ``mode="clip"``)."""
    if pull.shape != (N,) or int(pull.min()) < 0 or int(pull.max()) >= N:
        raise PlanError(
            f"unit ending at {grp.members[-1].label!r}: pull index does not "
            "map the input portion onto the output portion"
        )


#: What a warm unit gather reads of a member pass: its checkpoint label,
#: the counters :func:`~repro.pdm.engine._finish_pass` records and the
#: memory effect :func:`~repro.pdm.engine._check_memory` runs.
_SLIM_PASS_FIELDS = (
    "label", "num_steps", "io_counts", "mem_high", "mem_low", "mem_peak", "mem_net",
)


def _slim_pass(f: _FusedPass, checked_for: tuple) -> _FusedPass:
    """A new record holding only ``f``'s :data:`_SLIM_PASS_FIELDS`, and
    the system shape ``checked_for`` that :func:`_check_pass` audited
    ``f`` against (so it never re-audits the record)."""
    slim = _FusedPass()
    for name in _SLIM_PASS_FIELDS:
        setattr(slim, name, getattr(f, name))
    slim.checked_for = checked_for
    return slim


def _whole_portion_unit(members, rows) -> _Group:
    """A whole-portion unit over ``members``, whose passes read and write
    the portions ``rows`` names; its pull index waits for a gather."""
    p_in = rows[0][0]
    targets = tuple(dict.fromkeys(dst for _, dst in rows if dst != p_in))
    return _Group(members, p_in=p_in, p_out=rows[-1][1], targets=targets)


def _member_step(g, f) -> np.ndarray:
    """Member ``f`` as a gather over whole portions,
    ``data[dst] = data[src][step]``, composed from its block ids.

    Stream slot ``s`` holds the record at source address
    ``(read_ids[s >> b] << b) | (s & (B - 1))``, and the ``k``-th
    written record comes from slot ``write_source[k]``, so the source
    addresses in write order, cut into rows of ``B``, are ``step``'s
    rows at ``write_ids``.  Its one temporary, ``src``, is dropped on
    return.
    """
    ws = f.write_source
    step = np.right_shift(ws, g.b)  # each written record's read block
    src = f.read_ids[step]
    src <<= g.b
    src |= np.bitwise_and(ws, g.B - 1, out=step)
    # A whole-portion member writes every block once, so every row of
    # the reused buffer is overwritten here.
    step.reshape(-1, g.B)[f.write_ids] = src.reshape(-1, g.B)
    return step


def _unit_pull(grp: _Group, g) -> np.ndarray:
    """The unit's pull index, composed and range-checked on first use.

    Each member is a gather over whole portions (:func:`_member_step`),
    and a chain of gathers composes as ``pull[step]``: O(N) per member.
    """
    if grp.pull is None:
        with grp.lock:
            if grp.pull is None:
                pull = None
                for f in grp.members:
                    step = _member_step(g, f)
                    pull = step if pull is None else pull[step]
                _check_pull(grp, pull, g.N)
                grp.pull = pull
    return grp.pull


def optimize_plan(
    plan: IOPlan,
    num_portions: int = 2,
    simple_io: bool = True,
) -> "OptimizedPlan":
    """Compile an :class:`IOPlan` into an :class:`OptimizedPlan`.

    ``num_portions`` and ``simple_io`` pin the system shape the
    optimized artifact is valid for (consume defaults and the fusion
    soundness argument depend on them); executing it against a system
    with a different shape transparently falls back to the plain fast
    engine.
    """
    g = plan.geometry
    fused = [_fuse_pass(g, p) for p in plan.passes]
    for f in fused:
        _check_pass(g, num_portions, simple_io, f)

    # A unit is a run of whole-portion passes, each consuming the
    # portion its predecessor wrote.
    rows = [_rows(g, f, simple_io) for f in fused]
    groups: list[_Group] = []
    links = 0
    i = 0
    while i < len(fused):
        j = i + 1
        if rows[i] is None:
            groups.append(_Group(fused[i:j]))
        else:
            while (
                j < len(fused)
                and rows[j] is not None
                and rows[j][0] == rows[j - 1][1]
            ):
                j += 1
            groups.append(_whole_portion_unit(fused[i:j], rows[i:j]))
            links += j - i - 1
        i = j

    report = OptimizeReport(
        passes=len(fused),
        physical_passes=len(groups),
        fused_groups=sum(1 for grp in groups if len(grp.members) > 1),
        fused_links=links,
    )
    return OptimizedPlan(g, plan, fused, groups, report, num_portions, simple_io)


class OptimizedPlan:
    """A compiled plan: original passes plus their physical rewrite.

    The artifact owns nothing the original plan does not imply -- it can
    always fall back to executing ``plan`` directly (strict engine,
    attached observers, capture, or a system whose portion count /
    simple-I/O discipline differs from what it was compiled for), and
    the optimized path reports the *original* plan's per-pass stats and
    memory envelope.

    A *slim* plan (:meth:`slim`; ``plan`` is ``None``) keeps only each
    unit's pull and each member's counters.  It runs the optimized path
    with every check that path makes, and refuses with
    :class:`PlanError` any execution that needs the plan itself
    (:meth:`needs_plan`).
    """

    __slots__ = (
        "geometry", "plan", "_fused", "groups", "report", "num_portions",
        "simple_io",
    )

    def __init__(
        self, geometry, plan, fused, groups, report, num_portions, simple_io
    ):
        self.geometry = geometry
        self.plan = plan
        self._fused = fused
        self.groups = groups
        self.report = report
        self.num_portions = num_portions
        self.simple_io = simple_io

    def slim(self) -> "OptimizedPlan | None":
        """A copy that keeps only what a warm gather reads, or ``None``
        while some group is not a whole-portion unit with its pull
        composed.

        The copy is built of new records: each unit's ``pull``,
        ``p_in``, ``p_out`` and ``targets``, and each member's
        :data:`_SLIM_PASS_FIELDS` and audited shape.  Nothing of this
        plan is changed, so an execution already running on it finishes
        on it.
        """
        if any(grp.pull is None for grp in self.groups):
            return None
        # optimize_plan audited every pass against this shape.
        shape = (self.num_portions, self.simple_io)
        fused = [_slim_pass(f, shape) for f in self._fused]
        groups = []
        start = 0
        for grp in self.groups:
            members = fused[start : start + len(grp.members)]
            start += len(members)
            unit = _Group(
                members, p_in=grp.p_in, p_out=grp.p_out, targets=grp.targets
            )
            unit.pull = grp.pull
            groups.append(unit)
        return OptimizedPlan(
            self.geometry, None, fused, groups, self.report,
            self.num_portions, self.simple_io,
        )

    def needs_plan(
        self,
        system: ParallelDiskSystem,
        engine: str = "fast",
        stream_records=None,
        capture: bool = False,
    ) -> str | None:
        """Why this execution would read more than each unit's pull, or
        ``None`` when a slim plan can run it.

        Strict replay, an attached observer and a capture replay the
        plan; a system of another shape runs it pass by pass; a stream
        budget below N streams each unit's members.
        """
        if engine == "strict":
            return "the strict engine"
        if system._observers:
            return "an execution with an observer attached"
        if capture:
            return "a capturing execution"
        if (
            system.num_portions != self.num_portions
            or system.simple_io != self.simple_io
        ):
            return "a system of another shape"
        budget = _stream_budget(stream_records)
        if budget is not None and self.geometry.N > budget:
            return f"a stream budget of {budget} < N={self.geometry.N} records"
        return None

    # ------------------------------------------------------------ certificate
    def verify(self) -> dict:
        """Cheap equivalence certificate; raises :class:`PlanError` on any
        structural violation, returns a summary dict otherwise.

        Checks: every member of a whole-portion unit reads and writes N
        records (its blocks times B), every unit's pull index (composed
        here if no execution has gathered yet) maps one portion into
        itself, and the pass list the optimized executor will report
        equals the original plan's.
        """
        if self.plan is None:
            raise PlanError(
                "a slim optimized plan keeps no block ids to verify; verify "
                "it before its plan is dropped"
            )
        g = self.geometry
        total_passes = 0
        for grp in self.groups:
            total_passes += len(grp.members)
            if grp.p_in is not None:
                for f in grp.members:
                    moved = (f.read_ids.size * g.B, f.write_ids.size * g.B)
                    if moved != (g.N, g.N):
                        raise PlanError(
                            f"unit member {f.label!r} does not move a whole portion"
                        )
                _check_pull(grp, _unit_pull(grp, g), g.N)
        if total_passes != len(self._fused) or total_passes != self.plan.num_passes:
            raise PlanError("optimized groups do not cover the plan's passes")
        return {
            "passes": total_passes,
            "physical_passes": len(self.groups),
            "fused_links": self.report.fused_links,
            "stats_identical_by_construction": True,
        }

    # -------------------------------------------------------------- execution
    def execute(
        self,
        system: ParallelDiskSystem,
        engine: str = "fast",
        stream_records=None,
        capture: bool = False,
    ) -> ExecReport:
        if engine not in ENGINES:
            raise ValidationError(f"unknown engine {engine!r}; choose from {ENGINES}")
        if self.geometry != system.geometry:
            raise ValidationError("plan and system geometries differ")
        if self.plan is None:
            why = self.needs_plan(system, engine, stream_records, capture)
            if why is not None:
                raise PlanError(
                    f"a slim optimized plan keeps only its units' pulls and "
                    f"cannot run {why}; re-plan to run it"
                )
            return self._execute_optimized(system, stream_records)
        if engine == "strict" or system._observers:
            report = _execute_strict(
                system, self.plan, capture=capture, stream_records=stream_records
            )
            if engine == "fast":
                report.fell_back = "observers"
            return report
        if capture:
            return _execute_fast(system, self.plan, capture=True)
        if (
            system.num_portions != self.num_portions
            or system.simple_io != self.simple_io
        ):
            report = _execute_fast(system, self.plan, stream_records=stream_records)
            report.fell_back = "system-shape-mismatch"
            return report
        return self._execute_optimized(system, stream_records)

    def _execute_optimized(self, system, stream_records) -> ExecReport:
        g = system.geometry
        for f in self._fused:
            _check_pass(g, system.num_portions, system.simple_io, f)
        _, _, mems = _check_memory(
            system.memory.capacity, system.memory.in_use, self._fused
        )
        budget = _stream_budget(stream_records)
        report = ExecReport(engine="fast", optimized=True)
        start = 0  # groups cover self._fused (and mems) in plan order
        for grp in self.groups:
            members = grp.members
            group_mems = mems[start : start + len(members)]
            start += len(members)
            if grp.p_in is not None and (budget is None or g.N <= budget):
                # Every member's pass boundary comes before the one
                # gather, so a stop there leaves the unit unmoved.
                for f in members:
                    checkpoint("pass", f.label)
                _run_unit(system, grp)
                report.host_peak_records = max(report.host_peak_records, g.N)
                for f, mem in zip(members, group_mems):
                    _finish_pass(system, f, mem)
                continue
            # Not a whole-portion unit, or one whose N-record gather
            # would bust the stream budget (the budget wins): run the
            # members one by one through the streaming path.
            for f, mem in zip(members, group_mems):
                checkpoint("pass", f.label)
                _run_fused_pass(system, f, budget, report, mem)
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OptimizedPlan({self.report.summary()})"


def _run_unit(system: ParallelDiskSystem, grp: _Group) -> None:
    """Execute one whole-portion unit: row-wide simple-I/O checks, then
    one gather of ``p_in`` into ``p_out``; ``p_in`` ends empty unless it
    is ``p_out``.

    Both checks run before anything moves, and name the same blocks the
    per-pass fast path names: ``addr >> b`` of the offending records.
    """
    g = system.geometry
    data = system._data
    src = data[grp.p_in]
    empty = system._is_empty(src)
    if empty.any():
        bad = np.unique(np.flatnonzero(empty) >> g.b)
        raise BlockStateError(
            f"reading empty/partial blocks {list(bad)} under simple I/O"
        )
    for portion in grp.targets:
        empty = system._is_empty(data[portion])
        if not empty.all():
            bad = np.unique(np.flatnonzero(~empty) >> g.b)
            raise BlockStateError(
                f"writing to non-empty blocks under simple I/O: {list(bad)}"
            )
    # _check_pull bounded the index when it was composed; "clip" skips
    # the per-call range check and the output buffer "raise" would need.
    pull = _unit_pull(grp, g)
    if grp.p_out == grp.p_in:
        data[grp.p_out] = np.take(src, pull, mode="clip")
    else:
        np.take(src, pull, out=data[grp.p_out], mode="clip")
        src.fill(system.empty)
