"""Declarative I/O plans: *what* an algorithm does, divorced from execution.

An :class:`IOPlan` is an ordered sequence of *passes*, each an ordered
sequence of parallel-I/O steps (:class:`IOStep`).  A step is either a
parallel **read** of up to ``D`` blocks or a parallel **write**; the
records a pass reads form its *read stream* (slot ``i`` is the ``i``-th
record read within the pass, in step order, block-major, offset order
within a block), and every write step names its payload as slot indices
into that stream.  The in-memory permutation an algorithm applies
between reading and writing a memoryload is therefore captured
declaratively by the ``source`` slot arrays -- no callback, no data.

Plans are pure descriptions: building one performs no I/O and touches no
:class:`~repro.pdm.system.ParallelDiskSystem`.  The planners in
:mod:`repro.core` emit plans; :mod:`repro.pdm.engine` executes them
either *strictly* (step-by-step through the counted, rule-checked
``read_blocks``/``write_blocks`` path) or *fast* (validated up front,
then fused numpy gather/scatter over whole passes).  Both modes produce
byte-identical portions and identical :class:`~repro.pdm.stats.IOStats`.

Passes built through :class:`PlanBuilder` carry a *columnar* twin of
their step list (:class:`PassColumns`): one concatenated numpy array per
step field, accumulated while the plan is being built.  The fast engine
fuses a pass directly from these arrays -- no per-step Python loop, no
re-concatenation -- which removes most of the one-time "cold start" cost
the first fused execution used to pay.  The write-source column that
:meth:`PlanBuilder.memoryload_rounds` builds, a pass's one ``N``-entry
array, is mapped outside the malloc heap (:func:`_mapped_empty`).  The
strict engine replays each step from slices of the same columns.  The
:class:`IOStep` list is materialized lazily, only when something (a
test, a hand-built pass, a repr) actually iterates steps.

This mirrors how external-memory schedules are treated as first-class
objects independent of the machine that runs them (cf. Guidesort's pass
schedules, arXiv:1807.11328).
"""

from __future__ import annotations

import mmap
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry

__all__ = ["IOStep", "PlanPass", "PassColumns", "IOPlan", "PlanBuilder"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_BOOL = np.zeros(0, dtype=bool)

#: Private anonymous mappings, prefaulted in one call where the platform
#: can (every page is written at once); elsewhere ``mmap.mmap(-1, n)`` is
#: anonymous already.
_MAP_FLAGS = (
    {"flags": mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)}
    if hasattr(mmap, "MAP_PRIVATE")
    else {}
)


def _mapped_empty(size: int) -> np.ndarray:
    """An uninitialized int64 array in an anonymous memory map of its own.

    :meth:`PlanBuilder.memoryload_rounds` computes a pass's write-source
    column, its one ``N``-entry array, into one; the column lives as
    long as the plan.  Outside the malloc heap it goes back to the OS when
    the plan is dropped, and it never sits above the heap memory a cold
    request frees: with glibc, a column allocated there kept the freed
    planning and execution temporaries below it from being returned,
    and a cached plan's long-lived pull from filling them.
    """
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.frombuffer(mmap.mmap(-1, size * 8, **_MAP_FLAGS), dtype=np.int64)


class IOStep:
    """One parallel I/O: a read or a write of up to ``D`` blocks.

    ``block_ids`` is the int64 array of global block numbers, at most one
    per disk.  For writes, ``source`` holds ``k * B`` slot indices into
    the enclosing pass's read stream (the records to put down, in block-
    major order).  For reads, ``consume`` overrides the system's
    ``simple_io`` default (``None`` defers to it); the run-time detector
    uses ``consume=False`` to inspect records without moving them, and
    ``discard=True`` to release the records from the model's M-record
    memory as soon as they are read (inspected-and-dropped data that no
    later write may source).

    Steps are immutable: the fast engine caches fused per-pass metadata
    keyed by step count, so rebinding a field in place would silently
    desynchronize it.  Build a new step (and a new pass) instead.
    """

    __slots__ = ("kind", "portion", "block_ids", "source", "consume", "discard")

    def __init__(
        self,
        kind: str,
        portion: int,
        block_ids: np.ndarray,
        source: np.ndarray | None = None,
        consume: bool | None = None,
        discard: bool = False,
    ) -> None:
        if kind not in ("read", "write"):
            raise ValidationError(f"step kind must be 'read' or 'write', got {kind!r}")
        set_ = super().__setattr__
        set_("kind", kind)
        set_("portion", int(portion))
        set_("block_ids", np.asarray(block_ids, dtype=np.int64))
        set_("source", None if source is None else np.asarray(source, dtype=np.int64))
        set_("consume", consume)
        set_("discard", bool(discard))

    def __setattr__(self, name, value):
        raise AttributeError(f"IOStep is immutable; cannot set {name!r}")

    @property
    def num_blocks(self) -> int:
        return self.block_ids.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IOStep({self.kind}, portion={self.portion}, blocks={list(self.block_ids)})"


class PassColumns:
    """Struct-of-arrays form of one pass's steps (builder-produced).

    Field layout matches what the engine's fused representation needs:
    per-step metadata split by kind, with block ids and write sources
    already concatenated.  ``is_read``/``step_sizes`` retain the original
    step order so strict replay and memory accounting stay exact.
    """

    __slots__ = (
        "num_steps", "is_read", "step_sizes",
        "read_ids", "read_sizes", "read_portions",
        "read_consume_default", "read_consume_value", "read_discard",
        "write_ids", "write_sizes", "write_portions", "write_source",
    )

    @classmethod
    def empty(cls) -> "PassColumns":
        c = cls()
        c.num_steps = 0
        c.is_read = _EMPTY_BOOL
        c.step_sizes = _EMPTY_I64
        c.read_ids = _EMPTY_I64
        c.read_sizes = _EMPTY_I64
        c.read_portions = _EMPTY_I64
        c.read_consume_default = _EMPTY_BOOL
        c.read_consume_value = _EMPTY_BOOL
        c.read_discard = _EMPTY_BOOL
        c.write_ids = _EMPTY_I64
        c.write_sizes = _EMPTY_I64
        c.write_portions = _EMPTY_I64
        c.write_source = _EMPTY_I64
        return c


def _steps_from_columns(c: PassColumns) -> list[IOStep]:
    """Materialize the step list a columnar pass describes.

    Write-step record extents are recovered from ``write_sizes``; block
    sizes are uniform per step so ``step_sizes`` drives both id slices.
    The per-block record count is implicit: each write step's source
    array spans ``size / num_blocks`` records per block, i.e. the
    geometry's ``B`` -- recovered here as total source records divided
    by total write blocks (exact for every builder-produced pass).
    """
    steps: list[IOStep] = []
    total_write_blocks = int(c.write_sizes.sum())
    B = c.write_source.size // total_write_blocks if total_write_blocks else 0
    r = w = 0
    rid = wid = wsrc = 0
    for i in range(c.num_steps):
        size = int(c.step_sizes[i])
        if c.is_read[i]:
            consume = None if c.read_consume_default[r] else bool(c.read_consume_value[r])
            steps.append(
                IOStep(
                    "read",
                    int(c.read_portions[r]),
                    c.read_ids[rid : rid + size],
                    consume=consume,
                    discard=bool(c.read_discard[r]),
                )
            )
            r += 1
            rid += size
        else:
            steps.append(
                IOStep(
                    "write",
                    int(c.write_portions[w]),
                    c.write_ids[wid : wid + size],
                    source=c.write_source[wsrc : wsrc + size * B],
                )
            )
            w += 1
            wid += size
            wsrc += size * B
    return steps


def _columns_from_steps(steps: Sequence[IOStep], B: int) -> PassColumns:
    """Columnar form of an explicit step list (slow path, loops once).

    The columns keep one run of write sources per pass, which the
    engines split again at ``B`` slots per written block, so a write
    step naming any other number of slots is rejected here.
    """
    c = PassColumns.empty()
    c.num_steps = len(steps)
    if not steps:
        return c
    is_read = np.empty(len(steps), dtype=bool)
    step_sizes = np.empty(len(steps), dtype=np.int64)
    read_ids, read_sizes, read_portions = [], [], []
    consume_default, consume_value, discard = [], [], []
    write_ids, write_sizes, write_portions, write_sources = [], [], [], []
    for i, step in enumerate(steps):
        is_read[i] = step.kind == "read"
        step_sizes[i] = step.num_blocks
        if step.kind == "read":
            read_ids.append(step.block_ids)
            read_sizes.append(step.num_blocks)
            read_portions.append(step.portion)
            consume_default.append(step.consume is None)
            consume_value.append(bool(step.consume))
            discard.append(step.discard)
        else:
            source = step.source if step.source is not None else _EMPTY_I64
            if source.size != step.num_blocks * B:
                raise ValidationError(
                    f"write step {i} names {source.size} source slots for "
                    f"{step.num_blocks} blocks of B={B} records"
                )
            write_ids.append(step.block_ids)
            write_sizes.append(step.num_blocks)
            write_portions.append(step.portion)
            write_sources.append(source)
    c.is_read = is_read
    c.step_sizes = step_sizes
    c.read_ids = np.concatenate(read_ids) if read_ids else _EMPTY_I64
    c.read_sizes = np.asarray(read_sizes, dtype=np.int64)
    c.read_portions = np.asarray(read_portions, dtype=np.int64)
    c.read_consume_default = np.asarray(consume_default, dtype=bool)
    c.read_consume_value = np.asarray(consume_value, dtype=bool)
    c.read_discard = np.asarray(discard, dtype=bool)
    c.write_ids = np.concatenate(write_ids) if write_ids else _EMPTY_I64
    c.write_sizes = np.asarray(write_sizes, dtype=np.int64)
    c.write_portions = np.asarray(write_portions, dtype=np.int64)
    c.write_source = np.concatenate(write_sources) if write_sources else _EMPTY_I64
    return c


class PlanPass:
    """A labelled pass: the unit of the paper's upper bounds.

    The pass label becomes the :class:`~repro.pdm.stats.PassStats` label
    when the plan is executed, so measured I/O tables attribute every
    operation exactly as the hand-written performers did.

    A pass is backed by an explicit :class:`IOStep` list, a columnar
    :class:`PassColumns` twin, or both.  Builder-produced passes start
    columnar and materialize steps only on demand; hand-built passes
    (``PlanPass(label, [step, ...])``) start as step lists and grow a
    columnar twin the first time the fast engine fuses them.  Mutating a
    materialized step list (appending steps, as a few tests do) is
    detected by step count and invalidates the columnar/fused caches.
    """

    __slots__ = ("label", "_steps", "_columns", "_fused")

    def __init__(self, label: str, steps: list[IOStep] | None = None) -> None:
        self.label = label
        self._steps = steps if steps is not None else []
        self._columns: PassColumns | None = None
        self._fused: dict = {}  # engine-side fused-metadata cache

    @classmethod
    def _from_columns(cls, label: str, columns: PassColumns) -> "PlanPass":
        p = cls.__new__(cls)
        p.label = label
        p._steps = None
        p._columns = columns
        p._fused = {}
        return p

    @property
    def steps(self) -> list[IOStep]:
        if self._steps is None:
            self._steps = _steps_from_columns(self._columns)
        return self._steps

    @property
    def num_steps(self) -> int:
        c = self.columns_if_fresh()
        return c.num_steps if c is not None else len(self.steps)

    def columns_if_fresh(self) -> PassColumns | None:
        """The columnar twin, or ``None`` if the step list has diverged."""
        c = self._columns
        if c is None:
            return None
        if self._steps is not None and len(self._steps) != c.num_steps:
            return None
        return c

    def _ensure_columns(self, B: int) -> PassColumns:
        c = self.columns_if_fresh()
        if c is None:
            c = _columns_from_steps(self.steps, B)
            self._columns = c
        return c

    @property
    def num_read_blocks(self) -> int:
        c = self.columns_if_fresh()
        if c is not None:
            return int(c.read_sizes.sum())
        return sum(s.num_blocks for s in self.steps if s.kind == "read")

    @property
    def num_write_blocks(self) -> int:
        c = self.columns_if_fresh()
        if c is not None:
            return int(c.write_sizes.sum())
        return sum(s.num_blocks for s in self.steps if s.kind == "write")

    @property
    def parallel_ios(self) -> int:
        return self.num_steps

    def relabelled(self, label: str) -> "PlanPass":
        """A shallow copy under a new label (steps/columns shared)."""
        p = PlanPass.__new__(PlanPass)
        p.label = label
        p._steps = self._steps
        p._columns = self._columns
        p._fused = {}
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanPass({self.label!r}, steps={self.num_steps})"


def _pass_block_keys(g: DiskGeometry, pas: PlanPass):
    """Portion-qualified (read_keys, write_keys) block sets of a pass."""
    c = pas._ensure_columns(g.B)
    rkeys = np.repeat(c.read_portions, c.read_sizes) * g.num_blocks + c.read_ids
    wkeys = np.repeat(c.write_portions, c.write_sizes) * g.num_blocks + c.write_ids
    return rkeys, wkeys


def _try_merge_passes(g: DiskGeometry, a: PlanPass, b: PlanPass) -> PlanPass | None:
    """Merge two adjacent same-label passes into one, when provably safe.

    Safe means the union still satisfies the fused-execution discipline
    with room to spare: the two passes touch disjoint blocks (per
    portion, reads and writes alike), so the merged pass reads each
    block at most once and writes each block at most once, and ``b``'s
    write sources can simply be offset past ``a``'s read stream.  This
    is deliberately stricter than the engine's fusability audit --
    ping-pong chains (where ``b`` re-reads what ``a`` wrote) never
    merge; those are the cross-*pass* optimizer's job
    (:mod:`repro.pdm.optimize`).
    """
    if a.label != b.label:
        return None
    ra, wa = _pass_block_keys(g, a)
    rb, wb = _pass_block_keys(g, b)
    touched_a = np.concatenate((ra, wa))
    touched_b = np.concatenate((rb, wb))
    if np.intersect1d(touched_a, touched_b).size:
        return None
    ca, cb = a._ensure_columns(g.B), b._ensure_columns(g.B)
    offset = int(ca.read_sizes.sum()) * g.B
    merged = PassColumns.empty()
    merged.num_steps = ca.num_steps + cb.num_steps
    merged.is_read = np.concatenate((ca.is_read, cb.is_read))
    merged.step_sizes = np.concatenate((ca.step_sizes, cb.step_sizes))
    merged.read_ids = np.concatenate((ca.read_ids, cb.read_ids))
    merged.read_sizes = np.concatenate((ca.read_sizes, cb.read_sizes))
    merged.read_portions = np.concatenate((ca.read_portions, cb.read_portions))
    merged.read_consume_default = np.concatenate(
        (ca.read_consume_default, cb.read_consume_default)
    )
    merged.read_consume_value = np.concatenate(
        (ca.read_consume_value, cb.read_consume_value)
    )
    merged.read_discard = np.concatenate((ca.read_discard, cb.read_discard))
    merged.write_ids = np.concatenate((ca.write_ids, cb.write_ids))
    merged.write_sizes = np.concatenate((ca.write_sizes, cb.write_sizes))
    merged.write_portions = np.concatenate((ca.write_portions, cb.write_portions))
    merged.write_source = np.concatenate((ca.write_source, cb.write_source + offset))
    return PlanPass._from_columns(a.label, merged)


class IOPlan:
    """An ordered sequence of passes over one geometry.

    Composition helpers chain plans into multi-pass pipelines: the
    Theorem 21 BMMC algorithm concatenates one plan per factor,
    ping-ponging portions between passes.
    """

    __slots__ = ("geometry", "passes")

    def __init__(self, geometry: DiskGeometry, passes: list[PlanPass] | None = None) -> None:
        self.geometry = geometry
        self.passes = passes if passes is not None else []

    # ---------------------------------------------------------- composition
    def extend(self, other: "IOPlan") -> "IOPlan":
        """Append ``other``'s passes after this plan's (same geometry).

        Adjacent passes that share a label and touch disjoint blocks are
        merged into one pass, so composing two halves of the same
        logical pass does not inflate the pass count ``describe()`` and
        :class:`~repro.pdm.stats` report.  Unmergeable label collisions
        are disambiguated by suffixing (``mld``, ``mld@2``, ...) so every
        pass row in a measured table names a distinct pass.
        """
        if other.geometry != self.geometry:
            raise ValidationError("cannot chain plans over different geometries")
        passes = list(self.passes)
        for p in other.passes:
            if passes:
                merged = _try_merge_passes(self.geometry, passes[-1], p)
                if merged is not None:
                    passes[-1] = merged
                    continue
            taken = {q.label for q in passes}
            if p.label in taken:
                k = 2
                while f"{p.label}@{k}" in taken:
                    k += 1
                p = p.relabelled(f"{p.label}@{k}")
            passes.append(p)
        return IOPlan(self.geometry, passes)

    @classmethod
    def concatenate(cls, plans: Sequence["IOPlan"]) -> "IOPlan":
        """Chain a sequence of plans into one multi-pass plan."""
        if not plans:
            raise ValidationError("cannot concatenate zero plans")
        result = plans[0]
        for plan in plans[1:]:
            result = result.extend(plan)
        return result

    # -------------------------------------------------------------- queries
    @property
    def num_passes(self) -> int:
        return len(self.passes)

    @property
    def num_steps(self) -> int:
        return sum(p.num_steps for p in self.passes)

    @property
    def parallel_ios(self) -> int:
        return self.num_steps

    @property
    def blocks_moved(self) -> int:
        return sum(p.num_read_blocks + p.num_write_blocks for p in self.passes)

    # ------------------------------------------------------------ simulation
    def apply_to(self, portions: np.ndarray, simple_io: bool = True) -> None:
        """Apply the plan's data movement to a bare portions array, in place.

        ``portions`` has shape ``(num_portions, N)``.  This is the pure
        semantics of the plan -- gather each pass's read stream, empty
        consumed blocks, scatter the writes -- with no system, no model
        rules, and no I/O accounting.  The distribution sort's planner
        (:func:`~repro.core.distribution.plan_distribution_sort`) uses
        it to advance its simulated portions from one planned pass to
        the next; it assumes the *fused* within-pass semantics (reads
        before writes), which every pass the fast engine accepts
        satisfies.  Consumed blocks are set to the system's
        :data:`~repro.pdm.system.EMPTY` sentinel.
        """
        from repro.pdm.system import EMPTY  # local: system is a peer module

        g = self.geometry
        offsets = np.arange(g.B, dtype=np.int64)[None, :]
        for pas in self.passes:
            c = pas._ensure_columns(g.B)
            read_addr = ((c.read_ids[:, None] << g.b) + offsets).reshape(-1)
            rec_rport = np.repeat(c.read_portions, c.read_sizes * g.B)
            stream = portions[rec_rport, read_addr]
            consume = np.where(
                c.read_consume_default, simple_io, c.read_consume_value
            )
            rec_consume = np.repeat(consume, c.read_sizes * g.B)
            if rec_consume.any():
                portions[rec_rport[rec_consume], read_addr[rec_consume]] = EMPTY
            if c.write_source.size:
                write_addr = ((c.write_ids[:, None] << g.b) + offsets).reshape(-1)
                rec_wport = np.repeat(c.write_portions, c.write_sizes * g.B)
                portions[rec_wport, write_addr] = stream[c.write_source]

    def describe(self) -> str:
        lines = [
            f"IOPlan over {self.geometry.describe()}",
            f"  {self.num_passes} passes, {self.parallel_ios} parallel I/Os, "
            f"{self.blocks_moved} blocks moved",
        ]
        for p in self.passes:
            lines.append(
                f"  pass {p.label!r}: {p.parallel_ios} steps "
                f"({p.num_read_blocks} blocks read, {p.num_write_blocks} written)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IOPlan(passes={self.num_passes}, steps={self.num_steps})"


class _Column:
    """One column of a pass under construction.

    Step-by-step calls queue one value each (a scalar, or a small array
    for the ragged id and source columns); bulk calls add a whole array.
    Queued values are joined into one array when a bulk array arrives
    and when the pass is built, so the parts stay in step order and a
    pass built in bulk joins a few arrays, not one value per step.
    """

    __slots__ = ("dtype", "ragged", "parts", "queued")

    def __init__(self, dtype, ragged: bool = False) -> None:
        self.dtype = dtype
        self.ragged = ragged
        self.parts: list[np.ndarray] = []
        self.queued: list = []

    def _join_queued(self) -> None:
        if self.queued:
            self.parts.append(
                np.concatenate(self.queued)
                if self.ragged
                else np.asarray(self.queued, dtype=self.dtype)
            )
            self.queued = []

    def add_array(self, values: np.ndarray) -> None:
        """Append a whole array the caller hands over (not copied)."""
        self._join_queued()
        self.parts.append(values)

    def array(self) -> np.ndarray:
        self._join_queued()
        if len(self.parts) > 1:
            self.parts = [np.concatenate(self.parts)]
        return self.parts[0] if self.parts else np.zeros(0, dtype=self.dtype)


#: Each :class:`PassColumns` array field: its dtype, and whether a step
#: adds an array to it (block ids, write sources) rather than one value.
_FIELDS = {
    "is_read": (bool, False),
    "step_sizes": (np.int64, False),
    "read_ids": (np.int64, True),
    "read_sizes": (np.int64, False),
    "read_portions": (np.int64, False),
    "read_consume_default": (bool, False),
    "read_consume_value": (bool, False),
    "read_discard": (bool, False),
    "write_ids": (np.int64, True),
    "write_sizes": (np.int64, False),
    "write_portions": (np.int64, False),
    "write_source": (np.int64, True),
}


class _PassAccumulator:
    """Per-pass columnar accumulation state inside :class:`PlanBuilder`:
    one :class:`_Column` per :class:`PassColumns` array field, under the
    field's name."""

    __slots__ = ("label", "num_steps", "built", *_FIELDS)

    def __init__(self, label: str) -> None:
        self.label = label
        self.num_steps = 0
        self.built: PlanPass | None = None
        for name, (dtype, ragged) in _FIELDS.items():
            setattr(self, name, _Column(dtype, ragged))

    def to_pass(self) -> PlanPass:
        if self.built is None:
            c = PassColumns.empty()
            c.num_steps = self.num_steps
            if c.num_steps:
                for name in _FIELDS:
                    setattr(c, name, getattr(self, name).array())
            self.built = PlanPass._from_columns(self.label, c)
        return self.built


class PlanBuilder:
    """Incremental :class:`IOPlan` construction with read-stream accounting.

    ``read*`` methods return the slot indices their records occupy in the
    current pass's read stream; planners permute those slot arrays (pure
    index arithmetic) and hand them to ``write*``.  Mirrors the striped
    and memoryload sugar of :class:`~repro.pdm.system.ParallelDiskSystem`
    so planners read like the performers they replace.

    The builder accumulates columnar numpy arrays directly -- no
    :class:`IOStep` objects are created during planning -- so the fast
    engine can fuse the built plan without ever looping over steps.
    """

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry
        self._accs: list[_PassAccumulator] = []
        self._current: _PassAccumulator | None = None
        self._cursor = 0  # records read so far in the current pass

    # ---------------------------------------------------------------- passes
    def begin_pass(self, label: str) -> "PlanBuilder":
        self._current = _PassAccumulator(label)
        self._accs.append(self._current)
        self._cursor = 0
        return self

    def _require_pass(self) -> _PassAccumulator:
        if self._current is None:
            raise ValidationError("begin_pass() before adding steps")
        return self._current

    # ----------------------------------------------------------------- steps
    def read(
        self,
        portion: int,
        block_ids: Iterable[int] | np.ndarray,
        consume: bool | None = None,
        discard: bool = False,
    ) -> np.ndarray:
        """Plan one parallel read; returns the slots its records occupy."""
        acc = self._require_pass()
        ids = np.asarray(block_ids, dtype=np.int64)
        acc.is_read.queued.append(True)
        acc.step_sizes.queued.append(ids.size)
        acc.read_ids.queued.append(ids)
        acc.read_sizes.queued.append(ids.size)
        acc.read_portions.queued.append(int(portion))
        acc.read_consume_default.queued.append(consume is None)
        acc.read_consume_value.queued.append(bool(consume))
        acc.read_discard.queued.append(bool(discard))
        acc.num_steps += 1
        acc.built = None
        slots = np.arange(
            self._cursor, self._cursor + ids.size * self.geometry.B, dtype=np.int64
        )
        self._cursor = int(slots[-1]) + 1 if slots.size else self._cursor
        return slots

    def write(
        self,
        portion: int,
        block_ids: Iterable[int] | np.ndarray,
        source: np.ndarray,
    ) -> None:
        """Plan one parallel write of records at ``source`` stream slots."""
        acc = self._require_pass()
        ids = np.asarray(block_ids, dtype=np.int64)
        source = np.asarray(source, dtype=np.int64)
        expect = ids.size * self.geometry.B
        if source.shape != (expect,):
            raise ValidationError(
                f"write source expects {expect} slots "
                f"({ids.size} blocks x B={self.geometry.B}), "
                f"got shape {source.shape}"
            )
        if expect and (source.min() < 0 or source.max() >= self._cursor):
            raise ValidationError(
                "write sources records not yet read: slots must lie in "
                f"[0, {self._cursor}), got range "
                f"[{source.min()}, {source.max()}]"
            )
        acc.is_read.queued.append(False)
        acc.step_sizes.queued.append(ids.size)
        acc.write_ids.queued.append(ids)
        acc.write_sizes.queued.append(ids.size)
        acc.write_portions.queued.append(int(portion))
        acc.write_source.queued.append(source)
        acc.num_steps += 1
        acc.built = None

    # --------------------------------------------------------- striped sugar
    def read_stripe(
        self,
        portion: int,
        stripe: int,
        consume: bool | None = None,
        discard: bool = False,
    ) -> np.ndarray:
        """Plan a striped read; slots come back in ascending address order."""
        return self.read(
            portion, self.geometry.stripe_blocks(stripe), consume=consume, discard=discard
        )

    def write_stripe(self, portion: int, stripe: int, source: np.ndarray) -> None:
        """Plan a striped write from ``BD`` slots in address order."""
        self.write(portion, self.geometry.stripe_blocks(stripe), source)

    def read_memoryload(self, portion: int, ml: int, consume: bool | None = None) -> np.ndarray:
        """Plan ``M/BD`` striped reads of a memoryload; ``M`` slots ascending."""
        parts = [
            self.read_stripe(portion, stripe, consume=consume)
            for stripe in self.geometry.memoryload_stripes(ml)
        ]
        return np.concatenate(parts)

    def write_memoryload(self, portion: int, ml: int, source: np.ndarray) -> None:
        """Plan ``M/BD`` striped writes of a memoryload from ``M`` slots."""
        g = self.geometry
        if source.shape != (g.M,):
            raise ValidationError(f"memoryload write expects {(g.M,)} slots, got {source.shape}")
        per = g.records_per_stripe
        for i, stripe in enumerate(g.memoryload_stripes(ml)):
            self.write_stripe(portion, stripe, source[i * per : (i + 1) * per])

    def memoryload_rounds(
        self,
        portion: int,
        write_portion: int,
        write_ids: np.ndarray,
        write_sources: np.ndarray,
        read_ids: np.ndarray | None = None,
    ) -> None:
        """Plan one round per memoryload, in round order: the round's
        ``M/BD`` parallel reads of ``portion``, then its writes.

        ``read_ids[r, i]`` are the ``D`` blocks of round ``r``'s ``i``-th
        parallel read; omitted, round ``r`` reads memoryload ``r`` with
        striped reads.  ``write_ids[r, i]`` are the blocks of round
        ``r``'s ``i``-th parallel write to ``write_portion``, and
        ``write_sources[r, i]`` the slots they take, counted from the
        round's first read slot (so in ``[0, M)``).  The steps are those
        that per-round :meth:`read` (or :meth:`read_memoryload`) and
        :meth:`write` calls would add; every column is appended as one
        array, with no Python loop over the rounds, and the write sources
        are computed into a memory map of their own (:func:`_mapped_empty`).
        """
        acc = self._require_pass()
        g = self.geometry
        rounds = g.num_memoryloads
        reads = g.stripes_per_memoryload
        ids = np.array(write_ids, dtype=np.int64)  # a copy: the pass keeps it
        sources = np.asarray(write_sources, dtype=np.int64)
        if ids.ndim != 3 or ids.shape[0] != rounds:
            raise ValidationError(
                f"memoryload rounds expect write ids of shape ({rounds}, k, w), "
                f"got {ids.shape}"
            )
        _, k, width = ids.shape
        if sources.shape != (rounds, k, width * g.B):
            raise ValidationError(
                f"memoryload rounds expect write sources of shape "
                f"{(rounds, k, width * g.B)}, got {sources.shape}"
            )
        if sources.size and (sources.min() < 0 or sources.max() >= g.M):
            raise ValidationError(
                "write sources must lie in the round's read slots "
                f"[0, {g.M}), got range [{sources.min()}, {sources.max()}]"
            )
        if read_ids is None:
            read_ids = np.arange(g.num_blocks, dtype=np.int64)
        else:
            read_ids = np.array(read_ids, dtype=np.int64)
            if read_ids.shape != (rounds, reads, g.D):
                raise ValidationError(
                    f"memoryload rounds expect read ids of shape "
                    f"{(rounds, reads, g.D)}, got {read_ids.shape}"
                )
        round_kinds = np.zeros(reads + k, dtype=bool)
        round_kinds[:reads] = True
        round_sizes = np.full(reads + k, width, dtype=np.int64)
        round_sizes[:reads] = g.D
        acc.is_read.add_array(np.tile(round_kinds, rounds))
        acc.step_sizes.add_array(np.tile(round_sizes, rounds))
        acc.read_ids.add_array(read_ids.reshape(-1))
        acc.read_sizes.add_array(np.full(reads * rounds, g.D, dtype=np.int64))
        acc.read_portions.add_array(np.full(reads * rounds, portion, dtype=np.int64))
        acc.read_consume_default.add_array(np.ones(reads * rounds, dtype=bool))
        acc.read_consume_value.add_array(np.zeros(reads * rounds, dtype=bool))
        acc.read_discard.add_array(np.zeros(reads * rounds, dtype=bool))
        acc.write_ids.add_array(ids.reshape(-1))
        acc.write_sizes.add_array(np.full(k * rounds, width, dtype=np.int64))
        acc.write_portions.add_array(np.full(k * rounds, write_portion, dtype=np.int64))
        first_slot = self._cursor + g.M * np.arange(rounds, dtype=np.int64)
        column = _mapped_empty(sources.size)
        np.add(sources, first_slot[:, None, None], out=column.reshape(sources.shape))
        acc.write_source.add_array(column)
        acc.num_steps += (reads + k) * rounds
        acc.built = None
        self._cursor += g.N

    # ----------------------------------------------------------------- build
    def build(self) -> IOPlan:
        return IOPlan(self.geometry, [acc.to_pass() for acc in self._accs])
