"""``ParallelDiskSystem``: the executable Vitter-Shriver model.

Storage is organized in *portions*: independent copies of the
``N``-record address space (the paper's "source portion" and "target
portion" of Section 3).  One-pass algorithms read from one portion and
write to another; chained passes ping-pong the roles so source records
are never overwritten before they are read.

The two model rules are enforced on every operation:

* **one block per disk** -- a parallel I/O naming two blocks on the same
  disk raises :class:`DiskConflictError`;
* **memory capacity** -- reads allocate ``B`` records per block against
  the ``M``-record RAM and writes release them; exceeding ``M`` raises
  :class:`MemoryCapacityError`.

With ``simple_io=True`` (the default) the simulator also enforces the
*simple I/O* discipline of Lemma 4: a read removes records from disk
and a write must target an empty block, so exactly one copy of each
record exists at any time.  All of the paper's algorithms satisfy this
naturally; the run-time detector opts out per-read (``consume=False``)
because it inspects records without moving them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import (
    BlockStateError,
    DiskConflictError,
    ValidationError,
)
from repro.pdm.geometry import DiskGeometry
from repro.pdm.memory import Memory
from repro.pdm.stats import IOStats

__all__ = ["ParallelDiskSystem", "IOEvent", "EMPTY"]

#: Sentinel payload for an empty record slot.
EMPTY: int = -1


def _coerce_block_ids(block_ids: Iterable[int] | np.ndarray) -> np.ndarray:
    """Normalize a parallel I/O's block ids to a 1-D int64 array."""
    try:
        ids = np.asarray(block_ids, dtype=np.int64)
    except TypeError:  # a generator/iterator: materialize once
        ids = np.asarray(list(block_ids), dtype=np.int64)
    if ids.ndim != 1:
        raise ValidationError(f"block ids must be one-dimensional, got shape {ids.shape}")
    return ids


class IOEvent:
    """Observer payload describing one parallel I/O operation."""

    __slots__ = ("kind", "portion", "block_ids", "values")

    def __init__(self, kind: str, portion: int, block_ids: np.ndarray, values: np.ndarray):
        self.kind = kind  # "read" | "write"
        self.portion = portion
        self.block_ids = block_ids
        self.values = values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IOEvent({self.kind}, portion={self.portion}, blocks={list(self.block_ids)})"


class ParallelDiskSystem:
    """A simulated parallel disk system holding integer record payloads."""

    def __init__(
        self,
        geometry: DiskGeometry,
        portions: int = 2,
        simple_io: bool = True,
        dtype=np.int64,
        empty=EMPTY,
    ) -> None:
        """``dtype``/``empty`` configure the record payload type.

        The default (int64 with -1 as the empty sentinel) suits the
        canonical address-payload experiments; numeric workloads (e.g.
        the out-of-core FFT example) use ``dtype=complex128`` with
        ``empty=nan``.  The model rules and I/O accounting are payload-
        agnostic.
        """
        if portions < 1:
            raise ValidationError(f"need at least one portion, got {portions}")
        self.geometry = geometry
        self.num_portions = portions
        self.simple_io = simple_io
        self.dtype = np.dtype(dtype)
        self.empty = self.dtype.type(empty)
        # A NaN sentinel equals nothing, itself included, so empty slots
        # are found by isnan (of the real part, for complex payloads);
        # any other sentinel by equality.
        self._nan_empty = self.dtype.kind in "fc" and bool(np.isnan(self.empty.real))
        self.memory = Memory(geometry.M)
        self.stats = IOStats()
        self._data = np.full((portions, geometry.N), self.empty, dtype=self.dtype)
        self._identity: np.ndarray | None = None
        self._observers: list[Callable[[IOEvent], None]] = []

    def _is_empty(self, values: np.ndarray) -> np.ndarray:
        if self._nan_empty:
            return np.isnan(values.real)
        return values == self.empty

    # -------------------------------------------------------------- contents
    def _identity_values(self) -> np.ndarray:
        """The canonical payloads ``[0, ..., N-1]`` in the system's dtype,
        built on first use and kept (read-only) for the system's life."""
        identity = self._identity
        if identity is None:
            identity = np.arange(self.geometry.N).astype(self.dtype)
            identity.flags.writeable = False
            self._identity = identity
        return identity

    def fill_identity(self, portion: int = 0) -> None:
        """Load record payloads equal to their addresses (the canonical input).

        One copy from the system's identity array, which is built once in
        the system's dtype.
        """
        self._data[portion] = self._identity_values()

    def fill(self, portion: int, values: Sequence[int] | np.ndarray) -> None:
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != (self.geometry.N,):
            raise ValidationError(
                f"portion holds exactly N={self.geometry.N} records, got {values.shape}"
            )
        self._data[portion] = values

    def clear(self, portion: int) -> None:
        self._data[portion] = self.empty

    def reset(self) -> None:
        """Return the system to its just-constructed state.

        Empties every portion in place (no reallocation -- the portion
        arrays are the dominant cost at large N) and replaces the memory
        accountant, stats, and pass tables with fresh ones.  Observers
        stay attached.  This is the serving path's per-request scrub: a
        pooled worker system must not leak records, counters, or memory
        residency from the previous request into the next.
        """
        self._data.fill(self.empty)
        self.memory = Memory(self.geometry.M)
        self.stats = IOStats()

    def portion_values(self, portion: int) -> np.ndarray:
        """Copy of a portion's payloads, indexed by address."""
        return self._data[portion].copy()

    def portion_view(self, portion: int) -> np.ndarray:
        """Read-only view of a portion's payloads, indexed by address.

        No copy: the view is the portion's contiguous row (hashlib reads
        its buffer directly) and sees every later write to the portion.
        """
        view = self._data[portion]
        view.flags.writeable = False
        return view

    def block_values(self, portion: int, block_id: int) -> np.ndarray:
        """Peek at a block without performing an I/O (for tests/rendering)."""
        start = self.geometry.block_start(int(block_id))
        return self._data[portion, start : start + self.geometry.B].copy()

    def peek(self, portion: int, start: int, stop: int) -> np.ndarray:
        """Inspect an address range without an I/O (scheduling/verification).

        Algorithms may use this only to *plan* data-dependent I/O
        schedules (e.g. the merge sort's buffer-refill order); all data
        movement still goes through counted reads and writes.
        """
        return self._data[portion, start:stop].copy()

    # ------------------------------------------------------------- observers
    def add_observer(self, observer: Callable[[IOEvent], None]) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: Callable[[IOEvent], None]) -> None:
        self._observers.remove(observer)

    def _notify(self, event: IOEvent) -> None:
        for obs in self._observers:
            obs(event)

    # ------------------------------------------------------------ validation
    def _validate_op(self, portion: int, block_ids: np.ndarray) -> None:
        g = self.geometry
        if not (0 <= portion < self.num_portions):
            raise ValidationError(f"portion {portion} out of range")
        if block_ids.size == 0:
            raise ValidationError("a parallel I/O must transfer at least one block")
        if block_ids.size > g.D:
            raise DiskConflictError(
                f"a parallel I/O moves at most D={g.D} blocks, got {block_ids.size}"
            )
        if block_ids.min() < 0 or block_ids.max() >= g.num_blocks:
            raise ValidationError("block id out of range")
        disks = g.block_disk(block_ids)
        if np.unique(disks).size != disks.size:
            raise DiskConflictError(
                f"at most one block per disk per parallel I/O; disks requested: {sorted(disks)}"
            )

    def _is_striped(self, block_ids: np.ndarray) -> bool:
        g = self.geometry
        if block_ids.size != g.D:
            return False
        stripes = g.block_stripe(block_ids)
        return bool((stripes == stripes[0]).all())

    # ------------------------------------------------------------------- I/O
    def read_blocks(
        self,
        portion: int,
        block_ids: Iterable[int] | np.ndarray,
        consume: bool | None = None,
    ) -> np.ndarray:
        """One parallel read of up to ``D`` blocks on distinct disks.

        Returns an array of shape ``(k, B)`` in the order requested and
        allocates ``k * B`` records of memory.  With ``consume`` true
        (default: the system's ``simple_io`` setting) the blocks are
        emptied; reading an empty block raises :class:`BlockStateError`.
        """
        g = self.geometry
        block_ids = _coerce_block_ids(block_ids)
        self._validate_op(portion, block_ids)
        consume = self.simple_io if consume is None else consume
        starts = g.block_start(block_ids)
        gather = (starts[:, None] + np.arange(g.B, dtype=np.int64)[None, :]).reshape(-1)
        values = self._data[portion, gather].reshape(block_ids.size, g.B)
        if consume:
            empty = self._is_empty(values)
            if empty.any():
                bad = block_ids[empty.any(axis=1)]
                raise BlockStateError(
                    f"reading empty/partial blocks {list(bad)} under simple I/O"
                )
        self.memory.allocate(block_ids.size * g.B)
        if consume:
            self._data[portion, gather] = self.empty
        self.stats.record_read(block_ids.size, self._is_striped(block_ids))
        self._notify(IOEvent("read", portion, block_ids, values))
        return values

    def write_blocks(
        self,
        portion: int,
        block_ids: Iterable[int] | np.ndarray,
        values: np.ndarray,
    ) -> None:
        """One parallel write of up to ``D`` full blocks on distinct disks.

        ``values`` has shape ``(k, B)``; ``k * B`` records of memory are
        released.  Under simple I/O the target blocks must be empty.
        """
        g = self.geometry
        block_ids = _coerce_block_ids(block_ids)
        self._validate_op(portion, block_ids)
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != (block_ids.size, g.B):
            raise ValidationError(
                f"write expects shape {(block_ids.size, g.B)}, got {values.shape}"
            )
        starts = g.block_start(block_ids)
        scatter = (starts[:, None] + np.arange(g.B, dtype=np.int64)[None, :]).reshape(-1)
        if self.simple_io and (~self._is_empty(self._data[portion, scatter])).any():
            raise BlockStateError(
                f"writing to non-empty blocks under simple I/O: {list(block_ids)}"
            )
        self.memory.release(block_ids.size * g.B)
        self._data[portion, scatter] = values.reshape(-1)
        self.stats.record_write(block_ids.size, self._is_striped(block_ids))
        self._notify(IOEvent("write", portion, block_ids, values))

    # --------------------------------------------------------- striped sugar
    def read_stripe(self, portion: int, stripe: int, consume: bool | None = None) -> np.ndarray:
        """Striped read: the ``D`` blocks of one stripe; shape ``(D, B)``."""
        return self.read_blocks(portion, self.geometry.stripe_blocks(stripe), consume=consume)

    def write_stripe(self, portion: int, stripe: int, values: np.ndarray) -> None:
        """Striped write: fill one whole stripe from a ``(D, B)`` array."""
        self.write_blocks(portion, self.geometry.stripe_blocks(stripe), values)

    def read_memoryload(self, portion: int, ml: int, consume: bool | None = None) -> np.ndarray:
        """Read a memoryload with ``M/BD`` striped reads; returns ``(M,)`` values.

        Values come back in ascending address order, i.e. entry ``i``
        is the record at address ``ml * M + i``.
        """
        g = self.geometry
        parts = [
            self.read_stripe(portion, stripe, consume=consume).reshape(-1)
            for stripe in g.memoryload_stripes(ml)
        ]
        return np.concatenate(parts)

    def write_memoryload(self, portion: int, ml: int, values: np.ndarray) -> None:
        """Write a memoryload with ``M/BD`` striped writes, address order."""
        g = self.geometry
        if values.shape != (g.M,):
            raise ValidationError(f"memoryload write expects {(g.M,)}, got {values.shape}")
        per = g.records_per_stripe
        for i, stripe in enumerate(g.memoryload_stripes(ml)):
            self.write_stripe(portion, stripe, values[i * per : (i + 1) * per].reshape(g.D, g.B))

    # ----------------------------------------------------------- verification
    def verify_permutation(
        self,
        perm,
        source_values: np.ndarray | None,
        target_portion: int,
    ) -> bool:
        """Check that ``target[perm(x)] == source_values[x]`` for every ``x``.

        ``perm`` is any object with ``target_vector`` (every
        :class:`~repro.perms.base.Permutation` has one); this is a
        model-level correctness check, not an I/O-counted operation.

        ``source_values=None`` names the canonical source, the payloads
        :meth:`fill_identity` loads, so the check is
        ``target[perm(x)] == x``.  For a BMMC permutation ``y = A x (+) c``
        (an object with a ``complement`` and an ``inverse()``) that holds
        exactly when ``target[y] == A^-1 (y (+) c)`` for every ``y``, so
        the target is compared in address order with the inverse's
        image, built by doubling (:func:`~repro.bits.bitops.affine_image`):
        one sequential read of every record instead of a gather at ``N``
        scattered addresses.  Any other permutation gathers
        ``target[perm(x)]`` and compares it with the identity array.
        """
        target = self._data[target_portion]
        if source_values is None:
            if hasattr(perm, "complement"):
                return bool((target == perm.inverse().target_vector()).all())
            source_values = self._identity_values()
        else:
            source_values = np.asarray(source_values, dtype=self.dtype)
        return bool((target[perm.target_vector()] == source_values).all())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelDiskSystem({self.geometry.describe()}, portions={self.num_portions}, "
            f"simple_io={self.simple_io})"
        )
