"""Shared-memory CSR segments for the process backend's sessions.

The process backend's workers need the network's dense-index tables — the
node-id column of the CSR, the adjacency arrays and the shard owner map —
to route messages.  A session packs them **once** into a single
:mod:`multiprocessing.shared_memory` segment; every worker
of every phase attaches to the same mapping, so a 14-phase pipeline ships
the tables exactly once regardless of how often the pool is (re)spawned —
and under spawn start methods nothing is pickled at all.

The tables are flat integer columns, exactly the shape a shared mapping
wants, so the segment is one int64 vector::

    header  q[2]   n (nodes), m (directed CSR entries)
    ids     q[n]   node id at dense index i (ascending)
    indptr  q[n+1] CSR row pointers
    indices q[m]   CSR column indices (dense)
    owner   q[n]   owning shard of dense index i (the ShardPlan's owner)

Today's fork-started workers consume ``ids`` (unpacked into the id→index
routing dict) and ``owner``; the adjacency columns (``indptr`` /
``indices``) are mapped but unread, because each context ships its own
neighbour tuple by fork inheritance.  They are packed anyway — ~8·m bytes
once per session — because they are the payload the spawn-path and
context-slimming follow-ups consume (deriving ``neighbors`` from the
mapping instead of pickling it per context; see the ROADMAP's
"context state in shared memory" item), and growing the segment later
would force a layout version.

Lifetime and the unlink guarantee
---------------------------------
The session that calls :meth:`SharedCSR.create` owns the segment and must
call :meth:`SharedCSR.destroy` (sessions do, on every close path).  Two
further guards make the unlink hold on abnormal exits:

* every created segment is recorded in a module registry whose
  ``atexit`` hook unlinks anything still live at interpreter shutdown
  (a session abandoned without ``close`` leaks nothing past the process);
* a *hard* crash (``os._exit``, SIGKILL) skips ``atexit``, but
  ``SharedMemory(create=True)`` registers with the CPython resource
  tracker, a separate process that unlinks the segment when it observes
  the creator die — the regression test kills a creator with ``os._exit``
  and asserts the segment disappears.

Workers only ever :meth:`SharedCSR.attach`; attachments are *untracked*
(via ``track=False`` on Python 3.13+, by unregistering from the resource
tracker otherwise) so a worker's exit can neither unlink the segment out
from under its siblings nor double-count it in the tracker.
"""

from __future__ import annotations

import atexit
import os
import threading
from array import array
from multiprocessing import shared_memory
from typing import Dict, List

from repro.congest.network import Network
from repro.congest.sharding.partition import ShardPlan

__all__ = ["SharedCSR"]

#: Mappings created by this process that have not been destroyed yet,
#: unlinked by the ``atexit`` hook below as a last resort.  The registry
#: holds the owning :class:`SharedCSR` objects, not the raw segments: an
#: abandoned mapping still exports memoryviews into its buffer, and only
#: ``SharedCSR.destroy`` knows to release them before closing (a raw
#: ``segment.close()`` would raise ``BufferError`` and skip the unlink).
_LIVE_SEGMENTS: Dict[str, "SharedCSR"] = {}


def _unlink_leaked_segments() -> None:  # pragma: no cover - shutdown path
    for mapping in list(_LIVE_SEGMENTS.values()):
        try:
            mapping.destroy()
        except Exception:
            pass
    _LIVE_SEGMENTS.clear()


atexit.register(_unlink_leaked_segments)

#: Serializes segment creation against the pre-3.13 attach fallback below,
#: whose register-suppressing patch is process-global: a create overlapping
#: that window would silently skip its own resource-tracker registration
#: and lose the crash-unlink guarantee.
_TRACKER_PATCH_LOCK = threading.Lock()


def _reset_after_fork() -> None:  # pragma: no cover - runs in fork children
    # A fork can snapshot the lock in its held state (another thread mid
    # create/attach); the child would then deadlock on its first attach.
    # Fork children get a fresh lock and an empty creator registry — a
    # child never owns the parent's segments, so its inherited atexit hook
    # must not unlink them either.
    global _TRACKER_PATCH_LOCK
    _TRACKER_PATCH_LOCK = threading.Lock()
    _LIVE_SEGMENTS.clear()


if hasattr(os, "register_at_fork"):  # POSIX; spawn children re-import anyway
    os.register_at_fork(after_in_child=_reset_after_fork)


def _attach_untracked(name: str) -> "shared_memory.SharedMemory":
    """Attach to an existing segment without resource-tracker registration.

    Python 3.13 has ``track=False`` for exactly this.  Before that, POSIX
    ``SharedMemory(name=...)`` registers every *attach* with the resource
    tracker, whose cache is a set keyed by segment name — so a worker's
    attach would alias the creator's entry and the first unregister (from
    any process sharing the tracker) would strand the other, producing
    spurious KeyError noise at tracker shutdown.  Suppressing the register
    call during attach reproduces the 3.13 semantics: only the creator's
    registration exists, and only the creator's unlink clears it.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        with _TRACKER_PATCH_LOCK:
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register


class SharedCSR:
    """One shared-memory mapping of a network's CSR plus the owner table.

    Construct through :meth:`create` (the session side, which owns the
    segment) or :meth:`attach` (the worker side, which only maps it).  The
    int64 columns are exposed as zero-copy ``memoryview`` casts; workers
    typically unpack ``ids`` into an id→index dict and ``owner`` into a
    list once per spawn — the point of the segment is that those bytes
    cross the process boundary as one mapping instead of one pickle per
    worker per phase.
    """

    def __init__(
        self, segment: "shared_memory.SharedMemory", n: int, m: int, owns: bool
    ) -> None:
        self._segment = segment
        self._owns = owns
        self._closed = False
        self.n = n
        self.m = m
        self._views: List[memoryview] = []
        base = memoryview(segment.buf)
        self._views.append(base)
        offset = 16  # header: q[2]
        self.ids = self._cast(base, offset, n)
        offset += 8 * n
        self.indptr = self._cast(base, offset, n + 1)
        offset += 8 * (n + 1)
        self.indices = self._cast(base, offset, m)
        offset += 8 * m
        self.owner = self._cast(base, offset, n)

    def _cast(self, base: memoryview, offset: int, count: int) -> memoryview:
        view = base[offset : offset + 8 * count].cast("q")
        self._views.append(view)
        return view

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, network: Network, plan: ShardPlan) -> "SharedCSR":
        """Pack *network*'s CSR and *plan*'s owner table into a new segment."""
        indptr, indices = network.csr_numpy()
        ids = network.node_ids
        n = len(ids)
        m = len(indices)
        columns = array("q", [n, m])
        columns.extend(ids)
        columns.frombytes(indptr.tobytes())
        columns.frombytes(indices.tobytes())
        columns.extend(plan.owner)
        raw = columns.tobytes()
        with _TRACKER_PATCH_LOCK:
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(raw))
            )
        segment.buf[: len(raw)] = raw
        mapping = cls(segment, n, m, owns=True)
        _LIVE_SEGMENTS[segment.name] = mapping
        return mapping

    @classmethod
    def attach(cls, name: str) -> "SharedCSR":
        """Map an existing segment by name (worker side; never unlinks)."""
        segment = _attach_untracked(name)
        header = memoryview(segment.buf)[:16].cast("q")
        n, m = header[0], header[1]
        header.release()
        return cls(segment, n, m, owns=False)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._segment.name

    @property
    def nbytes(self) -> int:
        """Bytes of packed tables in the mapping (the E16 report figure)."""
        return 8 * (2 + self.n + (self.n + 1) + self.m + self.n)

    def build_index_of(self) -> Dict[int, int]:
        """The id → dense-index table, unpacked from the ``ids`` column."""
        ids = self.ids
        return {ids[i]: i for i in range(self.n)}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the local mapping (does not unlink; idempotent)."""
        if self._closed:
            return
        self._closed = True
        for view in self._views:
            view.release()
        self._views = []
        self._segment.close()

    def __del__(self) -> None:
        # Views must be released before the segment's mmap can close;
        # without this, an abandoned mapping dies in whatever order the GC
        # picks and SharedMemory.__del__ raises "exported pointers exist".
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def destroy(self) -> None:
        """Close and, if this side created the segment, unlink it.

        The unlink runs even when the close fails — removing the name is
        the part with cross-process consequences.
        """
        try:
            self.close()
        finally:
            if self._owns:
                self._owns = False
                _LIVE_SEGMENTS.pop(self._segment.name, None)
                try:
                    self._segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
