"""Live-byte accounting for tensor allocations.

A tensor is charged once, by ``MemoryTracker.register``, when it is made,
and releases its bytes when it is deallocated; gradient buffers and kept
intermediates are charged and released as they come and go. So peak memory
of a code region can be measured analytically (tracked tensor bytes, not
process RSS). Scopes nest; each scope reports the peak of bytes allocated on
top of what was live at scope entry.
"""

import gc
import threading
from contextlib import contextmanager


class ScopeStats:
    """Per-scope snapshot filled in while the scope is active."""

    def __init__(self, entry_bytes):
        self.entry_bytes = entry_bytes
        self.peak_bytes = 0  # peak of (live - entry) inside the scope

    def note(self, live_bytes):
        delta = live_bytes - self.entry_bytes
        if delta > self.peak_bytes:
            self.peak_bytes = delta


class MemoryTracker:
    """Counts live bytes of tracked buffers and remembers peaks.

    Single lock keeps the counter coherent when threads that make tensors
    share the process. The block pool's workers in ``ckrank.tensor`` make
    none: they compute into arrays, and only the calling thread makes an
    op's tensor and charges it here.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.live_bytes = 0
        self.peak_bytes = 0
        self._scopes = []

    def alloc(self, nbytes):
        with self._lock:
            self.live_bytes += nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
            for scope in self._scopes:
                scope.note(self.live_bytes)

    def free(self, nbytes):
        with self._lock:
            self.live_bytes -= nbytes

    def register(self, tensor):
        """Charge a new tensor's bytes: the one tracker call every tensor
        makes."""
        self.alloc(tensor.tracked_nbytes())

    @contextmanager
    def scope(self):
        """Track peak bytes allocated beyond the live set at entry."""
        stats = ScopeStats(self.live_bytes)
        self._scopes.append(stats)
        try:
            yield stats
        finally:
            self._scopes.remove(stats)

    def audit(self):
        """Sum byte sizes of all live tensors, found among the garbage
        collector's objects; must equal live_bytes.

        Callers should run gc.collect() first if the graph may contain
        unreleased references.
        """
        from .tensor import Tensor
        return sum(obj.tracked_nbytes() for obj in gc.get_objects()
                   if isinstance(obj, Tensor))


tracker = MemoryTracker()
