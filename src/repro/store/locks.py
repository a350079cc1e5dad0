"""Advisory file locking for cross-process store writes.

:class:`~repro.analysis.backends.ProcessPoolBackend` workers share one
store directory. Object writes are already safe against torn reads
(:meth:`~repro.store.fsio.FileIO.write_atomic`), but two writers replacing the same
key, and especially interleaved appends to the JSONL catalog, want
mutual exclusion. POSIX ``flock`` gives it cheaply; on platforms
without ``fcntl`` the lock degrades to the in-process lock alone (the
atomic-rename object layout remains correct across processes, only
catalog lines from *separate* processes may interleave).

``flock`` alone is not enough once the sweep *service* exists: its
``ThreadingHTTPServer`` handlers and dispatcher share one process, and
POSIX advisory locks are per-(process, file) — a second thread taking
the same flock succeeds immediately, so two in-process writers could
interleave catalog appends. Each path therefore also gets a process-
local :class:`threading.Lock`, taken *before* the flock: threads
serialize on the former, processes on the latter.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: One lock per lock-file path, shared by every thread in the process.
_THREAD_LOCKS: Dict[str, threading.Lock] = {}
_THREAD_LOCKS_GUARD = threading.Lock()


def _thread_lock(path: str) -> threading.Lock:
    with _THREAD_LOCKS_GUARD:
        lock = _THREAD_LOCKS.get(path)
        if lock is None:
            lock = _THREAD_LOCKS[path] = threading.Lock()
        return lock


@contextlib.contextmanager
def advisory_lock(path: str) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path`` (created if absent).

    Mutual exclusion is two-level: a process-local ``threading.Lock``
    (because ``flock`` does not exclude threads of the same process)
    and then the POSIX ``flock`` itself (for pool workers and unrelated
    processes). Blocks until both are granted. Reentrant use within one
    thread is *not* supported — keep critical sections small and flat.
    """
    path = os.path.abspath(path)
    with _thread_lock(path):
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                with contextlib.suppress(OSError):
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
