"""ResultStore: the on-disk, content-addressed result cache.

Layout (everything under one root directory)::

    <root>/
      objects/ab/abcdef...0123.json   one entry per cache key, sharded
                                      by the key's first two hex chars
      catalog.jsonl                   append-only lookup manifest
      .lock / catalog.jsonl.lock      advisory lock files

An entry file is a single JSON document::

    {"version": 1, "key": "<64 hex>", "fingerprint": "repro=...;...",
     "task": "repro.analysis.sweep:run_rate_delay_point",
     "meta": {"point": "2mbps", ...}, "check": "<16 hex>",
     "result": <JSON result>}

Durability rules:

* **Writes are atomic**: :meth:`~repro.store.fsio.FileIO.write_atomic`
  into the shard directory under an advisory lock (the injectable
  seam through which chaos tests make the disk lie). A killed worker
  leaves at worst a ``.tmp-*`` orphan, never a half-written entry at a
  live key.
* **Reads are corruption-tolerant**: unparsable JSON, a key mismatch,
  a missing ``result`` field, or a ``check`` checksum mismatch (a bit
  flip that kept the JSON parseable) is a cache *miss*, never a crash.
  :meth:`verify` reports such entries, :meth:`gc` collects them, and
  ``verify(repair=True)`` quarantines them into ``<root>/quarantine/``
  for post-mortem instead of deleting evidence.
* **Only successes are stored**: callers (see
  :func:`repro.analysis.backends.execute_point`) must only ``put``
  results that completed; failures go to the catalog as ``fail``
  events and are recomputed next time.

The store is cheap to pickle (paths + a fingerprint string, no open
handles), so a :class:`~repro.analysis.backends.ProcessPoolBackend`
ships it to workers and all processes share one cache coherently.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from .catalog import Catalog
from .fsio import FileIO
from .keys import canonical_json, code_fingerprint
from .locks import advisory_lock

ENTRY_VERSION = 1


def _result_check(result: Any) -> Optional[str]:
    """Truncated SHA-256 of the canonical result text.

    The content checksum stored in every entry's ``check`` field: the
    only defense against silent media corruption that keeps the JSON
    parseable (a flipped digit is a wrong answer, not a parse error).
    Returns None for a result that cannot be canonicalized — such an
    entry simply carries no checksum, like pre-checksum history.
    """
    try:
        text = canonical_json(result)
    except ConfigurationError:
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

#: Internal miss sentinel (a stored result may legitimately be None).
_MISS = object()


@dataclass
class StoreStats:
    """Point-in-time store accounting (``repro cache stats``)."""

    root: str
    entries: int
    total_bytes: int
    temp_files: int
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        hits = self.events.get("hit", 0)
        misses = self.events.get("miss", 0)
        total = hits + misses
        return hits / total if total else 0.0


@dataclass
class VerifyReport:
    """What :meth:`ResultStore.verify` found (and, with repair, moved)."""

    checked: int
    ok: int
    corrupt: List[str] = field(default_factory=list)
    temp: List[str] = field(default_factory=list)
    #: Destination paths of objects moved into ``quarantine/`` by a
    #: ``verify(repair=True)`` pass.
    quarantined: List[str] = field(default_factory=list)
    #: True when this report reflects a repair pass.
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.temp


@dataclass
class GcReport:
    """What :meth:`ResultStore.gc` removed."""

    removed_corrupt: int
    removed_temp: int
    bytes_freed: int
    kept: int
    #: Good entries removed by the ``max_age_days`` policy (unused for
    #: longer than the bound).
    removed_expired: int = 0
    #: Good entries LRU-evicted by the ``max_bytes`` policy.
    removed_evicted: int = 0


class ResultStore:
    """A content-addressed result cache rooted at one directory."""

    def __init__(self, root: str,
                 fingerprint: Optional[str] = None,
                 fs: Optional[FileIO] = None) -> None:
        if not root:
            raise ConfigurationError("ResultStore needs a root directory")
        self.root = os.path.abspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        #: Pinned at construction so one sweep uses one consistent
        #: fingerprint even if modules are reloaded mid-run.
        self.fingerprint = fingerprint or code_fingerprint()
        #: The filesystem seam — a chaos test swaps in a
        #: :class:`~repro.service.chaos.FaultyFS` here.
        self.fs = fs if fs is not None else FileIO()
        self.catalog = Catalog(os.path.join(self.root, "catalog.jsonl"),
                               fs=self.fs)
        self._lock_path = os.path.join(self.root, ".lock")
        self._last_use_path = os.path.join(self.root, "last_use.json")

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> str:
        """The sharded object path for a cache key."""
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed cache key {key!r}")
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def put(self, key: str, result: Any,
            meta: Optional[Dict[str, Any]] = None,
            task: str = "") -> str:
        """Store one result atomically; returns the entry path.

        An existing entry for ``key`` is replaced (used by ``--force``
        refreshes); concurrent writers serialize on the advisory lock
        and the last atomic rename wins — readers always see one
        complete entry.
        """
        path = self.path_for(key)
        payload = {
            "version": ENTRY_VERSION,
            "key": key,
            "fingerprint": self.fingerprint,
            "task": task,
            "meta": dict(meta or {}),
            "check": _result_check(result),
            "result": result,
        }
        try:
            text = json.dumps(payload, sort_keys=True) + "\n"
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"cache results must be JSON-serializable: {exc}")
        with advisory_lock(self._lock_path):
            self.fs.write_atomic(path, text, prefix=".tmp-")
        return path

    def fetch(self, key: str) -> Tuple[bool, Any]:
        """``(found, result)`` — corruption and absence are both misses."""
        entry = self._read_entry(self.path_for(key))
        if entry is _MISS or entry.get("key") != key:
            return False, None
        return True, entry["result"]

    def get(self, key: str, default: Any = None) -> Any:
        found, result = self.fetch(key)
        return result if found else default

    def contains(self, key: str) -> bool:
        return self.fetch(key)[0]

    __contains__ = contains

    def keys(self) -> Iterator[str]:
        """Every key with a (possibly corrupt) entry file, sorted."""
        for path in self._object_paths():
            name = os.path.basename(path)
            if not name.startswith(".tmp-"):
                yield name[:-len(".json")]

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Readable entries as ``{"key", "task", "meta", "bytes"}`` rows."""
        for path in self._object_paths():
            if os.path.basename(path).startswith(".tmp-"):
                continue
            entry = self._read_entry(path)
            if entry is _MISS:
                continue
            yield {"key": entry.get("key", ""),
                   "task": entry.get("task", ""),
                   "meta": entry.get("meta", {}),
                   "fingerprint": entry.get("fingerprint", ""),
                   "bytes": self._size(path)}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def verify(self, repair: bool = False) -> VerifyReport:
        """Check every entry parses, matches its key, and checksums.

        Detects the failure shapes a killed or lying writer can leave:
        orphaned ``.tmp-*`` files (reported in ``temp``), and truncated,
        foreign, or silently bit-flipped entry files (reported in
        ``corrupt`` — the entry ``check`` checksum catches corruption
        that keeps the JSON parseable).

        With ``repair=True`` the store heals itself: every flagged file
        moves into ``<root>/quarantine/`` (evidence preserved, the key
        becomes an honest miss), the catalog's torn tail is sealed, and
        the last-use index is rebuilt into ``last_use.json`` so the GC
        LRU policy survives a catalog that lost history. After a repair
        pass a fresh ``verify()`` is clean by construction — quarantine
        lives outside ``objects/`` and is never scanned.
        """
        checked = ok = 0
        corrupt: List[str] = []
        temp: List[str] = []
        for path in self._object_paths():
            name = os.path.basename(path)
            if name.startswith(".tmp-"):
                temp.append(path)
                continue
            checked += 1
            entry = self._read_entry(path)
            if entry is _MISS or entry.get("key") != name[:-len(".json")]:
                corrupt.append(path)
            else:
                ok += 1
        report = VerifyReport(checked=checked, ok=ok, corrupt=corrupt,
                              temp=temp)
        if repair:
            report.quarantined = self._quarantine(corrupt + temp)
            self.catalog.seal()
            self._rebuild_last_use()
            report.repaired = True
        return report

    def _quarantine(self, paths: List[str]) -> List[str]:
        """Move flagged files under ``quarantine/``; returns new paths."""
        if not paths:
            return []
        moved: List[str] = []
        with advisory_lock(self._lock_path):
            os.makedirs(self.quarantine_dir, exist_ok=True)
            for path in paths:
                dest = os.path.join(self.quarantine_dir,
                                    os.path.basename(path))
                n = 0
                while os.path.exists(dest):  # same basename, twice
                    n += 1
                    dest = os.path.join(self.quarantine_dir,
                                        f"{os.path.basename(path)}.{n}")
                try:
                    os.replace(path, dest)
                except OSError:
                    continue  # vanished under us (concurrent gc)
                moved.append(dest)
        return moved

    def writable(self) -> bool:
        """Probe whether the store can durably write right now.

        A round-trip write/remove through the (possibly chaotic) fs
        seam — the ``/healthz`` store probe, so monitors see a full
        disk as unhealthy before jobs start degrading.
        """
        probe = os.path.join(self.root, f".probe-{os.getpid()}")
        try:
            self.fs.write_atomic(probe, "ok\n", prefix=".probe-")
        except OSError:
            return False
        try:
            os.unlink(probe)
        except OSError:
            pass
        return True

    def gc(self, max_age_days: Optional[float] = None,
           max_bytes: Optional[int] = None) -> GcReport:
        """Collect corrupt/temp files, then apply the retention policy.

        Always removes what :meth:`verify` flags. The optional policy
        knobs (``repro cache gc --max-age-days / --max-bytes``) also
        prune *good* entries:

        * ``max_age_days``: entries whose last use is older than this
          are removed. "Last use" is the newest catalog ``hit``/``miss``
          timestamp for the key (:meth:`Catalog.last_use_by_key`),
          falling back to the entry file's mtime for keys the catalog
          predates.
        * ``max_bytes``: after age expiry, remaining entries are
          evicted least-recently-used-first until the objects directory
          holds at most this many bytes.

        Both policies run under the store's advisory lock, so a
        concurrent sweep never sees a half-applied eviction pass. A key
        evicted here is simply a future cache miss — the content
        address recomputes bit-identically.
        """
        if max_age_days is not None and max_age_days < 0:
            raise ConfigurationError(
                f"max_age_days must be >= 0, got {max_age_days}")
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError(
                f"max_bytes must be >= 0, got {max_bytes}")
        report = self.verify()
        freed = 0
        removed_corrupt = removed_temp = 0
        removed_expired = removed_evicted = 0
        kept = report.ok
        with advisory_lock(self._lock_path):
            for path in report.corrupt:
                freed += self._size(path)
                if self._unlink(path):
                    removed_corrupt += 1
            for path in report.temp:
                freed += self._size(path)
                if self._unlink(path):
                    removed_temp += 1
            if max_age_days is not None or max_bytes is not None:
                survivors = self._entries_by_last_use()
                if max_age_days is not None:
                    horizon = time.time() - max_age_days * 86400.0
                    expired = [e for e in survivors if e[0] < horizon]
                    survivors = [e for e in survivors if e[0] >= horizon]
                    for _, path, size in expired:
                        freed += size
                        if self._unlink(path):
                            removed_expired += 1
                            kept -= 1
                if max_bytes is not None:
                    total = sum(size for _, _, size in survivors)
                    for _, path, size in survivors:  # oldest first
                        if total <= max_bytes:
                            break
                        total -= size
                        freed += size
                        if self._unlink(path):
                            removed_evicted += 1
                            kept -= 1
        return GcReport(removed_corrupt=removed_corrupt,
                        removed_temp=removed_temp, bytes_freed=freed,
                        kept=kept, removed_expired=removed_expired,
                        removed_evicted=removed_evicted)

    def _entries_by_last_use(self) -> List[Tuple[float, str, int]]:
        """Good entries as ``(last_use, path, bytes)``, oldest first.

        Last use comes from the catalog where available, then from the
        ``last_use.json`` snapshot a repair pass rebuilt (covering keys
        whose catalog history was torn away), and finally from file
        mtime, which the atomic-rename write set at store time.
        """
        last_use = self.catalog.last_use_by_key()
        snapshot = self._load_last_use_snapshot()
        entries: List[Tuple[float, str, int]] = []
        for path in self._object_paths():
            name = os.path.basename(path)
            if name.startswith(".tmp-"):
                continue
            key = name[:-len(".json")] if name.endswith(".json") else name
            ts = last_use.get(key)
            if ts is None:
                ts = snapshot.get(key)
            if ts is None:
                try:
                    ts = os.path.getmtime(path)
                except OSError:
                    continue  # vanished under us (concurrent gc)
            entries.append((ts, path, self._size(path)))
        entries.sort()
        return entries

    def _load_last_use_snapshot(self) -> Dict[str, float]:
        """The repair-built last-use index (missing/corrupt = empty)."""
        try:
            with open(self._last_use_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        return {str(key): float(ts) for key, ts in data.items()
                if isinstance(ts, (int, float))}

    def _rebuild_last_use(self) -> Dict[str, float]:
        """Recompute and persist the per-key last-use index.

        Part of ``verify(repair=True)``: after quarantining corrupt
        objects (and possibly losing torn catalog lines), the GC's
        notion of "recently used" is re-derived from the surviving
        catalog plus object mtimes and snapshotted, so an LRU eviction
        pass after a repair still evicts oldest-first instead of
        treating history-less keys as brand new.
        """
        last_use = self.catalog.last_use_by_key()
        index: Dict[str, float] = {}
        for path in self._object_paths():
            name = os.path.basename(path)
            if name.startswith(".tmp-"):
                continue
            key = name[:-len(".json")] if name.endswith(".json") else name
            ts = last_use.get(key)
            if ts is None:
                try:
                    ts = os.path.getmtime(path)
                except OSError:
                    continue
            index[key] = float(ts)
        try:
            self.fs.write_atomic(
                self._last_use_path,
                json.dumps(index, sort_keys=True) + "\n",
                prefix=".tmp-")
        except OSError:
            pass  # advisory index: losing it degrades GC to mtimes
        return index

    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        temp = 0
        for path in self._object_paths():
            if os.path.basename(path).startswith(".tmp-"):
                temp += 1
                continue
            entries += 1
            total += self._size(path)
        return StoreStats(root=self.root, entries=entries,
                          total_bytes=total, temp_files=temp,
                          events=self.catalog.counts())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _object_paths(self) -> Iterator[str]:
        try:
            shards = sorted(os.listdir(self.objects_dir))
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.objects_dir, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            for name in names:
                yield os.path.join(shard_dir, name)

    def _read_entry(self, path: str) -> Any:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError, ValueError):
            return _MISS
        if not isinstance(entry, dict) or "result" not in entry:
            return _MISS
        if entry.get("version") != ENTRY_VERSION:
            return _MISS
        # A present-but-wrong checksum means the bytes changed after
        # put — silent corruption that kept the JSON parseable. Absent
        # checksums (pre-checksum entries) stay valid: a missing guard
        # is not evidence of damage.
        check = entry.get("check")
        if check is not None and check != _result_check(entry["result"]):
            return _MISS
        return entry

    @staticmethod
    def _size(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r})"
