"""The fuzz corpus: minimized findings as committed regression cases.

Every fresh finding the driver cannot match to an existing entry is
minimized and written here as one JSON file; ``tests/test_corpus.py``
replays every entry through the oracle battery on each test run. That
is the feedback loop the ROADMAP asked for — a fuzz finding becomes a
permanent regression test the moment it is committed.

An entry's ``status`` encodes the expected battery outcome:

* ``"expected"`` — the bug is still present; the battery must still
  produce the entry's signature (this is what the driver writes for a
  new finding). When the bug is later fixed the corpus test fails,
  prompting a flip to:
* ``"fixed"`` — the bug is gone; the battery must stay clean of the
  signature forever after. This is also what synthetic seed entries
  use on a clean tree: they pin down that a once-dangerous scenario
  shape stays green.

Determinism contract: entries carry no timestamps, are serialized with
sorted keys, and their filenames derive from the signature plus the
scenario content — so re-running ``repro fuzz`` with the same seed
produces byte-identical corpus files (an acceptance criterion of the
fuzz subsystem).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..spec import ScenarioSpec
from ..store.fsio import FileIO
from ..store.keys import canonical_json
from .oracles import run_battery

CORPUS_VERSION = 1


def _slug(text: str, limit: int = 40) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")
    return slug[:limit] or "finding"


@dataclass
class CorpusEntry:
    """One minimized finding, ready to be replayed as a regression."""

    signature: str
    oracle: str
    kind: str
    component: str
    message: str
    scenario: Dict[str, Any]          # ScenarioSpec JSON
    status: str = "expected"          # "expected" | "fixed"
    origin: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in ("expected", "fixed"):
            raise ConfigurationError(
                f"corpus entry status must be 'expected' or 'fixed', "
                f"got {self.status!r}")

    @property
    def filename(self) -> str:
        """Deterministic, content-derived file name."""
        digest = hashlib.sha256(canonical_json(
            {"signature": self.signature,
             "scenario": self.scenario}).encode("utf-8")).hexdigest()[:8]
        return f"fuzz-{_slug(self.signature)}-{digest}.json"

    def spec(self) -> ScenarioSpec:
        return ScenarioSpec.from_json(self.scenario)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": CORPUS_VERSION,
            "signature": self.signature,
            "oracle": self.oracle,
            "kind": self.kind,
            "component": self.component,
            "message": self.message,
            "status": self.status,
            "origin": dict(self.origin),
            "scenario": self.scenario,
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "CorpusEntry":
        version = data.get("version")
        if version != CORPUS_VERSION:
            raise ConfigurationError(
                f"unsupported corpus entry version {version!r} "
                f"(this build reads version {CORPUS_VERSION})")
        for key in ("signature", "oracle", "kind", "component",
                    "scenario"):
            if key not in data:
                raise ConfigurationError(
                    f"corpus entry is missing {key!r}")
        return CorpusEntry(
            signature=data["signature"], oracle=data["oracle"],
            kind=data["kind"], component=data["component"],
            message=data.get("message", ""),
            scenario=data["scenario"],
            status=data.get("status", "expected"),
            origin=dict(data.get("origin", {})))


def write_entry(corpus_dir: str, entry: CorpusEntry) -> str:
    """Atomically persist one entry; returns its path.

    Byte-determinism matters here (same finding ⇒ same file content,
    bit for bit), so the serialization is pinned: sorted keys, indent
    1, one trailing newline.
    """
    path = os.path.join(corpus_dir, entry.filename)
    FileIO().write_atomic(path, json.dumps(entry.to_json(), indent=1,
                                           sort_keys=True) + "\n",
                          prefix=".fuzz-")
    return path


def load_entry(path: str) -> CorpusEntry:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read corpus entry "
                                 f"{path!r}: {exc}")
    return CorpusEntry.from_json(data)


def load_corpus(corpus_dir: Optional[str]
                ) -> List[Tuple[str, CorpusEntry]]:
    """Every ``(path, entry)`` in the directory, sorted by file name."""
    if not corpus_dir or not os.path.isdir(corpus_dir):
        return []
    entries = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json") or name.startswith("."):
            continue
        path = os.path.join(corpus_dir, name)
        entries.append((path, load_entry(path)))
    return entries


def known_signatures(corpus_dir: Optional[str]) -> set:
    """Signatures already represented in the corpus (any status)."""
    return {entry.signature for _, entry in load_corpus(corpus_dir)}


def check_entry(entry: CorpusEntry,
                max_events: Optional[int] = None) -> Tuple[bool, str]:
    """Replay one entry; the regression-test semantics in one place.

    Returns ``(ok, message)``: an ``"expected"`` entry passes while its
    signature still reproduces, a ``"fixed"`` entry passes while it
    does not.
    """
    determinism = entry.signature.startswith("determinism:")
    result = run_battery(entry.spec(), max_events=max_events,
                         determinism=determinism)
    present = entry.signature in result.signatures
    if entry.status == "expected":
        if present:
            return True, f"{entry.signature} still reproduces"
        return False, (
            f"{entry.signature} no longer reproduces — if the bug was "
            f"fixed, flip this entry's status to \"fixed\"")
    if present:
        return False, (
            f"{entry.signature} reproduces again (regression of a "
            f"fixed bug)")
    return True, f"{entry.signature} stays fixed"
