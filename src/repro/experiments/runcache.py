"""Content-addressed cache of completed scenario runs.

Every resolved :class:`~repro.experiments.scenario.Scenario` document has
a canonical form (:func:`canonical_spec`: shorthand expanded, defaults
filled in, the display ``name`` dropped) and therefore a stable
content address (:func:`spec_hash`: SHA-256 over version-salted canonical
JSON).  Two specs hash equal **iff** they describe the same simulation —
dict key order, ``ComponentSpec`` shorthand vs expanded form, and the
grid-point naming applied by :func:`~repro.experiments.sweep.sweep_points`
are all normalized away, while changing any resolved leaf (a seed, a
fault parameter, a data parameter, …) changes the hash.

:class:`RunCache` keys a directory of completed run summaries by that
hash: re-launching a sweep against the same cache directory skips every
grid point whose result is already known, and
:class:`~repro.experiments.sweep.SweepRunner` records the reuse as
``cache_hit: true`` on the emitted JSONL row.  Only *successful* rows are
cached — error rows always re-execute.  Entries are version-salted with
:data:`CACHE_VERSION`, so bumping it (when row semantics change) simply
orphans old entries instead of serving stale shapes.

All cache writes go through :func:`atomic_write_json` (temp file +
``os.replace`` in the target directory), so a sweep killed mid-write can
never leave a torn cache entry behind.  The appended JSONL stream — the
sweep's only checkpoint — *can* end in a torn line; :func:`read_jsonl_rows`
is the one reader that skips it, shared by sweep resume and the report
loader.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "CACHE_VERSION",
    "RunCache",
    "atomic_write_json",
    "canonical_spec",
    "read_jsonl_rows",
    "spec_hash",
]

#: Salt mixed into every :func:`spec_hash`.  Bump when the meaning of a
#: cached row changes (summary semantics, seed discipline, …): old cache
#: entries then simply never hit again.
CACHE_VERSION = "sweep-cache-v6"

#: Row keys that describe a point's position in one particular grid, not
#: the simulation itself; they are stripped before caching and rebuilt
#: from the hitting grid point.
_PER_GRID_KEYS = ("index", "scenario", "overrides", "attempts", "cache_hit")


def atomic_write_json(path: Path, document: Mapping[str, Any], indent: int = 2) -> Path:
    """Write ``document`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=indent)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def read_jsonl_rows(path: str | Path) -> List[Dict[str, Any]]:
    """Parse a JSONL file into its object rows, skipping undecodable lines.

    A sweep killed mid-write (SIGKILL between ``write`` and ``flush``)
    can leave a torn final line; tolerating it is what makes the stream
    safely resumable — and reportable while half-finished.
    """
    rows: List[Dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def canonical_spec(spec: Any) -> Dict[str, Any]:
    """The canonical resolved document of a scenario spec.

    Accepts a :class:`~repro.experiments.scenario.Scenario` or any mapping
    it can be built from (shorthand component names, missing sections).
    Resolution through the Scenario constructor expands every shorthand
    and fills every default, so equivalent specs canonicalize identically.
    The display ``name`` is dropped: it labels a run (``grid#3``) but does
    not change what is simulated.
    """
    from .scenario import Scenario  # local import: scenario imports stay acyclic

    scenario = spec if isinstance(spec, Scenario) else Scenario.from_dict(spec)
    document = scenario.to_dict()
    document.pop("name", None)
    return document


def spec_hash(spec: Any) -> str:
    """The content address of a resolved scenario spec (SHA-256 hex).

    Invariants (enforced by ``tests/experiments/test_runcache.py``):

    * independent of dict key order and of shorthand vs expanded
      ``ComponentSpec`` forms (both canonicalize identically);
    * independent of the scenario ``name``;
    * changes whenever any resolved leaf changes — including ``faults``;
    * salted with :data:`CACHE_VERSION`.
    """
    payload = json.dumps(
        {"version": CACHE_VERSION, "spec": canonical_spec(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class RunCache:
    """A directory of completed run rows keyed by :func:`spec_hash`.

    Layout: ``root/<hash[:2]>/<hash>.json`` (two-level fan-out keeps
    directories small on thousand-point grids).  Each entry stores the
    grid-independent part of one successful JSONL row plus the hash and
    cache version it was written under; :meth:`get` re-validates both, so
    a corrupted or version-skewed entry reads as a miss, never as a wrong
    result.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, hash_: str) -> Path:
        """Where the entry for ``hash_`` lives (whether or not it exists)."""
        return self.root / hash_[:2] / f"{hash_}.json"

    def get(self, hash_: str) -> Optional[Dict[str, Any]]:
        """The cached grid-independent row for ``hash_``, or ``None``."""
        path = self.path_for(hash_)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("cache_version") != CACHE_VERSION:
            return None
        if entry.get("spec_hash") != hash_:
            return None
        row = entry.get("row")
        if not isinstance(row, dict) or "summary" not in row:
            return None
        return dict(row)

    def put(self, hash_: str, row: Mapping[str, Any]) -> Path:
        """Cache one successful sweep row under ``hash_`` (atomic write).

        Error rows are rejected: a failure must re-execute on the next
        launch, never be replayed from cache.
        """
        if "summary" not in row or "error" in row:
            raise ValueError("only successful rows (with a 'summary') are cacheable")
        payload = {k: v for k, v in row.items() if k not in _PER_GRID_KEYS}
        return atomic_write_json(
            self.path_for(hash_),
            {"cache_version": CACHE_VERSION, "spec_hash": hash_, "row": payload},
        )

    def __contains__(self, hash_: str) -> bool:
        return self.get(hash_) is not None

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
