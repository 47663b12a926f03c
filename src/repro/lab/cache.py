"""Content-addressed on-disk result store.

Layout (see docs/lab.md)::

    <root>/
      <fp[:2]>/<fp>.json     one envelope per fingerprint

where ``fp`` is the 64-hex-digit SHA-256 from
:meth:`repro.lab.RunSpec.fingerprint`.  The two-character shard keeps
directories small on big sweeps.  Each envelope records the
fingerprint, the spec that produced it (for humans; the *key* already
commits to it), and the serialized :class:`repro.RunResult`.

Writes are atomic (temp file + ``os.replace``), so a crashed or
parallel writer can never leave a torn entry; unreadable or
mismatched entries read as misses and are quietly removed.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.core.metrics import RunResult
from repro.lab.spec import RunSpec

_FP_LEN = 64


class ResultCache:
    """One cache directory, addressed purely by fingerprint."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def _path(self, fingerprint: str) -> Path:
        if len(fingerprint) != _FP_LEN:
            raise ValueError(f"bad fingerprint {fingerprint!r}")
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    # -- raw envelopes -------------------------------------------------

    def _read(self, fingerprint: str) -> Optional[dict]:
        path = self._path(fingerprint)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except OSError:
            return None
        except ValueError:        # torn/corrupt JSON: drop the entry
            self._evict(path)
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("fingerprint") != fingerprint):
            self._evict(path)
            return None
        return envelope

    def _write(self, fingerprint: str, envelope: dict) -> None:
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{fingerprint[:8]}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            self._evict(Path(tmp))
            raise

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- RunResult entries ---------------------------------------------

    def get(self, fingerprint: str) -> Optional[RunResult]:
        """The cached result, or ``None`` on any kind of miss."""
        envelope = self._read(fingerprint)
        if envelope is None:
            return None
        try:
            return RunResult.from_dict(envelope["result"])
        except (KeyError, TypeError, ValueError):
            self._evict(self._path(fingerprint))
            return None

    def put(self, fingerprint: str, result: RunResult,
            spec: Optional[RunSpec] = None,
            result_dict: Optional[dict] = None) -> None:
        """Store one run.  ``result_dict`` lets callers that already
        hold the serialized form (the lab's executor hands results
        back as dicts) skip a second ``to_dict`` pass."""
        self._write(fingerprint, {
            "fingerprint": fingerprint,
            "spec": spec.to_dict() if spec is not None else None,
            "result": (result_dict if result_dict is not None
                       else result.to_dict()),
        })

    # -- maintenance ---------------------------------------------------

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.root.glob("??/*.json")):
            self._evict(path)
            removed += 1
        return removed
