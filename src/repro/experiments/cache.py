"""Content-addressed on-disk cache for sweep cell results.

A sweep cell is fully determined by its :class:`ScenarioConfig` (which
carries the seed), its optional batch parameters, and the simulation code
itself — the substrate is deterministic by construction (see
:mod:`repro.des.rng`).  Caching therefore keys each cell on a SHA-256
digest of (config fields, batch params, code version): re-running a figure
after editing only its axis recomputes just the new cells, and re-running
an unchanged figure recomputes nothing.

The code version is a digest over every ``repro`` source file, so any
edit to the simulator, protocols, or metrics invalidates the whole cache
— stale results can never leak into a regenerated figure.  Entries are
pickles, written atomically; a corrupt or unreadable entry is treated as
a miss and discarded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Tuple, Union

from .config import ScenarioConfig
from .scenario import ScenarioResult

#: Bump to invalidate every existing cache entry (entry format changes).
#: 2: ScenarioConfig grew clock_drift_ppm_std + faults (FaultPlan), and
#: ScenarioResult grew the faults report.
CACHE_FORMAT = 2

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_code_version_memo: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file (memoized per process).

    Any change to the package — kernel, channel, MAC, metrics — yields a
    new version string and therefore a cold cache.
    """
    global _code_version_memo
    if _code_version_memo is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_memo = digest.hexdigest()[:16]
    return _code_version_memo


def cell_key(
    config: ScenarioConfig,
    batch: Optional[Tuple[int, float]] = None,
    version: Optional[str] = None,
) -> str:
    """Stable content hash for one sweep cell.

    The key covers every config field (sorted by name, so field order is
    irrelevant), the batch parameters, the cache format, and the code
    version.  Two processes on the same checkout always derive the same
    key for the same cell.
    """
    parts = [f"format={CACHE_FORMAT}", f"code={version or code_version()}"]
    for field in sorted(dataclasses.fields(config), key=lambda f: f.name):
        parts.append(f"{field.name}={getattr(config, field.name)!r}")
    if batch is not None:
        n_packets, max_time_s = batch
        parts.append(f"batch=({int(n_packets)},{float(max_time_s)!r})")
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Filesystem-backed pickle store addressed by :func:`cell_key`.

    Entries live two levels deep (``root/ab/<key>.pkl``) to keep
    directories small for large sweeps.  Writes are atomic
    (tempfile + rename) so a crashed or parallel writer can never leave a
    half-written entry that a later reader trusts.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[ScenarioResult]:
        """Return the cached result for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Corrupt / stale entry: drop it and treat as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return result if isinstance(result, ScenarioResult) else None

    def put(self, key: str, result: ScenarioResult) -> None:
        """Store ``result`` under ``key`` (atomic, last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))


def resolve_cache(
    cache: Union[None, bool, str, Path, ResultCache]
) -> Optional[ResultCache]:
    """Normalize a user-facing ``cache=`` argument.

    ``None``/``False`` disable caching, ``True`` uses the default
    location (honouring ``$REPRO_CACHE_DIR``), a path opens a cache
    there, and a :class:`ResultCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    return cache
