"""On-disk memoization of experiment cells and served schedules.

Figures 3/5 (and 4/6) re-aggregate the *same* runs by different axes, and
re-running benches shouldn't redo minutes of scheduling. Results are
small JSON objects keyed by :meth:`repro.experiments.config.Cell.key` or
a service request's idempotency key.

Layout: ``ResultCache(directory)`` keeps one file per entry,
``<sha256 of the key>.json`` holding ``{"version", "key", "value"}``. A
put writes a temp file in the directory and ``os.replace``-s it over
the entry's file, so processes sharing a directory never drop each
other's entries and a reader never sees half a file. Every writer of a
key writes the same result (stamps differ only in ``engine_mode`` and
cells only in ``runtime_s``, neither of which decides staleness), so
the conflict policy is simply that the last replace wins. The default
directory is ``$REPRO_CACHE_DIR/results`` (``.repro_cache/results``).

The cache is versioned: changing the library's algorithmic behavior
should bump ``CACHE_VERSION`` so stale numbers are never mixed in.
Entry files are untrusted input, and :meth:`ResultCache.get` is their
only judge. A file that is missing, unreadable, not a JSON object,
from another ``CACHE_VERSION`` or for another key is a miss, never an
error. A value whose provenance stamp contradicts the request, or that
the reader's check refuses, is stale: recomputed, never served.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
from typing import Callable, Dict, Optional, Set

from repro.obs import counters as _obs
from repro.util.checked import loads

CACHE_VERSION = 3

#: an entry file's name: the key's SHA-256 in hex
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")

#: reserved key carrying an entry's provenance stamp. Result
#: deserializers must ignore ``__``-prefixed keys.
PROVENANCE_KEY = "__prov__"


def provenance_stamp(request_key: str) -> dict:
    """The ``{repro_version, engine_mode, request_key}`` stamp recorded
    with every cached artifact (the huldra-style provenance record)."""
    from repro import __version__
    from repro.util.intervals import hotpath_mode

    return {
        "repro_version": __version__,
        "engine_mode": hotpath_mode(),
        "request_key": request_key,
    }


def stamp_provenance(value: dict, request_key: str) -> dict:
    """Copy of ``value`` carrying a fresh provenance stamp."""
    out = dict(value)
    out[PROVENANCE_KEY] = provenance_stamp(request_key)
    return out


def _stamp_fits(value: dict, request_key: str) -> bool:
    """Whether a stored value's provenance stamp, if it has one, was
    written by this library version for ``request_key`` (a key-grammar
    bug writes another)."""
    from repro import __version__

    prov = value.get(PROVENANCE_KEY)
    return prov is None or (isinstance(prov, dict)
                            and prov.get("repro_version") == __version__
                            and prov.get("request_key") == request_key)


class ResultCache:
    """A dict-like JSON cache: one atomic file per entry in ``path``."""

    def __init__(self, path: Optional[str] = None):
        if path is None:
            root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
            path = os.path.join(root, "results")
        self.path = path
        # entries this handle has read or written; misses are never
        # remembered, so an entry another process writes later is found
        self._entries: Dict[str, dict] = {}
        # keys whose last write failed: kept in memory, retried on the
        # next put
        self._unwritten: Set[str] = set()
        self._warned = False
        #: file entries this handle's gets refused as stale
        self.stale = 0

    def _file(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.path, digest + ".json")

    def get(self, key: str,
            check: Optional[Callable[[dict], bool]] = None) -> Optional[dict]:
        """The value stored under ``key``, or None.

        A value in memory was written or vetted by this handle and is
        served as it is. A value read from its file is judged once, here.
        It is stale when its provenance stamp is not an object or names
        another library version or request key, or when ``check``
        refuses it. An unstamped value predates stamps and is served.
        ``engine_mode`` is no criterion: schedules are byte-identical
        across modes by contract. A stale value is neither served nor
        kept, so a current entry another handle writes later is found.
        Each call counts one of ``cache.hits``, ``cache.misses`` and
        ``cache.stale``; ``self.stale`` counts this handle's refusals.
        """
        value = self._entries.get(key)
        if value is None:
            value = self._read(key)
            if value is None:
                if _obs.ACTIVE:
                    _obs.inc("cache.misses")
                return None
            if not _stamp_fits(value, key) or (check is not None
                                               and not check(value)):
                self.stale += 1
                if _obs.ACTIVE:
                    _obs.inc("cache.stale")
                return None
            self._entries[key] = value
        if _obs.ACTIVE:
            _obs.inc("cache.hits")
        return value

    def _read(self, key: str) -> Optional[dict]:
        try:
            with open(self._file(key), "rb") as fh:
                blob = loads(fh.read(), ValueError, "cache entry")
        except (OSError, ValueError):
            return None
        if (
            not isinstance(blob, dict)
            or blob.get("version") != CACHE_VERSION
            or blob.get("key") != key
        ):
            return None
        value = blob.get("value")
        return value if isinstance(value, dict) else None

    def put(self, key: str, value: dict) -> None:
        """Store ``value`` in memory and write its file, retrying any
        earlier write that failed."""
        self._entries[key] = value
        self._unwritten.add(key)
        for pending in list(self._unwritten):
            if self._write(pending):
                self._unwritten.discard(pending)

    def _write(self, key: str) -> bool:
        blob = {"version": CACHE_VERSION, "key": key, "value": self._entries[key]}
        try:
            os.makedirs(self.path, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        except OSError as exc:
            self._warn_once(exc)
            return False
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(blob, fh)
            os.replace(tmp, self._file(key))
        except OSError as exc:
            self._warn_once(exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def _warn_once(self, exc: OSError) -> None:
        """A persistently failing write must not be silent: results stay
        in memory and every put retries, but the operator should know
        persistence is off. One warning per cache instance."""
        if not self._warned:
            self._warned = True
            sys.stderr.write(
                f"repro: result-cache write to {self.path!r} failed "
                f"({exc}); results kept in memory, will retry on the "
                f"next put\n"
            )

    def __len__(self) -> int:
        """Entry files in the directory plus entries not yet written."""
        try:
            names = {n for n in os.listdir(self.path) if _ENTRY_NAME.fullmatch(n)}
        except OSError:
            names = set()
        names.update(os.path.basename(self._file(k)) for k in self._unwritten)
        return len(names)


#: process-wide default cache instance
_default_cache: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    global _default_cache
    if _default_cache is None:
        _default_cache = ResultCache()
    return _default_cache
