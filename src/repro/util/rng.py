"""Deterministic random-number helpers.

The library never touches the global :mod:`random` state. Every stochastic
component takes either an explicit seed or an :class:`RngStream`. Two
helpers provide *stable hashing RNG*: a value drawn for a key (e.g. the
heterogeneity factor of message ``(i, j)`` on link ``(x, y)``) is a pure
function of ``(seed, key)``, so factors can be materialized lazily without
storing an ``e × links`` matrix and are identical no matter the order in
which they are first requested.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Iterable, List, Sequence, Tuple


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed deterministically from arbitrary hashable parts.

    Unlike ``hash()``, the result is stable across processes (no
    ``PYTHONHASHSEED`` dependence) because it goes through blake2b.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf8"))
        h.update(b"\x1f")
    return struct.unpack("<Q", h.digest())[0]


def stable_uniform(seed: int, key, lo: float, hi: float) -> float:
    """Deterministic uniform draw in ``[lo, hi]`` for ``(seed, key)``.

    The draw is independent of call order: it depends only on the seed and
    the key. Used for lazily materialized heterogeneity factors.
    """
    if hi < lo:
        raise ValueError(f"empty uniform range [{lo}, {hi}]")
    raw = stable_seed(seed, key)
    frac = raw / float(2**64 - 1)
    return lo + (hi - lo) * frac


class RngStream:
    """A named, forkable wrapper around :class:`random.Random`.

    ``fork(name)`` derives an independent child stream whose sequence
    depends only on the parent seed and the name — this keeps experiment
    cells reproducible even when the number of draws in sibling components
    changes.
    """

    def __init__(self, seed: int = 0, _label: str = "root"):
        self.seed = int(seed)
        self.label = _label
        self._rng = random.Random(self.seed)

    def fork(self, *name) -> "RngStream":
        """Derive an independent child stream identified by ``name``."""
        child_seed = stable_seed(self.seed, *name)
        return RngStream(child_seed, _label=f"{self.label}/{'/'.join(map(str, name))}")

    # -- thin delegation --------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def uniforms(self, lo: float, hi: float, k: int) -> List[float]:
        """``k`` successive :meth:`uniform` draws, bit for bit: each is
        ``lo + (hi - lo) * random()``, :func:`random.uniform`'s formula,
        without its two Python frames per draw."""
        rand = self._rng.random
        span = hi - lo
        return [lo + span * rand() for _ in range(k)]

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)

    def sample(self, seq: Sequence, k: int):
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStream(seed={self.seed}, label={self.label!r})"
