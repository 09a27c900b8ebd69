"""Deterministic per-component random number streams.

Every stochastic component of the simulation (topology placement, traffic
arrivals, MAC backoff, mobility, fault injection, ...) draws from its own
named stream derived from a single root seed.  Adding a new component or
reordering draws inside one component therefore never perturbs the others,
which keeps cross-protocol comparisons paired: S-FAMA and EW-MAC see the
same deployments and the same traffic arrival times for a given seed.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (``hash()`` is salted and unsuitable).
    """
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RandomStreams:
    """A registry of named, independently seeded NumPy generators.

    Example:
        >>> streams = RandomStreams(seed=7)
        >>> traffic = streams.get("traffic")
        >>> backoff = streams.get("mac.backoff")
        >>> traffic is streams.get("traffic")
        True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.seed, name))
            self._streams[name] = gen
        return gen
