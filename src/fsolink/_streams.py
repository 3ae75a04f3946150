"""Named random substreams derived from a single scenario seed.

Every stochastic consumer draws from its own labelled stream so adding a new
consumer never perturbs the draws of existing ones.  Streams are derived from
the scenario seed plus a label via SHA-256, which is stable across platforms
and Python versions (unlike ``hash()``).
"""

import hashlib

import numpy as np

from .errors import _num

__all__ = ["substream", "stream_words"]


def stream_words(*labels) -> tuple[int, ...]:
    """Map labels (strings or ints) to four stable 32-bit words."""
    h = hashlib.sha256()
    for label in labels:
        h.update(repr(label).encode("utf-8"))
        h.update(b"\x1f")
    digest = h.digest()
    return tuple(int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4))


def substream(seed: int, *labels) -> np.random.Generator:
    """Return a Generator for the (seed, labels) stream.

    The same (seed, labels) pair always yields an identical stream; distinct
    labels yield statistically independent streams.  The seed is a
    non-negative integer; every seeded call of the library checks it here.
    """
    words = stream_words(*labels)
    ss = np.random.SeedSequence(entropy=_num(seed, "seed", lo=0, integer=True), spawn_key=words)
    return np.random.Generator(np.random.Philox(ss))
