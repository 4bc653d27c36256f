"""Deterministic random-stream derivation.

Every stochastic routine in the package takes a master seed and derives its
generators through `substream`, keyed by a purpose tag plus structural indices
(island, level, replicate chunk, ...). Streams are counter-based (Philox), so
any stream can be reconstructed independently of every other: adding islands
or reordering chunks never perturbs unrelated draws, and results are
reproducible bit for bit from (seed, key).
"""

from __future__ import annotations

import numpy as np

# Purpose tags.  Distinct tags keep streams for different roles disjoint even
# when the structural indices collide.
SINGLE = 1
SYSTEM = 3
LEVELS = 4
LOOP_FREE = 5
EXCURSION = 6
TREE = 7
MEAN_FIELD = 8
EXPERIMENT = 9
INIT = 10


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator addressed by (seed, *key).

    Same inputs give the same stream forever; different keys give streams
    with no sequential relationship.
    """
    if not all(int(k) >= 0 for k in key):
        raise ValueError("stream key components must be nonnegative integers")
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def mix(seed: int, *key: int) -> int:
    """Derive a fresh master seed from (seed, key).

    For engines nested inside keyed contexts (an engine that itself fans out
    substreams gets a mixed seed so its internal keys cannot collide with the
    caller's).
    """
    if not all(int(k) >= 0 for k in key):
        raise ValueError("stream key components must be nonnegative integers")
    ss = np.random.SeedSequence((int(seed), 0xA5) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
