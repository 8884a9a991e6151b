"""Reference streams for the stream tests.

A stream is defined as a NumPy `SeedSequence` keyed child driving Philox.
`subsim.rng` never builds either: it mixes the key into the parent's pool
and resets one Philox to the result.  These two functions are that
definition, which the tests compare the package's pools and draws against.
"""

import numpy as np

from subsim import rng as _rng


def child(root: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Keyed sub-stream of `root`.

    Stateless: the same (root, key) pair always yields the same stream, no
    matter how many other children were derived before it.  Keys follow the
    package's rule: non-negative integers, not floats.
    """
    base = root.spawn_key + tuple(_rng._check_key(k) for k in key)
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=base)


def generator(seq: np.random.SeedSequence) -> np.random.Generator:
    """Philox generator on the given stream (counter-based, jump-free)."""
    return np.random.Generator(np.random.Philox(seq))
