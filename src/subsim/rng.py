"""Seed derivation utilities.

Every sampling site (level-0 draws, each level's Markov chains, each scenario
step) gets its own counter-based stream derived from one master seed, so
results do not depend on execution order and independent pieces can run
together.  The chains of one level share that level's stream: each draws its
rows of one block, so they advance together.  Independent problems keep their
own streams when the engine runs them in lockstep groups (a group of scenario
steps, or the repetitions of a study), so a problem's result does not depend
on which others share its group.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence]


def derive(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize an integer master seed (or an existing sequence) to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"master seed must be non-negative, got {seed}")
    return np.random.SeedSequence(seed)


def child(root: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Keyed sub-stream of `root`.

    Stateless: the same (root, key) pair always yields the same stream, no
    matter how many other children were derived before it.
    """
    base = root.spawn_key + tuple(int(k) for k in key)
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=base)


def generator(seq: np.random.SeedSequence) -> np.random.Generator:
    """Philox generator on the given stream (counter-based, jump-free)."""
    return np.random.Generator(np.random.Philox(seq))
