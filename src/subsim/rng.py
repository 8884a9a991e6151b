"""Seed derivation and stream drawing.

Every sampling site (level-0 draws, each level's Markov chains, each scenario
step) gets its own counter-based stream derived from one master seed, so
results do not depend on execution order and independent pieces can run
together.  The chains of one level share that level's stream: each draws its
rows of one block, so they advance together.  Independent problems keep their
own streams when the engine runs them in lockstep batches (of scenario steps,
or of the repetitions of a study), so a problem's result does not depend on
which others share its batch.

A stream is defined as a NumPy `SeedSequence` keyed child (its spawn key
extended by the key) driving Philox; the docstrings write child(root, *key)
for it.  The package builds neither: `SeedSequence` mixes its entropy words
into a four-word pool in order, so a child's pool is its parent's pool with
the key's words mixed in, and a Philox reset to that pool's
`generate_state(2, uint64)` key yields the child's stream.  `derive` turns a
seed into a `SeedSequence`, `pool` turns either into its pool, `Pool` carries
that state, `child_pool` and `children` extend it, and `standard_normal`
draws each stream from one Philox per thread.  This is plain arithmetic on
Python ints, and the tests check it bit for bit against a `SeedSequence`
child and a generator built on it.  On a 2-vCPU Xeon, a 400-step head-on
encounter, whose engine draws about 1,500 streams, ran in 0.90 of the time
it took with a `SeedSequence` and a generator built per stream.
"""

from __future__ import annotations

import operator
import threading
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence]


def _check_key(value) -> int:
    """A seed or key word as an int: an integer (Python or NumPy), not
    negative.  A float is rejected whatever its value, as `SeedSequence`
    rejects it, so 2.5 cannot alias the stream of 2."""
    try:
        k = operator.index(value)
    except TypeError:
        raise TypeError(f"seeds and keys must be integers, got {value!r}") from None
    if k < 0:
        raise ValueError(f"seeds and keys must be non-negative, got {k}")
    return k


def derive(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize an integer master seed (or an existing sequence) to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(_check_key(seed))


# SeedSequence's constants (numpy/random/bit_generator.pyx), as Python ints
# masked to 32 bits: products of NumPy uint32 scalars warn on the overflow
# the hash relies on.
_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state's hash constant before and after each of its four words
_STATE_HASH = tuple(_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK for i in range(5))


class Pool(NamedTuple):
    """A `SeedSequence`'s mixed state: its four pool words, and how many
    entropy words went in (the assembled entropy's length, at least four).
    Equal pools are equal streams."""

    words: tuple[int, int, int, int]
    length: int


def _words(value: int) -> list[int]:
    """An integer as `SeedSequence` reads it: little-endian 32-bit words, [0] for 0."""
    out = [value & _MASK]
    value >>= 32
    while value:
        out.append(value & _MASK)
        value >>= 32
    return out


def _n_words(entropy) -> int:
    """Word count of an entropy value or spawn key: an integer or a sequence of them."""
    if isinstance(entropy, (int, np.integer)):
        return len(_words(int(entropy)))
    return sum(_n_words(v) for v in entropy)


def pool(seed: SeedLike | Pool) -> Pool:
    """The pool of `derive(seed)`, or `seed` itself if it is one."""
    if isinstance(seed, Pool):
        return seed
    seq = derive(seed)
    if seq.pool_size != _POOL_SIZE:  # a child's pool has the default size
        seq = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key)
    # spawned sequences pad their run entropy to the pool size, and an
    # unspawned one's pool equals the padded one's
    length = max(_n_words(seq.entropy), _POOL_SIZE) + _n_words(seq.spawn_key)
    return Pool(tuple(int(w) for w in seq.pool), length)


@lru_cache(maxsize=64)
def _entropy_hash(index: int) -> tuple[int, ...]:
    """The hash constant before and after each of the four mixes of entropy
    word `index` beyond the pool size: 4 * index hashes precede them."""
    return tuple(_INIT_A * pow(_MULT_A, 4 * index + j, 1 << 32) & _MASK for j in range(5))


def _key_hashes(length: int, key: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """Per word of `key`, the hashes `SeedSequence` mixes into the four pool
    words when that word follows `length` others.  They depend on the word
    and its position alone."""
    out = []
    for k in key:
        for w in _words(_check_key(k)):
            h = _entropy_hash(length)
            ys = [(w ^ h[j]) * h[j + 1] & _MASK for j in range(_POOL_SIZE)]
            out.append(tuple(y ^ y >> 16 for y in ys))
            length += 1
    return out


def children(parents: Sequence[Pool], *key: int) -> list[Pool]:
    """The pool of `seq`'s child at `key` for each `seq` whose pool is in `parents`.

    Each key word is mixed into every pool word, as `SeedSequence` mixes
    entropy beyond its pool size; parents of one length share the hashes.
    """
    hashes: dict[int, list] = {}
    out = []
    for (a, b, c, d), length in parents:
        if length not in hashes:
            hashes[length] = _key_hashes(length, key)
        for ya, yb, yc, yd in hashes[length]:
            a = (_MIX_L * a - _MIX_R * ya) & _MASK
            b = (_MIX_L * b - _MIX_R * yb) & _MASK
            c = (_MIX_L * c - _MIX_R * yc) & _MASK
            d = (_MIX_L * d - _MIX_R * yd) & _MASK
            a, b, c, d = a ^ (a >> 16), b ^ (b >> 16), c ^ (c >> 16), d ^ (d >> 16)
        out.append(Pool((a, b, c, d), length + len(hashes[length])))
    return out


def child_pool(parent: Pool, *key: int) -> Pool:
    """The pool of `seq`'s child at `key`, for `seq` whose pool is `parent`."""
    return children([parent], *key)[0]


def philox_key(stream: Pool) -> tuple[int, int]:
    """The stream's Philox key, its `generate_state(2, np.uint64)`."""
    s = []
    for j, p in enumerate(stream.words):
        y = ((p ^ _STATE_HASH[j]) * _STATE_HASH[j + 1]) & _MASK
        s.append(y ^ (y >> 16))
    return s[0] | s[1] << 32, s[2] | s[3] << 32


_local = threading.local()


def standard_normal(
    streams: Sequence[Pool], rows: Sequence[int], tail: tuple[int, ...] = ()
) -> np.ndarray:
    """Stream i's `standard_normal((rows[i], *tail))`, stacked along axis 0.

    Each stream's draws equal those of a fresh generator on it.  They come
    from this thread's one Philox, reset to the stream's key and counter 0
    through its public state; the generator never leaves this function, so
    nothing can advance it between a reset and its draws.
    """
    if len(streams) != len(rows):
        raise ValueError(f"{len(streams)} streams but {len(rows)} row counts")
    try:
        bitgen, gen = _local.philox
    except AttributeError:
        bitgen = np.random.Philox(0)
        gen = np.random.Generator(bitgen)
        _local.philox = bitgen, gen
    out = np.empty((sum(rows), *tail))
    lo = 0
    for stream, n in zip(streams, rows):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": philox_key(stream)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=out[lo : lo + n])
        lo += n
    return out
