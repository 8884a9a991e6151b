"""Stream derivation tests: pools and Philox keys against NumPy's SeedSequence,
and the one-Philox draws against fresh generators."""

import random
import sys
import threading

import numpy as np
import pytest

from streams import child, generator
from subsim import rng as _rng


def _numpy_key(seq: np.random.SeedSequence) -> list[int]:
    return seq.generate_state(2, np.uint64).tolist()


def _random_cases(n: int, seed: int):
    """(entropy, spawn key, level key) triples over the shapes NumPy treats
    differently: entropy of zero, one word and 64-200 bits; spawn keys 0-3
    deep with multi-word entries; level keys up to 2^40."""
    r = random.Random(seed)
    cases = []
    for i in range(n):
        entropy = (0, r.randrange(1, 1 << 16), r.getrandbits(r.randint(64, 200)))[i % 3]
        depth = r.randint(0, 3)
        spawn = tuple(r.choice((r.randrange(8), r.randrange(1 << 32, 1 << 72))) for _ in range(depth))
        level = r.choice((r.randrange(8), r.randrange(1 << 40)))
        cases.append((entropy, spawn, level))
    return cases


class TestPools:
    def test_pool_of_a_sequence_is_its_pool(self):
        for entropy, spawn, _ in _random_cases(60, 1):
            seq = np.random.SeedSequence(entropy, spawn_key=spawn)
            assert _rng.pool(seq)[0, :4].tolist() == seq.pool.tolist()

    def test_child_keys_equal_numpy(self):
        cases = _random_cases(600, 2)
        for entropy, spawn, level in cases:
            want = np.random.SeedSequence(entropy, spawn_key=spawn + (level,))
            parent = _rng.pool(np.random.SeedSequence(entropy, spawn_key=spawn))
            got = _rng.children(parent, level)
            assert got[0, :4].tolist() == want.pool.tolist()
            assert _rng.philox_keys(got).tolist() == [_numpy_key(want)]
            # the spawn key mixed in word by word from the unspawned root
            assert np.array_equal(_rng.children(_rng.pool(entropy), *spawn, level), got)

    @pytest.mark.parametrize("level", [0, 3, 1 << 33])
    def test_bulk_children_equal_numpy(self, level):
        cases = _random_cases(200, 3)
        parents = _rng.pools([np.random.SeedSequence(e, spawn_key=s) for e, s, _ in cases])
        got = _rng.philox_keys(_rng.children(parents, level)).tolist()
        assert got == [_numpy_key(np.random.SeedSequence(e, spawn_key=s + (level,))) for e, s, _ in cases]

    def test_pool_of_an_integer_and_of_its_sequence_agree(self):
        one = _rng.pool(901)
        rows = _rng.pools([901, _rng.derive(901), one])
        assert rows.shape == (3, 5) and (rows == one).all()
        assert _rng.pool(one) is one and _rng.pools(rows) is rows
        with pytest.raises(ValueError, match="a seed is one stream, got the pools of 3"):
            _rng.pool(rows)

    def test_sequence_entropy_and_other_pool_sizes(self):
        for seq in (
            np.random.SeedSequence([1 << 40, 7, 0]),
            np.random.SeedSequence(5, pool_size=8),
            np.random.SeedSequence(5, spawn_key=(2,), pool_size=8),
        ):
            got = _rng.children(_rng.pool(seq), 4, 1)
            assert _rng.philox_keys(got).tolist() == [_numpy_key(child(seq, 4, 1))]

    def test_numpy_integer_keys(self):
        root = _rng.pool(3)
        assert np.array_equal(
            _rng.children(root, np.int64(5), np.uint32(1), np.array(2)), _rng.children(root, 5, 1, 2)
        )


class TestArrayDerivation:
    """`children` derives a whole array of streams at once; each row equals
    its own `child`, and its own children too, which checks the lengths."""

    @staticmethod
    def _assert_rows_are(got, seqs, *key):
        want = [child(seq, *key) for seq in seqs]
        assert got.shape == (len(want), 5)
        assert got[:, :4].tolist() == [seq.pool.tolist() for seq in want]
        assert _rng.philox_keys(got).tolist() == [_numpy_key(seq) for seq in want]
        grandchildren = _rng.philox_keys(_rng.children(got, 7)).tolist()
        assert grandchildren == [_numpy_key(child(seq, 7)) for seq in want]

    @pytest.mark.parametrize("n", [0, 1, 400])
    def test_parents_of_mixed_lengths(self, n):
        seqs = [np.random.SeedSequence(e, spawn_key=s) for e, s, _ in _random_cases(n, 4)]
        parents = _rng.pools(seqs)
        if n > 1:
            assert len(set(parents[:, 4].tolist())) > 3
        self._assert_rows_are(_rng.children(parents, 2, 1 << 40), seqs, 2, 1 << 40)

    def test_pools_longer_than_64_words(self):
        # the hash tables start at 64 positions and grow for longer pools
        seqs = [np.random.SeedSequence(3, spawn_key=tuple(range(70))), _rng.derive(4)]
        self._assert_rows_are(_rng.children(_rng.pools(seqs), 9), seqs, 9)

    def test_keys_beyond_64_bits(self):
        seqs = [_rng.derive(s) for s in (1, 1 << 100)]
        key = (1 << 70) + 5
        self._assert_rows_are(_rng.children(_rng.pools(seqs), key), seqs, key)

    def test_per_row_keys_against_one_parent(self):
        # the step roots child(root, k) of an encounter, and keys of one and
        # two words side by side
        root = _rng.derive(901)
        ks = np.array([*range(1, 401), 1 << 32, (1 << 40) + 3, 0])
        got = _rng.children(_rng.pool(root), ks)
        assert _rng.philox_keys(got).tolist() == [_numpy_key(child(root, k)) for k in ks.tolist()]
        self._assert_rows_are(_rng.children(got, 2), [child(root, k) for k in ks.tolist()], 2)

    def test_per_row_keys_one_per_parent(self):
        # a study's streams child(root, method, budget, rep), and per-row
        # keys of parents of mixed lengths
        root = _rng.derive(11)
        budget, rep = np.divmod(np.arange(12, dtype=np.uint32), 4)
        got = _rng.children(_rng.pool(root), 1, budget, rep)
        assert _rng.philox_keys(got).tolist() == [
            _numpy_key(child(root, 1, b, r)) for b, r in zip(budget.tolist(), rep.tolist())
        ]
        seqs = [np.random.SeedSequence(e, spawn_key=s) for e, s, _ in _random_cases(30, 5)]
        ks = np.array([level for _, _, level in _random_cases(30, 5)])
        want = [child(seq, k, 3) for seq, k in zip(seqs, ks.tolist())]
        got = _rng.philox_keys(_rng.children(_rng.pools(seqs), ks, 3)).tolist()
        assert got == [_numpy_key(seq) for seq in want]

    def test_per_row_keys_must_match_the_parents(self):
        parents = _rng.pools([1, 2, 3])
        with pytest.raises(ValueError, match="2 per-row keys for 3 streams"):
            _rng.children(parents, np.arange(2))
        with pytest.raises(ValueError, match="per-row keys for 4 streams"):
            _rng.children(_rng.pool(1), np.arange(4), np.arange(3))
        with pytest.raises(ValueError, match="one-dimensional"):
            _rng.children(parents, np.zeros((3, 1), np.int64))


class TestDraws:
    def test_draws_equal_fresh_generators(self):
        root = _rng.derive(901)
        keys = [(k, 1, level) for k in (1, 64, 400) for level in range(3)]
        streams = _rng.children(_rng.pool(root), *np.array(keys).T)
        got = _rng.standard_normal(streams, [10] * len(keys), (10, 6))
        want = np.concatenate(
            [generator(child(root, *key)).standard_normal((10, 10, 6)) for key in keys]
        )
        assert np.array_equal(got, want)

    def test_interleaved_streams_start_afresh(self):
        root = _rng.derive(17)
        a, b = _rng.children(_rng.pool(root), 0), _rng.children(_rng.pool(root), 1)
        ref_a = generator(child(root, 0)).standard_normal(40)
        ref_b = generator(child(root, 1)).standard_normal(40)
        first = _rng.standard_normal(np.concatenate([a, b, a]), [3, 5, 2], (4,))
        between = generator(root).standard_normal(7)  # another generator in between
        again = _rng.standard_normal(np.concatenate([b, a]), [1, 1], (4,))
        assert np.array_equal(first[:3].ravel(), ref_a[:12])
        assert np.array_equal(first[3:8].ravel(), ref_b[:20])
        assert np.array_equal(first[8:].ravel(), ref_a[:8])
        assert np.array_equal(again.ravel(), np.concatenate([ref_b[:4], ref_a[:4]]))
        assert np.array_equal(between, generator(root).standard_normal(7))

    def test_varied_rows_and_no_tail(self):
        root = _rng.derive(5)
        streams = _rng.children(_rng.pool(root), np.arange(4))
        rows = [1, 7, 2, 30]
        got = _rng.standard_normal(streams, rows)
        want = np.concatenate(
            [generator(child(root, k)).standard_normal(n) for k, n in enumerate(rows)]
        )
        assert np.array_equal(got, want)

    def test_row_counts_must_match_streams(self):
        with pytest.raises(ValueError, match="2 streams but 1 row counts"):
            _rng.standard_normal(_rng.pools([1, 2]), [3])

    def test_threads_drawing_at_once_get_the_sequential_result(self):
        # each thread resets its own Philox; a shared one would interleave
        # resets and draws across threads under the short switch interval
        parents = _rng.pools(range(2))
        jobs = [_rng.children(parents, level) for level in range(200)]
        want = [_rng.standard_normal(streams, [5, 5], (6,)) for streams in jobs]
        n_threads = 4  # more than the CI machines' cores
        barrier = threading.Barrier(n_threads)
        got: list = [None] * n_threads

        def run(t):
            barrier.wait()
            got[t] = [_rng.standard_normal(s, [5, 5], (6,)) for s in jobs[t::n_threads]]

        threads = [threading.Thread(target=run, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for t in range(n_threads):
            assert len(got[t]) == len(want[t::n_threads])
            assert all(np.array_equal(g, w) for g, w in zip(got[t], want[t::n_threads]))


class TestKeyRule:
    @pytest.mark.parametrize("bad", [-1, -(1 << 40)])
    def test_negative_key_raises_as_numpy_does(self, bad):
        with pytest.raises(ValueError):
            np.random.SeedSequence(1, spawn_key=(bad,))
        root = _rng.derive(1)
        with pytest.raises(ValueError, match="non-negative"):
            child(root, bad)
        with pytest.raises(ValueError, match="non-negative"):
            _rng.children(_rng.pool(root), 0, bad)
        with pytest.raises(ValueError, match="non-negative"):
            _rng.children(_rng.pool(root), np.array([0, bad]))
        with pytest.raises(ValueError, match="non-negative"):
            _rng.derive(bad)

    @pytest.mark.parametrize("bad", [3.7, 2.5, 2.0, "2", np.float64(2.0)])
    def test_non_integral_seed_or_key_raises(self, bad):
        # int() once truncated these, so 2.5 drew the stream of 2
        root = _rng.derive(1)
        with pytest.raises(TypeError, match="must be integers"):
            _rng.derive(bad)
        with pytest.raises(TypeError, match="must be integers"):
            child(root, bad)
        with pytest.raises(TypeError, match="must be integers"):
            _rng.children(_rng.pool(root), bad)
        with pytest.raises(TypeError, match="must be integers"):
            _rng.children(_rng.pool(root), 1, bad)
        with pytest.raises(TypeError, match="must be integers"):
            _rng.children(_rng.pool(root), np.array([bad]))

    def test_oversized_seed_rejected(self):
        seq = np.random.SeedSequence(1, spawn_key=tuple(range(1 << 15)))
        with pytest.raises(ValueError, match="at most 32767 32-bit words"):
            _rng.pool(seq)
