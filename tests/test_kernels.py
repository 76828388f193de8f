import numpy as np
import pytest

from riffle import _kernels


def _reference_step(deck, m, digit_u, drop_u):
    """Straight-line per-deck reference for one shuffle step."""
    n = len(deck)
    sizes = [0] * m
    for u in digit_u:
        d = min(int(u * m), m - 1)
        sizes[d] += 1
    ptr = []
    acc = 0
    for s in sizes:
        acc += s
        ptr.append(acc - 1)
    total = n
    dropped = []
    for step in range(n):
        u = drop_u[step] * total
        cum = 0
        j = 0
        while True:
            cum += sizes[j]
            if u < cum:
                break
            j += 1
        dropped.append(deck[ptr[j]])
        ptr[j] -= 1
        sizes[j] -= 1
        total -= 1
    return list(reversed(dropped))


@pytest.fixture
def batch():
    rng = np.random.default_rng(99)
    rows, n = 200, 9
    decks = np.empty((rows, n), np.int32)
    for i in range(rows):
        decks[i] = rng.permutation(n) + 1
    pack_m = rng.integers(1, 5, rows).astype(np.int64)
    digit_u = rng.random((rows, n))
    drop_u = rng.random((rows, n))
    return decks, pack_m, digit_u, drop_u


def _assert_matches_reference(decks, pack_m, digit_u, drop_u, out):
    for i in range(len(decks)):
        expect = _reference_step(
            list(decks[i]), int(pack_m[i]), list(digit_u[i]), list(drop_u[i])
        )
        assert list(out[i]) == expect


def test_numpy_path_matches_reference(batch):
    out = _kernels.chain_step(*batch)
    _assert_matches_reference(*batch, out)


def _edge_batch(rows, n, m_low, m_high, seed=5):
    rng = np.random.default_rng(seed)
    decks = np.array([rng.permutation(n) + 1 for _ in range(rows)], np.int32)
    pack_m = rng.integers(m_low, m_high + 1, rows).astype(np.int64)
    return decks, pack_m, rng.random((rows, n)), rng.random((rows, n))


@pytest.mark.parametrize(
    "rows, n, m_low, m_high",
    [(50, 1, 1, 4), (50, 9, 1, 1), (300, 3, 1, 12), (1, 6, 7, 7)],
    ids=["n1", "all_m1", "m_max_above_n", "one_row"],
)
def test_numpy_path_matches_reference_on_edge_batches(rows, n, m_low, m_high):
    batch = _edge_batch(rows, n, m_low, m_high)
    out = _kernels.chain_step(*batch)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    _assert_matches_reference(*batch, out)


def test_sampler_chunks_match_reference_across_a_chunk_boundary():
    # A row count that is not a multiple of the chunk size: the last chunk is
    # short, and every chunk draws its cut uniforms and then its drop uniforms.
    from riffle import sampling

    size, n, m = sampling._CHUNK + 7, 3, 4
    decks = sampling.sample_m_shuffles(n, m, sampling.make_generator(8), size)
    rng = sampling.make_generator(8)
    for lo in range(0, size, sampling._CHUNK):
        rows = min(sampling._CHUNK, size - lo)
        digit_u, drop_u = rng.random((rows, n)), rng.random((rows, n))
        identity = np.tile(np.arange(1, n + 1, dtype=np.int32), (rows, 1))
        _assert_matches_reference(
            identity, np.full(rows, m), digit_u, drop_u, decks[lo : lo + rows]
        )


def test_one_pack_returns_deck_unchanged(batch):
    decks, _, digit_u, drop_u = batch
    ones = np.ones(len(decks), np.int64)
    out = _kernels.chain_step(decks, ones, digit_u, drop_u)
    assert np.array_equal(out, decks)


def test_rising_counts_paths_agree(batch):
    decks = batch[0]
    a = _kernels.rising_counts(decks)
    # spot-check against the exact implementation
    from riffle.combinatorics import rising_sequences

    for i in range(0, len(decks), 17):
        assert a[i] == rising_sequences(tuple(int(v) for v in decks[i]))


def test_rising_counts_known_values():
    decks = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [2, 1, 4, 3]], np.int32)
    assert list(_kernels.rising_counts(decks)) == [1, 4, 3]
