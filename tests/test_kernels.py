import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle import _kernels
from riffle.combinatorics import rising_sequences


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
    [
        (50, 1, 1, 4),
        (50, 9, 1, 1),
        (300, 3, 1, 12),
        (1, 6, 7, 7),
        (50, 9, _kernels._COMPARE_PACKS, _kernels._COMPARE_PACKS),
        (50, 9, _kernels._COMPARE_PACKS + 1, _kernels._COMPARE_PACKS + 1),
        (300, 9, 1, _kernels._COMPARE_PACKS + 1),
        (1000, 5, 1, 600),
    ],
    ids=[
        "n1", "all_m1", "m_max_above_n", "one_row",
        "all_m_compare", "all_m_bincount", "m_across_cut_sides", "rows_across_bincount_slices",
    ],
)
def test_numpy_path_matches_reference_on_edge_batches(rows, n, m_low, m_high):
    batch = _edge_batch(rows, n, m_low, m_high)
    out = _kernels.chain_step(*batch)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    _assert_matches_reference(*batch, out)


def test_bincount_cut_holds_int64_counts_for_one_slice_of_rows():
    # Past _COMPARE_PACKS the cut counts packs with bincount, whose counts are
    # int64; one count per (pack, row) cell at once would take m * rows * 8 bytes.
    import tracemalloc

    rows, n, m = 16384, 6, 64
    digit_u = np.random.default_rng(3).random((rows, n))
    tracemalloc.start()
    try:
        cum = _kernels._cut(digit_u.T, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cum.dtype == np.int8 and np.all(cum[-1] == n)
    assert peak < m * rows * 8
    assert peak < cum.nbytes + 2 * 8 * _kernels._BINCOUNT_CELLS


@settings(deadline=None)
@given(
    rows=st.integers(1, 40),
    n=st.integers(1, 24),
    extra_packs=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    edge_uniforms=st.booleans(),
)
def test_chain_step_matches_reference(rows, n, extra_packs, seed, edge_uniforms):
    # Pack counts 1..n+3 on shuffled decks. With edge_uniforms, a third of
    # the uniforms are 0 or the largest double below 1, the first and last
    # pack of every cut and drop.
    rng = np.random.default_rng(seed)
    decks = np.array([rng.permutation(n) + 1 for _ in range(rows)], np.int32)
    pack_m = rng.integers(1, n + extra_packs + 1, rows)
    digit_u, drop_u = rng.random((rows, n)), rng.random((rows, n))
    if edge_uniforms:
        for u in (digit_u, drop_u):
            pick = rng.random(u.shape) < 1 / 3
            u[pick] = rng.choice([0.0, np.nextafter(1.0, 0.0)], int(pick.sum()))
    out = _kernels.chain_step(decks, pack_m, digit_u, drop_u)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    _assert_matches_reference(decks, pack_m, digit_u, drop_u, out)


@pytest.mark.parametrize("n", [2**7 - 1, 2**7, 2**15 - 1, 2**15])
def test_kernels_widen_count_type_at_two_to_the_seven_and_fifteen(n):
    # int8 counts and positions hold n = 2^7 - 1 cards and int16 hold
    # n = 2^15 - 1; one card more needs the next type, or the bottom pack's
    # count wraps.
    count_t = np.int8 if n < 2**7 else np.int16 if n < 2**15 else np.int64
    assert _kernels._count_type(n) is count_t
    rng = np.random.default_rng(n)
    decks = np.tile(np.arange(1, n + 1, dtype=np.int32), (3, 1))
    pack_m = np.array([1, 2, 3])
    digit_u, drop_u = rng.random((3, n)), rng.random((3, n))
    # Every row's first drop is from its top nonempty pack: that pack's
    # first drop is position 0, so lead = n - 0 must hold n itself.
    drop_u[:, 0] = 0.0
    out = _kernels.chain_step(decks, pack_m, digit_u, drop_u)
    _assert_matches_reference(decks, pack_m, digit_u, drop_u, out)
    assert out[0].tolist() == list(range(1, n + 1))
    exact = [rising_sequences(tuple(row)) for row in out.tolist()]
    assert _kernels.rising_counts(out).tolist() == exact
    # First and last drops reach n without wrapping the count type.
    ms = [1, 2, 3]
    counts = _counts_off_the_drops(ms, digit_u, drop_u)
    assert np.array_equal(counts, _rising_counts_of_moved_decks(ms, digit_u, drop_u))
    assert counts.diagonal().tolist() == exact


def test_flat_indices_switch_to_int64_at_two_to_the_thirty_one():
    assert _kernels._index_type(2**31 - 1) is np.int32
    assert _kernels._index_type(2**31) is np.int64


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


def _counts_off_the_drops(ms, digit_u, drop_u):
    # The kernel hands back one (rows,) int32 row per m, in the order of ms.
    counts = list(_kernels.shuffled_rising_counts(ms, digit_u, _kernels._thresholds(drop_u)))
    assert [(c.dtype, c.shape) for c in counts] == [(np.int32, (len(digit_u),))] * len(ms)
    return np.array(counts)


def _rising_counts_of_moved_decks(ms, digit_u, drop_u):
    rows, n = digit_u.shape
    identity = np.tile(np.arange(1, n + 1, dtype=np.int32), (rows, 1))
    moved = [_kernels.chain_step(identity, np.full(rows, m), digit_u, drop_u) for m in ms]
    return [_kernels.rising_counts(decks) for decks in moved]


@pytest.mark.parametrize("n", range(1, 13))
def test_counts_off_the_drops_equal_counts_of_moved_decks(n):
    # Every chunk of a sampler stream that crosses a chunk boundary; m = 300
    # takes the wide pack type, m = n + 3 leaves packs empty, and the cut
    # compares digits up to _COMPARE_PACKS packs and counts by bincount past it.
    from riffle import sampling

    ms = [1, 2, n, n + 3, _kernels._COMPARE_PACKS, _kernels._COMPARE_PACKS + 1, 300]
    rng = sampling.make_generator(n)
    size = sampling._CHUNK + 7
    for lo in sampling._chunks(size, max(ms), n):
        rows = min(sampling._CHUNK, size - lo)
        digit_u, drop_u = rng.random((rows, n)), rng.random((rows, n))
        counts = _counts_off_the_drops(ms, digit_u, drop_u)
        assert np.array_equal(counts, _rising_counts_of_moved_decks(ms, digit_u, drop_u))


@settings(deadline=None)
@given(
    rows=st.integers(1, 40),
    n=st.integers(1, 24),
    ms=st.lists(st.integers(1, 300), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    edge_uniforms=st.booleans(),
)
def test_counts_off_the_drops_match_on_any_uniforms(rows, n, ms, seed, edge_uniforms):
    rng = np.random.default_rng(seed)
    digit_u, drop_u = rng.random((rows, n)), rng.random((rows, n))
    if edge_uniforms:
        for u in (digit_u, drop_u):
            pick = rng.random(u.shape) < 1 / 3
            u[pick] = rng.choice([0.0, np.nextafter(1.0, 0.0)], int(pick.sum()))
    counts = _counts_off_the_drops(ms, digit_u, drop_u)
    assert np.array_equal(counts, _rising_counts_of_moved_decks(ms, digit_u, drop_u))


def test_one_pack_returns_deck_unchanged(batch):
    decks, _, digit_u, drop_u = batch
    ones = np.ones(len(decks), np.int64)
    out = _kernels.chain_step(decks, ones, digit_u, drop_u)
    assert np.array_equal(out, decks)


@pytest.mark.parametrize("n", [1, 2, 9, 300])
def test_rising_counts_match_exact_on_every_row(n):
    rng = np.random.default_rng(n)
    rows = 40 if n > 100 else 300
    decks = np.array([rng.permutation(n) + 1 for _ in range(rows)], np.int32)
    counts = _kernels.rising_counts(decks)
    assert counts.dtype == np.int32 and counts.flags.c_contiguous
    assert counts.tolist() == [rising_sequences(tuple(row)) for row in decks.tolist()]


def test_rising_counts_known_values():
    decks = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [2, 1, 4, 3]], np.int32)
    assert list(_kernels.rising_counts(decks)) == [1, 4, 3]
