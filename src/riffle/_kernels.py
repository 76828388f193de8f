"""Hot sampling kernels, vectorized in numpy across deck rows.

One shuffle step, per deck row, literally follows the physical procedure:
assign each card an independent uniform pack index (the pack sizes are then
multinomial), cut the deck into consecutive packs of those sizes, and drop
cards one at a time from the bottom of a pack chosen with probability
proportional to the current pack sizes. The new deck is the drop pile read
top to bottom.

``_step`` moves the cards of (rows, n) decks; ``chain_step`` is the same
step on drop uniforms. ``shuffled_rising_counts`` runs the same cut and drops
on the ordered deck but moves no card: it reads each row's rising-sequence
count off every pack's first and last drop, one pack count at a time. Both
take the drops as integer thresholds (below), which their caller may make
from the drop uniforms a slice at a time. All kernels work card-major
inside: every per-card or per-pack array is (n, rows) or (m, rows), so each
numpy operation runs along the long row axis rather than the short deck
axis; the (rows, n) uniforms are read through their transposed view, never
copied. Card counts and positions are int8 below 2^7 cards, int16 below
2^15 and int64 from there; flat indices are int32, and int64 once rows*n or
m*rows reaches 2^31. The cut gives each card the pack digit trunc(u*m),
typed by the pack count the same way, and counts the cards in packs 0..j
by comparing every digit with j: 2(m - 1) passes over (n, rows) digits,
where the n drops that follow make 4 to 9 passes each over (m, rows)
packs. A drop compares integer pack counts c with u*(n - s) for the s-th
drop, and for an integer c, c <= x iff c <= floor(x); so all n thresholds
floor(u*(n - s)) of a step are taken as integers from the very floats the
comparison would use.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["NUMBA_ENABLED", "chain_step", "rising_counts", "shuffled_rising_counts"]

# perfbench/child.py reads this on every CLI run; it goes with the next benchmark change.
NUMBA_ENABLED = False


def _count_type(n: int) -> type:
    """Integer type for card counts and positions of an n-card deck.

    The cut types its pack digits, all below the pack count m, by ``_count_type(m)``.
    """
    return np.int8 if n < 2**7 else np.int16 if n < 2**15 else np.int64


def _index_type(size: int) -> type:
    """Integer type for flat indices into an array of ``size`` entries."""
    return np.int32 if size < 2**31 else np.int64


def _cut(digit_t: np.ndarray, m) -> np.ndarray:
    """(m_max, rows) cards in packs 0..j of the cut of (n, rows) uniforms into m[row] packs."""
    n, rows = digit_t.shape
    m_max = int(np.max(m))
    count_t = _count_type(n)
    cum = np.empty((m_max, rows), count_t)
    # u*m < m for every u < 1, so no digit needs clamping, and a row with
    # m[row] <= j counts all n cards in packs 0..j.
    digits = np.multiply(digit_t, m, out=np.empty((n, rows), _count_type(m_max)), casting="unsafe")
    below = np.empty((n, rows), bool)
    for j in range(m_max - 1):
        np.add.reduce(np.less_equal(digits, j, out=below), axis=0, dtype=count_t, out=cum[j])
    cum[m_max - 1] = n
    return cum


def _thresholds(drop_u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(n, rows) threshold[s] = floor(u * cards left) for drop s, into ``out`` if given."""
    rows, n = drop_u.shape
    if out is None:
        out = np.empty((n, rows), _count_type(n))
    return np.multiply(drop_u.T, np.arange(n, 0, -1)[:, None], out=out, casting="unsafe")


def _drop(
    cum: np.ndarray, threshold: np.ndarray, packs: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Each row's pack for one drop, as the dtype of the (m_max, 1) ``packs``; updates ``cum``."""
    np.less_equal(cum, threshold, out=mask)
    chosen = np.add.reduce(mask, axis=0, dtype=packs.dtype)
    np.greater_equal(packs, chosen, out=mask)
    cum -= mask
    return chosen


def chain_step(
    decks: np.ndarray,
    pack_m: np.ndarray,
    digit_u: np.ndarray,
    drop_u: np.ndarray,
) -> np.ndarray:
    """One shuffle step for a batch of decks, vectorized across rows.

    ``decks`` is (rows, n) int32, ``pack_m`` the per-row pack count,
    ``digit_u``/``drop_u`` are (rows, n) uniforms for the cut and the drops.
    """
    return _step(decks, pack_m, digit_u, _thresholds(drop_u))


def _step(
    decks: np.ndarray, pack_m: np.ndarray, digit_u: np.ndarray, threshold: np.ndarray
) -> np.ndarray:
    """:func:`chain_step` with the drops as the (n, rows) :func:`_thresholds` of their uniforms."""
    rows, n = decks.shape
    # cum is updated in place as cards drop, never recomputed.
    cum = _cut(digit_u.T, pack_m)
    m_max = len(cum)
    index_t = _index_type(max(rows * n, m_max * rows))
    row_idx = np.arange(rows, dtype=index_t)
    # Bottom card of each pack, as a flat index into ``decks``.
    ptr = cum.astype(index_t)
    ptr += row_idx * n - 1
    ptr = ptr.ravel()
    flat = decks.ravel()
    packs = np.arange(m_max, dtype=index_t)[:, None]
    mask = np.empty((m_max, rows), bool)

    out = np.empty((n, rows), decks.dtype)
    for step in range(n):
        at = _drop(cum, threshold[step], packs, mask) * rows
        at += row_idx
        src = ptr.take(at)
        # The drop pile is read top to bottom, so drop s is output card n-1-s.
        flat.take(src, out=out[n - 1 - step])
        src -= 1
        ptr[at] = src
    return np.ascontiguousarray(out.T)


def shuffled_rising_counts(ms, digit_u: np.ndarray, threshold: np.ndarray) -> Iterator[np.ndarray]:
    """(rows,) int32 rising-sequence counts of the ordered deck m-shuffled, for each m in ``ms``.

    ``digit_u`` is the (rows, n) cut uniforms and ``threshold`` the (n,
    rows) :func:`_thresholds` of the drop uniforms. Each m's counts are
    handed back before the next m is cut, so one pack count's state is live
    at a time. No card moves: each pack keeps its first drop f and its last
    drop l. Drop s lands at position n-1-s and a pack keeps its order, so a
    new rising sequence starts between consecutive nonempty packs j < j'
    exactly when l_j' > f_j.
    """
    for m in ms:
        yield _cut_rising_counts(_cut(digit_u.T, m), threshold)


def _cut_rising_counts(cum: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """(rows,) rising-sequence counts of the drops from a (m, rows) cut; uses up ``cum``."""
    m, rows = cum.shape
    n = len(threshold)
    count_t = cum.dtype.type
    packs = np.arange(m, dtype=np.uint8 if m <= 256 else _index_type(m))[:, None]
    mask = np.empty((m, rows), bool)
    # lead = n - f and last = l, both 0 for a pack never dropped from.
    # tmp stays: a masked np.maximum(..., where=mask) needs none, but is 25-50x
    # slower at m <= 15 and pays only near m = 1024.
    lead, last, tmp = np.zeros((3, m, rows), count_t)
    for step in range(n):
        np.equal(packs, _drop(cum, threshold[step], packs, mask), out=mask)
        np.maximum(lead, np.multiply(mask, count_t(n - step), out=tmp), out=lead)
        np.maximum(last, np.multiply(mask, count_t(step), out=tmp), out=last)
    # An empty pack takes the first drop of the nonempty pack above it.
    for j in range(1, m):
        lead[j] += (lead[j] == 0) * lead[j - 1]
    first = np.subtract(n, lead, out=lead)
    return np.add.reduce(last[1:] > first[:-1], axis=0, dtype=np.int32) + np.int32(1)


def rising_counts(decks: np.ndarray) -> np.ndarray:
    """Number of rising sequences of each deck row."""
    rows, n = decks.shape
    index_t = _index_type(rows * n)
    # pos[card - 1, row] is the card's position in its deck row.
    at = (decks - 1).astype(index_t)
    at *= rows
    at += np.arange(rows, dtype=index_t)[:, None]
    pos = np.empty((n, rows), _count_type(n))
    pos.reshape(-1)[at] = np.arange(n, dtype=pos.dtype)
    return np.add.reduce(pos[1:] < pos[:-1], axis=0, dtype=np.int32) + np.int32(1)
