"""Hot sampling kernels, vectorized in numpy across deck rows.

One shuffle step, per deck row, literally follows the physical procedure:
assign each card an independent uniform pack index (the pack sizes are then
multinomial), cut the deck into consecutive packs of those sizes, and drop
cards one at a time from the bottom of a pack chosen with probability
proportional to the current pack sizes. The new deck is the drop pile read
top to bottom.

Both kernels take (rows, n) decks, and ``chain_step`` returns them so, but
they work card-major inside: every per-card or per-pack array is (n, rows)
or (m, rows), so each numpy operation runs along the long row axis rather
than the short deck axis. Card counts and positions are int16, and int64
once n >= 2^15; flat indices are int32, and int64 once rows*n or m*rows
reaches 2^31. A drop compares integer pack counts c with u*(n - s) for the
s-th drop, and for an integer c, c <= x iff c <= floor(x); so all n
thresholds floor(u*(n - s)) of a step are taken at once, as integers, from
the very floats the comparison would use.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NUMBA_ENABLED", "chain_step", "rising_counts"]

# perfbench/child.py reads this on every CLI run; it goes with the next benchmark change.
NUMBA_ENABLED = False


def _count_type(n: int) -> type:
    """Integer type for card counts and positions of an n-card deck."""
    return np.int16 if n < 2**15 else np.int64


def _index_type(size: int) -> type:
    """Integer type for flat indices into an array of ``size`` entries."""
    return np.int32 if size < 2**31 else np.int64


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
    rows, n = decks.shape
    m_max = int(pack_m.max())
    count_t = _count_type(n)
    index_t = _index_type(max(rows * n, m_max * rows))
    row_idx = np.arange(rows, dtype=index_t)
    m = pack_m.astype(index_t)
    digits = np.multiply(digit_u.T, m, out=np.empty((n, rows), index_t), casting="unsafe")
    np.minimum(digits, m - 1, out=digits)

    # Per-pack state is pack-major, entry (pack j, row) at j*rows + row.
    # cum[j] is the number of cards left in packs 0..j; it is updated in place
    # as cards drop, never recomputed.
    digits *= rows
    digits += row_idx
    cum = np.bincount(digits.ravel(), minlength=m_max * rows).astype(count_t)
    cum = cum.reshape(m_max, rows)
    for j in range(1, m_max):
        cum[j] += cum[j - 1]
    # Bottom card of each pack, as a flat index into ``decks``.
    ptr = cum.astype(index_t)
    ptr += row_idx * n - 1
    ptr = ptr.ravel()
    # threshold[s] = floor(u * cards left) for drop s.
    threshold = np.multiply(
        drop_u.T, np.arange(n, 0, -1)[:, None], out=np.empty((n, rows), count_t), casting="unsafe"
    )
    flat = decks.ravel()
    packs = np.arange(m_max, dtype=index_t)[:, None]
    mask = np.empty((m_max, rows), bool)

    out = np.empty((n, rows), decks.dtype)
    for step in range(n):
        np.less_equal(cum, threshold[step], out=mask)
        chosen = np.add.reduce(mask, axis=0, dtype=index_t)
        at = chosen * rows
        at += row_idx
        src = ptr.take(at)
        # The drop pile is read top to bottom, so drop s is output card n-1-s.
        flat.take(src, out=out[n - 1 - step])
        src -= 1
        ptr[at] = src
        np.greater_equal(packs, chosen, out=mask)
        cum -= mask
    return np.ascontiguousarray(out.T)


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
