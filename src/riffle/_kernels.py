"""Hot sampling kernels, vectorized in numpy across deck rows.

One shuffle step, per deck row, literally follows the physical procedure:
assign each card an independent uniform pack index (the pack sizes are then
multinomial), cut the deck into consecutive packs of those sizes, and drop
cards one at a time from the bottom of a pack chosen with probability
proportional to the current pack sizes. The new deck is the drop pile read
top to bottom.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NUMBA_ENABLED", "chain_step", "rising_counts"]

# perfbench/child.py reads this on every CLI run; it goes with the next benchmark change.
NUMBA_ENABLED = False


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
    digits = (digit_u * pack_m[:, None]).astype(np.int64)
    np.minimum(digits, pack_m[:, None] - 1, out=digits)

    # Per-pack state is held pack-major, entry (pack j, row) at j*rows + row,
    # so every per-step operation runs over contiguous rows.
    row_idx = np.arange(rows)
    sizes = np.bincount((digits * rows + row_idx[:, None]).ravel(), minlength=m_max * rows)
    # cum[j] is the number of cards left in packs 0..j; it is updated in place
    # as cards drop, never recomputed.
    cum = np.cumsum(sizes.reshape(m_max, rows), axis=0)
    # Bottom card of each pack, as a flat index into ``decks``.
    ptr = (cum - 1 + row_idx * n).ravel()
    flat = decks.ravel()
    packs = np.arange(m_max)[:, None]

    out = np.empty((rows, n), decks.dtype)
    total = n
    for step in range(n):
        u = drop_u[:, step] * total
        chosen = (cum <= u).sum(axis=0)
        at = chosen * rows + row_idx
        # The drop pile is read top to bottom, so drop s is output card n-1-s.
        out[:, n - 1 - step] = flat[ptr[at]]
        ptr[at] -= 1
        cum -= packs >= chosen
        total -= 1
    return out


def rising_counts(decks: np.ndarray) -> np.ndarray:
    """Number of rising sequences of each deck row."""
    rows, n = decks.shape
    pos = np.empty((rows, n), np.int64)
    row_idx = np.arange(rows)[:, None]
    pos[row_idx, decks - 1] = np.arange(n)[None, :]
    breaks = (pos[:, 1:] < pos[:, :-1]).sum(axis=1)
    return (breaks + 1).astype(np.int32)
