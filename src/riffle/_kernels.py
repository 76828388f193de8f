"""Hot sampling kernels: numba-jitted with a pure-numpy fallback.

Set ``RIFFLE_PURE_NUMPY=1`` to skip numba entirely and run the vectorized
numpy path. Both paths implement the exact same per-deck procedure and
consume the same pregenerated uniforms, so their outputs are bit-identical;
``benchmarks/bench_kernels.py`` compares their throughput.

One shuffle step, per deck row, literally follows the physical procedure:
assign each card an independent uniform pack index (the pack sizes are then
multinomial), cut the deck into consecutive packs of those sizes, and drop
cards one at a time from the bottom of a pack chosen with probability
proportional to the current pack sizes. The new deck is the drop pile read
top to bottom.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "PURE_NUMPY_REQUESTED",
    "chain_step",
    "chain_step_jit",
    "chain_step_numpy",
    "rising_counts",
    "rising_counts_jit",
    "rising_counts_numpy",
]

_flag = os.environ.get("RIFFLE_PURE_NUMPY", "").strip().lower()
PURE_NUMPY_REQUESTED = _flag not in ("", "0", "false", "no")


def chain_step_numpy(
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


def rising_counts_numpy(decks: np.ndarray) -> np.ndarray:
    """Number of rising sequences of each deck row."""
    rows, n = decks.shape
    pos = np.empty((rows, n), np.int64)
    row_idx = np.arange(rows)[:, None]
    pos[row_idx, decks - 1] = np.arange(n)[None, :]
    breaks = (pos[:, 1:] < pos[:, :-1]).sum(axis=1)
    return (breaks + 1).astype(np.int32)


chain_step_jit = None
rising_counts_jit = None

if not PURE_NUMPY_REQUESTED:
    try:
        from numba import njit
    except ImportError:
        njit = None

    if njit is not None:

        @njit(cache=True)
        def _chain_step_impl(decks, pack_m, digit_u, drop_u):  # pragma: no cover
            rows, n = decks.shape
            out = np.empty_like(decks)
            for row in range(rows):
                m = pack_m[row]
                sizes = np.zeros(m, np.int64)
                for i in range(n):
                    d = int(digit_u[row, i] * m)
                    if d >= m:
                        d = m - 1
                    sizes[d] += 1
                ptr = np.empty(m, np.int64)
                acc = 0
                for j in range(m):
                    acc += sizes[j]
                    ptr[j] = acc - 1
                total = n
                dropped = np.empty(n, decks.dtype)
                for step in range(n):
                    u = drop_u[row, step] * total
                    cum = 0
                    j = 0
                    while True:
                        cum += sizes[j]
                        if u < cum:
                            break
                        j += 1
                    dropped[step] = decks[row, ptr[j]]
                    ptr[j] -= 1
                    sizes[j] -= 1
                    total -= 1
                for i in range(n):
                    out[row, i] = dropped[n - 1 - i]
            return out

        @njit(cache=True)
        def _rising_counts_impl(decks):  # pragma: no cover
            rows, n = decks.shape
            out = np.empty(rows, np.int32)
            pos = np.empty(n, np.int64)
            for row in range(rows):
                for i in range(n):
                    pos[decks[row, i] - 1] = i
                r = 1
                for v in range(1, n):
                    if pos[v] < pos[v - 1]:
                        r += 1
                out[row] = r
            return out

        chain_step_jit = _chain_step_impl
        rising_counts_jit = _rising_counts_impl

NUMBA_ENABLED = chain_step_jit is not None

chain_step = chain_step_jit if NUMBA_ENABLED else chain_step_numpy
rising_counts = rising_counts_jit if NUMBA_ENABLED else rising_counts_numpy
