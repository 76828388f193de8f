"""Exact big-integer foundations: rising sequences, Eulerian rows, decimal text.

Everything in this module is exact integer arithmetic. Probabilities never
appear here; they live in :mod:`riffle.laws` as ``fractions.Fraction`` values
built on top of these counts.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from contextlib import suppress
from decimal import Decimal
from pathlib import Path
from typing import Sequence

__all__ = [
    "CACHE_ENV_VAR",
    "DISK_CACHE_MIN_N",
    "EulerianCache",
    "MAX_EXACT_N",
    "SizeGuardError",
    "decimal_to_int",
    "default_cache",
    "eulerian_row",
    "int_to_decimal",
    "rising_sequences",
    "validate_arrangement",
]

CACHE_ENV_VAR = "RIFFLE_CACHE_DIR"

#: Rows with n below this are cheap to recompute and are kept in memory only.
DISK_CACHE_MIN_N = 32

#: Size guard: the largest deck size an exact computation builds a row for.
MAX_EXACT_N = 10_000


class SizeGuardError(RuntimeError):
    """Raised when an exact computation would exceed its configured size."""


def _check_deck(n: int) -> None:
    """Refuse a deck size before any work on it: below 1, or over :data:`MAX_EXACT_N`."""
    if n < 1:
        raise ValueError(f"deck size must be >= 1, got {n}")
    if n > MAX_EXACT_N:
        raise SizeGuardError(f"deck size {n} is over the exact limit of {MAX_EXACT_N}")


def int_to_decimal(x: int) -> str:
    """``str(x)`` for an int of any size.

    ``str`` refuses ints longer than ``sys.get_int_max_str_digits()`` digits
    (4300 by default); ``Decimal`` converts from the binary digits with no
    such limit and prints the same plain decimal text.
    """
    try:
        return str(x)
    except ValueError:
        return str(Decimal(x))


def decimal_to_int(text: str) -> int:
    """``int(text)`` for decimal text of any length.

    ``int`` refuses text past ``sys.get_int_max_str_digits()`` digits, so
    longer text, which must be plain digits, is parsed in halves and joined
    with a power of ten.
    """
    # Python before 3.10.7 has no limit and no getter.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit or len(text) <= limit:
        return int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a nonnegative decimal integer: {text[:40]!r}...")
    low = len(text) // 2
    return decimal_to_int(text[:-low]) * 10**low + decimal_to_int(text[-low:])


def validate_arrangement(arrangement: Sequence[int]) -> tuple[int, ...]:
    """Check that ``arrangement`` lists each card value 1..n exactly once.

    Returns the arrangement as a tuple. Raises ``ValueError`` for duplicate,
    missing, or out-of-range values.
    """
    deck = tuple(int(v) for v in arrangement)
    n = len(deck)
    if n == 0:
        raise ValueError("empty arrangement")
    seen = [False] * n
    for v in deck:
        if not 1 <= v <= n:
            raise ValueError(f"card value {v} out of range 1..{n}")
        if seen[v - 1]:
            raise ValueError(f"duplicate card value {v}")
        seen[v - 1] = True
    return deck


def rising_sequences(arrangement: Sequence[int]) -> int:
    """Number of rising sequences of a deck arrangement.

    A rising sequence is a maximal run of consecutive card values that appear
    in left-to-right order in the arrangement. Equivalently, the value ``v+1``
    starts a new sequence exactly when it sits to the left of ``v``, so the
    count is one plus the number of descents of the inverse permutation. The
    equivalence with the run-based definition is exercised by brute force in
    the test suite for all decks up to n = 6.

    >>> rising_sequences((3, 1, 4, 5, 7, 2, 8, 9, 6))
    3
    """
    deck = validate_arrangement(arrangement)
    n = len(deck)
    pos = [0] * n
    for i, v in enumerate(deck):
        pos[v - 1] = i
    breaks = sum(1 for v in range(1, n) if pos[v] < pos[v - 1])
    return 1 + breaks


def _checked_row(n: int, counts: tuple[int, ...]) -> tuple[int, ...]:
    """``counts`` if it is row n: n entries summing to n!, symmetric, 1 at both ends."""
    if n < 1:
        raise ValueError(f"deck size must be >= 1, got {n}")
    if len(counts) != n:
        raise ValueError(f"row must have {n} entries, got {len(counts)}")
    if sum(counts) != math.factorial(n):
        raise ValueError(f"row for n={n} does not sum to n!")
    for r in range(1, n + 1):
        if counts[r - 1] != counts[n - r]:
            raise ValueError(f"row for n={n} is not symmetric at r={r}")
    if counts[0] != 1 or counts[-1] != 1:
        raise ValueError(f"row for n={n} must have 1 at both ends")
    return counts


def _mirror(half: list[int], n: int) -> tuple[int, ...]:
    """Row n from its first ceil(n/2) counts; each mirrored pair shares one int."""
    return (*half, *reversed(half[: n // 2]))


class EulerianCache:
    """On-disk store of Eulerian rows, one row per file.

    File format: ``eulerian_<n>.txt``, one integer per line: n in decimal,
    then the counts for r = 1..n as ``hex()`` text, linear to convert where
    decimal is quadratic. Older decimal files still read; a decimal line past
    ``int``'s str-digit limit reads as corrupt. Files are written and read one
    line at a time, so a row's text is never held whole; a read row keeps the
    first ceil(n/2) counts and mirrors them, one int per mirrored pair, as a
    computed row does. Writes go through a per-writer temp file and an atomic
    rename, so concurrent readers always see a complete row and concurrent
    writers of one row all succeed; a failed write removes its temp file.
    """

    def __init__(self, directory: str | os.PathLike[str]):
        self.directory = Path(directory)

    def path_for(self, n: int) -> Path:
        return self.directory / f"eulerian_{n}.txt"

    def read(self, n: int) -> tuple[int, ...] | None:
        """Row n as a checked ``tuple[int, ...]``, or ``None`` if missing or bad."""
        try:
            with self.path_for(n).open("rb") as f:
                # next() gives b"" past the end, which int() rejects as it
                # does a blank line.
                if int(next(f, b"")) != n:
                    return None
                half = [int(next(f, b""), 0) for _ in range((n + 1) // 2)]
                for mirror in reversed(half[: n // 2]):
                    if int(next(f, b""), 0) != mirror:
                        return None
                if next(f, None) is not None:
                    return None
            return _checked_row(n, _mirror(half, n))
        except (OSError, ValueError):
            # Missing or corrupt cache entry; caller recomputes and overwrites.
            return None

    def write(self, row: tuple[int, ...]) -> None:
        """Store a ``tuple[int, ...]`` row; its length is its deck size."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(len(row))
        # One temp file per writing thread, so concurrent writers never rename
        # each other's file away.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with tmp.open("w", encoding="ascii") as f:
                f.write(f"{len(row)}\n")
                for c in row:
                    f.write(f"{c:#x}\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def default_cache() -> EulerianCache:
    """Cache rooted at ``$RIFFLE_CACHE_DIR``, defaulting to ``./cache``."""
    return EulerianCache(os.environ.get(CACHE_ENV_VAR, "cache"))


_memo: dict[int, tuple[int, ...]] = {}
_memo_lock = threading.Lock()


def eulerian_row(n: int, cache: EulerianCache | None = None) -> tuple[int, ...]:
    """Eulerian row for deck size n, computed by the two-term recurrence.

    The row is a ``tuple[int, ...]``; entry r - 1 counts the arrangements
    with r rising sequences.

    Rows are memoized in memory for the process lifetime. Rows with
    ``n >= DISK_CACHE_MIN_N`` are also persisted to the on-disk cache, since
    recomputation dominates runtime once n reaches the hundreds and distance
    profiles reuse the same row across many shuffle counts. A write that
    fails, as on a full disk, is skipped: the row is returned all the same.
    A deck of more than :data:`MAX_EXACT_N` cards raises :class:`SizeGuardError`.
    """
    _check_deck(n)
    with _memo_lock:
        hit = _memo.get(n)
    if hit is not None:
        return hit

    if cache is None:
        cache = default_cache()
    if n >= DISK_CACHE_MIN_N:
        row = cache.read(n)
        if row is not None:
            with _memo_lock:
                _memo[n] = row
            return row

    # The recurrence runs on the first ceil(k/2) counts only, since the row
    # is symmetric, and in place: counts_k[r] = r * counts_(k-1)[r] +
    # (k - r + 1) * counts_(k-1)[r - 1] reads entries r and r - 1 of row
    # k - 1, so from the top class down each entry is overwritten once no
    # class below needs it. For odd k the top entry reads one class past
    # row k - 1's half, which equals its last entry by symmetry.
    with _memo_lock:
        start = max((k for k in _memo if k < n), default=1)
        half = list(_memo[start][: (start + 1) // 2]) if start in _memo else [1]
    for k in range(start + 1, n + 1):
        if k % 2:
            half.append(half[-1])
        for r in range(len(half), 1, -1):
            half[r - 1] = r * half[r - 1] + (k - r + 1) * half[r - 2]
    row = _checked_row(n, _mirror(half, n))
    with _memo_lock:
        _memo[n] = row
    if n >= DISK_CACHE_MIN_N:
        with suppress(OSError):
            cache.write(row)
    return row
