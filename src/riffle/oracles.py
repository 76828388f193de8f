"""Independent brute-force oracles for the exact shuffle laws.

These deliberately avoid the closed-form class probabilities: the digit
oracle enumerates every digit word of the inverse-shuffle construction, and
the convolution oracle works on full permutation distributions over the
symmetric group. Agreement with :mod:`riffle.laws` is a two-route check, so
neither side may be expressed through the other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Sequence

from .combinatorics import eulerian_row, rising_sequences
from .laws import PackDistribution, RisingSeqLaw, SizeGuardError, m_shuffle_law

__all__ = [
    "oracle_convolution",
    "oracle_digit_law",
    "oracle_shuffle_sequence",
]

MAX_DIGIT_WORDS = 10_000_000
MAX_CONVOLUTION_N = 7


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    # Deck in state `outer` shuffled by step `inner`: position i receives the
    # card that sat at position inner[i].
    return tuple(outer[inner[i] - 1] for i in range(len(outer)))


def oracle_digit_law(n: int, m: int) -> RisingSeqLaw:
    """m-shuffle law obtained by enumerating all m**n digit words.

    Each word assigns a digit to every card of the ordered deck; stable
    sorting the cards by digit performs one inverse shuffle, and inverting
    that arrangement gives one forward-shuffle outcome with probability
    m**(-n). The tally is also checked to be constant on rising-sequence
    classes before it is folded into a law.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    words = m**n
    if words > MAX_DIGIT_WORDS:
        raise SizeGuardError(f"digit enumeration needs {words} words > {MAX_DIGIT_WORDS}")
    tally: dict[tuple[int, ...], int] = {}
    cards = range(n)
    for word in product(range(m), repeat=n):
        order = sorted(cards, key=word.__getitem__)
        inverse_shuffled = tuple(i + 1 for i in order)
        outcome = _invert(inverse_shuffled)
        tally[outcome] = tally.get(outcome, 0) + 1

    row = eulerian_row(n)
    by_class: dict[int, set[int]] = {}
    class_count: dict[int, int] = {}
    for outcome, hits in tally.items():
        r = rising_sequences(outcome)
        by_class.setdefault(r, set()).add(hits)
        class_count[r] = class_count.get(r, 0) + 1
    probs = [Fraction(0)] * n
    for r in range(1, n + 1):
        values = by_class.get(r, set())
        if not values:
            continue
        if len(values) != 1 or class_count[r] != row.count(r):
            raise AssertionError(
                f"digit oracle not constant on class r={r} for n={n}, m={m}"
            )
        probs[r - 1] = Fraction(values.pop(), words)
    return RisingSeqLaw.from_probs(n, probs)


def _perm_law(n: int, class_prob: Sequence[Fraction]) -> tuple[dict[tuple[int, ...], int], int]:
    """Expand per-class probabilities to a full map perm -> numerator / den."""
    den = math.lcm(*(q.denominator for q in class_prob))
    nums = [int(q * den) for q in class_prob]
    table = {
        perm: nums[rising_sequences(perm) - 1]
        for perm in permutations(range(1, n + 1))
    }
    return table, den


def _convolve(
    a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for s, ws in a.items():
        if ws == 0:
            continue
        for t, wt in b.items():
            if wt == 0:
                continue
            key = _compose(s, t)
            out[key] = out.get(key, 0) + ws * wt
    return out


def _project(n: int, table: dict[tuple[int, ...], int], den: int) -> RisingSeqLaw:
    row = eulerian_row(n)
    class_values: dict[int, set[int]] = {}
    class_seen: dict[int, int] = {}
    for perm in permutations(range(1, n + 1)):
        r = rising_sequences(perm)
        class_values.setdefault(r, set()).add(table.get(perm, 0))
        class_seen[r] = class_seen.get(r, 0) + 1
    probs = [Fraction(0)] * n
    for r, values in class_values.items():
        if len(values) != 1:
            raise AssertionError(f"convolved law not constant on class r={r}")
        assert class_seen[r] == row.count(r)
        probs[r - 1] = Fraction(values.pop(), den)
    return RisingSeqLaw.from_probs(n, probs)


def oracle_convolution(n: int, p: PackDistribution, k: int) -> RisingSeqLaw:
    """Law after k p-shuffles via k-fold convolution over the full group.

    The single-step distribution is assembled per permutation as the p-mixture
    of exact m-shuffle laws; the convolution then runs over all of S_n, which
    is why n is capped at 7.
    """
    if n > MAX_CONVOLUTION_N:
        raise SizeGuardError(f"group convolution limited to n <= {MAX_CONVOLUTION_N}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    step_prob = [Fraction(0)] * n
    for m, w in p.atoms:
        law = m_shuffle_law(n, m)
        for i in range(n):
            step_prob[i] += w * law.class_prob[i]
    step, step_den = _perm_law(n, step_prob)

    identity = tuple(range(1, n + 1))
    acc: dict[tuple[int, ...], int] = {identity: 1}
    den = 1
    for _ in range(k):
        acc = _convolve(acc, step)
        den *= step_den
    return _project(n, acc, den)


def oracle_shuffle_sequence(n: int, pack_counts: Iterable[int]) -> RisingSeqLaw:
    """Law after successive m-shuffles with the given pack counts, in order.

    Convolves full permutation distributions, so the same S_n size cap
    applies. Used to check that an m-shuffle followed by an m'-shuffle equals
    a single (m * m')-shuffle.
    """
    if n > MAX_CONVOLUTION_N:
        raise SizeGuardError(f"group convolution limited to n <= {MAX_CONVOLUTION_N}")
    identity = tuple(range(1, n + 1))
    acc: dict[tuple[int, ...], int] = {identity: 1}
    den = 1
    for m in pack_counts:
        step, step_den = _perm_law(n, m_shuffle_law(n, m).class_prob)
        acc = _convolve(acc, step)
        den *= step_den
    return _project(n, acc, den)
