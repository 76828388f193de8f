"""Brute-force oracles for the exact shuffle laws.

Three pieces are independent of :mod:`riffle.laws`: the digit oracle
enumerates every digit word of the inverse-shuffle construction, the
convolution oracles compose full permutation tables over the symmetric
group, and one fold turns a permutation table into a class law after
checking that it is constant on rising-sequence classes. The one-step law
the convolutions start from is the closed form
:func:`~riffle.laws.m_shuffle_law`; ``verify --suite oracles`` checks that
step against the digit oracle, by default for n <= 6 and m <= 5. Taking the
step from the digit oracle instead would cap m**n, which an m = 100 step on
n = 4 already exceeds.
"""

from __future__ import annotations

from itertools import permutations, product, repeat
from typing import Iterable, Mapping

from .combinatorics import eulerian_row, rising_sequences
from .laws import PackDistribution, RisingSeqLaw, SizeGuardError, m_shuffle_law

__all__ = [
    "oracle_convolution",
    "oracle_digit_law",
    "oracle_shuffle_sequence",
]

MAX_DIGIT_WORDS = 10_000_000
MAX_CONVOLUTION_N = 7

Perm = tuple[int, ...]


def _invert(perm: Perm) -> Perm:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def _compose(outer: Perm, inner: Perm) -> Perm:
    # Deck in state `outer` shuffled by step `inner`: position i receives the
    # card that sat at position inner[i].
    return tuple(outer[inner[i] - 1] for i in range(len(outer)))


def _fold(n: int, table: Mapping[Perm, int], den: int) -> RisingSeqLaw:
    """Class law of a table {permutation: nonzero numerator} over ``den``.

    Walks the table's entries only, never all of S_n. Raises AssertionError
    unless each class in the table carries one numerator on all of its
    arrangements.
    """
    nums, hits = [0] * n, [0] * n
    for perm, num in table.items():
        i = rising_sequences(perm) - 1
        if hits[i] and nums[i] != num:
            raise AssertionError(f"law not constant on class r={i + 1} for n={n}")
        nums[i], hits[i] = num, hits[i] + 1
    for i, (seen, count) in enumerate(zip(hits, eulerian_row(n))):
        if seen and seen != count:
            raise AssertionError(f"law not constant on class r={i + 1} for n={n}")
    return RisingSeqLaw(n, nums, den)


def _walk(n: int, steps: Iterable[RisingSeqLaw]) -> RisingSeqLaw:
    """Law after the one-step laws ``steps``, in order, by convolution over S_n."""
    if n > MAX_CONVOLUTION_N:
        raise SizeGuardError(f"group convolution limited to n <= {MAX_CONVOLUTION_N}")
    deck = range(1, n + 1)
    tables: dict[RisingSeqLaw, dict[Perm, int]] = {}
    acc: dict[Perm, int] = {tuple(deck): 1}
    den = 1
    for step in steps:
        if step not in tables:
            tables[step] = {
                perm: num
                for perm in permutations(deck)
                if (num := step.nums[rising_sequences(perm) - 1])
            }
        out: dict[Perm, int] = {}
        for s, ws in acc.items():
            for t, wt in tables[step].items():
                key = _compose(s, t)
                out[key] = out.get(key, 0) + ws * wt
        acc, den = out, den * step.den
    return _fold(n, acc, den)


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
    tally: dict[Perm, int] = {}
    cards = range(n)
    for word in product(range(m), repeat=n):
        order = sorted(cards, key=word.__getitem__)
        inverse_shuffled = tuple(i + 1 for i in order)
        outcome = _invert(inverse_shuffled)
        tally[outcome] = tally.get(outcome, 0) + 1
    return _fold(n, tally, words)


def oracle_convolution(n: int, p: PackDistribution, k: int) -> RisingSeqLaw:
    """Law after k p-shuffles via k-fold convolution over the full group.

    The single-step law is the p-mixture of exact m-shuffle laws; the
    convolution then runs over all of S_n, which is why n is capped at 7.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    laws = [(w, m_shuffle_law(n, m)) for m, w in p.atoms]
    step = RisingSeqLaw.from_probs(
        n, (sum(w * law.prob(r) for w, law in laws) for r in range(1, n + 1))
    )
    return _walk(n, repeat(step, k))


def oracle_shuffle_sequence(n: int, pack_counts: Iterable[int]) -> RisingSeqLaw:
    """Law after successive m-shuffles with the given pack counts, in order.

    Convolves full permutation distributions, so the same S_n size cap
    applies. Used to check that an m-shuffle followed by an m'-shuffle equals
    a single (m * m')-shuffle.
    """
    return _walk(n, (m_shuffle_law(n, m) for m in pack_counts))
