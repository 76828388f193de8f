"""Exact shuffle distributions on rising-sequence classes.

A deck law here is always constant on rising-sequence classes, so it is
represented by the probability of each *single arrangement* in class r (not
the class mass): n integer numerators over one common denominator, in lowest
terms. Every m-shuffle probability is an integer over m**n and a k-step law
is an integer-weighted mixture of them; ``Fraction`` appears only at the
interface, and floats only when a caller explicitly renders a value.

A mixture depends on its pack count M only through n + 1 moments: class r
has probability E[C(M + n - r, n) / M**n], and C(x + n - r, n) is a
polynomial of degree n in x. These moments are the weights of the
m-shuffle's eigenvalues m**-i (Bayer & Diaconis 1992). Every path hands
them over as E[M**(i - n)] = v[i] / D to one evaluator,
:func:`_moment_numerators`: rising factorials and forward differences, in
about n**2 / 2 big-by-small multiply-adds and as many big additions.
:func:`mixture_of_m_shuffles` instead goes atom by atom along r in n small
multiply-divides of a big integer per atom; both scale the atoms' weights
in :func:`_scaled_atoms`.

For the k-step law M_k is a product of k independent draws from p, so
E[M_k**(i - n)] = E[m**(i - n)]**k = x[i]**k / d**k with x and d from p
alone (:func:`_pack_moments`). One predicate, :func:`_moments_pay`, picks
the path for both the k-step and the continuous-time laws.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import ClassVar, Iterable, Iterator, NamedTuple

from .combinatorics import decimal_to_int, eulerian_row, int_to_decimal

__all__ = [
    "ClassNumerators",
    "PackDistribution",
    "ProductLaw",
    "RisingSeqLaw",
    "SizeGuardError",
    "WindowGap",
    "inverse_square_pack",
    "k_step_laws",
    "law_after_k",
    "law_from_json",
    "law_to_json",
    "m_shuffle_law",
    "mixture_of_m_shuffles",
    "product_laws",
    "product_power",
    "tail_set_gap",
    "tv_to_uniform",
    "window_set_gap",
]

_MAX_PRODUCT_ATOMS_ENV = "RIFFLE_MAX_PRODUCT_ATOMS"


class SizeGuardError(RuntimeError):
    """Raised when an exact computation would exceed its configured size."""


class ClassNumerators:
    """Base of frozen dataclasses with fields ``n``, ``nums`` and ``den``.

    ``nums[i] / den`` is the probability of each arrangement with r = i + 1
    rising sequences; construction reduces it to lowest terms with one gcd.
    Subclasses also give ``mass``, the exact total ``sum(count * num) / den``.
    """

    def __post_init__(self) -> None:
        g = math.gcd(self.den, *self.nums)
        object.__setattr__(self, "nums", tuple(x // g for x in self.nums))
        object.__setattr__(self, "den", self.den // g)

    def _check(self, mass: Fraction) -> None:
        """Raise ValueError unless the law is nonincreasing in r, lies in
        [0, 1] and has total ``sum(count * num) / den`` equal to ``mass``."""
        n, nums, den = self.n, self.nums, self.den
        for r in range(2, n + 1):
            if nums[r - 1] > nums[r - 2]:
                raise ValueError(f"class probability increases at r={r}")
        if nums[0] > den or nums[-1] < 0:
            raise ValueError("class probability out of [0,1]")
        total = sum(c * x for c, x in zip(eulerian_row(n).counts, nums))
        if total * mass.denominator != den * mass.numerator:
            raise ValueError(f"law for n={n} has total mass {Fraction(total, den)}, not {mass}")

    @property
    def class_prob(self) -> tuple[Fraction, ...]:
        """Per-arrangement probability of each class r = 1..n, as fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def prob(self, r: int) -> Fraction:
        """Probability of one arrangement with r rising sequences."""
        if not 1 <= r <= self.n:
            raise ValueError(f"r must be in 1..{self.n}, got {r}")
        return Fraction(self.nums[r - 1], self.den)


@dataclass(frozen=True)
class RisingSeqLaw(ClassNumerators):
    """Probability law on deck arrangements, constant on rising-seq classes.

    Construction also verifies, in integers, exact normalization (sum over
    classes of count * num equals den) and that the per-arrangement
    probability is nonincreasing in r, which holds for every m-shuffle law
    and every mixture of them.
    """

    n: int
    nums: tuple[int, ...]
    den: int
    mass: ClassVar[Fraction] = Fraction(1)  # checked on construction

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError(f"deck size must be >= 1, got {n}")
        if len(self.nums) != n or self.den < 1:
            raise ValueError(f"law for n={n} needs {n} class entries over a positive den")
        super().__post_init__()
        self._check(self.mass)

    @classmethod
    def from_probs(cls, n: int, probs: Iterable[Fraction]) -> "RisingSeqLaw":
        """Law from exact per-arrangement probabilities, class r = 1..n in order."""
        probs = [Fraction(q) for q in probs]
        den = math.lcm(*(q.denominator for q in probs))
        return cls(n, tuple(q.numerator * (den // q.denominator) for q in probs), den)

    def class_mass(self, r: int) -> Fraction:
        """Total probability of the class of arrangements with r rising seqs."""
        return eulerian_row(self.n).count(r) * self.prob(r)


def _shuffle_numerators(n: int, m: int, scale: int = 1) -> list[int]:
    """``scale * C(n + m - r, n)`` for r = 1..n: m-shuffle numerators over m**n.

    Each entry comes from the one before by the exact ratio
    ``(m - r) / (n + m - r)``, a small multiply and divide, so only the first
    is a binomial; the entries vanish from r = m + 1 on.
    """
    if n < 1:
        raise ValueError(f"deck size must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"pack count must be >= 1, got {m}")
    out = [scale * math.comb(n + m - 1, n)]
    for r in range(1, n):
        out.append(out[-1] * (m - r) // (n + m - r))
    return out


def m_shuffle_law(n: int, m: int) -> RisingSeqLaw:
    """Exact law of the deck after one m-shuffle of the ordered deck.

    The probability of any arrangement with r rising sequences is
    ``C(n + m - r, n) / m**n``; it vanishes for r > m. ``m`` may be a huge
    integer (compositions of many shuffles are a single ``prod(m_i)``-shuffle).
    """
    return RisingSeqLaw(n, tuple(_shuffle_numerators(n, m)), m**n)


class PackDistribution:
    """Finite-support distribution of the random number of packs m.

    Probabilities are exact, sum to exactly 1, and the support values are
    distinct integers >= 1.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple[int, Fraction]]):
        pairs = sorted(((int(m), Fraction(p)) for m, p in atoms))
        if not pairs:
            raise ValueError("pack distribution needs at least one atom")
        seen: set[int] = set()
        total = Fraction(0)
        for m, p in pairs:
            if m < 1:
                raise ValueError(f"pack count must be >= 1, got {m}")
            if m in seen:
                raise ValueError(f"duplicate pack count {m}")
            if p < 0 or p > 1:
                raise ValueError(f"probability out of [0,1] for m={m}")
            seen.add(m)
            total += p
        if total != 1:
            raise ValueError(f"pack probabilities sum to {total}, not 1")
        self.atoms: tuple[tuple[int, Fraction], ...] = tuple(
            (m, p) for m, p in pairs if p > 0
        )

    @classmethod
    def delta(cls, m: int) -> "PackDistribution":
        """Deterministic pack count m."""
        return cls([(m, Fraction(1))])

    @classmethod
    def from_pairs(cls, pairs: dict[int, Fraction | int]) -> "PackDistribution":
        return cls([(m, Fraction(p)) for m, p in pairs.items()])

    def prob_of(self, m: int) -> Fraction:
        for mm, p in self.atoms:
            if mm == m:
                return p
        return Fraction(0)

    def support(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.atoms)

    def is_single_atom(self) -> bool:
        return len(self.atoms) == 1

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {p}" for m, p in self.atoms)
        return f"PackDistribution({{{inner}}})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackDistribution):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)


def inverse_square_pack(n: int) -> PackDistribution:
    """Pack counts ``floor(e**i)`` weighted proportionally to ``1/i**2``.

    The support runs over i = 1..floor(log n), so the law depends on the deck
    size. Its log pack count has slowly growing mean and much faster growing
    variance, which makes it the standard stress case for the condition
    checkers in :mod:`riffle.cutoff`.
    """
    top = int(math.floor(math.log(n)))
    if top < 1:
        raise ValueError(f"deck size {n} too small for this family")
    weights = {_floor_exp(i): Fraction(1, i * i) for i in range(1, top + 1)}
    norm = sum(weights.values())
    return PackDistribution([(m, w / norm) for m, w in weights.items()])


def _floor_exp(i: int) -> int:
    # floor(e**i) computed safely for any i via Decimal.
    from decimal import Decimal, getcontext

    ctx = getcontext().copy()
    ctx.prec = max(30, int(i * 0.45) + 20)
    return int(ctx.exp(Decimal(i)))


@dataclass(frozen=True)
class ProductLaw:
    """Exact law of the product of i.i.d. pack counts, keyed by product value."""

    atoms: dict[int, Fraction]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for v, p in self.atoms.items():
            if v < 1:
                raise ValueError(f"product value must be >= 1, got {v}")
            if p < 0:
                raise ValueError(f"negative probability for product {v}")
            total += p
        if total != 1:
            raise ValueError(f"product law has total mass {total}, not 1")


def product_laws(p: PackDistribution) -> Iterator[tuple[dict[int, int], int]]:
    """Laws of the product of k independent draws from p, for k = 0, 1, 2, ...

    Step k is ``(weights, den)``: product v has probability weights[v] / den,
    with den = q**k for q the lcm of p's denominators. Step k is step k - 1
    convolved with p, colliding products (2*6 = 3*4) merged. A step of more
    than ``RIFFLE_MAX_PRODUCT_ATOMS`` products (default 1,000,000) raises
    :class:`SizeGuardError`.
    """
    limit = int(os.environ.get(_MAX_PRODUCT_ATOMS_ENV) or 1_000_000)
    step, q = _integer_atoms(p)
    weights, den = {1: 1}, 1
    while True:
        yield weights, den
        nxt: dict[int, int] = {}
        for v, w in weights.items():
            for m, c in step:
                key = v * m
                if key in nxt:
                    nxt[key] += w * c
                else:
                    nxt[key] = w * c
                    if len(nxt) > limit:
                        raise SizeGuardError(f"product law would exceed {limit} atoms")
        weights, den = nxt, den * q


def _integer_atoms(p: PackDistribution) -> tuple[list[tuple[int, int]], int]:
    """p as integer weights over q, the lcm of its denominators."""
    q = math.lcm(*(w.denominator for _, w in p.atoms))
    return [(m, w.numerator * (q // w.denominator)) for m, w in p.atoms], q


def product_power(p: PackDistribution, k: int) -> ProductLaw:
    """Law of the product of k independent draws from p, as fractions."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    weights, den = next(islice(product_laws(p), k, None))
    return ProductLaw({v: Fraction(w, den) for v, w in weights.items()})


def _scaled_atoms(n: int, atoms: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], int]:
    """``(scaled, top**n)``: each atom (m, w) as (m, w * (top / m)**n), top = lcm(m)."""
    top = math.lcm(*(m for m, _ in atoms))
    return [(m, w * (top // m) ** n) for m, w in atoms], top**n


def _pack_moments(n: int, p: PackDistribution) -> tuple[list[int], int]:
    """``(x, d)``: E[m**(i - n)] = x[i] / d for i = 0..n, where p's integer weights
    w over q give ``x[i] = sum(w * (top / m)**n * m**i)`` and ``d = q * top**n``."""
    atoms, q = _integer_atoms(p)
    atoms, scale = _scaled_atoms(n, atoms)
    ms, terms = [m for m, _ in atoms], [w for _, w in atoms]
    x = [sum(terms)]
    for _ in range(n):
        terms = list(map(mul, terms, ms))
        x.append(sum(terms))
    return x, q * scale


def _moments_pay(n: int, atoms: int, laws: int = 1) -> bool:
    """Whether ``laws`` moment evaluations cost less than mixing ``atoms`` atoms.

    The chain makes n small multiply-divides of a big integer per atom, the
    moment evaluator about n**2 / 2 multiply-adds per law, so the moments
    pay once ``atoms * n > laws * n**2 / 2``. This is the one comparison of
    a product-law atom count with n.
    """
    return 2 * atoms > laws * n


def k_step_laws(n: int, p: PackDistribution, start: int = 0) -> Iterator[RisingSeqLaw]:
    """Deck laws after k = start, start + 1, ... successive p-shuffles.

    k independent p-shuffles compose into a single shuffle with the product
    pack count M_k, so law k is the product-law mixture of m-shuffle laws.
    Steps are built and mixed (:func:`mixture_of_m_shuffles`) until the
    first whose atoms make :func:`_moments_pay` hold; the atom count never
    falls as k grows, so from that step on no product law is built:
    E[M_k**(i - n)] = E[m**(i - n)]**k, so law k is evaluated from
    ``x[i]**k`` over ``d**k`` (:func:`_pack_moments`), with ``pow`` for the
    first k and one multiply per moment after it.
    The product-law size guard bounds the atoms actually built.
    """
    if n < 1:
        raise ValueError(f"deck size must be >= 1, got {n}")
    if start < 0:
        raise ValueError(f"k must be >= 0, got {start}")
    for k, (weights, den) in enumerate(product_laws(p)):
        if _moments_pay(n, len(weights)):
            break
        if k >= start:
            yield mixture_of_m_shuffles(n, weights, den)
    x, d = _pack_moments(n, p)
    k = max(k, start)
    v, den = [pow(a, k) for a in x], d**k
    while True:
        yield RisingSeqLaw(n, *_moment_numerators(n, v, den))
        v, den = list(map(mul, v, x)), den * d


def law_after_k(n: int, p: PackDistribution, k: int) -> RisingSeqLaw:
    """Exact deck law after k successive p-shuffles of the ordered deck."""
    return next(k_step_laws(n, p, k))


def mixture_of_m_shuffles(n: int, weights: dict[int, int], den: int) -> RisingSeqLaw:
    """Mixture sum(w / den * m_shuffle_law(n, m)) for integer weights w summing to den.

    The m-shuffle numerators of each atom are scaled to ``den * lcm(m)**n``
    and added; the law's one gcd is the only reduction.
    """
    atoms, scale = _scaled_atoms(n, [(m, w) for m, w in weights.items() if w])
    nums = [0] * n
    for m, w in atoms:
        nums = [a + c for a, c in zip(nums, _shuffle_numerators(n, m, w))]
    return RisingSeqLaw(n, tuple(nums), den * scale)


def _moment_numerators(n: int, v: list[int], den: int) -> tuple[list[int], int]:
    """Class numerators of the law with E[M**(i - n)] = v[i] / den, over ``den``.

    With L the linear map x**i -> v[i] and y^(j) = y(y + 1)...(y + j - 1),
    class s + 1 has probability N(s) / (den * n!), N(s) = L((x - s)^(n)). As
    (z - 1)^(j) - z^(j) = -j * z^(j-1), its forward differences are
    Delta**d N(0) = (-1)**d * n! / (n - d)! * u[n - d], u[j] = L(x^(j)) =
    E_j[0], where E_0[a] = v[a] and E_(j+1)[a] = E_j[a + 1] + j * E_j[a].
    v must come from a mixture of integer pack counts, v[i] = sum(w * m**i):
    then u[j] = sum(w * m^(j)) is a multiple of j!, so Delta**d N(0) / n!
    is the integer (-1)**d * u[n - d] / (n - d)!, and summing that
    difference table gives N(0..n-1) / n!, the chain's own numerators.
    Apart from those n + 1 exact divisions, every step adds big integers or
    multiplies one by a small integer.
    """
    u, e = [], v
    for j in range(n + 1):
        u.append(e[0])
        e = [b + j * a for a, b in zip(e, e[1:])]
    diffs = [(-1) ** d * (u[n - d] // math.factorial(n - d)) for d in range(n + 1)]
    nums = []
    for _ in range(n):
        nums.append(diffs[0])
        diffs = [a + b for a, b in zip(diffs, diffs[1:])]
    return nums, den


def tv_to_uniform(law: ClassNumerators) -> Fraction:
    """Exact total variation distance between a class law and the uniform deck.

    TV is the mass the law puts above uniform less uniform's mass there, plus
    half of any mass the law lacks (Bayer & Diaconis 1992). Class r is above
    uniform iff ``num * n! > den``, that is iff ``num > den // n!``, so only
    those classes take a big multiply:
    ``(sum(count * num) * n! - den * sum(count)) / (den * n!) + (1 - mass) / 2``
    over them.
    """
    nfact = math.factorial(law.n)
    floor = law.den // nfact
    above = count = 0
    for c, x in zip(eulerian_row(law.n).counts, law.nums):
        if x > floor:
            above += c * x
            count += c
    tv = Fraction(above * nfact - law.den * count, law.den * nfact)
    return tv if law.mass == 1 else tv + (1 - law.mass) / 2


def tail_set_gap(n: int, m: int, r: int) -> Fraction:
    """Uniform-minus-shuffle probability of the upper tail set of classes.

    The set is all arrangements with at least ``r`` rising sequences; the
    returned signed rational is nonnegative for every m-shuffle.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}, got {r}")
    law = m_shuffle_law(n, m)
    nfact = math.factorial(n)
    counts = eulerian_row(n).counts[r - 1 :]
    total = sum(c * (law.den - x * nfact) for c, x in zip(counts, law.nums[r - 1 :]))
    return Fraction(total, law.den * nfact)


class WindowGap(NamedTuple):
    gap: Fraction
    empty: bool


def window_set_gap(n: int, m: int, k: int) -> WindowGap:
    """Uniform-minus-k-shuffle mass of the high-r window defined by (n, m).

    The window collects classes with r in ``[n/2 - sqrt(n)/(24c) + n**(1/4), n]``
    where ``c = m * n**(-3/2)``; the law evaluated on it is the k-shuffle law,
    which lets callers scan the infimum over k <= m. An empty window (lower
    bound beyond n) yields gap 0 with the ``empty`` flag set.
    """
    if m < 1 or k < 1:
        raise ValueError("pack counts must be >= 1")
    c = m * n ** (-1.5)
    lower = n / 2 - math.sqrt(n) / (24 * c) + n**0.25
    r_min = max(1, math.ceil(lower))
    if r_min > n:
        return WindowGap(Fraction(0), True)
    return WindowGap(tail_set_gap(n, k, r_min), False)


def law_to_json(law: ClassNumerators) -> str:
    """Serialize a class law with exact decimal-string fields (never floats)."""
    counts = eulerian_row(law.n).counts
    entries = [
        {
            "r": r,
            "count": int_to_decimal(c),
            "prob_num": int_to_decimal(q.numerator),
            "prob_den": int_to_decimal(q.denominator),
        }
        for r, (c, q) in enumerate(zip(counts, law.class_prob), 1)
    ]
    return json.dumps({"n": law.n, "entries": entries}, separators=(",", ":"))


def law_from_json(text: str) -> RisingSeqLaw:
    data = json.loads(text)
    n = int(data["n"])
    probs = [Fraction(0)] * n
    for entry in data["entries"]:
        probs[int(entry["r"]) - 1] = Fraction(
            decimal_to_int(entry["prob_num"]), decimal_to_int(entry["prob_den"])
        )
    return RisingSeqLaw.from_probs(n, probs)
