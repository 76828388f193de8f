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

import math
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import mul
from typing import Iterable, Iterator, Sequence

from .combinatorics import SizeGuardError, _check_deck, decimal_to_int, eulerian_row, int_to_decimal

__all__ = [
    "PackDistribution",
    "ProductLaw",
    "RisingSeqLaw",
    "inverse_square_pack",
    "k_step_laws",
    "k_step_tvs",
    "law_after_k",
    "law_from_json",
    "law_to_json",
    "m_shuffle_law",
    "mixture_of_m_shuffles",
    "product_laws",
    "product_power",
    "tail_set_gap",
    "tv_to_uniform",
]

#: Size guard: :func:`product_laws` refuses a step of more products than this.
MAX_PRODUCT_ATOMS = 1_000_000


class _Record:
    """Equality, hashing and repr by the ``_fields`` a subclass names, within one class."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class RisingSeqLaw(_Record):
    """Probability law on deck arrangements, constant on rising-seq classes.

    ``nums[i] / den`` is the probability of each arrangement with r = i + 1
    rising sequences; construction reduces it to lowest terms with one gcd.
    A list passed as ``nums`` is taken over and reduced in place, so that the
    numerators exist once (the caller must not use it again); any other
    sequence is copied first and never changed. ``nums`` is kept as a tuple.
    ``mass`` is the exact total ``sum(count * num) / den``: 1 here, less for
    a subclass that stores its own.

    Construction checks the reduced numerators with :func:`_fold`, which
    raises ValueError for a law that is not one, and keeps its sum and count
    of the classes above uniform as ``_above`` for :func:`tv_to_uniform`.
    """

    __slots__ = ("n", "nums", "den", "_above")
    _fields = ("n", "nums", "den")
    mass = Fraction(1)

    def __init__(self, n: int, nums: Sequence[int], den: int) -> None:
        self.n, self.nums, self.den = n, nums, den
        self.__post_init__()  # looked up on the class, so that it can be wrapped there

    def __post_init__(self) -> None:
        nums = self.nums if type(self.nums) is list else list(self.nums)
        # A den below 1 (g 0 or 1) is left for the fold to report.
        g = math.gcd(self.den, *nums)
        if g > 1:
            for i, x in enumerate(nums):
                nums[i] = x // g
            self.den //= g
        self.nums = tuple(nums)
        self._above = _fold(self.n, self.nums, self.den, self.mass)

    @property
    def class_prob(self) -> tuple[Fraction, ...]:
        """Per-arrangement probability of each class r = 1..n, as fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def prob(self, r: int) -> Fraction:
        """Probability of one arrangement with r rising sequences."""
        if not 1 <= r <= self.n:
            raise ValueError(f"r must be in 1..{self.n}, got {r}")
        return Fraction(self.nums[r - 1], self.den)

    @staticmethod
    def from_probs(n: int, probs: Iterable[Fraction]) -> "RisingSeqLaw":
        """Law of total mass 1 from exact per-arrangement probabilities, class r = 1..n in order."""
        probs = [Fraction(q) for q in probs]
        den = math.lcm(*(q.denominator for q in probs))
        return RisingSeqLaw(n, [q.numerator * (den // q.denominator) for q in probs], den)

    def class_mass(self, r: int) -> Fraction:
        """Total probability of the class of arrangements with r rising seqs."""
        return self.prob(r) * eulerian_row(self.n)[r - 1]  # prob rejects r outside 1..n


def _fold(n: int, nums: Iterable[int], den: int, mass: Fraction = Fraction(1)) -> tuple[int, int]:
    """Check class numerators over ``den`` as a law of total ``mass``, in one pass.

    Returns ``(sum(count * num), sum(count))`` over the classes above
    uniform, ``num > den // n!``, which the checks make a prefix; a common
    factor of nums and den does not move it. ``nums`` may be any iterable:
    each numerator is used once as it comes, and none is kept. Raises
    ValueError unless n >= 1, there are n numerators over a positive den,
    the law is nonincreasing in r (as every m-shuffle law and every mixture
    of them is), lies in [0, 1] and has total ``mass``, all checked in
    integers. The first failing check in that order is the one reported,
    so a stream gives the message its list would.
    """
    _check_deck(n)
    shape = f"law for n={n} needs {n} class entries over a positive den"
    if den < 1:
        raise ValueError(shape)
    counts, floor = eulerian_row(n), den // math.factorial(n)
    nums = iter(nums)
    first = last = next(nums, None)
    if first is None:
        raise ValueError(shape)
    total, rise, cut = 0, None, None
    for r, (c, x) in enumerate(zip(counts, chain((first,), nums)), 1):
        if x > last and rise is None:
            rise = r
        if cut is None and x <= floor:
            cut, above = r - 1, total
        total += c * x
        last = x
    if cut is None:
        cut, above = n, total
    if r < n or next(nums, None) is not None:
        raise ValueError(shape)
    if rise is not None:
        raise ValueError(f"class probability increases at r={rise}")
    if first > den or last < 0:
        raise ValueError("class probability out of [0,1]")
    if total * mass.denominator != den * mass.numerator:
        raise ValueError(f"law for n={n} has total mass {Fraction(total, den)}, not {mass}")
    return above, sum(counts[:cut])


def _shuffle_numerators(n: int, m: int, scale: int = 1) -> Iterator[int]:
    """``scale * C(n + m - r, n)`` for r = 1..n: m-shuffle numerators over m**n.

    Each entry comes from the one before by the exact ratio
    ``(m - r) / (n + m - r)``, a small multiply and divide, so only the first
    is a binomial; the entries vanish from r = m + 1 on. They come one at a
    time, each made as it is taken.
    """
    _check_deck(n)
    if m < 1:
        raise ValueError(f"pack count must be >= 1, got {m}")
    first = scale * math.comb(n + m - 1, n)
    return accumulate(range(1, n), lambda x, r: x * (m - r) // (n + m - r), initial=first)


def m_shuffle_law(n: int, m: int) -> RisingSeqLaw:
    """Exact law of the deck after one m-shuffle of the ordered deck.

    The probability of any arrangement with r rising sequences is
    ``C(n + m - r, n) / m**n``; it vanishes for r > m. ``m`` may be a huge
    integer (compositions of many shuffles are a single ``prod(m_i)``-shuffle).
    """
    return RisingSeqLaw(n, list(_shuffle_numerators(n, m)), m**n)


class PackDistribution(_Record):
    """Finite-support distribution of the random number of packs m.

    Probabilities are exact, sum to exactly 1, and the support values are
    distinct integers >= 1. ``atoms`` takes (m, probability) pairs in any
    order and keeps those of positive probability, sorted by m, as a tuple.
    """

    __slots__ = _fields = ("atoms",)

    def __init__(self, atoms: Iterable[tuple[int, Fraction]]) -> None:
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
        self.atoms = tuple((m, p) for m, p in pairs if p > 0)

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


def inverse_square_pack(n: int) -> PackDistribution:
    """Pack counts ``floor(e**i)`` weighted proportionally to ``1/i**2``.

    The support runs over i = 1..floor(log n), so the law depends on the deck
    size. Its log pack count has slowly growing mean and much faster growing
    variance, which makes it the standard stress case for the condition
    checkers in :mod:`riffle.cutoff`.
    """
    if n < 3:
        raise ValueError(f"deck size {n} too small for this family")
    top = int(math.floor(math.log(n)))
    weights = {_floor_exp(i): Fraction(1, i * i) for i in range(1, top + 1)}
    norm = sum(weights.values())
    return PackDistribution([(m, w / norm) for m, w in weights.items()])


def _floor_exp(i: int) -> int:
    # floor(e**i) computed safely for any i via Decimal.
    from decimal import Decimal, getcontext

    ctx = getcontext().copy()
    ctx.prec = max(30, int(i * 0.45) + 20)
    return int(ctx.exp(Decimal(i)))


class ProductLaw(_Record):
    """Exact law of the product of i.i.d. pack counts, keyed by product value."""

    __slots__ = _fields = ("atoms",)

    def __init__(self, atoms: dict[int, Fraction]) -> None:
        total = Fraction(0)
        for v, p in atoms.items():
            if v < 1:
                raise ValueError(f"product value must be >= 1, got {v}")
            if p < 0:
                raise ValueError(f"negative probability for product {v}")
            total += p
        if total != 1:
            raise ValueError(f"product law has total mass {total}, not 1")
        self.atoms = atoms


def product_laws(p: PackDistribution) -> Iterator[tuple[dict[int, int], int]]:
    """Laws of the product of k independent draws from p, for k = 0, 1, 2, ...

    Step k is ``(weights, den)``: product v has probability weights[v] / den,
    with den = q**k for q the lcm of p's denominators. Step k is step k - 1
    convolved with p, colliding products (2*6 = 3*4) merged. A step of more
    than :data:`MAX_PRODUCT_ATOMS` products raises :class:`SizeGuardError`.
    """
    limit = MAX_PRODUCT_ATOMS
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


def _k_step_numerators(
    n: int, p: PackDistribution, start: int
) -> Iterator[tuple[Iterator[int], int]]:
    """Class numerators and denominator of the law after k = start, start + 1, ... p-shuffles.

    k independent p-shuffles compose into a single shuffle with the product
    pack count M_k, so law k is the product-law mixture of m-shuffle laws.
    Steps are built and mixed (:func:`_mixture_numerators`) until the
    first whose atoms make :func:`_moments_pay` hold; the atom count never
    falls as k grows, so from that step on no product law is built:
    E[M_k**(i - n)] = E[m**(i - n)]**k, so law k is evaluated from
    ``x[i]**k`` over ``d**k`` (:func:`_pack_moments`), with ``pow`` for the
    first k and one multiply per moment after it.
    The product-law size guard bounds the atoms actually built. Each law's
    numerators come one class at a time, unreduced, and must be taken
    before the next law is asked for.
    """
    _check_deck(n)
    if start < 0:
        raise ValueError(f"k must be >= 0, got {start}")
    for k, (weights, den) in enumerate(product_laws(p)):
        if _moments_pay(n, len(weights)):
            break
        if k >= start:
            yield _mixture_numerators(n, weights, den)
    x, d = _pack_moments(n, p)
    k = max(k, start)
    v, den = [pow(a, k) for a in x], d**k
    while True:
        yield _moment_numerators(n, list(v)), den  # v is kept for k + 1
        v, den = list(map(mul, v, x)), den * d


def k_step_laws(n: int, p: PackDistribution, start: int = 0) -> Iterator[RisingSeqLaw]:
    """Deck laws after k = start, start + 1, ... successive p-shuffles."""
    for nums, den in _k_step_numerators(n, p, start):
        yield RisingSeqLaw(n, list(nums), den)


def k_step_tvs(n: int, p: PackDistribution, start: int = 0) -> Iterator[Fraction]:
    """TV distances to uniform after k = start, start + 1, ... successive p-shuffles.

    Each is ``tv_to_uniform`` of the :func:`k_step_laws` law, taken by
    :func:`_fold` from the numerators as they come, with every check of the
    law's constructor; no law is held.
    """
    for nums, den in _k_step_numerators(n, p, start):
        yield _tv(n, den, _fold(n, nums, den), Fraction(1))


def law_after_k(n: int, p: PackDistribution, k: int) -> RisingSeqLaw:
    """Exact deck law after k successive p-shuffles of the ordered deck."""
    return next(k_step_laws(n, p, k))


def _mixture_numerators(n: int, weights: dict[int, int], den: int) -> tuple[Iterator[int], int]:
    """Numerators of sum(w / den * m_shuffle_law(n, m)) class by class, and their denominator.

    The m-shuffle numerators of each atom are scaled to ``den * lcm(m)**n``;
    every atom's ratio chain advances one class at a time, and the class
    numerator is their sum.
    """
    atoms, scale = _scaled_atoms(n, [(m, w) for m, w in weights.items() if w])
    return map(sum, zip(*(_shuffle_numerators(n, m, w) for m, w in atoms))), den * scale


def mixture_of_m_shuffles(n: int, weights: dict[int, int], den: int) -> RisingSeqLaw:
    """Mixture sum(w / den * m_shuffle_law(n, m)) for integer weights w summing to den."""
    nums, den = _mixture_numerators(n, weights, den)
    return RisingSeqLaw(n, list(nums), den)


def _moment_numerators(n: int, v: list[int]) -> Iterator[int]:
    """Class numerators over den, one class at a time, of the law with E[M**(i - n)] = v[i] / den.

    The den is the caller's own: it does not enter the numerators.

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
    multiplies one by a small integer. Both tables are built in place, E_j
    in the list v, which is taken over, so they hold n + 2 integers at most;
    each class is yielded as soon as its sum is final.
    """
    diffs = []
    for j in range(n + 1):
        diffs.append((-1) ** (n - j) * (v[0] // math.factorial(j)))
        for a in range(n - j):
            v[a] = v[a + 1] + j * v[a]
        v.pop()
    diffs.reverse()
    for _ in range(n):
        yield diffs[0]
        for a in range(len(diffs) - 1):
            diffs[a] += diffs[a + 1]
        diffs.pop()


def tv_to_uniform(law: RisingSeqLaw) -> Fraction:
    """Exact total variation distance between a class law and the uniform deck."""
    return _tv(law.n, law.den, law._above, law.mass)


def _tv(n: int, den: int, fold: tuple[int, int], mass: Fraction) -> Fraction:
    """TV to uniform of a law of total ``mass`` over ``den`` from its :func:`_fold`.

    TV is the mass the law puts above uniform less uniform's mass there, plus
    half of any mass the law lacks (Bayer & Diaconis 1992). With ``fold =
    (above, count) = (sum(count * num), sum(count))`` over the classes above
    uniform, TV is ``(above * n! - den * count) / (den * n!) + (1 - mass) / 2``.
    """
    above, count = fold
    nfact = math.factorial(n)
    tv = Fraction(above * nfact - den * count, den * nfact)
    return tv if mass == 1 else tv + (1 - mass) / 2


def tail_set_gap(n: int, m: int, r: int) -> Fraction:
    """Uniform-minus-shuffle probability of the upper tail set of classes.

    The set is all arrangements with at least ``r`` rising sequences; the
    returned signed rational is nonnegative for every m-shuffle.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}, got {r}")
    law = m_shuffle_law(n, m)
    nfact = math.factorial(n)
    counts = eulerian_row(n)[r - 1 :]
    total = sum(c * (law.den - x * nfact) for c, x in zip(counts, law.nums[r - 1 :]))
    return Fraction(total, law.den * nfact)


def law_to_json(law: RisingSeqLaw) -> str:
    """Serialize a class law with exact decimal-string fields (never floats)."""
    import json

    counts = eulerian_row(law.n)
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
    """Parse :func:`law_to_json` text; a malformed document raises ValueError.

    The document is an object: n a JSON integer >= 1, and a list of entries
    holding each class r = 1..n exactly once, each with decimal digit strings
    for ``count`` (the class's Eulerian count), ``prob_num`` and a positive
    ``prob_den``.
    """
    import json

    data = json.loads(text)
    n = data.get("n") if isinstance(data, dict) else None
    if type(n) is not int or n < 1:
        raise ValueError(f"law needs a deck size n that is a JSON integer >= 1, got n={n!r}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"law for n={n} needs a list of entries, got {entries!r}")
    fields: dict[int, tuple[int, int, int]] = {}
    for entry in entries:
        r = entry.get("r") if isinstance(entry, dict) else None
        if type(r) is not int or not 1 <= r <= n or r in fields:
            raise ValueError(f"law for n={n} has a bad or repeated class r={r!r}")
        fields[r] = tuple(_decimal_field(entry, key, r) for key in ("count", "prob_num", "prob_den"))
    if len(fields) != n:
        raise ValueError(f"law for n={n} needs an entry for each class r = 1..{n}")
    probs = []
    for r, count in enumerate(eulerian_row(n), 1):
        written, num, den = fields[r]
        if written != count:
            raise ValueError(f"class r={r} of n={n} has count {written}, not {count}")
        if den < 1:
            raise ValueError(f"class r={r} needs a positive prob_den, got {den}")
        probs.append(Fraction(num, den))
    return RisingSeqLaw.from_probs(n, probs)


def _decimal_field(entry: dict, key: str, r: int) -> int:
    """The decimal-string field ``key`` of class r's entry, plain digits, as an int."""
    text = entry.get(key)
    # int() alone would also take " +16", "1_6" and a JSON number.
    if type(text) is not str or not (text.isascii() and text.isdigit()):
        raise ValueError(f"class r={r} needs {key} as a decimal string, got {text!r}")
    return decimal_to_int(text)
