"""Continuous-time shuffling: Poisson-clock deck laws and the unit-time pack law.

The continuous chain performs p-shuffles at the arrival times of a unit-rate
Poisson process. Its deck law at time t is the Poisson-weighted mixture of
the discrete k-step laws, truncated at a certified tail mass. This module
owns the Poisson clock: the float weights, their exact values c_k / D
(:func:`_exact_weights`) and the truncated law. The sums of the k-step laws,
and the rule that picks how they are taken, live behind :func:`riffle.laws._poisson_sums`.
The unit-time view of the same chain is an ordinary p-shuffle for a modified
pack distribution, constructed here as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .combinatorics import SizeGuardError, _check_deck
from .laws import PackDistribution, RisingSeqLaw, _poisson_sums, product_laws, tv_to_uniform

__all__ = [
    "PoissonizedLaw",
    "UnitTimePackLaw",
    "poissonized_law",
    "poissonized_laws",
    "unit_time_pack_law",
]

class PoissonizedLaw(RisingSeqLaw):
    """Deck law of the continuous-time chain at time t, tail-truncated.

    The Poisson(t) mixture of k-step laws for k <= ``truncation_k``. Each
    float Poisson weight enters at its exact dyadic value, so the law (class
    masses summing to ``mass``) is exact and byte-reproducible; its only gap
    to the true time-t law is the discarded tail, below the ``tol`` it was
    built with, its certificate. Construction checks it as a
    :class:`~riffle.laws.RisingSeqLaw` with total ``mass`` in place of 1.
    """

    __slots__ = ("mass", "truncation_k")
    _fields = ("n", "nums", "den", "mass", "truncation_k")

    def __init__(self, n: int, nums: Sequence[int], den: int, mass: Fraction, truncation_k: int) -> None:
        self.mass, self.truncation_k = mass, truncation_k
        super().__init__(n, nums, den)

    def tv_to_uniform(self) -> Fraction:
        """Exact TV distance to uniform of the truncated law.

        The true time-t distance differs from it by at most the discarded
        tail mass, hence by less than the ``tol`` the law was built with.
        """
        return tv_to_uniform(self)


def _poisson_weights(t: float, tol: Fraction) -> list[float]:
    """Float Poisson(t) weights for k = 0..K.

    K is the smallest k whose retained mass, the sum of the exact values of
    the float weights, exceeds 1 - tol. Once a weight underflows to 0 the
    mass cannot grow, so a tol below what the floats can reach is an error.
    """
    weights = [math.exp(-t)]
    mass = Fraction(weights[0])
    while 1 - mass >= tol:
        w = weights[-1] * t / len(weights)
        if w == 0:
            raise ValueError(
                f"Poisson weights at t={t} underflow before their mass reaches "
                f"1 - tol; tolerance {float(tol)} is too small"
            )
        weights.append(w)
        mass += Fraction(w)
    return weights


def _exact_weights(weights: list[float]) -> tuple[list[int], int]:
    """``(c, D)``: float weight k is exactly c[k] / D, and the law's mass sum(c) / D.

    D is the largest dyadic denominator of the weights, or their exact total
    sum(c) where rounding takes it above 1, so that the mass stays at most 1.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    big = max(b for _, b in ratios)
    c = [a * (big // b) for a, b in ratios]
    return c, max(big, sum(c))


def poissonized_laws(
    n: int, p: PackDistribution, ts: Iterable[float], tol: float
) -> Iterator[PoissonizedLaw]:
    """Truncated deck laws of the continuous-time p-shuffle chain at times ts.

    The call checks its inputs, fixes each time's truncation K and exact weights
    (:func:`_exact_weights`) and picks the path of the class numerators and
    denominators (:func:`riffle.laws._poisson_sums`) before any law is built.
    The laws come in input order, each built as the iterator reaches it and
    held nowhere else, so a caller that takes one time at a time holds one
    law at a time.
    """
    ts = [float(t) for t in ts]
    _check_deck(n)
    for t in ts:
        if not 0 <= t <= 700:
            raise ValueError(f"time must be in [0, 700] for float Poisson weights, got {t}")
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")

    plans = [_exact_weights(_poisson_weights(t, Fraction(tol))) for t in ts]
    # map, unlike a generator, keeps no numerators once a law is handed out.
    return map(partial(_truncated_law, n), plans, _poisson_sums(n, p, plans))


def _truncated_law(n: int, plan: tuple[list[int], int], sums: tuple[list[int], int]) -> PoissonizedLaw:
    """The law of one time from its exact weights ``(c, D)`` and its sums."""
    (c, denom), (nums, den) = plan, sums
    return PoissonizedLaw(n, nums, den, Fraction(sum(c), denom), len(c) - 1)


def poissonized_law(n: int, p: PackDistribution, t: float, tol: float) -> PoissonizedLaw:
    """Truncated deck law at time t: the one-time :func:`poissonized_laws`."""
    return next(poissonized_laws(n, p, [t], tol))


class UnitTimePackLaw(NamedTuple):
    """Pack distribution whose p-shuffle equals one unit of continuous time.

    Atom ``l`` carries the probability that the continuous chain performs a
    compound shuffle with total pack count l during one unit of time. The
    atom at l = 1 uses the closed form ``exp(-P(X != 1))``; atoms at l > 1
    come from the Poisson-weighted product laws, truncated at ``j_truncation``
    compound steps with ``discarded_mass`` left over.
    """

    atoms: dict[int, float]
    j_truncation: int
    discarded_mass: float

    def prob_of(self, l: int) -> float:
        return self.atoms.get(l, 0.0)

    def log_moments(self) -> tuple[float, float]:
        """Mean and variance of the log compound pack count.

        Up to the documented truncation error these equal ``mu`` and
        ``sigma^2 + mu^2`` of the underlying pack distribution.
        """
        pairs = [(math.log(l), w) for l, w in sorted(self.atoms.items())]
        mean = math.fsum(w * lg for lg, w in pairs)
        var = math.fsum(w * (lg - mean) ** 2 for lg, w in pairs)
        return mean, var


def unit_time_pack_law(p: PackDistribution, tol: float) -> UnitTimePackLaw:
    """Build the unit-time compound pack distribution for p.

    The compound-step sum is truncated at the smallest J whose discarded
    terms contribute less than ``tol`` to the mass *and* to the first two
    log moments combined, so the moment identities hold within a small
    multiple of tol. The product distribution inside each retained term is
    exact; a single float factor enters per atom at the end.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")
    max_log = math.log(max(p.support()))
    e_inv = math.exp(-1.0)

    # Bound on the mass + mean + second-moment contribution of compound step
    # count j; the inverse factorial underflows harmlessly past j ~ 170.
    bounds = []
    inv_fact = 1.0
    for j in range(1, 200):
        inv_fact /= j
        big = j * max_log
        bounds.append(e_inv * (1.0 + big + big * big) * inv_fact)

    j_trunc = 0
    tail = math.fsum(bounds)
    while tail >= tol:
        j_trunc += 1
        if j_trunc >= len(bounds):
            raise SizeGuardError("compound-step truncation did not converge")
        tail -= bounds[j_trunc - 1]

    base: dict[int, Fraction] = {}
    steps = islice(product_laws(p), 1, j_trunc + 1)
    for j, (weights, den) in enumerate(steps, 1):
        scale = math.factorial(j) * den
        for l, w in weights.items():
            if l > 1:
                base[l] = base.get(l, Fraction(0)) + Fraction(w, scale)

    atoms = {l: e_inv * float(w) for l, w in sorted(base.items())}
    atoms[1] = math.exp(-float(1 - p.prob_of(1)))
    assert atoms[1] >= e_inv
    discarded = max(0.0, 1.0 - math.fsum(atoms.values()))
    return UnitTimePackLaw(atoms=atoms, j_truncation=j_trunc, discarded_mass=discarded)
