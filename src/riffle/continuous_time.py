"""Continuous-time shuffling: Poisson-clock deck laws and their parameters.

The continuous chain performs p-shuffles at the arrival times of a unit-rate
Poisson process. Its deck law at time t is the Poisson-weighted mixture of
the discrete k-step laws; the mixture is truncated at a certified tail mass.
The unit-time view of the same chain is an ordinary p-shuffle for a modified
pack distribution, constructed here as well.

Since E[M_k**(i - n)] = E[m**(i - n)]**k (see :mod:`riffle.laws`), the
truncated mixture's moments are sum(pi_k * E[m**(i - n)]**k) over k <= K:
one polynomial of degree K in each moment of p. :func:`poissonized_laws`
evaluates it by Horner and turns it into class numerators once per time,
with no k-step law built, or adds the k-step laws up one by one, as
:func:`~riffle.laws._moments_pay` decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from typing import Iterable, NamedTuple

from .cutoff import _log_deck_size, log_moments
from .laws import (
    ClassNumerators,
    PackDistribution,
    SizeGuardError,
    _moment_numerators,
    _moments_pay,
    _pack_moments,
    k_step_laws,
    product_laws,
    tv_to_uniform,
)

__all__ = [
    "ContinuousCutoffReport",
    "PoissonizedLaw",
    "PoissonizedTv",
    "UnitTimePackLaw",
    "continuous_cutoff_report",
    "poissonized_law",
    "poissonized_laws",
    "unit_time_pack_law",
]

class PoissonizedTv(NamedTuple):
    exact: Fraction
    value: float
    certificate: float


@dataclass(frozen=True)
class PoissonizedLaw(ClassNumerators):
    """Deck law of the continuous-time chain at time t, tail-truncated.

    Each float Poisson weight enters at its exact dyadic value, so the law
    (class masses summing to ``mass``) is exact and byte-reproducible; its
    only gap to the true time-t law is the discarded tail, below ``tol``.
    Construction checks, in integers, the same properties as
    :class:`~riffle.laws.RisingSeqLaw` with total ``mass`` in place of 1.
    """

    n: int
    t: float
    tol: float
    truncation_k: int
    nums: tuple[int, ...]
    den: int
    mass: Fraction
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check(self.mass)

    def tv_to_uniform(self) -> PoissonizedTv:
        """TV distance to uniform of the truncated law, with certificate.

        The true time-t distance differs from the exact value by at most the
        discarded tail mass, hence by less than the stored tolerance.
        """
        exact = tv_to_uniform(self)
        return PoissonizedTv(exact, float(exact), self.tol)


def _poisson_weights(t: float, tol: Fraction) -> tuple[list[float], Fraction]:
    """Float Poisson(t) weights for k = 0..K and their exact total mass.

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
    return weights, mass


def poissonized_laws(
    n: int, p: PackDistribution, ts: Iterable[float], tol: float
) -> list[PoissonizedLaw]:
    """Truncated deck laws of the continuous-time p-shuffle chain at times ts.

    Each time's truncation K comes from its float weights alone
    (:func:`_poisson_weights`), before any law is built. Then one of two
    paths gives every time's class numerators and denominator:
    :func:`_moment_sums` when the product laws of k = 0..K hold enough atoms
    in all for ``len(ts)`` moment evaluations to pay
    (:func:`~riffle.laws._moments_pay`; the product laws are built only until
    they do), and :func:`_per_k_sums` otherwise. Both give the same laws.
    """
    ts = [float(t) for t in ts]
    if n < 1:
        raise ValueError(f"deck size must be >= 1, got {n}")
    for t in ts:
        if not 0 <= t <= 700:
            raise ValueError(f"time must be in [0, 700] for float Poisson weights, got {t}")
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")

    plans = [_poisson_weights(t, Fraction(tol)) for t in ts]
    weight_lists = [weights for weights, _ in plans]
    steps = max(map(len, weight_lists), default=0)
    atoms = accumulate(len(weights) for weights, _ in islice(product_laws(p), steps))
    sums = _moment_sums if any(_moments_pay(n, a, len(ts)) for a in atoms) else _per_k_sums
    out = []
    for t, (weights, mass), (acc, den) in zip(ts, plans, sums(n, p, weight_lists)):
        if mass > 1:
            # Float weights can overshoot 1 by rounding; rescale exactly so
            # the mass certificate stays valid.
            acc = [x * mass.denominator for x in acc]
            den, mass = den * mass.numerator, Fraction(1)
        out.append(
            PoissonizedLaw(n, t, float(tol), len(weights) - 1, tuple(acc), den, mass, tuple(weights))
        )
    return out


def _per_k_sums(
    n: int, p: PackDistribution, weight_lists: list[list[float]]
) -> list[tuple[list[int], int]]:
    """Numerators and denominator per time: each k-step law is built once and
    added into the integer accumulator of every time whose K is at least k."""
    accs = [([0] * n, 1) for _ in weight_lists]
    steps = max(map(len, weight_lists), default=0)
    for k, law in zip(range(steps), k_step_laws(n, p)):
        for i, weights in enumerate(weight_lists):
            if k < len(weights):
                a, b = weights[k].as_integer_ratio()
                acc, acc_den = accs[i]
                den = math.lcm(acc_den, b * law.den)
                up, scale = den // acc_den, den // (b * law.den) * a
                accs[i] = [x * up + y * scale for x, y in zip(acc, law.nums)], den
    return accs


def _moment_sums(
    n: int, p: PackDistribution, weight_lists: list[list[float]]
) -> list[tuple[list[int], int]]:
    """Numerators and denominator per time, from the moments of p alone.

    With the weights at their exact dyadic values pi_k = c_k / B and
    E[m**(i - n)] = x[i] / d (:func:`~riffle.laws._pack_moments`), the
    time's E[M**(i - n)] is ``sum(c_k * d**(K - k) * x[i]**k) / (B * d**K)``:
    one polynomial in x[i], whose coefficients are built once per time and
    evaluated by Horner for every i.
    """
    x, d = _pack_moments(n, p)
    out = []
    for weights in weight_lists:
        ratios = [w.as_integer_ratio() for w in weights]
        big = max(b for _, b in ratios)
        last = len(ratios) - 1
        coeffs = [a * (big // b) * d ** (last - k) for k, (a, b) in enumerate(ratios)]
        v = [reduce(lambda acc, c: acc * xi + c, reversed(coeffs)) for xi in x]
        out.append(_moment_numerators(n, v, big * d**last))
    return out


def poissonized_law(
    n: int, p: PackDistribution, t: float, tol: float
) -> PoissonizedLaw:
    """Truncated deck law at time t: the one-time :func:`poissonized_laws`."""
    return poissonized_laws(n, p, [t], tol)[0]


@dataclass(frozen=True)
class UnitTimePackLaw:
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


@dataclass(frozen=True)
class ContinuousCutoffReport:
    """Cutoff parameters of the continuous-time chain at one deck size.

    ``criterion_value`` is ``log n / mu``; the continuous family has a cutoff
    exactly when this diverges along the deck-size sequence, which a single n
    cannot decide, so the value is reported for trend inspection. For a
    single-atom pack the window also takes the ``sqrt(t_n)`` form, exposed
    separately.
    """

    n: int
    mu: float
    sigma: float
    t_n: float
    b_n: float
    criterion_value: float
    single_atom: bool
    window_sqrt_tn: float | None


def continuous_cutoff_report(p: PackDistribution, n: int) -> ContinuousCutoffReport:
    """Continuous-time cutoff parameters for the p-shuffle chain at size n."""
    mu, sigma = log_moments(p)
    if mu <= 0:
        raise ValueError("pack distribution concentrated at 1 never mixes")
    log_n = _log_deck_size(n)
    t_n = 3 * log_n / (2 * mu)
    b_n = (1.0 / mu) * max((mu + sigma) * math.sqrt(log_n / mu), 1.0)
    single = p.is_single_atom()
    return ContinuousCutoffReport(
        n=n,
        mu=mu,
        sigma=sigma,
        t_n=t_n,
        b_n=b_n,
        criterion_value=log_n / mu,
        single_atom=single,
        window_sqrt_tn=math.sqrt(t_n) if single else None,
    )
