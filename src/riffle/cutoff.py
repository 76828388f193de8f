"""Scalar cutoff machinery: critical times, windows and condition checkers,
in discrete and continuous time.

All logarithms are natural; the CLI converts to base 2 for display where that
reads better. Condition checkers return plain numbers for caller-chosen deck
sizes. The library never claims an asymptotic limit holds: trends over an
n-grid are for the caller (or the CLI) to inspect.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .laws import PackDistribution, m_shuffle_law

__all__ = [
    "ContinuousCutoffReport",
    "CutoffReport",
    "LogMoments",
    "TruncationReport",
    "continuous_cutoff_report",
    "cutoff_report",
    "cutoff_shape",
    "gaussian_row_deviation",
    "hyp_check",
    "lindeberg_value",
    "log_moments",
    "nearest_step",
    "second_eigenvalue",
    "step_gap",
    "truncation_report",
    "uniform_crossing_asymptotic",
    "uniform_crossing_exact",
]

_FOUR_SQRT_SIX = 4.0 * math.sqrt(6.0)


def cutoff_shape(x: float) -> float:
    """Standard-normal mass of ``[-x / (4*sqrt(3)), x / (4*sqrt(3))]``.

    This is the limiting shape of the TV-distance profile around the cutoff
    time. Evaluated through ``math.erf``, whose relative error is a few ulps,
    so the result is accurate to well under 1e-12 in relative terms.
    ``cutoff_shape(inf)`` is 1.
    """
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    return math.erf(x / _FOUR_SQRT_SIX)


class LogMoments(NamedTuple):
    mu: float
    sigma: float


def log_moments(p: PackDistribution) -> LogMoments:
    """Mean and standard deviation of the log pack count, in nats.

    Probabilities stay exact until each term is formed, and sums use exact
    float summation, so the results are accurate to a few ulps. A single-atom
    distribution yields sigma exactly 0, and p concentrated at 1 yields
    mu exactly 0 (no mixing); callers decide whether those are errors.
    """
    logs = [(math.log(m), float(w)) for m, w in p.atoms]
    mu = math.fsum(w * lg for lg, w in logs)
    var = math.fsum(w * (lg - mu) ** 2 for lg, w in logs)
    return LogMoments(mu, math.sqrt(var))


def second_eigenvalue(p: PackDistribution) -> tuple[Fraction, Fraction | None]:
    """Second-largest eigenvalue of the p-shuffle and the relaxation time.

    The eigenvalue is the exact rational ``sum p(m) / m``; the relaxation time
    is its inverse spectral gap. For p concentrated at 1 the chain does not
    move, the eigenvalue is 1, and the relaxation time is reported as None
    (infinite).
    """
    beta = Fraction(0)
    for m, w in p.atoms:
        beta += w / m
    if beta == 1:
        return beta, None
    return beta, 1 / (1 - beta)


def xi_values(p: PackDistribution) -> tuple[float, ...]:
    """Standardized log pack counts (log m - mu) / sigma per support atom."""
    mu, sigma = log_moments(p)
    if sigma == 0:
        raise ValueError("standardization undefined for a single-atom law")
    return tuple((math.log(m) - mu) / sigma for m, _ in p.atoms)


def lindeberg_value(p: PackDistribution, n: int, eps: float) -> float:
    """Tail second moment of the standardized log pack count.

    Computes ``E[xi^2 ; xi^2 > eps * log(n) / mu]`` exactly over the finite
    support. Along a sequence of deck sizes this vanishing for every eps is
    the triangular-array condition that yields the normal-window analysis.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    mu, _, log_n, _ = _critical_time(p, n)
    threshold = eps * log_n / mu
    squares = [xi**2 for xi in xi_values(p)]
    return math.fsum(float(w) * xi2 for (_, w), xi2 in zip(p.atoms, squares) if xi2 > threshold)


class TruncationReport(NamedTuple):
    """Truncated log-moment diagnostics at a truncation level a_n.

    ``ey`` is E[log X ; log X <= a_n] and ``ez2`` is E[min(log X, a_n)^2].
    The three condition ratios are a_n / log n, (log n) * ez2 / (a_n^2 * ey),
    and (log n) / ey; the first should stay bounded and the second should
    shrink while the third grows along a deck-size sequence for the truncated
    critical time ``3 log n / (2 ey)`` to be a genuine cutoff time.
    """

    n: int
    a_n: float
    ey: float
    ez2: float
    ratio_a: float
    ratio_z: float
    ratio_y: float
    t_n_truncated: float


def _log_deck_size(n: int) -> float:
    """log n, which the condition ratios divide by, for a deck size n >= 2."""
    if n < 2:
        raise ValueError(f"deck size must be >= 2, got {n}")
    return math.log(n)


def _critical_time(p: PackDistribution, n: int) -> tuple[float, float, float, float]:
    """``(mu, sigma, log n, t_n)`` with the critical time t_n = 3 log n / (2 mu).

    Both the discrete- and the continuous-time cutoff sit at t_n, so p must
    have mu > 0: a pack distribution concentrated at 1 is an error.
    """
    mu, sigma = log_moments(p)
    if mu <= 0:
        raise ValueError("pack distribution concentrated at 1 never mixes")
    log_n = _log_deck_size(n)
    return mu, sigma, log_n, 3 * log_n / (2 * mu)


def truncation_report(p: PackDistribution, n: int, a_n: float) -> TruncationReport:
    """Truncated moments and condition ratios for truncation level a_n.

    Raises if the small-part mean ``ey`` is zero, which happens exactly when
    p is concentrated at 1 or a_n falls below the smallest positive log pack
    count.
    """
    if a_n <= 0:
        raise ValueError(f"a_n must be > 0, got {a_n}")
    ey_terms = []
    ez2_terms = []
    for m, w in p.atoms:
        lg = math.log(m)
        if lg <= a_n:
            ey_terms.append(float(w) * lg)
        ez2_terms.append(float(w) * min(lg, a_n) ** 2)
    ey = math.fsum(ey_terms)
    ez2 = math.fsum(ez2_terms)
    if ey == 0:
        raise ValueError("E[log X; log X <= a_n] is zero; nothing below a_n")
    log_n = _log_deck_size(n)
    return TruncationReport(
        n=n,
        a_n=a_n,
        ey=ey,
        ez2=ez2,
        ratio_a=a_n / log_n,
        ratio_z=log_n * ez2 / (a_n * a_n * ey),
        ratio_y=log_n / ey,
        t_n_truncated=3 * log_n / (2 * ey),
    )


def hyp_check(p: PackDistribution, n: int, eta: float) -> tuple[float, float]:
    """The two ratios of the weak-moment cutoff hypotheses.

    Returns ``(mu / log n, E[log X ; log X > eta log n] / mu)``. Both should
    tend to zero along a deck-size sequence for the cutoff at
    ``3 log n / (2 mu)`` to follow without second-moment assumptions.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    mu, _, log_n, _ = _critical_time(p, n)
    tail = math.fsum(
        float(w) * math.log(m) for m, w in p.atoms if math.log(m) > eta * log_n
    )
    return mu / log_n, tail / mu


def nearest_step(t: float) -> float:
    """Half-integer rounding used for integer-step snapshots of real times.

    Equals 1/2 on (0, 1/2) and the integer k on [k - 1/2, k + 1/2).
    """
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if t < 0.5:
        return 0.5
    return float(math.floor(t + 0.5))


def step_gap(t: float) -> float:
    """Signed gap ``t - nearest_step(t)``, defined as 1/2 on (0, 1/2)."""
    k = nearest_step(t)
    return 0.5 if t < 0.5 else t - k


def uniform_crossing_exact(n: int, m: int) -> Fraction:
    """Largest class offset h = r - n/2 whose arrangements beat uniform.

    Counts the classes of :func:`~riffle.laws.m_shuffle_law` with
    per-arrangement probability at least 1/n! and returns the largest ``h``
    among them, as an exact (possibly half-integral) rational. They form a
    prefix because the class probability is nonincreasing in r, and the
    r = 1 class always qualifies.
    """
    law = m_shuffle_law(n, m)
    nfact = math.factorial(n)
    r_star = sum(num * nfact >= law.den for num in law.nums)
    return Fraction(2 * r_star - n, 2)


def uniform_crossing_asymptotic(n: int, m: int) -> float:
    """First-order location of the crossing offset: ``-sqrt(n) / (24 c)``."""
    c = m * n ** (-1.5)
    return -math.sqrt(n) / (24 * c)


def gaussian_row_deviation(row: Sequence[int]) -> float:
    """Sup distance between the scaled Eulerian row and its Gaussian shape.

    ``row`` is the ``tuple[int, ...]`` of counts for r = 1..n. Compares
    ``count / n!`` against ``exp(-6 h^2 / n) / sqrt(pi n / 6)`` with
    h = r - n/2, maximized over r.
    """
    n = len(row)
    nfact = math.factorial(n)
    worst = 0.0
    for r, count in enumerate(row, 1):
        h = r - n / 2.0
        exact = count / nfact
        approx = math.exp(-6.0 * h * h / n) / math.sqrt(math.pi * n / 6.0)
        worst = max(worst, abs(exact - approx))
    return worst


class CutoffReport(NamedTuple):
    """Cutoff parameters of a p-shuffle family evaluated at one deck size.

    ``t_n`` is ``3 log n / (2 mu)``. For nondegenerate packs the window is
    ``b_n = (1/mu) * max(1, sqrt(sigma^2 log n / mu))``; a single-atom pack
    routes to the degenerate window ``1/mu`` and, because a constant pack
    count admits a unit-width window as well, both values are exposed rather
    than choosing one. ``step_gap_times_mu`` is ``d(t_n) * mu``, the quantity
    whose boundedness separates the integer-time snapshot regimes.
    """

    n: int
    mu: float
    sigma: float
    t_n: float
    b_n: float
    window_reciprocal_mu: float
    window_unit: float | None
    degenerate: bool
    lindeberg: dict[float, float]
    beta: Fraction
    relaxation: Fraction | None
    step_gap_times_mu: float
    xi: tuple[float, ...]


#: The eps values at which :func:`cutoff_report` evaluates :func:`lindeberg_value`.
LINDEBERG_EPS = (0.25, 0.5, 1.0, 2.0)


def cutoff_report(p: PackDistribution, n: int) -> CutoffReport:
    """Discrete-time cutoff parameters for the p-shuffle at deck size n."""
    mu, sigma, log_n, t_n = _critical_time(p, n)
    degenerate = sigma == 0.0
    if degenerate:
        b_n = 1.0 / mu
        lind: dict[float, float] = {}
        xi: tuple[float, ...] = ()
    else:
        b_n = (1.0 / mu) * max(1.0, math.sqrt(sigma * sigma * log_n / mu))
        lind = {eps: lindeberg_value(p, n, eps) for eps in LINDEBERG_EPS}
        xi = xi_values(p)
    beta, relaxation = second_eigenvalue(p)
    return CutoffReport(
        n=n,
        mu=mu,
        sigma=sigma,
        t_n=t_n,
        b_n=b_n,
        window_reciprocal_mu=1.0 / mu,
        window_unit=1.0 if p.is_single_atom() else None,
        degenerate=degenerate,
        lindeberg=lind,
        beta=beta,
        relaxation=relaxation,
        step_gap_times_mu=step_gap(t_n) * mu,
        xi=xi,
    )


class ContinuousCutoffReport(NamedTuple):
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
    mu, sigma, log_n, t_n = _critical_time(p, n)
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
