"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
a failing criterion also fails its test). Statistical checks use fixed seeds
and three-standard-error bands; exact checks allow no tolerance at all.
"""

import math
from fractions import Fraction

from riffle.combinatorics import eulerian_row
from riffle.continuous_time import poissonized_law, unit_time_pack_law
from riffle.cutoff import (
    cutoff_report,
    cutoff_shape,
    gaussian_row_deviation,
    lindeberg_value,
    log_moments,
    second_eigenvalue,
    truncation_report,
    uniform_crossing_asymptotic,
    uniform_crossing_exact,
)
from riffle.laws import (
    PackDistribution,
    inverse_square_pack,
    law_after_k,
    m_shuffle_law,
    tail_set_gap,
    tv_to_uniform,
)
from riffle.oracles import (
    oracle_convolution,
    oracle_digit_law,
    oracle_shuffle_sequence,
)
from riffle.sampling import EmpiricalHistogram, empirical_tv, make_generator, sample_chains

MIX23 = PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 2)})
DELTA2 = PackDistribution.delta(2)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:>2} {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_oracle_equivalence():
    ok = True
    for n in range(1, 7):
        for m in range(1, 6):
            ok = ok and oracle_digit_law(n, m) == m_shuffle_law(n, m)
    for n in range(1, 6):
        for p in (DELTA2, PackDistribution.delta(3), MIX23):
            for k in range(0, 4):
                ok = ok and oracle_convolution(n, p, k) == law_after_k(n, p, k)
    _report(1, "digit and convolution oracles match exactly", ok)


def test_criterion_02_composition_law():
    ok = True
    for n in range(2, 7):
        ok = ok and oracle_shuffle_sequence(n, (2, 2)) == m_shuffle_law(n, 4)
        ok = ok and oracle_shuffle_sequence(n, (2, 3)) == m_shuffle_law(n, 6)
    _report(2, "2*2 and 2*3 shuffle compositions collapse exactly", ok)


def test_criterion_03_tv_monotone_in_m():
    violations = []
    for n in range(1, 9):
        tvs = [tv_to_uniform(m_shuffle_law(n, m)) for m in range(1, 32)]
        violations += [(n, m) for m in range(1, 31) if tvs[m] > tvs[m - 1]]
    _report(3, "TV nonincreasing in pack count (n<=8, m<=30)", not violations)


def test_criterion_04_pointwise_monotonicity_and_tail_sets():
    ok = True
    for n in range(1, 9):
        u = Fraction(1, math.factorial(n))
        laws = {m: m_shuffle_law(n, m) for m in range(1, 32)}
        for m in range(1, 31):
            for r in range(1, n + 1):
                q = laws[m].prob(r)
                if q <= u and q > laws[m + 1].prob(r):
                    ok = False
                if q > u and any(laws[j].prob(r) <= u for j in range(m + 1, 32)):
                    ok = False
        for m in range(1, 31):
            for r in range(1, n + 1):
                if tail_set_gap(n, m, r) < 0:
                    ok = False
    _report(4, "class-prob monotonicity and tail-set positivity", ok)


def test_criterion_05_gsr52_regression():
    profile = [tv_to_uniform(m_shuffle_law(52, 2**k)) for k in range(1, 13)]
    ok = Fraction(32, 100) <= profile[6] <= Fraction(35, 100)
    ok = ok and all(b <= a for a, b in zip(profile, profile[1:]))

    decks = sample_chains(52, DELTA2, 7, make_generator(2024), 10**6)
    est = empirical_tv(EmpiricalHistogram.from_decks(decks), eulerian_row(52))
    ok = ok and abs(est.value - float(profile[6])) <= 3 * est.std_error
    _report(5, "GSR deck of 52: exact 0.334 at k=7, Monte Carlo within 3 SE", ok)


def test_criterion_06_normal_approximation_error():
    ok = True
    for c in (0.5, 1.0, 2.0):
        errs = {}
        for n in (32, 64, 128, 256):
            m = math.ceil(c * n**1.5)
            errs[n] = abs(float(tv_to_uniform(m_shuffle_law(n, m))) - cutoff_shape(1 / c))
        ok = ok and errs[256] <= errs[32] and errs[256] <= 0.05
    _report(6, "normal TV approximation error shrinks and stays below 0.05", ok)


def test_criterion_07_gaussian_row_shape():
    sups = [gaussian_row_deviation(eulerian_row(n)) for n in (20, 50, 100, 200)]
    ok = all(b <= a for a, b in zip(sups, sups[1:]))
    _report(7, "Eulerian-row Gaussian deviation nonincreasing over n", ok)


def test_criterion_08_crossing_threshold_agreement():
    ok = True
    for n in (52, 104):
        for k in range(6, 14):
            m = 2**k
            c = m * n**-1.5
            if 0.5 <= c <= 4:
                diff = abs(float(uniform_crossing_exact(n, m)) - uniform_crossing_asymptotic(n, m))
                ok = ok and diff <= 3
    _report(8, "exact and asymptotic crossing offsets within 3", ok)


def test_criterion_09_parameter_arithmetic():
    rep = cutoff_report(DELTA2, 52)
    reference = 1.5 * math.log2(52)
    ok = abs(rep.t_n - reference) <= 1e-12 * reference
    ok = ok and second_eigenvalue(MIX23) == (Fraction(5, 12), Fraction(12, 7))
    _report(9, "t_n to 12 digits and exact spectral pair (5/12, 12/7)", ok)


def test_criterion_10_poissonization():
    tol = 1e-9
    law0 = poissonized_law(52, DELTA2, 0.0, tol)
    ok = law0.tv_to_uniform() == 1 - Fraction(1, math.factorial(52))
    u = 1 / float(math.factorial(52))
    for t in (0.0, 1.0, 3.0, 6.0, 9.0, 12.0):
        law = poissonized_law(52, DELTA2, t, tol)
        ok = ok and (1 - Fraction(tol) <= law.mass <= 1)
        ok = ok and float(law.tv_to_uniform()) >= math.exp(-t) - u - tol
    _report(10, "Poissonized mass certificate, exact t=0, identity lower bound", ok)


def test_criterion_11_unit_time_moments():
    tol = 1e-10
    law = unit_time_pack_law(MIX23, tol)
    mean, var = law.log_moments()
    mu, sigma = log_moments(MIX23)
    ok = abs(mean - mu) <= 10 * tol and abs(var - (sigma**2 + mu**2)) <= 10 * tol
    _report(11, "unit-time pack law matches mu and sigma^2 + mu^2 to 10*tol", ok)


def test_criterion_12_condition_trends():
    ok = True
    for n in (10**3, 10**4, 10**5, 10**6):
        value = lindeberg_value(inverse_square_pack(n), n, 1.0)
        ref = math.sqrt(1.0 / math.log(math.log(n)))
        ok = ok and 0.5 * ref <= value <= 2 * ref
    p = inverse_square_pack(10**6)
    rep = truncation_report(p, 10**6, math.log(10**6))
    scale = 6 / math.pi**2
    ok = ok and 0.7 <= rep.ey / (scale * math.log(math.log(10**6))) <= 1.3
    ok = ok and 0.7 <= rep.ez2 / (scale * math.log(10**6)) <= 1.3
    _report(12, "Lindeberg band and truncated-moment ratios on the slow family", ok)


def test_profile_steepening():
    # The 0.9-to-0.1 transition width, relative to the cutoff time, shrinks
    # as the deck grows; this is the finite-size face of the cutoff itself.
    def relative_width(n: int) -> float:
        tvs: dict[int, float] = {}
        k, tv = 0, 1.0
        while tv > 0.05:
            k += 1
            tv = float(tv_to_uniform(m_shuffle_law(n, 2**k)))
            tvs[k] = tv

        def crossing(level: float) -> float:
            for kk in sorted(tvs):
                if tvs[kk] < level:
                    before = tvs.get(kk - 1, 1.0)
                    return kk - 1 + (before - level) / (before - tvs[kk])
            raise AssertionError("profile never crossed the level")

        width = crossing(0.1) - crossing(0.9)
        return width / (1.5 * math.log2(n))

    ok = relative_width(256) < relative_width(32)
    _report(13, "TV transition width shrinks relative to the cutoff time", ok)
