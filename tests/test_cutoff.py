import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from riffle.cli import _plain
from riffle.cutoff import (
    continuous_cutoff_report,
    cutoff_report,
    cutoff_shape,
    gaussian_row_deviation,
    hyp_check,
    lindeberg_value,
    log_moments,
    nearest_step,
    second_eigenvalue,
    step_gap,
    truncation_report,
    uniform_crossing_asymptotic,
    uniform_crossing_exact,
)
from riffle.combinatorics import eulerian_row
from riffle.laws import (
    PackDistribution,
    inverse_square_pack,
    k_step_laws,
    m_shuffle_law,
    tv_to_uniform,
)

MIX23 = PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 2)})
DELTA2 = PackDistribution.delta(2)


def normal_mass(a):
    # Independent quadrature oracle for the standard-normal mass of [-a, a].
    value, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -a, a)
    return value


class TestCutoffShape:
    def test_endpoints(self):
        assert cutoff_shape(0.0) == 0.0
        assert cutoff_shape(math.inf) == 1.0

    def test_unit_interval_mass(self):
        x = 4 * math.sqrt(3)
        assert abs(cutoff_shape(x) - normal_mass(1.0)) < 1e-12
        assert abs(cutoff_shape(x) - 0.682689492137086) < 1e-12

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0, 10.0, 40.0])
    def test_against_quadrature(self, x):
        assert abs(cutoff_shape(x) - normal_mass(x / (4 * math.sqrt(3)))) < 1e-12

    def test_monotone(self):
        xs = [i / 10 for i in range(0, 200)]
        vals = [cutoff_shape(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cutoff_shape(-0.1)


class TestLogMoments:
    def test_point_mass(self):
        mu, sigma = log_moments(PackDistribution.delta(7))
        assert mu == math.log(7) and sigma == 0.0

    def test_two_point_equal_weights(self):
        mu, sigma = log_moments(MIX23)
        assert abs(mu - math.log(math.sqrt(6))) < 1e-15
        assert abs(sigma - (math.log(3) - math.log(2)) / 2) < 1e-15

    def test_square_spread_family(self):
        # Pack counts m and m*k^2 with equal weights: mean log(m*k), sd log k.
        m, k = 2, 3
        p = PackDistribution.from_pairs({m: Fraction(1, 2), m * k * k: Fraction(1, 2)})
        mu, sigma = log_moments(p)
        assert abs(mu - math.log(m * k)) < 1e-14
        assert abs(sigma - math.log(k)) < 1e-14

    def test_delta1_flags_no_mixing(self):
        mu, sigma = log_moments(PackDistribution.delta(1))
        assert mu == 0.0 and sigma == 0.0


class TestSecondEigenvalue:
    def test_mix23(self):
        assert second_eigenvalue(MIX23) == (Fraction(5, 12), Fraction(12, 7))

    def test_delta2(self):
        beta, relax = second_eigenvalue(DELTA2)
        assert beta == Fraction(1, 2) and relax == 2

    def test_delta1_infinite_relaxation(self):
        beta, relax = second_eigenvalue(PackDistribution.delta(1))
        assert beta == 1 and relax is None

    @pytest.mark.parametrize("m", range(2, 21))
    def test_point_mass_relaxation_exact(self, m):
        beta, relax = second_eigenvalue(PackDistribution.delta(m))
        assert beta == Fraction(1, m)
        assert relax == Fraction(m, m - 1)


class TestLindeberg:
    def test_vanishes_once_threshold_clears_support(self):
        # Bounded support: once eps*log(n)/mu exceeds max xi^2 the value is 0.
        assert lindeberg_value(MIX23, 10**9, 1.0) == 0.0

    def test_huge_eps_gives_zero(self):
        assert lindeberg_value(MIX23, 10, 1e9) == 0.0

    def test_nonincreasing_in_eps(self):
        p = inverse_square_pack(10**5)
        values = [lindeberg_value(p, 10**5, eps) for eps in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            lindeberg_value(DELTA2, 100, 1.0)

    def test_deck_of_one_rejected_as_hyp_check_does(self):
        for check in (lindeberg_value, hyp_check):
            with pytest.raises(ValueError, match="deck size must be >= 2"):
                check(MIX23, 1, 1.0)

    def test_pack_count_one_rejected_as_the_critical_time_does(self):
        # Both take mu from _critical_time, the one owner of mu > 0.
        for check in (lindeberg_value, hyp_check):
            with pytest.raises(ValueError, match="concentrated at 1 never mixes"):
                check(PackDistribution.delta(1), 52, 1.0)


class TestTruncationReport:
    def test_inactive_truncation_recovers_plain_moments(self):
        p = MIX23
        mu, sigma = log_moments(p)
        rep = truncation_report(p, 52, a_n=math.log(3) + 1)
        assert rep.ey == mu
        assert abs(rep.ez2 - (sigma**2 + mu**2)) < 1e-15
        assert rep.t_n_truncated == 3 * math.log(52) / (2 * rep.ey)

    def test_active_truncation_shrinks_ey(self):
        p = inverse_square_pack(10**6)
        full = truncation_report(p, 10**6, a_n=math.log(10**6))
        cut = truncation_report(p, 10**6, a_n=0.5 * math.log(10**6))
        assert cut.ey < full.ey
        assert cut.ez2 < full.ez2

    def test_scaling_invariance_on_log_level(self):
        # Doubling a_n leaves EY unchanged once the level clears the support.
        for n in (10**4, 10**6):
            p = inverse_square_pack(n)
            a = math.log(n)
            r1 = truncation_report(p, n, a)
            r2 = truncation_report(p, n, 2 * a)
            assert abs(r1.ey / r2.ey - 1) < 1e-12

    def test_everything_above_level_rejected(self):
        with pytest.raises(ValueError):
            truncation_report(DELTA2, 100, a_n=0.1)


class TestHypCheck:
    def test_bounded_support_tail_vanishes(self):
        h1, h2 = hyp_check(MIX23, 10**6, eta=0.5)
        assert h2 == 0.0
        assert h1 == log_moments(MIX23).mu / math.log(10**6)

    def test_delta2_ratio(self):
        for n in (100, 10**4, 10**8):
            h1, _ = hyp_check(DELTA2, n, eta=1.0)
            assert abs(h1 - math.log(2) / math.log(n)) < 1e-15


class TestNearestStep:
    def test_examples(self):
        assert nearest_step(0.3) == 0.5 and step_gap(0.3) == 0.5
        assert nearest_step(1.5) == 2.0 and step_gap(1.5) == -0.5
        assert nearest_step(1.4) == 1.0 and abs(step_gap(1.4) - 0.4) < 1e-12

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            nearest_step(0.0)
        with pytest.raises(ValueError):
            step_gap(-1.0)

    @given(st.floats(min_value=0.5, max_value=1e6))
    def test_decomposition_property(self, t):
        k = nearest_step(t)
        d = step_gap(t)
        assert k == int(k) and k >= 1
        assert math.isclose(k + d, t, rel_tol=1e-12)
        assert -0.5 <= d < 0.5


class TestUniformCrossing:
    def test_small_case_direct_comparison(self):
        n, m = 6, 2
        law = m_shuffle_law(n, m)
        u = Fraction(1, math.factorial(n))
        r_star = max(r for r in range(1, n + 1) if law.prob(r) >= u)
        assert uniform_crossing_exact(n, m) == Fraction(2 * r_star - n, 2)

    def test_single_crossing_over_grid(self):
        # The per-arrangement probability crosses uniform exactly once.
        for n in range(2, 9):
            u = Fraction(1, math.factorial(n))
            for m in range(1, 31):
                law = m_shuffle_law(n, m)
                above = [law.prob(r) >= u for r in range(1, n + 1)]
                assert above[0]
                assert all(a or not b for a, b in zip(above, above[1:]))

    def test_matches_the_closed_form_scan(self):
        # Reference: the scan of C(n + m - r, n) * n! >= m**n that the law's
        # numerators replaced.
        def scan(n, m):
            r_star = 0
            for r in range(1, n + 1):
                if math.comb(n + m - r, n) * math.factorial(n) < m**n:
                    break
                r_star = r
            return Fraction(2 * r_star - n, 2)

        for n in range(1, 31):
            for m in range(1, 41):
                assert uniform_crossing_exact(n, m) == scan(n, m), (n, m)

    def test_rejects_an_empty_deck_or_no_packs(self):
        with pytest.raises(ValueError, match="deck size"):
            uniform_crossing_exact(0, 2)
        with pytest.raises(ValueError, match="pack count"):
            uniform_crossing_exact(5, 0)

    def test_large_m_crossing_near_middle(self):
        h = uniform_crossing_exact(10, 10**6)
        assert abs(float(h)) <= 1.0
        assert -1e-3 < uniform_crossing_asymptotic(10, 10**6) < 0

    def test_half_integer_for_odd_deck(self):
        h = uniform_crossing_exact(7, 3)
        assert h.denominator == 2


class TestGaussianRowDeviation:
    def test_small_rows_reasonable(self):
        dev20 = gaussian_row_deviation(eulerian_row(20))
        dev40 = gaussian_row_deviation(eulerian_row(40))
        assert 0 < dev40 < dev20 < 0.1


class TestCutoffReport:
    def test_gsr_deck_parameters(self):
        rep = cutoff_report(DELTA2, 52)
        assert abs(rep.t_n - 1.5 * math.log2(52)) < 1e-12
        assert rep.degenerate
        assert rep.b_n == 1 / math.log(2)
        assert rep.window_unit == 1.0
        assert rep.beta == Fraction(1, 2)

    def test_mixture_window_formula(self):
        n = 52
        rep = cutoff_report(MIX23, n)
        mu, sigma = log_moments(MIX23)
        expected = (1 / mu) * max(1.0, math.sqrt(sigma**2 * math.log(n) / mu))
        assert rep.b_n == expected
        assert rep.window_unit is None
        assert abs(rep.t_n - 3 * math.log(n) / (2 * mu)) < 1e-15

    def test_delta1_rejected(self):
        with pytest.raises(ValueError):
            cutoff_report(PackDistribution.delta(1), 52)

    def test_fields_keep_their_order(self):
        assert list(cutoff_report(MIX23, 52)._asdict()) == [
            "n", "mu", "sigma", "t_n", "b_n", "window_reciprocal_mu", "window_unit",
            "degenerate", "lindeberg", "beta", "relaxation", "step_gap_times_mu", "xi",
        ]
        assert list(continuous_cutoff_report(MIX23, 52)._asdict()) == [
            "n", "mu", "sigma", "t_n", "b_n", "criterion_value", "single_atom", "window_sqrt_tn",
        ]
        assert list(truncation_report(MIX23, 52, 1.0)._asdict()) == [
            "n", "a_n", "ey", "ez2", "ratio_a", "ratio_z", "ratio_y", "t_n_truncated",
        ]

    def test_json_rendering(self):
        rep = cutoff_report(MIX23, 52)
        data = _plain(rep._asdict())
        assert data["beta"] == {"num": "5", "den": "12"}
        assert data["relaxation"] == {"num": "12", "den": "7"}
        assert isinstance(data["mu"], str)
        assert float(data["t_n"]) == rep.t_n


@pytest.mark.parametrize(
    "n, ks, expected",
    [
        (52, range(5, 9), [0.4652, 0.2202, 0.0942, 0.0399]),
        (104, range(6, 11), [0.5156, 0.2532, 0.1094, 0.0464, 0.0194]),
        (208, range(7, 12), [0.5662, 0.2892, 0.1287, 0.0542, 0.0228]),
    ],
)
def test_discrete_cutoff_window_profile_is_pinned(n, ks, expected):
    # Exact TV at every integer k with |k - t_n| <= 2 b_n, the discrete
    # counterpart of test_continuous.py::test_cutoff_window_profile_is_pinned.
    rep = cutoff_report(MIX23, n)
    assert [k for k in range(40) if abs(k - rep.t_n) <= 2 * rep.b_n] == list(ks)
    tvs = [float(tv_to_uniform(law)) for _, law in zip(ks, k_step_laws(n, MIX23, ks.start))]
    assert tvs == pytest.approx(expected, abs=5e-5)


MIX2_16 = PackDistribution.from_pairs({2: Fraction(1, 2), 16: Fraction(1, 2)})


@pytest.mark.parametrize(
    "n, ks, c_k, expected",
    [
        (52, range(2, 6), [-1.5676, -0.4639, 0.6399, 1.7436], [0.7151, 0.3572, 0.1422, 0.0540]),
        (200, range(3, 7), [-1.5120, -0.5588, 0.3943, 1.3475], [0.6515, 0.3677, 0.1962, 0.0841]),
    ],
)
def test_sigma_branch_window_profile_is_pinned(n, ks, c_k, expected):
    # For p = 2:1/2,16:1/2 the window is b_n = sqrt(sigma^2 log n / mu) / mu,
    # above the 1/mu that the {2, 3} table above never leaves.
    rep = cutoff_report(MIX2_16, n)
    mu, sigma = log_moments(MIX2_16)
    branch = math.sqrt(sigma**2 * math.log(n) / mu)
    assert branch > 1 and rep.b_n == pytest.approx(branch / mu, rel=1e-12)
    assert [k for k in range(40) if abs(k - rep.t_n) <= 2 * rep.b_n] == list(ks)
    assert [(k - rep.t_n) / rep.b_n for k in ks] == pytest.approx(c_k, abs=5e-5)
    tvs = [float(tv_to_uniform(law)) for _, law in zip(ks, k_step_laws(n, MIX2_16, ks.start))]
    assert tvs == pytest.approx(expected, abs=5e-5)
