import json
import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle import continuous_time, laws
from riffle.continuous_time import (
    PoissonizedLaw,
    _poisson_weights,
    continuous_cutoff_report,
    poissonized_law,
    poissonized_laws,
    unit_time_pack_law,
)
from riffle.cutoff import log_moments
from riffle.laws import (
    PackDistribution,
    k_step_laws,
    law_to_json,
    m_shuffle_law,
    product_laws,
    tv_to_uniform,
)

from test_laws import SUPPORTS, _pack, _switch_step, record_mixtures, record_product_steps

MIX23 = PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 2)})
DELTA2 = PackDistribution.delta(2)


class TestPoissonizedLaw:
    def test_time_zero_is_identity_exactly(self):
        law = poissonized_law(6, DELTA2, 0.0, 1e-9)
        assert law.truncation_k == 0
        assert law.class_prob[0] == 1
        assert law.mass == 1
        tv = law.tv_to_uniform()
        assert tv.exact == 1 - Fraction(1, math.factorial(6))

    def test_mass_certificate(self):
        for t in (0.5, 3.0, 10.0):
            law = poissonized_law(8, MIX23, t, 1e-9)
            assert 1 - Fraction(10) ** -9 <= law.mass <= 1

    def test_point_mass_matches_weighted_mixture(self):
        # For a deterministic pack count the k-step law is a single
        # m**k-shuffle, so the whole law is checkable term by term.
        t, tol, n, m = 2.5, 1e-8, 5, 2
        law = poissonized_law(n, PackDistribution.delta(m), t, tol)
        for r in range(1, n + 1):
            expected = sum(
                (
                    Fraction(w) * m_shuffle_law(n, m**k).prob(r)
                    for k, w in enumerate(law.weights)
                ),
                Fraction(0),
            )
            assert law.prob(r) == expected

    def test_weights_follow_poisson_recursion(self):
        t = 3.25
        law = poissonized_law(4, DELTA2, t, 1e-10)
        assert law.weights[0] == math.exp(-t)
        for k in range(1, len(law.weights)):
            assert law.weights[k] == pytest.approx(law.weights[k - 1] * t / k, rel=1e-15)

    def test_two_tolerances_agree(self):
        a = poissonized_law(8, DELTA2, 3.0, 1e-9)
        b = poissonized_law(8, DELTA2, 3.0, 1e-6)
        for x, y in zip(a.class_prob, b.class_prob):
            assert abs(float(x - y)) <= 1e-6
        assert abs(a.tv_to_uniform().value - b.tv_to_uniform().value) <= 1e-6

    def test_holding_at_identity_lower_bound(self):
        n = 52
        u = 1 / float(math.factorial(n))
        for t in (0.0, 0.5, 2.0, 6.0, 12.0):
            law = poissonized_law(n, DELTA2, t, 1e-9)
            assert float(law.tv_to_uniform().exact) >= math.exp(-t) - u - 1e-9

    def test_sandwiched_between_discrete_snapshots(self):
        # TV at continuous time t sits between the discrete values at
        # t +- 4 sqrt(t) steps (clamped at 0), by monotonicity in k.
        n, t = 52, 12.0
        law = poissonized_law(n, DELTA2, t, 1e-9)
        v = law.tv_to_uniform().value
        hi_k = math.ceil(t + 4 * math.sqrt(t))
        lo_k = max(0, math.floor(t - 4 * math.sqrt(t)))
        upper = (
            1 - 1 / float(math.factorial(n))
            if lo_k == 0
            else float(tv_to_uniform(m_shuffle_law(n, 2**lo_k)))
        )
        lower = float(tv_to_uniform(m_shuffle_law(n, 2**hi_k)))
        assert lower - 1e-9 <= v <= upper + 1e-9

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            poissonized_law(5, DELTA2, -1.0, 1e-9)
        with pytest.raises(ValueError):
            poissonized_law(5, DELTA2, 1.0, 2.0)

    def test_json_schema(self):
        # A truncated law goes through the one law encoder, as exact strings.
        law = poissonized_law(4, DELTA2, 1.0, 1e-6)
        data = json.loads(law_to_json(law))
        assert set(data) == {"n", "entries"}
        assert all({"r", "count", "prob_num", "prob_den"} == set(e) for e in data["entries"])
        probs = [Fraction(int(e["prob_num"]), int(e["prob_den"])) for e in data["entries"]]
        assert tuple(probs) == law.class_prob

    @pytest.mark.parametrize(
        "ts", [[0.5, 3.0, 1.25], [3.0, 0.0, 3.0, 0.5], [7.0, 7.0]], ids=repr
    )
    def test_grid_equals_per_time_calls(self, ts):
        # Any order, repeated times: each entry is the one-time law.
        laws = poissonized_laws(6, MIX23, ts, 1e-8)
        assert laws == [poissonized_law(6, MIX23, t, 1e-8) for t in ts]


def _laws_by_path(moments, n, p, ts, tol):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuous_time, "_moments_pay", lambda *args: moments)
        return poissonized_laws(n, p, ts, tol)


class TestPoissonPaths:
    """The moment path and the per-k path give the same laws."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from(SUPPORTS),
        st.lists(st.floats(0, 12), min_size=1, max_size=3),
        st.sampled_from([0.5, 1e-3, 1e-9]),
        st.data(),
    )
    def test_moment_path_equals_per_k_path(self, support, times, tol, data):
        # The per-k path divides by multi-digit integers once an atom passes
        # a machine word; n <= 12 keeps those draws under a few seconds.
        n = data.draw(st.integers(1, 40 if max(support) < 2**64 else 12))
        raw = data.draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        p = PackDistribution.from_pairs({m: Fraction(w, sum(raw)) for m, w in zip(support, raw)})
        # Repeated and unordered times.
        ts = data.draw(st.lists(st.sampled_from(times), min_size=1, max_size=4))
        by_moments = _laws_by_path(True, n, p, ts, tol)
        assert by_moments == _laws_by_path(False, n, p, ts, tol)
        assert [law.truncation_k for law in by_moments] == [
            len(_poisson_weights(t, Fraction(tol))[0]) - 1 for t in ts
        ]

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from(SUPPORTS),
        st.lists(st.floats(0, 8), min_size=1, max_size=4),
        st.sampled_from([0.5, 1e-3, 1e-9]),
        st.data(),
    )
    def test_both_mixtures_follow_the_one_rule(self, support, ts, tol, data):
        # k-step laws mix atom by atom exactly the steps before the first
        # whose atoms make the moments pay; n <= 12 keeps the draws with an
        # atom past a machine word short.
        n = data.draw(st.integers(1, 40 if max(support) < 2**64 else 12))
        raw = data.draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        p = _pack(support, raw)
        switch = _switch_step(n, p)
        with pytest.MonkeyPatch.context() as patch:
            mixed = record_mixtures(patch)
            list(islice(k_step_laws(n, p), switch + 2))
        assert mixed == [len(w) for w, _ in islice(product_laws(p), switch)]
        # Poisson laws take the moment path exactly when the atoms of steps
        # k <= K, K the largest truncation, make len(ts) moment evaluations
        # pay. Both paths are stubbed out, so every n <= 40 is cheap to ask.
        steps = max(len(_poisson_weights(t, Fraction(tol))[0]) for t in ts)
        total = sum(len(w) for w, _ in islice(product_laws(p), steps))
        taken = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_moment_sums", "_per_k_sums"):
                patch.setattr(continuous_time, name, lambda *a, name=name: taken.append(name) or [])
            for size in range(1, 41):
                poissonized_laws(size, p, ts, tol)
        assert taken == [
            "_moment_sums" if laws._moments_pay(size, total, len(ts)) else "_per_k_sums"
            for size in range(1, 41)
        ]

    @pytest.mark.parametrize("times", [1, 2])
    def test_rule_boundary(self, times, monkeypatch):
        # Steps k < s of {2, 3} hold s(s + 1)/2 atoms in all: the moment path
        # needs more than times * n / 2 of them.
        s = len(_poisson_weights(1.0, Fraction(1e-3))[0])
        assert s >= 3
        edge = s * (s + 1) // times
        taken = []
        for name in ("_moment_sums", "_per_k_sums"):
            monkeypatch.setattr(continuous_time, name, lambda *a, name=name: taken.append(name) or [])
        poissonized_laws(edge, MIX23, [1.0] * times, 1e-3)
        poissonized_laws(edge - 1, MIX23, [1.0] * times, 1e-3)
        assert taken == ["_per_k_sums", "_moment_sums"]

    def test_rule_stops_building_once_passed(self, monkeypatch):
        built = record_product_steps(monkeypatch, continuous_time)
        # 1 + 2 + 3 + 4 = 10 > 19 / 2 after four of the K + 1 > 50 steps.
        law = poissonized_law(19, MIX23, 40.0, 1e-9)
        assert law.truncation_k >= 50
        assert built == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "n, p, ts, moments",
        [
            (52, MIX23, [4.0, 8.0, 12.0], True),
            (52, MIX23, [4.0 + 2 * i for i in range(9)], True),
            (52, DELTA2, [4.0 + 2 * i for i in range(9)], False),
            (200, DELTA2, [4.0, 8.0, 12.0], False),
        ],
    )
    def test_path_taken(self, n, p, ts, moments, monkeypatch):
        taken = []
        for name in ("_moment_sums", "_per_k_sums"):
            path = getattr(continuous_time, name)
            monkeypatch.setattr(
                continuous_time, name,
                lambda *args, name=name, path=path: taken.append(name) or path(*args),
            )
        poissonized_laws(n, p, ts, 1e-9)
        assert taken == ["_moment_sums" if moments else "_per_k_sums"]


class TestPoissonizedLawChecks:
    def _fields(self, **changes):
        law = poissonized_law(4, MIX23, 1.0, 1e-6)
        fields = dict(
            n=law.n, t=law.t, tol=law.tol, truncation_k=law.truncation_k, nums=law.nums,
            den=law.den, mass=law.mass, weights=law.weights,
        )
        return {**fields, **changes}

    def test_valid_law_rebuilds(self):
        assert PoissonizedLaw(**self._fields()) == poissonized_law(4, MIX23, 1.0, 1e-6)

    def test_increasing_numerators_rejected(self):
        nums = self._fields()["nums"]
        with pytest.raises(ValueError, match="increases"):
            PoissonizedLaw(**self._fields(nums=(nums[0], nums[0] + 1, *nums[2:])))

    def test_negative_numerator_rejected(self):
        nums = self._fields()["nums"]
        with pytest.raises(ValueError, match="out of"):
            PoissonizedLaw(**self._fields(nums=(*nums[:-1], -1)))

    def test_wrong_mass_rejected(self):
        with pytest.raises(ValueError, match="total mass"):
            PoissonizedLaw(**self._fields(mass=Fraction(1)))

    def test_zero_deck_rejected(self):
        with pytest.raises(ValueError):
            poissonized_laws(0, MIX23, [1.0], 1e-6)


class TestUnitTimePackLaw:
    def test_delta1_fixed_point(self):
        law = unit_time_pack_law(PackDistribution.delta(1), 1e-10)
        assert law.prob_of(1) == 1.0
        assert law.discarded_mass == 0.0

    def test_delta2_atoms_are_poisson_weights(self):
        law = unit_time_pack_law(DELTA2, 1e-10)
        for j in range(0, 10):
            assert law.prob_of(2**j) == pytest.approx(
                math.exp(-1) / math.factorial(j), abs=1e-15
            )

    def test_atom_at_one_has_floor(self):
        for p in (DELTA2, MIX23):
            law = unit_time_pack_law(p, 1e-8)
            assert law.prob_of(1) >= math.exp(-1)
            assert law.prob_of(1) == pytest.approx(
                math.exp(-float(1 - p.prob_of(1))), abs=1e-15
            )

    def test_total_mass_accounts_for_discard(self):
        law = unit_time_pack_law(MIX23, 1e-8)
        total = math.fsum(law.atoms.values()) + law.discarded_mass
        assert total == pytest.approx(1.0, abs=1e-12)
        assert 0 <= law.discarded_mass < 1e-8

    def test_moment_identities(self):
        tol = 1e-10
        law = unit_time_pack_law(MIX23, tol)
        mean, var = law.log_moments()
        mu, sigma = log_moments(MIX23)
        assert abs(mean - mu) <= 10 * tol
        assert abs(var - (sigma**2 + mu**2)) <= 10 * tol


class TestContinuousReport:
    def test_window_formula(self):
        n = 52
        rep = continuous_cutoff_report(MIX23, n)
        mu, sigma = log_moments(MIX23)
        assert rep.b_n == (1 / mu) * max((mu + sigma) * math.sqrt(math.log(n) / mu), 1.0)
        assert rep.t_n == 3 * math.log(n) / (2 * mu)
        assert rep.window_sqrt_tn is None

    def test_polynomial_pack_growth_has_bounded_criterion(self):
        # Pack count ~ n**alpha keeps log(n)/mu near 1/alpha: no divergence,
        # hence no cutoff along that family.
        alpha = 0.5
        values = []
        for n in (10**3, 10**4, 10**5, 10**6):
            p = PackDistribution.delta(int(n**alpha))
            values.append(continuous_cutoff_report(p, n).criterion_value)
        assert all(abs(v - 1 / alpha) < 0.1 for v in values)

    def test_log_power_pack_growth_diverges(self):
        # Pack count ~ (log n)**2 sends log(n)/mu to infinity, with the
        # sqrt(t_n) window exposed for the single-atom family.
        values = []
        for n in (10**3, 10**6, 10**9, 10**12):
            p = PackDistribution.delta(int(math.log(n) ** 2))
            rep = continuous_cutoff_report(p, n)
            assert rep.window_sqrt_tn == math.sqrt(rep.t_n)
            values.append(rep.criterion_value)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_mixture_window_grows_like_sqrt_log(self):
        ratios = []
        for n in (10**2, 10**4, 10**6, 10**8):
            rep = continuous_cutoff_report(MIX23, n)
            ratios.append(rep.b_n / math.sqrt(math.log(n)))
        # constant multiple of sqrt(log n): the ratio stabilizes
        assert max(ratios) / min(ratios) < 1.0001

    def test_delta1_rejected(self):
        with pytest.raises(ValueError):
            continuous_cutoff_report(PackDistribution.delta(1), 10)
