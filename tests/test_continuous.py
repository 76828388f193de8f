import inspect
import json
import math
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle import laws
from riffle.combinatorics import eulerian_row
from riffle.continuous_time import (
    PoissonizedLaw,
    _exact_weights,
    _poisson_weights,
    _truncated_law,
    poissonized_law,
    poissonized_laws,
    unit_time_pack_law,
)
from riffle.cutoff import continuous_cutoff_report, log_moments
from riffle.laws import (
    PackDistribution,
    RisingSeqLaw,
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
        assert law.tv_to_uniform() == 1 - Fraction(1, math.factorial(6))

    def test_mass_certificate(self):
        for t in (0.5, 3.0, 10.0):
            law = poissonized_law(8, MIX23, t, 1e-9)
            assert 1 - Fraction(10) ** -9 <= law.mass <= 1

    def test_point_mass_matches_weighted_mixture(self):
        # For a deterministic pack count the k-step law is a single
        # m**k-shuffle, so the whole law is checkable term by term.
        t, tol, n, m = 2.5, 1e-8, 5, 2
        law = poissonized_law(n, PackDistribution.delta(m), t, tol)
        weights = _poisson_weights(t, Fraction(tol))
        for r in range(1, n + 1):
            expected = sum(
                (
                    Fraction(w) * m_shuffle_law(n, m**k).prob(r)
                    for k, w in enumerate(weights)
                ),
                Fraction(0),
            )
            assert law.prob(r) == expected

    def test_weights_follow_poisson_recursion(self):
        t = 3.25
        weights = _poisson_weights(t, Fraction(1e-10))
        assert weights[0] == math.exp(-t)
        for k in range(1, len(weights)):
            assert weights[k] == pytest.approx(weights[k - 1] * t / k, rel=1e-15)

    def test_weights_stop_only_once_past_one_minus_tol(self):
        # 1 - exp(-0.5) is exact in floats, so the first weight leaves exactly
        # tol unretained: not less than tol, and a second weight is kept.
        assert len(_poisson_weights(0.5, Fraction(1 - math.exp(-0.5)))) == 2

    def test_two_tolerances_agree(self):
        a = poissonized_law(8, DELTA2, 3.0, 1e-9)
        b = poissonized_law(8, DELTA2, 3.0, 1e-6)
        for x, y in zip(a.class_prob, b.class_prob):
            assert abs(float(x - y)) <= 1e-6
        assert abs(float(a.tv_to_uniform() - b.tv_to_uniform())) <= 1e-6

    def test_holding_at_identity_lower_bound(self):
        n = 52
        u = 1 / float(math.factorial(n))
        for t in (0.0, 0.5, 2.0, 6.0, 12.0):
            law = poissonized_law(n, DELTA2, t, 1e-9)
            assert float(law.tv_to_uniform()) >= math.exp(-t) - u - 1e-9

    def test_sandwiched_between_discrete_snapshots(self):
        # TV at continuous time t sits between the discrete values at
        # t +- 4 sqrt(t) steps (clamped at 0), by monotonicity in k.
        n, t = 52, 12.0
        law = poissonized_law(n, DELTA2, t, 1e-9)
        v = float(law.tv_to_uniform())
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
        laws = list(poissonized_laws(6, MIX23, ts, 1e-8))
        assert laws == [poissonized_law(6, MIX23, t, 1e-8) for t in ts]


def _plans(ts, tol):
    """Each time's exact Poisson weights ``(c, D)``, as :func:`poissonized_laws` plans them."""
    return [_exact_weights(_poisson_weights(t, Fraction(tol))) for t in ts]


class TestPoissonPaths:
    """Each Poisson path is called by name; both give the same sums, and the rule names one."""

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
        plans = _plans(ts, tol)
        # Both paths give law k over d**k, so their sums share a denominator
        # and must agree integer for integer, before any gcd.
        by_moments = list(laws._moment_sums(n, p, plans))
        assert by_moments == list(laws._per_k_sums(n, p, plans))
        assert list(poissonized_laws(n, p, ts, tol)) == [
            PoissonizedLaw(n, nums, den, Fraction(sum(c), denom), len(c) - 1)
            for (c, denom), (nums, den) in zip(plans, by_moments)
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
        # Poisson sums take the moment path exactly when the atoms of steps
        # k <= K, K the largest truncation, make len(ts) moment evaluations
        # pay. The rule sums nothing, so every n <= 40 is cheap to ask.
        plans = _plans(ts, tol)
        steps = max(len(c) for c, _ in plans)
        total = sum(len(w) for w, _ in islice(product_laws(p), steps))
        assert [laws._poisson_path(size, p, plans) for size in range(1, 41)] == [
            "moments" if laws._moments_pay(size, total, len(ts)) else "per_k"
            for size in range(1, 41)
        ]

    @pytest.mark.parametrize("times", [1, 2])
    def test_rule_boundary(self, times):
        # Steps k < s of {2, 3} hold s(s + 1)/2 atoms in all: the moment path
        # needs more than times * n / 2 of them.
        s = len(_poisson_weights(1.0, Fraction(1e-3)))
        assert s >= 3
        edge = s * (s + 1) // times
        plans = _plans([1.0] * times, 1e-3)
        assert laws._poisson_path(edge, MIX23, plans) == "per_k"
        assert laws._poisson_path(edge - 1, MIX23, plans) == "moments"

    def test_rule_stops_building_once_passed(self, monkeypatch):
        built = record_product_steps(monkeypatch, laws)
        # 1 + 2 + 3 + 4 = 10 > 19 / 2 after four of the K + 1 > 50 steps.
        plans = _plans([40.0], 1e-9)
        assert len(plans[0][0]) > 50
        assert laws._poisson_path(19, MIX23, plans) == "moments"
        assert built == [1, 2, 3, 4]

    def test_per_k_path_hands_out_each_time_when_done(self, monkeypatch):
        # Each time's sums come once its own last k-step law is added, in
        # input order, and not after the whole grid's.
        drawn = []
        k_step = laws._k_step_numerators

        def counted(*args):
            for step in k_step(*args):
                drawn.append(step[1])
                yield step

        monkeypatch.setattr(laws, "_k_step_numerators", counted)
        plans = _plans([1.0, 4.0], 1e-9)
        short, long = (len(c) for c, _ in plans)
        assert short < long
        sums = laws._per_k_sums(8, MIX23, plans)
        assert drawn == []
        first = next(sums)
        assert len(drawn) == short
        second = next(sums)
        assert len(drawn) == long
        assert next(sums, None) is None
        assert len(drawn) == long
        assert [first, second] == list(laws._moment_sums(8, MIX23, plans))

    def test_per_k_path_builds_one_law_per_time(self, monkeypatch):
        # The k-step laws are summed from their numerator streams, each
        # checked by the fold, and no law is built; the only law constructed
        # from the sums is each time's own.
        built, folded = [], []
        post_init, fold = RisingSeqLaw.__post_init__, laws._fold
        monkeypatch.setattr(
            RisingSeqLaw, "__post_init__", lambda law: built.append(type(law)) or post_init(law)
        )
        monkeypatch.setattr(laws, "_fold", lambda *a: folded.append(a[2]) or fold(*a))
        plans = _plans([4.0, 1.0, 0.5], 1e-9)
        sums = list(laws._per_k_sums(8, MIX23, plans))
        assert built == []
        d = laws._pack_moments(8, MIX23)[1]
        assert folded == [d**k for k in range(max(len(c) for c, _ in plans))]
        list(map(partial(_truncated_law, 8), plans, sums))
        assert built == [PoissonizedLaw] * len(plans)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(SUPPORTS), st.integers(1, 40), st.integers(1, 3), st.data())
    def test_k_step_denominators_are_powers_of_d(self, support, n, extra, data):
        # The per-k Horner takes law k over d**k from both producers: the
        # atom-by-atom chain before the moment switch and the moments after.
        raw = data.draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        p = _pack(support, raw)
        d = laws._pack_moments(n, p)[1]
        count = _switch_step(n, p) + extra
        steps = islice(laws._k_step_numerators(n, p, 0), count)
        assert [den for _, den in steps] == [d**k for k in range(count)]

    @pytest.mark.parametrize(
        "n, p, ts, moments",
        [
            (52, MIX23, [4.0, 8.0, 12.0], True),
            (52, MIX23, [4.0 + 2 * i for i in range(9)], True),
            (52, DELTA2, [4.0 + 2 * i for i in range(9)], False),
            (200, DELTA2, [4.0, 8.0, 12.0], False),
        ],
    )
    def test_path_taken(self, n, p, ts, moments):
        plans = _plans(ts, 1e-9)
        assert laws._poisson_path(n, p, plans) == ("moments" if moments else "per_k")
        # The one entry hands out that path's sums, picked on the call.
        assert laws._poisson_sums(n, p, plans).__name__ == (
            "_moment_sums" if moments else "_per_k_sums"
        )


class TestPoissonizedLawChecks:
    def _fields(self, **changes):
        law = poissonized_law(4, MIX23, 1.0, 1e-6)
        fields = dict(
            n=law.n, nums=law.nums, den=law.den, mass=law.mass, truncation_k=law.truncation_k,
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

    def test_is_a_class_law_with_a_mass_and_a_truncation(self):
        law = poissonized_law(4, MIX23, 1.0, 1e-6)
        assert isinstance(law, RisingSeqLaw)
        assert list(inspect.signature(PoissonizedLaw).parameters) == [
            "n", "nums", "den", "mass", "truncation_k",
        ]

    def test_equality_is_by_class_and_every_field(self):
        law = PoissonizedLaw(**self._fields())
        twin = poissonized_law(4, MIX23, 1.0, 1e-6)
        assert law == twin and hash(law) == hash(twin)
        assert law != PoissonizedLaw(**self._fields(truncation_k=law.truncation_k + 1))
        # A class law with the same n, nums and den is another law.
        whole = m_shuffle_law(4, 2)
        as_poisson = PoissonizedLaw(whole.n, whole.nums, whole.den, Fraction(1), 0)
        assert whole != as_poisson and as_poisson != whole
        assert RisingSeqLaw(whole.n, list(whole.nums), whole.den) == whole
        assert hash(RisingSeqLaw(whole.n, whole.nums, whole.den)) == hash(whole)

    def test_zero_deck_rejected(self):
        with pytest.raises(ValueError):
            poissonized_laws(0, MIX23, [1.0], 1e-6)

    def test_from_probs_through_the_subclass_builds_a_class_law(self):
        # Built as cls(n, nums, den), it missed the subclass's mass and truncation_k.
        probs = [Fraction(1, 2), Fraction(1, 2)]
        law = PoissonizedLaw.from_probs(2, probs)
        assert type(law) is RisingSeqLaw and law == RisingSeqLaw.from_probs(2, probs)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(nums=(1, 1, 1)), "needs 4 class entries"),
            (dict(n=0, nums=()), "deck size must be >= 1"),
        ],
        ids=["three-entries", "n0"],
    )
    def test_malformed_shape_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            PoissonizedLaw(**self._fields(**changes))

    def test_float_weights_past_one_are_rescaled(self):
        # The exact total of these 86 float weights is 1 + 8.1e-17.
        weights = _poisson_weights(31.25, Fraction(1e-15))
        assert sum(map(Fraction, weights)) > 1
        plans = [_exact_weights(weights)]
        built = []
        for sums in (laws._moment_sums, laws._per_k_sums):
            (law,) = map(partial(_truncated_law, 6), plans, sums(6, MIX23, plans))
            assert law.truncation_k == len(weights) - 1 == 85
            assert law.mass == 1
            assert sum(c * x for c, x in zip(eulerian_row(6), law.nums)) == law.den
            built.append(law)
        assert built[0] == built[1] == poissonized_law(6, MIX23, 31.25, 1e-15)


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


@pytest.mark.parametrize(
    "n, expected",
    [
        (52, [0.9631, 0.6307, 0.2788, 0.0952, 0.0285]),
        (104, [0.9600, 0.6443, 0.2880, 0.0971, 0.0270]),
        (208, [0.9592, 0.6576, 0.2960, 0.0982, 0.0264]),
    ],
)
def test_cutoff_window_profile_is_pinned(n, expected):
    # Exact TV at t = t_n + c * b_n for c = -2..2: in window coordinates the
    # profile barely moves with n, which is the cutoff phenomenon.
    rep = continuous_cutoff_report(MIX23, n)
    laws = poissonized_laws(n, MIX23, [rep.t_n + c * rep.b_n for c in range(-2, 3)], 1e-9)
    assert [float(law.tv_to_uniform()) for law in laws] == pytest.approx(expected, abs=5e-5)
