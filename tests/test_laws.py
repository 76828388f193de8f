import json
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riffle.combinatorics import eulerian_row
from riffle.continuous_time import poissonized_law
from riffle.laws import (
    PackDistribution,
    ProductLaw,
    RisingSeqLaw,
    SizeGuardError,
    inverse_square_pack,
    k_step_laws,
    law_after_k,
    law_from_json,
    law_to_json,
    m_shuffle_law,
    mixture_of_m_shuffles,
    product_laws,
    product_power,
    tail_set_gap,
    tv_to_uniform,
    window_set_gap,
)
from riffle import laws
from riffle.laws import (
    _moment_numerators,
    _pack_moments,
    _scaled_atoms,
    _shuffle_numerators,
)
from riffle.oracles import oracle_convolution

MIX23 = PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 2)})


class TestMShuffleLaw:
    def test_one_shuffle_is_identity(self):
        for n in (1, 3, 7):
            law = m_shuffle_law(n, 1)
            assert law.prob(1) == 1
            assert all(law.prob(r) == 0 for r in range(2, n + 1))

    def test_n2_m2(self):
        law = m_shuffle_law(2, 2)
        assert law.class_prob == (Fraction(3, 4), Fraction(1, 4))

    def test_power_of_two_matches_closed_form(self):
        n, k = 52, 3
        law = m_shuffle_law(n, 2**k)
        for r in (1, 2, 10, 52):
            assert law.prob(r) == Fraction(math.comb(n + 2**k - r, n), 2 ** (k * n))

    def test_zero_beyond_m(self):
        law = m_shuffle_law(5, 3)
        assert law.prob(4) == 0 and law.prob(5) == 0

    def test_validation_rejects_bad_law(self):
        with pytest.raises(ValueError):
            RisingSeqLaw.from_probs(2, (Fraction(1), Fraction(1)))  # mass 2
        with pytest.raises(ValueError):
            RisingSeqLaw.from_probs(2, (Fraction(0), Fraction(1)))  # increasing in r

    def test_held_in_lowest_terms(self):
        # n=1, m=2: the lone class has probability 2/2 = 1/1.
        law = m_shuffle_law(1, 2)
        assert (law.nums, law.den) == ((1,), 1)
        assert RisingSeqLaw(2, (6, 2), 8) == m_shuffle_law(2, 2)
        assert m_shuffle_law(2, 2).class_prob == (Fraction(3, 4), Fraction(1, 4))

    @pytest.mark.parametrize("n, m", [(12, 5), (9, 9), (6, 2**200)], ids=["m<n", "m=n", "huge_m"])
    def test_ratio_built_numerators_are_binomials(self, n, m):
        # m < n, m = n and a huge m, where the ratio runs over 200-bit values.
        expected = [math.comb(n + m - r, n) for r in range(1, n + 1)]
        assert _shuffle_numerators(n, m) == expected

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12))
    def test_law_invariants_property(self, n, m):
        law = m_shuffle_law(n, m)  # construction asserts normalization
        assert all(
            law.prob(r) >= law.prob(r + 1) for r in range(1, n)
        )


class TestProductPower:
    def test_point_mass_power(self):
        law = product_power(PackDistribution.delta(3), 4)
        assert law.atoms == {81: Fraction(1)}

    def test_k0_is_point_mass_at_one(self):
        assert product_power(MIX23, 0).atoms == {1: Fraction(1)}

    def test_k1_is_p_itself(self):
        assert product_power(MIX23, 1).atoms == {2: Fraction(1, 2), 3: Fraction(1, 2)}

    def test_mix_squared(self):
        law = product_power(MIX23, 2)
        assert law.atoms == {4: Fraction(1, 4), 6: Fraction(1, 2), 9: Fraction(1, 4)}

    def test_colliding_products_merge(self):
        p = PackDistribution.from_pairs(
            {2: Fraction(1, 3), 3: Fraction(1, 3), 6: Fraction(1, 3)}
        )
        law = product_power(p, 2)
        # 2*6 and 3*4 never collide here, but 6 = 2*3 = 3*2 and 12, 18 merge.
        assert law.atoms[6] == Fraction(2, 9)
        assert sum(law.atoms.values()) == 1

    def test_size_guard(self, monkeypatch):
        p = PackDistribution.from_pairs(
            {2: Fraction(1, 4), 3: Fraction(1, 4), 5: Fraction(1, 4), 7: Fraction(1, 4)}
        )
        monkeypatch.setenv("RIFFLE_MAX_PRODUCT_ATOMS", "50")
        with pytest.raises(SizeGuardError):
            product_power(p, 10)

    def test_product_law_validates(self):
        with pytest.raises(ValueError):
            ProductLaw({2: Fraction(1, 2)})


class TestLawAfterK:
    def test_k0_identity(self):
        law = law_after_k(4, MIX23, 0)
        assert law.prob(1) == 1

    def test_delta2_k3_equals_single_8_shuffle(self):
        assert law_after_k(3, PackDistribution.delta(2), 3) == m_shuffle_law(3, 8)

    def test_mixture_expands_to_product_mixture(self):
        law = law_after_k(4, MIX23, 2)
        q4, q6, q9 = (m_shuffle_law(4, m) for m in (4, 6, 9))
        for r in range(1, 5):
            expected = (
                Fraction(1, 4) * q4.prob(r)
                + Fraction(1, 2) * q6.prob(r)
                + Fraction(1, 4) * q9.prob(r)
            )
            assert law.prob(r) == expected

    @settings(deadline=None, max_examples=60)
    @given(
        st.dictionaries(st.integers(1, 7), st.integers(1, 20), min_size=1, max_size=4),
        st.integers(1, 12),
        st.integers(0, 5),
    )
    def test_matches_fraction_reference_mixture(self, raw, n, k):
        # Reference: the product law and the closed-form mixture, all in
        # Fraction arithmetic, written out without the integer engine.
        total = sum(raw.values())
        p = PackDistribution.from_pairs({m: Fraction(w, total) for m, w in raw.items()})
        products = {1: Fraction(1)}
        for _ in range(k):
            nxt = {}
            for v, w in products.items():
                for m, q in p.atoms:
                    nxt[v * m] = nxt.get(v * m, Fraction(0)) + w * q
            products = nxt
        expected = [
            sum(
                (w * Fraction(math.comb(n + v - r, n), v**n) for v, w in products.items()),
                Fraction(0),
            )
            for r in range(1, n + 1)
        ]
        law = law_after_k(n, p, k)
        assert law == RisingSeqLaw.from_probs(n, expected)
        assert list(law.class_prob) == expected
        if n <= 5:
            assert law == oracle_convolution(n, p, k)

    def test_parallel_map_bit_identical(self):
        ks = list(range(6))
        serial = [tv_to_uniform(law_after_k(5, MIX23, k)) for k in ks]
        with ThreadPoolExecutor(4) as pool:
            parallel = list(pool.map(lambda k: tv_to_uniform(law_after_k(5, MIX23, k)), ks))
        assert serial == parallel


# Supports that contain 1, whose products collide (2 * 6 = 3 * 4), or that
# hold one atom far past a machine word.
SUPPORTS = [(1, 2), (2, 3, 4, 6), (1, 2, 3, 4, 6), (2, 2**200 + 1), (1, 3, 2**200 + 1)]


def _pack(support, raw):
    return PackDistribution.from_pairs({m: Fraction(w, sum(raw)) for m, w in zip(support, raw)})


def _moment_law(n, weights, den):
    """The mixture of ``weights`` over ``den``, evaluated from its n + 1 moments."""
    p = PackDistribution.from_pairs({m: Fraction(w, den) for m, w in weights.items()})
    return RisingSeqLaw(n, *_moment_numerators(n, *_pack_moments(n, p)))


class TestMixtureEvaluators:
    """The atom-by-atom chain and the moment basis give the same law."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 60),
        st.dictionaries(
            st.one_of(st.integers(1, 12), st.just(2**200 + 1)),
            st.integers(1, 10**6),
            min_size=1,
            max_size=9,
        ),
    )
    def test_agree_on_any_mixture(self, n, weights):
        den = sum(weights.values())
        assert _moment_law(n, weights, den) == mixture_of_m_shuffles(n, weights, den)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 60), st.sampled_from(SUPPORTS), st.integers(0, 5), st.data())
    def test_agree_on_product_laws(self, n, support, k, data):
        raw = data.draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        p = PackDistribution.from_pairs(
            {m: Fraction(w, sum(raw)) for m, w in zip(support, raw)}
        )
        weights, den = next(islice(product_laws(p), k, None))
        assert _moment_law(n, weights, den) == mixture_of_m_shuffles(n, weights, den)

    def test_agree_at_n200_on_a_21_atom_step(self):
        # Step 20 of {2, 3}: 21 atoms, well past n = 52 and a machine word.
        weights, den = next(islice(product_laws(MIX23), 20, None))
        assert len(weights) == 21
        assert _moment_law(200, weights, den) == mixture_of_m_shuffles(200, weights, den)

    @pytest.mark.parametrize(
        "n, v, nums",
        [(1, [7, 11], [11]), (2, [7, 11, 13], [(11 + 13) // 2, (13 - 11) // 2])],
        ids=["n1", "n2"],
    )
    def test_smallest_decks_by_hand(self, n, v, nums):
        # n! times the class probability is P_1 = x and, for n = 2,
        # P_1 = x**2 + x and P_2 = x**2 - x; the n! is divided out.
        assert _moment_numerators(n, v, 5) == (nums, 5)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 40), st.sampled_from(SUPPORTS), st.integers(0, 5), st.data())
    def test_returns_the_chains_integers(self, n, support, k, data):
        # Before any gcd: the moments of the scaled atoms give the very
        # integers that the atom-by-atom sum adds up.
        raw = data.draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        weights, den = next(islice(product_laws(_pack(support, raw)), k, None))
        atoms, scale = _scaled_atoms(n, list(weights.items()))
        chain = [sum(col) for col in zip(*(_shuffle_numerators(n, m, w) for m, w in atoms))]
        v = [sum(w * m**i for m, w in atoms) for i in range(n + 1)]
        assert _moment_numerators(n, v, den * scale) == (chain, den * scale)

    def test_smallest_decks_on_both_k_step_paths(self):
        # E[1/m] = 5/12 for {2, 3}, so the n = 2 classes have probability
        # (1 +- (5/12)**k) / 2; the moment path takes over at k = 0 (n = 1)
        # and k = 1 (n = 2).
        for law in islice(k_step_laws(1, MIX23), 8):
            assert law.class_prob == (1,)
        for k, law in enumerate(islice(k_step_laws(2, MIX23), 10)):
            g = Fraction(5, 12) ** k
            assert law.class_prob == ((1 + g) / 2, (1 - g) / 2)


def _switch_step(n, p):
    """First k whose product law makes the moments pay."""
    return next(k for k, (w, _) in enumerate(product_laws(p)) if laws._moments_pay(n, len(w)))


def record_mixtures(monkeypatch):
    """Make ``laws.mixture_of_m_shuffles`` append each mixture's atom count to the returned list."""
    mixed, mixture = [], laws.mixture_of_m_shuffles
    monkeypatch.setattr(
        laws, "mixture_of_m_shuffles", lambda n, w, d: mixed.append(len(w)) or mixture(n, w, d)
    )
    return mixed


def record_product_steps(monkeypatch, module):
    """Make ``module.product_laws`` append each step's atom count to the returned list."""
    built, products = [], module.product_laws
    monkeypatch.setattr(
        module, "product_laws",
        lambda *args: (built.append(len(step[0])) or step for step in products(*args)),
    )
    return built


class TestKStepLaws:
    """Once the moments pay, a k-step law comes from the powers x[i]**k of p's moments."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.sampled_from(SUPPORTS), st.integers(-2, 2), st.data())
    def test_moment_power_law_equals_chain(self, n, support, offset, data):
        raw = data.draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        p = _pack(support, raw)
        k = max(0, _switch_step(n, p) + offset)
        weights, den = next(islice(product_laws(p), k, None))
        x, d = _pack_moments(n, p)
        moment = RisingSeqLaw(n, *_moment_numerators(n, [a**k for a in x], d**k))
        assert moment == mixture_of_m_shuffles(n, weights, den)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 8), st.sampled_from(SUPPORTS), st.integers(-3, 3), st.data())
    def test_jump_equals_iterator(self, n, support, offset, data):
        raw = data.draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        p = _pack(support, raw)
        k = max(0, _switch_step(n, p) + offset)
        walked = list(islice(k_step_laws(n, p), k + 3))
        assert law_after_k(n, p, k) == walked[k]
        assert list(islice(k_step_laws(n, p, k), 3)) == walked[k:]

    def test_switch_at_first_step_above_half_n_atoms(self, monkeypatch):
        # Step k of {2, 3} has k + 1 atoms: steps 0..n/2 - 1 are mixed atom
        # by atom, and no product law past step n/2, of n/2 + 1 atoms, is built.
        mixed = record_mixtures(monkeypatch)
        built = record_product_steps(monkeypatch, laws)
        n = 8
        walked = list(islice(k_step_laws(n, MIX23), n + 4))
        assert mixed == list(range(1, n // 2 + 1))
        assert built == list(range(1, n // 2 + 2))
        assert walked == [law_after_k(n, MIX23, k) for k in range(n + 4)]

    def test_jump_builds_no_product_law_past_the_switch(self, monkeypatch):
        built = record_product_steps(monkeypatch, laws)
        law_after_k(3, MIX23, 40)
        assert built == [1, 2]
        # The size guard bounds the atoms built, not those of step 40.
        monkeypatch.setenv("RIFFLE_MAX_PRODUCT_ATOMS", "1")
        with pytest.raises(SizeGuardError):
            law_after_k(3, MIX23, 40)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            law_after_k(3, MIX23, -1)
        with pytest.raises(ValueError):
            law_after_k(0, MIX23, 1)


class TestTvToUniform:
    def test_n2_m2(self):
        assert tv_to_uniform(m_shuffle_law(2, 2)) == Fraction(1, 4)

    def test_vanishes_monotonically_in_m(self):
        tvs = [tv_to_uniform(m_shuffle_law(5, m)) for m in range(5, 101)]
        assert all(b <= a for a, b in zip(tvs, tvs[1:]))
        assert float(tvs[-1]) < 0.02

    def test_identity_shuffle_tv(self):
        n = 4
        assert tv_to_uniform(m_shuffle_law(n, 1)) == 1 - Fraction(1, math.factorial(n))

    def test_single_gsr_step_of_52_cards(self):
        # Only the r = 1 and r = 2 classes carry mass after one 2-shuffle, so
        # the distance has the closed form 1 - (2^52 - 52)/52!.
        assert tv_to_uniform(m_shuffle_law(52, 2)) == 1 - Fraction(2**52 - 52, math.factorial(52))

    # The reduction over the classes above uniform against the plain sum of
    # |P - U| over every class.
    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 80), st.one_of(st.integers(1, 300), st.integers(1, 60).map(lambda e: 2**e)))
    def test_m_shuffle_matches_reference(self, n, m):
        assert tv_to_uniform(m_shuffle_law(n, m)) == tv_reference(m_shuffle_law(n, m))

    @settings(deadline=None, max_examples=60)
    @given(
        st.dictionaries(st.integers(1, 7), st.integers(1, 20), min_size=1, max_size=3),
        st.integers(1, 40),
        st.integers(0, 8),
    )
    def test_law_after_k_matches_reference(self, raw, n, k):
        total = sum(raw.values())
        p = PackDistribution.from_pairs({m: Fraction(w, total) for m, w in raw.items()})
        law = law_after_k(n, p, k)
        assert tv_to_uniform(law) == tv_reference(law)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 30),
        st.sampled_from([PackDistribution.delta(2), MIX23]),
        st.floats(0.0, 6.0),
        st.sampled_from([0.5, 0.1, 1e-3, 1e-6]),
    )
    def test_truncated_poissonized_law_matches_reference(self, n, p, t, tol):
        law = poissonized_law(n, p, t, tol)
        counts = eulerian_row(n).counts
        # The reduction takes the law's mass as given; it must be the exact total.
        assert law.mass == Fraction(sum(c * x for c, x in zip(counts, law.nums)), law.den)
        assert law.tv_to_uniform().exact == tv_reference(law)

    def test_poissonized_law_below_full_mass(self):
        law = poissonized_law(12, MIX23, 3.0, 0.3)
        assert law.mass < 1
        assert tv_to_uniform(law) == tv_reference(law)


def tv_reference(law):
    """sum(count * |num * n! - den|) / (2 * den * n!): TV summed over every class."""
    nfact = math.factorial(law.n)
    counts = eulerian_row(law.n).counts
    total = sum(c * abs(x * nfact - law.den) for c, x in zip(counts, law.nums))
    return Fraction(total, 2 * law.den * nfact)


class TestTailSetGap:
    def test_whole_space_gap_zero(self):
        assert tail_set_gap(5, 3, 1) == 0

    def test_example_nonnegative(self):
        assert tail_set_gap(4, 2, 3) >= 0

    def test_identity_shuffle_gap(self):
        # A 1-shuffle has no mass on r >= 2, so the gap is the uniform mass.
        assert tail_set_gap(4, 1, 2) == Fraction(23, 24)


class TestWindowSetGap:
    def test_k_equals_m_matches_direct_sum(self):
        n, m = 10, 40
        gap = window_set_gap(n, m, m)
        assert not gap.empty
        assert gap.gap >= 0

    def test_empty_window_flagged(self):
        gap = window_set_gap(2, 100, 1)
        assert gap.empty and gap.gap == 0

    def test_matches_normal_shape_at_calibrated_tolerance(self):
        # Recorded calibration: for n = 52, m = 2^9 the window gap sits within
        # 0.1 of the limiting shape value (observed gap ~0.035, on the scale
        # of n^(-1/4) ~ 0.37).
        from riffle.cutoff import cutoff_shape

        n, m = 52, 2**9
        gap = window_set_gap(n, m, m)
        assert not gap.empty
        c = m * n**-1.5
        assert abs(float(gap.gap) - cutoff_shape(1 / c)) <= 0.1

    def test_scan_minimized_at_k_equals_m_for_small_deck(self):
        # Recorded behaviour for n = 6 and every m <= 20: the infimum over
        # k <= m of the window gap is attained at k = m.
        for m in range(1, 21):
            gaps = {k: window_set_gap(6, m, k).gap for k in range(1, m + 1)}
            assert min(gaps.values()) == gaps[m], f"m={m}"


class TestPackDistribution:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PackDistribution.from_pairs({2: Fraction(1, 2)})  # mass 1/2
        with pytest.raises(ValueError):
            PackDistribution([(2, Fraction(1, 2)), (2, Fraction(1, 2))])
        with pytest.raises(ValueError):
            PackDistribution.from_pairs({0: Fraction(1)})

    def test_inverse_square_family(self):
        p = inverse_square_pack(1000)
        # Support is floor(e^i) for i = 1..6 since floor(log 1000) = 6.
        assert p.support() == (2, 7, 20, 54, 148, 403)
        norm = sum(Fraction(1, i * i) for i in range(1, 7))
        assert p.prob_of(2) == Fraction(1, 1) / norm


class TestJsonExport:
    def test_round_trip(self):
        law = law_after_k(5, MIX23, 2)
        text = law_to_json(law)
        data = json.loads(text)
        assert data["n"] == 5
        assert all(isinstance(e["prob_num"], str) for e in data["entries"])
        assert law_from_json(text) == law

    def test_round_trip_past_the_str_digit_limit(self):
        # den = 2**15000 has 4516 decimal digits.
        law = m_shuffle_law(1000, 2**15)
        text = law_to_json(law)
        assert len(json.loads(text)["entries"][0]["prob_den"]) > 4300
        assert law_from_json(text) == law

    def test_counts_are_exact_decimal_strings(self):
        law = m_shuffle_law(4, 2)
        entries = json.loads(law_to_json(law))["entries"]
        assert [int(e["count"]) for e in entries] == [1, 11, 11, 1]
