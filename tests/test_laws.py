import json
import math
import sys
import tracemalloc
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
    k_step_tvs,
    law_after_k,
    law_from_json,
    law_to_json,
    m_shuffle_law,
    mixture_of_m_shuffles,
    product_laws,
    product_power,
    tail_set_gap,
    tv_to_uniform,
)
from riffle import laws
from riffle.laws import (
    _fold,
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
        assert list(_shuffle_numerators(n, m)) == expected

    @pytest.mark.parametrize("n, m", [(1, 2), (5, 3), (12, 5)])
    def test_class_mass_is_count_times_prob(self, n, m):
        law = m_shuffle_law(n, m)
        counts = eulerian_row(n)
        masses = [law.class_mass(r) for r in range(1, n + 1)]
        assert masses == [c * law.prob(r) for r, c in enumerate(counts, 1)]
        assert sum(masses) == 1
        # r = 0 would index the last count and r = n + 1 past the row.
        for r in (0, n + 1):
            with pytest.raises(ValueError, match=rf"r must be in 1..{n}, got {r}"):
                law.class_mass(r)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12))
    def test_law_invariants_property(self, n, m):
        law = m_shuffle_law(n, m)  # construction asserts normalization
        assert all(
            law.prob(r) >= law.prob(r + 1) for r in range(1, n)
        )


class TestOneCopy:
    # Each law's numerators exist once while it is built: the traced peak of
    # building it, its Eulerian row warmed first, over the bytes of its
    # numerators. Measured 1.13 (GSR), 1.17 (chain), 2.20 (moments, which
    # keep the k-th moment powers for step k + 1), 1.46 (Poisson) and 2.13
    # (Poisson per k, by Horner in k: the accumulator and one k-step law's
    # numerators); before the numerators were summed and reduced in place,
    # 2.16, 3.14, 3.98, 4.69 and 4.98.
    THIRDS = PackDistribution([(m, Fraction(1, 3)) for m in (2, 3, 5)])

    @pytest.mark.parametrize(
        "n, build, moments, bound",
        [
            (600, lambda: law_after_k(600, PackDistribution.delta(2), 12), False, 1.3),
            (200, lambda: law_after_k(200, MIX23, 10), False, 1.3),
            (100, lambda: law_after_k(100, TestOneCopy.THIRDS, 20), True, 2.6),
            (100, lambda: poissonized_law(100, MIX23, 8.0, 1e-9), True, 1.8),
            (200, lambda: poissonized_law(200, PackDistribution.delta(2), 8.0, 1e-9), False, 2.5),
        ],
        ids=["gsr", "chain", "moments", "poisson", "poisson_per_k"],
    )
    def test_peak_over_law_bytes(self, n, build, moments, bound, monkeypatch):
        taken = []
        evaluate = laws._moment_numerators

        def record(*args):
            taken.append(1)
            return evaluate(*args)

        monkeypatch.setattr(laws, "_moment_numerators", record)
        eulerian_row(n)
        tracemalloc.start()
        try:
            law = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(taken) == moments
        assert peak < bound * sum(sys.getsizeof(x) for x in law.nums)

    def test_fold_holds_no_law(self):
        # profile's TV-only path keeps no numerator once it is counted: the
        # GSR case above, folded, peaks at 0.064 of the law's numerator bytes.
        n, p, k = 600, PackDistribution.delta(2), 12
        eulerian_row(n)
        tracemalloc.start()
        try:
            tv = next(k_step_tvs(n, p, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        law = law_after_k(n, p, k)
        assert tv == tv_to_uniform(law)
        assert peak < 0.3 * sum(sys.getsizeof(x) for x in law.nums)

    def test_a_list_is_taken_over_and_a_tuple_is_left_alone(self):
        given_tuple, given_list = (6, 2), [6, 2]
        law = RisingSeqLaw(2, given_tuple, 8)
        assert given_tuple == (6, 2) and law.nums == (3, 1) and law.den == 4
        assert RisingSeqLaw(2, given_list, 8) == law and given_list == [3, 1]
        reduced = (3, 1)
        assert RisingSeqLaw(2, reduced, 4).nums == reduced


class TestFold:
    """One pass over the numerators checks a law and gives its TV, stored or streamed."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 40),
        st.dictionaries(st.integers(1, 7), st.integers(1, 9), min_size=1, max_size=3),
        st.integers(0, 11),
        st.integers(0, 3),
    )
    def test_streamed_tvs_equal_the_stored_laws(self, n, raw, start, extra):
        p = _pack(list(raw), list(raw.values()))
        ks = range(start, start + extra + 1)
        tvs = list(islice(k_step_tvs(n, p, start), len(ks)))
        assert tvs == [tv_to_uniform(law_after_k(n, p, k)) for k in ks]

    @pytest.mark.parametrize(
        "p, atoms, moments",
        [
            (PackDistribution.delta(2), [1] * 15, False),
            (MIX23, list(range(1, 16)), False),
            (TestOneCopy.THIRDS, [1, 3, 6, 10, 15], True),
        ],
        ids=["one_atom", "chain", "moments"],
    )
    def test_every_producer_streams_the_stored_tvs(self, p, atoms, moments, monkeypatch):
        # At n = 40, k = 0..14: the one-atom chain, the chain of k + 1 atoms,
        # and {2, 3, 5}, whose 21 atoms at k = 5 make the moments pay.
        mixed = record_mixtures(monkeypatch)
        taken, evaluate = [], laws._moment_numerators
        monkeypatch.setattr(laws, "_moment_numerators", lambda *a: taken.append(1) or evaluate(*a))
        tvs = list(islice(k_step_tvs(40, p), 15))
        assert (mixed, bool(taken)) == (atoms, moments)
        assert tvs == [tv_to_uniform(law_after_k(40, p, k)) for k in range(15)]

    @pytest.mark.parametrize(
        "n, nums, den, message",
        [
            (2, [1], 1, "needs 2 class entries"),
            (2, [1, 0, 1], 1, "needs 2 class entries"),  # and increasing
            (3, [1, 0, 1], 6, "increases at r=3"),
            (3, [3, 1, 2], 2, "increases at r=3"),  # and above 1
            (2, [3, 0], 2, "out of \\[0,1\\]"),  # and of mass 3/2
            (2, [3, -1], 2, "out of \\[0,1\\]"),
            (2, [1, 1], 4, "total mass 1/2, not 1"),
        ],
        ids=["short", "long", "increase", "increase_first", "range_first", "range", "mass"],
    )
    def test_stream_raises_the_constructors_message(self, n, nums, den, message):
        with pytest.raises(ValueError, match=message) as stored:
            RisingSeqLaw(n, nums, den)
        with pytest.raises(ValueError) as streamed:
            _fold(n, (x for x in nums), den)
        assert str(streamed.value) == str(stored.value)


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
        monkeypatch.setattr(laws, "MAX_PRODUCT_ATOMS", 50)
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
    v, d = _pack_moments(n, p)
    return RisingSeqLaw(n, list(_moment_numerators(n, v)), d)


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

    @pytest.mark.parametrize(
        "support", [(2,), (2, 3), (1, 2, 5), (2, 3, 4, 6), (2, 3, 5, 7, 11)], ids=len
    )
    def test_agree_at_every_step_before_any_gcd(self, support):
        # Law k by both evaluators for every k in 1..8 and n <= 30, not only
        # where the k-step rule switches: the mixture over the product law
        # and the moments' k-th powers give the same integers over d**k.
        p = _pack(support, range(1, len(support) + 1))
        for n in range(1, 31):
            x, d = _pack_moments(n, p)
            for k, (weights, den) in islice(enumerate(product_laws(p)), 1, 9):
                nums, den = laws._mixture_numerators(n, weights, den)
                moments = _moment_numerators(n, [a**k for a in x])
                assert (list(nums), den) == (list(moments), d**k), (n, k)

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
        assert list(_moment_numerators(n, v)) == nums

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
        assert list(_moment_numerators(n, v)) == chain

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
    """Make ``laws._mixture_numerators`` append each mixture's atom count to the returned list."""
    mixed, mixture = [], laws._mixture_numerators
    monkeypatch.setattr(
        laws, "_mixture_numerators", lambda n, w, d: mixed.append(len(w)) or mixture(n, w, d)
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
        moment = RisingSeqLaw(n, list(_moment_numerators(n, [a**k for a in x])), d**k)
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
        monkeypatch.setattr(laws, "MAX_PRODUCT_ATOMS", 1)
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
        counts = eulerian_row(n)
        # The reduction takes the law's mass as given; it must be the exact total.
        assert law.mass == Fraction(sum(c * x for c, x in zip(counts, law.nums)), law.den)
        assert law.tv_to_uniform() == tv_reference(law)

    def test_poissonized_law_below_full_mass(self):
        law = poissonized_law(12, MIX23, 3.0, 0.3)
        assert law.mass < 1
        assert tv_to_uniform(law) == tv_reference(law)

    def test_no_class_above_uniform(self):
        # Every class at or below uniform: the reduction's sums are empty and
        # only the missing mass counts.
        law = poissonized_law(3, MIX23, 20.0, 0.5)
        assert law.nums[0] <= law.den // math.factorial(3)
        assert tv_to_uniform(law) == (1 - law.mass) / 2 == tv_reference(law)
        assert tv_to_uniform(m_shuffle_law(1, 3)) == 0 == tv_reference(m_shuffle_law(1, 3))


def tv_reference(law):
    """sum(count * |num * n! - den|) / (2 * den * n!): TV summed over every class."""
    nfact = math.factorial(law.n)
    counts = eulerian_row(law.n)
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


def test_end_classes_match_their_closed_forms():
    # An M-shuffle gives class r = n the probability C(M, n)/M^n and class
    # r = 1 C(M + n - 1, n)/M^n, so a k-step law's end classes are their means
    # over the product pack count M_k, with no Eulerian row. From k = 26 on
    # (27 product atoms) the moment evaluator builds the law.
    n = 52
    assert not laws._moments_pay(n, 26) and laws._moments_pay(n, 27)
    nfact = math.factorial(n)
    for k in range(41):
        atoms = [(2**a * 3 ** (k - a), Fraction(math.comb(k, a), 2**k)) for a in range(k + 1)]
        last = sum(w * Fraction(math.comb(m, n), m**n) for m, w in atoms)
        first = sum(w * Fraction(math.comb(m + n - 1, n), m**n) for m, w in atoms)
        law = law_after_k(n, MIX23, k)
        assert (law.prob(n), law.prob(1)) == (last, first), k
        # Separation 1 - n! min P bounds TV, and the least likely class is r = n.
        assert tv_to_uniform(law) <= 1 - nfact * last, k


@pytest.mark.parametrize(
    ("p", "rows"),
    [
        (
            PackDistribution.delta(2),
            {5: (0.9237, 1.0), 6: (0.6135, 1.0), 7: (0.3341, 1.0), 8: (0.1672, 0.9962),
             9: (0.0854, 0.9315), 10: (0.0429, 0.7321), 11: (0.0215, 0.4795),
             12: (0.0108, 0.2775), 13: (0.0054, 0.1497), 14: (0.0027, 0.0778),
             15: (0.0013, 0.0397), 16: (0.0007, 0.0200), 17: (0.0003, 0.0101)},
        ),
        (
            MIX23,
            {3: (0.9882, 1.0), 4: (0.8090, 1.0), 5: (0.4652, 0.9999), 6: (0.2202, 0.9886),
             7: (0.0942, 0.8873), 8: (0.0399, 0.6410), 9: (0.0167, 0.3689),
             10: (0.0069, 0.1815), 11: (0.0029, 0.0818), 12: (0.0012, 0.0353),
             13: (0.0005, 0.0149)},
        ),
    ],
    ids=["gsr", "mix23"],
)
def test_tv_and_separation_table_at_52_is_pinned(p, rows):
    # The README's n = 52 columns of TV next to sep = 1 - E[prod(1 - i/M_k)],
    # at exactly the k where either lies in [0.01, 0.99].
    n, shown = 52, {}
    for k, law, (weights, den) in zip(range(25), k_step_laws(n, p), product_laws(p)):
        sep = 1 - sum(Fraction(w * math.perm(m, n), den * m**n) for m, w in weights.items())
        tv = tv_to_uniform(law)
        if any(Fraction(1, 100) <= x <= Fraction(99, 100) for x in (tv, sep)):
            shown[k] = (round(float(tv), 4), round(float(sep), 4))
    assert shown == rows


class TestPackDistribution:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PackDistribution.from_pairs({2: Fraction(1, 2)})  # mass 1/2
        with pytest.raises(ValueError):
            PackDistribution([(2, Fraction(1, 2)), (2, Fraction(1, 2))])
        with pytest.raises(ValueError):
            PackDistribution.from_pairs({0: Fraction(1)})

    def test_equal_and_hash_equal_whatever_the_order_or_zero_atoms(self):
        half = Fraction(1, 2)
        p = PackDistribution([(2, half), (3, half)])
        for q in (
            PackDistribution([(3, half), (2, half)]),
            PackDistribution([(5, 0), (3, half), (1, Fraction(0)), (2, half)]),
            PackDistribution.from_pairs({3: half, 2: half, 7: 0}),
        ):
            assert q == p and hash(q) == hash(p)
            assert q.atoms == ((2, half), (3, half))
        assert PackDistribution([(2, 1), (3, 0)]) == PackDistribution.delta(2)
        assert p != PackDistribution.delta(2)
        assert repr(p) == "PackDistribution({2: 1/2, 3: 1/2})"

    @pytest.mark.parametrize(
        ("atoms", "message"),
        [
            ([], "pack distribution needs at least one atom"),
            ([(0, 1)], "pack count must be >= 1, got 0"),
            ([(2, Fraction(1, 2)), (2, Fraction(1, 2))], "duplicate pack count 2"),
            ([(2, Fraction(3, 2)), (3, Fraction(-1, 2))], "probability out of [0,1] for m=2"),
            ([(2, Fraction(1, 2))], "pack probabilities sum to 1/2, not 1"),
        ],
    )
    def test_constructor_error_messages(self, atoms, message):
        with pytest.raises(ValueError) as info:
            PackDistribution(atoms)
        assert str(info.value) == message

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            # As a list index, r = 0 would write class n, here with its own value.
            (lambda data: data["entries"][-1].update(r=0), "bad or repeated class r=0"),
            # A repeated class with its own value would pass the mass check.
            (lambda data: data["entries"].append(dict(data["entries"][-1])), "bad or repeated class r=5"),
            (lambda data: data["entries"][-1].update(r=6), "bad or repeated class r=6"),
            # As a list index, r = -2 would move class 1 to class 3 ("increases").
            (lambda data: data["entries"][0].update(r=-2), "bad or repeated class r=-2"),
            (lambda data: data["entries"].pop(), "needs an entry for each class"),
            # Each of these once escaped as ZeroDivisionError, KeyError or TypeError.
            (lambda data: data["entries"][0].update(prob_den="0"), "positive prob_den, got 0"),
            (lambda data: data["entries"][0].pop("r"), "bad or repeated class r=None"),
            (lambda data: data["entries"][0].pop("prob_num"), "needs prob_num as a decimal string"),
            (lambda data: data["entries"][0].pop("prob_den"), "needs prob_den as a decimal string"),
            (lambda data: data["entries"][0].update(prob_num=1), "needs prob_num as a decimal string, got 1"),
            (lambda data: data["entries"][0].update(count=1), "needs count as a decimal string, got 1"),
            (lambda data: data["entries"][0].update(prob_den="1_6"), "needs prob_den as a decimal string"),
            (lambda data: data["entries"][1].update(count="12"), "class r=2 of n=5 has count 12, not 26"),
            (lambda data: data.update(entries=None), "needs a list of entries, got None"),
            (lambda data: data["entries"].append(7), "bad or repeated class r=None"),
            (lambda data: data.pop("n"), "JSON integer >= 1, got n=None"),
            # A top level that is not an object replaces the document.
            (lambda data: [data], "JSON integer >= 1, got n=None"),
        ],
        ids=[
            "r-zero", "r-repeated", "r-past-n", "r-negative", "r-missing",
            "den-zero", "r-absent", "num-absent", "den-absent", "num-number", "count-number",
            "den-not-digits", "count-wrong", "entries-null", "entry-not-object", "n-absent",
            "not-object",
        ],
    )
    def test_class_entries_are_checked(self, edit, message):
        # An edit changes the document in place; one that returns a list has replaced it.
        data = json.loads(law_to_json(law_after_k(5, MIX23, 2)))
        document = edit(data)
        if not isinstance(document, list):
            document = data
        with pytest.raises(ValueError, match=message):
            law_from_json(json.dumps(document))

    def test_deeply_nested_document_raises_value_error(self):
        # json's parser recurses once per level and raised RecursionError here.
        with pytest.raises(ValueError, match="nested too deeply"):
            law_from_json("[" * 100_000)

    # int() would take 5.9, "5" and true as a deck size; JSON true is a bool.
    @pytest.mark.parametrize("n", [5.9, "5", True, 0], ids=["float", "string", "true", "zero"])
    def test_deck_size_must_be_a_json_integer_at_least_one(self, n):
        data = json.loads(law_to_json(law_after_k(5, MIX23, 2)))
        data["n"] = n
        with pytest.raises(ValueError, match=f"JSON integer >= 1, got n={n!r}"):
            law_from_json(json.dumps(data))
