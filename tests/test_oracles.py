from fractions import Fraction
from itertools import permutations

import pytest

from riffle.laws import (
    PackDistribution,
    SizeGuardError,
    law_after_k,
    m_shuffle_law,
)
from riffle.combinatorics import rising_sequences
from riffle.oracles import (
    MAX_CONVOLUTION_N,
    _fold,
    oracle_convolution,
    oracle_digit_law,
    oracle_shuffle_sequence,
)

MIX23 = PackDistribution.from_pairs({2: Fraction(1, 2), 3: Fraction(1, 2)})


class TestDigitOracle:
    def test_n2_m2(self):
        law = oracle_digit_law(2, 2)
        assert law.class_prob == (Fraction(3, 4), Fraction(1, 4))

    def test_n1_any_m(self):
        for m in (1, 2, 7):
            assert oracle_digit_law(1, m).prob(1) == 1

    def test_n5_m3_matches_closed_form(self):
        assert oracle_digit_law(5, 3) == m_shuffle_law(5, 3)

    def test_n12_m2_folds_the_tally_not_the_group(self):
        # S_12 has 4.8e8 arrangements; the 4096-word tally is folded as it is.
        assert oracle_digit_law(12, 2) == m_shuffle_law(12, 2)

    def test_word_count_guard(self):
        with pytest.raises(SizeGuardError):
            oracle_digit_law(30, 10)


class TestConvolutionOracle:
    def test_k1_matches_definition(self):
        assert oracle_convolution(4, MIX23, 1) == law_after_k(4, MIX23, 1)

    def test_two_gsr_steps_equal_4_shuffle(self):
        assert oracle_convolution(5, PackDistribution.delta(2), 2) == m_shuffle_law(5, 4)

    def test_mixture_two_steps(self):
        assert oracle_convolution(5, MIX23, 2) == law_after_k(5, MIX23, 2)

    def test_mixture_on_n4(self):
        assert oracle_convolution(4, MIX23, 2) == law_after_k(4, MIX23, 2)

    def test_deck_size_guard(self):
        with pytest.raises(SizeGuardError):
            oracle_convolution(8, MIX23, 1)


class TestShuffleSequence:
    def test_2_then_3_equals_6(self):
        assert oracle_shuffle_sequence(4, (2, 3)) == m_shuffle_law(4, 6)

    def test_order_does_not_matter(self):
        assert oracle_shuffle_sequence(4, (3, 2)) == oracle_shuffle_sequence(4, (2, 3))

    def test_2_then_3_equals_6_at_the_size_cap(self):
        assert MAX_CONVOLUTION_N == 7
        assert oracle_shuffle_sequence(7, (2, 3)) == m_shuffle_law(7, 6)

    def test_empty_sequence_is_identity(self):
        law = oracle_shuffle_sequence(3, ())
        assert law.prob(1) == 1


class TestFold:
    # n = 3: classes r = 1, 2, 3 hold 1, 4 and 1 arrangements.
    PERMS = list(permutations((1, 2, 3)))

    def test_folds_a_class_constant_table(self):
        table = {s: 3 - rising_sequences(s) for s in self.PERMS if rising_sequences(s) < 3}
        law = _fold(3, table, 6)
        assert law.class_prob == (Fraction(1, 3), Fraction(1, 6), Fraction(0))

    def test_two_numerators_in_one_class_raise(self):
        table = {s: 1 for s in self.PERMS}
        table[(2, 1, 3)] = 2
        with pytest.raises(AssertionError, match="r=2"):
            _fold(3, table, 7)

    def test_class_listed_only_in_part_raises(self):
        table = {s: 1 for s in self.PERMS if s != (2, 1, 3)}
        table[(1, 2, 3)] = 2
        with pytest.raises(AssertionError, match="r=2"):
            _fold(3, table, 6)
