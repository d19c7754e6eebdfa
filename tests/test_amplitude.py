"""Tests for the exact amplitude carrier and rational overlap sums."""

from fractions import Fraction

import pytest

from groverid.amplitude import SqrtRational, rational_sqrt, signed_sqrt_sum


class TestSqrtRational:
    def test_zero_normalization(self):
        z = SqrtRational.sqrt(Fraction(0))
        assert z.is_zero and z.sign == 0
        with pytest.raises(ValueError):
            SqrtRational(1, Fraction(0))
        with pytest.raises(ValueError):
            SqrtRational(0, Fraction(1, 2))

    def test_negation(self):
        b = SqrtRational.sqrt(Fraction(1, 3), sign=-1)
        assert (-b).sign == 1
        assert (-b).mag2 == Fraction(1, 3)
        assert (-SqrtRational.zero()).is_zero


class TestDecomposition:
    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(0)) == 0


class TestSignedSqrtSum:
    def test_exact_zero_across_different_mag2(self):
        # sqrt(1/4) - sqrt(1/16) - sqrt(1/16) cancels exactly
        terms = [(1, Fraction(1, 4)), (-1, Fraction(1, 16)), (-1, Fraction(1, 16))]
        assert signed_sqrt_sum(terms) == Fraction(0)

    def test_rational_total(self):
        terms = [(1, Fraction(1, 4)), (1, Fraction(1, 4)), (-1, Fraction(1, 16))]
        assert signed_sqrt_sum(terms) == Fraction(3, 4)

    def test_non_square_term_raises(self):
        with pytest.raises(ValueError):
            signed_sqrt_sum([(1, Fraction(1, 4)), (1, Fraction(2, 9))])

    def test_empty_and_zero_terms(self):
        assert signed_sqrt_sum([]) == Fraction(0)
        assert signed_sqrt_sum([(0, Fraction(0)), (1, Fraction(0))]) == Fraction(0)
