"""Exact amplitude values.

A multi-copy state is a tensor product of one-copy blocks: each tuple's
amplitude is the square root of the product of its blocks' squared
moduli.  The oracles then act only as diagonal +/-1 operators, so
amplitudes are never added or multiplied; they are only sign-flipped.
That makes ``sign * sqrt(mag2)`` with a rational ``mag2`` a closed
exact representation for every state the constructions produce (all
squared moduli in the source material are rational).  ``AmpState``
takes and gives back such values, and inside keeps the moduli in a
table and the signs in one int.  The only inner products the package
takes are between two oracle outputs of one input state,
<O_k psi|O_h psi> = sum_a |psi_a|^2 (+/-1), so every overlap is a plain
rational sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SqrtRational:
    """The real number ``sign * sqrt(mag2)`` with ``mag2`` a nonnegative
    rational.  ``sign`` is -1, 0 or +1, and 0 exactly when ``mag2`` is 0."""

    sign: int
    mag2: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign!r}")
        if self.mag2 < 0:
            raise ValueError(f"mag2 must be nonnegative, got {self.mag2}")
        if (self.sign == 0) != (self.mag2 == 0):
            raise ValueError("sign is 0 exactly when mag2 is 0")

    @classmethod
    def zero(cls) -> "SqrtRational":
        return cls(0, Fraction(0))

    @classmethod
    def sqrt(cls, mag2, sign: int = 1) -> "SqrtRational":
        """The value ``sign * sqrt(mag2)``."""
        mag2 = Fraction(mag2)
        if mag2 == 0:
            return cls.zero()
        return cls(1 if sign >= 0 else -1, mag2)

    def __neg__(self) -> "SqrtRational":
        if self.sign == 0:
            return self
        return SqrtRational(-self.sign, self.mag2)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


def rational_sqrt(q: Fraction) -> Fraction | None:
    """sqrt(q) as a Fraction when q is a perfect rational square, else None."""
    if q < 0:
        return None
    pn, pd = q.numerator, q.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def signed_sqrt_sum(terms: list[tuple[int, Fraction]]) -> Fraction:
    """Exact sum of the values sign*sqrt(mag2).

    The signs are summed per distinct mag2 first, so each root is taken
    once.  Every mag2 must be a perfect rational square.  ``overlap``
    passes one term (c*q)^2 per modulus class q for two states on one
    table, c the rows that agree less those that differ.  For states on
    different tables it passes mag2_x * mag2_y per shared tuple, a
    square when the two moduli agree (|psi_a|^4); any term that is not a
    square raises ValueError.
    """
    coefficients: dict[Fraction, int] = {}
    for sign, mag2 in terms:
        coefficients[mag2] = coefficients.get(mag2, 0) + sign
    total = Fraction(0)
    for mag2, coefficient in coefficients.items():
        root = rational_sqrt(mag2)
        if root is None:
            raise ValueError(f"sqrt({mag2}) is not rational")
        total += coefficient * root
    return total
