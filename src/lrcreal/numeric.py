"""Exact rational arithmetic: the oracle currency of the whole package.

Backed by the standard library. ``fractions.Fraction`` already maintains the
two invariants every caller here relies on (positive denominator, fully
reduced), and ``math.gcd`` follows the gcd(0, 0) = 0 convention.
"""

from fractions import Fraction
from math import gcd

__all__ = ["Rational", "gcd"]

Rational = Fraction
