"""Exact rational arithmetic backend.

gmpy2.mpq when available (much faster inner loops in the simplex), plain
fractions.Fraction otherwise.  Both normalize to lowest terms with positive
denominators and print as 'p/q' or a bare integer, so serialized values are
identical either way.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

try:
    from gmpy2 import mpq as Rational
except ImportError:  # a source checkout run without installing gmpy2
    Rational = Fraction


def rat(p, q=1):
    """Rational p/q from ints, strings like '10/3', or existing rationals."""
    return Rational(p, q) if q != 1 else Rational(p)


def rat_str(x) -> str:
    """Lowest-terms 'p/q' rendering; integers come out bare ('3', not '3/1')."""
    return str(Rational(x))


def scaled(values) -> tuple[list[int], int]:
    """Rationals or ints as Python ints over their least common denominator:
    (ints, scale) with values[i] == ints[i] / scale, and scale 1 for none."""
    scale = lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values], scale
