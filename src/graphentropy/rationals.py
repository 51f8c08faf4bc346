"""Exact rational arithmetic backend.

gmpy2.mpq when available, plain fractions.Fraction otherwise.  Both
normalize to lowest terms with positive denominators and print as 'p/q' or
a bare integer, so serialized values are identical either way.  A Scaled
vector holds rationals as Python ints over one denominator, so exact work
on them needs no rational arithmetic at all; the exact simplex runs on such
ints, so the backend only sets the cost of the rationals made from results.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    (ints, scale) with values[i] == ints[i] / scale, and scale 1 for none.
    A Scaled vector hands over its own ints and denominator as they are."""
    if type(values) is Scaled:
        return values.ints, values.den
    scale = lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values], scale


class Scaled(Sequence):
    """A vector of rationals held as Python ints over one positive
    denominator: entry i is ints[i] / den.

    The exact LP layer computes and checks its vectors in this form.  Reading
    an entry makes its Rational; scaled() returns ints and den unconverted.
    A Scaled equals any sequence holding the same values."""

    __slots__ = ("ints", "den")

    def __init__(self, ints: list[int], den: int = 1):
        self.ints = ints
        self.den = den

    @classmethod
    def of(cls, values) -> Scaled:
        """values, rationals or ints, over their least common denominator; a
        Scaled as it is."""
        return values if type(values) is cls else cls(*scaled(tuple(values)))

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, i: int):
        return Rational(self.ints[i], self.den)

    def __iter__(self):
        den = self.den
        return (Rational(v, den) for v in self.ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        den = self.den
        return len(other) == len(self.ints) and all(v == w * den for v, w in zip(self.ints, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Scaled({self.ints!r}, {self.den})"
