"""Half-integers stored exactly as twice their value."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering, wraps


@total_ordering
class HalfInt:
    """An element of (1/2)Z.

    Internally only ``twice`` (an int equal to 2x) is stored, so spins,
    weights and exponents never touch floating point.  Addition,
    subtraction and multiplication by an int stay inside (1/2)Z and are
    supported; a general product of two half-integers may leave the set
    and is deliberately not defined.
    """

    __slots__ = ("twice",)

    def __init__(self, value):
        if isinstance(value, HalfInt):
            self.twice = value.twice
        elif isinstance(value, int):
            self.twice = 2 * value
        elif isinstance(value, Fraction):
            if value.denominator not in (1, 2):
                raise ValueError(f"{value} is not a half-integer")
            self.twice = int(value * 2)
        else:
            raise TypeError(f"cannot build HalfInt from {value!r}")

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        self = object.__new__(cls)
        self.twice = int(twice)
        return self

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "k" or "k/2" with k an integer; anything else is an error."""
        text = text.strip()
        if "/" in text:
            numpart, _, denpart = text.partition("/")
            if denpart.strip() != "2":
                raise ValueError(f"not a half-integer literal: {text!r}")
            return cls.from_twice(int(numpart))
        return cls(int(text))

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, other):
        other = HalfInt(other) if not isinstance(other, HalfInt) else other
        return HalfInt.from_twice(self.twice + other.twice)

    __radd__ = __add__

    def __sub__(self, other):
        other = HalfInt(other) if not isinstance(other, HalfInt) else other
        return HalfInt.from_twice(self.twice - other.twice)

    def __rsub__(self, other):
        return HalfInt(other).__sub__(self)

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt.from_twice(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        other = HalfInt(other) if not isinstance(other, HalfInt) else other
        return self.twice < other.twice

    def __hash__(self):
        return hash(self.as_fraction())

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"


def as_half(x) -> HalfInt:
    """x as a HalfInt; a HalfInt passes through unchanged."""
    return x if isinstance(x, HalfInt) else HalfInt(x)


def spin_cache(fn):
    """``lru_cache`` for a builder whose arguments are all spins, keyed by
    the spins as HalfInts.

    ``lru_cache`` keys a lone int apart from the equal HalfInt, so
    ``fn(1)`` and ``fn(HalfInt(1))`` would build twice; here both share
    one entry.  ``cache_info`` and ``cache_clear`` are those of the
    underlying cache."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def by_spins(*spins):
        return cached(*map(as_half, spins))

    by_spins.cache_info = cached.cache_info
    by_spins.cache_clear = cached.cache_clear
    return by_spins
