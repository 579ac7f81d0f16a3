import pytest
from fractions import Fraction

from ospq.halfint import HalfInt


def test_parse_forms():
    assert HalfInt.parse("2") == 2
    assert HalfInt.parse("3/2") == Fraction(3, 2)
    assert HalfInt.parse("-1/2") == Fraction(-1, 2)
    assert HalfInt.parse(" 1 ") == 1


def test_parse_rejects_other_denominators():
    with pytest.raises(ValueError):
        HalfInt.parse("5/4")
    with pytest.raises(ValueError):
        HalfInt.parse("1/3")


def test_arithmetic_closure():
    j = HalfInt.parse("3/2")
    assert (j + j).twice == 6
    assert (j - HalfInt.parse("1/2")) == 1
    assert (-j).twice == -3
    assert (j * 4).twice == 12
    assert 2 * j == 3


def test_ordering_and_str():
    vals = [HalfInt.parse(t) for t in ["1", "-1/2", "3/2", "0"]]
    assert sorted(map(str, sorted(vals))) == sorted(["-1/2", "0", "1", "3/2"])
    assert str(HalfInt.parse("3/2")) == "3/2"
    assert str(HalfInt(2)) == "2"
