from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equilib.rational import RationalParseError, format_rational, parse_rational


def test_parse_integer():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7") == Fraction(-7)


def test_parse_fraction():
    assert parse_rational("1/10") == Fraction(1, 10)
    assert parse_rational("-3/4") == Fraction(-3, 4)


def test_format_uses_slash():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(5)) == "5"


@pytest.mark.parametrize("bad", ["1/0", "0.5", "1e3", "", "a/b", "1 / 2"])
def test_rejects_non_rationals(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["３/４", "٣", "1/٣"])
def test_rejects_non_ascii_digits(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q
