"""Parsing and formatting of exact rationals.

Rationals are plain :class:`fractions.Fraction` values throughout the
package; ``Fraction`` already maintains the canonical reduced form with a
positive denominator.  These helpers exist so file formats and the CLI
share one strict "p/q" syntax instead of ``Fraction``'s more permissive
constructor (which would silently accept floats or decimal strings).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)


class RationalParseError(ValueError):
    """Raised for malformed rational literals (bad syntax or zero denominator)."""


def parse_rational(text: Fraction | str | int) -> Fraction:
    """Read an exact rational: a Fraction as it is, an int, or a ``"p"``/``"p/q"`` literal.

    Floats, bools and anything else are rejected: exactness end-to-end.
    """
    if isinstance(text, str):
        m = _RATIONAL_RE.fullmatch(text.strip())
        if m is None:
            raise RationalParseError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
        num, den = m.groups()
        if den is None:
            return Fraction(int(num))
        if int(den) == 0:
            raise RationalParseError(f"zero denominator in rational {text!r}")
        return Fraction(int(num), int(den))
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    raise RationalParseError(f"not a rational literal: {text!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (exact round-trip with parse)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_point(point: Iterable[Fraction]) -> str:
    """Render a point as ``"(p, p/q, ...)"``, each coordinate by :func:`format_rational`."""
    return "(" + ", ".join(map(format_rational, point)) + ")"
