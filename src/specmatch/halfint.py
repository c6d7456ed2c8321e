"""Exact half-integers stored as doubled integers."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_HALF_RE = re.compile(r"^[+-]?\d+(?:/2|\.[05])?$")


@dataclass(frozen=True, order=True)
class HalfIntegral:
    """The value ``doubled / 2``, kept exact by storing the numerator only.

    Fractional matching numbers are always of this form, so all arithmetic
    on them stays over the integers.
    """

    doubled: int

    def __post_init__(self):
        # a float or bool numerator would print as a non-half-integer and
        # fail later, far from its source
        if not isinstance(self.doubled, int) or isinstance(self.doubled, bool):
            raise TypeError(f"HalfIntegral needs an int numerator, got {type(self.doubled).__name__} {self.doubled!r}")

    @classmethod
    def parse(cls, text: str) -> HalfIntegral:
        """Parse 'k/2', 'x.0', 'x.5' or a bare integer; reject other decimals."""
        s = text.strip()
        if not _HALF_RE.match(s):
            raise ValueError(f"not a half-integer literal: {text!r}")
        if s.endswith("/2"):
            return cls(int(s[:-2]))
        return cls(int(Fraction(s) * 2))

    @property
    def value(self) -> float:
        return self.doubled / 2.0

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"
