"""Gaussian rationals a + b*i with exact Fraction components, and vectors of
them held as integer numerators over one denominator."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import Tuple, Union

from .errors import InputError

Rat = Union[int, Q]


@dataclass(frozen=True, eq=False)
class GaussQ:
    """One complex number with rational real and imaginary parts.

    Parts are read by read_rational, so a float or a bool is refused. Arithmetic
    takes a GaussQ, an int or a Fraction; any other operand (a float, a bool, a
    string) gives NotImplemented.
    """

    re: Q = Q(0)
    im: Q = Q(0)

    def __post_init__(self):
        object.__setattr__(self, "re", read_rational(self.re))
        object.__setattr__(self, "im", read_rational(self.im))

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussQ):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Q)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # equal to hash of the plain rational when the imaginary part is zero
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    # perfbench wraps these seven by name (GAUSS_ARITH) and adds a Fraction to a GaussQ.
    def __add__(self, other: "GaussQ | Rat") -> "GaussQ":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussQ | Rat") -> "GaussQ":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: Rat) -> "GaussQ":
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __neg__(self) -> "GaussQ":
        return GaussQ(-self.re, -self.im)

    def __mul__(self, other: "GaussQ | Rat") -> "GaussQ":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_gauss(self)


def _operand(x) -> "GaussQ | None":
    """An arithmetic operand as a GaussQ: a GaussQ, an int that is not a bool, or a Fraction."""
    if isinstance(x, GaussQ):
        return x
    return GaussQ(x) if type(x) is int or isinstance(x, Q) else None


GVec = Tuple[GaussQ, ...]


class ScaledVec:
    """A Gaussian-rational vector as integer numerators over one denominator.

    Entry k is (re[k] + im[k] i) / den. The form is normal: den >= 1 and
    gcd(den, *re, *im) = 1, so two vectors are equal exactly when their fields
    are, and pairings with integer vectors, images under integer matrices and
    lattice tests are integer arithmetic. This is the RatWeight idiom of the
    atlas software (Adams-du Cloux 2009); GaussQ entries appear only where a
    vector is read in or written out.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im, den: int):
        """Bring (re + im i) / den, with integer entries and den >= 1, to normal form."""
        g = gcd(den, *re, *im)
        if g != 1:
            re = [x // g for x in re]
            im = [x // g for x in im]
            den //= g
        self.re = tuple(re)
        self.im = tuple(im)
        self.den = den

    @classmethod
    def of(cls, entries) -> "ScaledVec":
        """From entries read by read_gauss (never a float or a bool); a ScaledVec as is."""
        if isinstance(entries, cls):
            return entries
        pairs = [(z.re, z.im) for z in map(read_gauss, entries)]
        den = lcm(*(x.denominator for pair in pairs for x in pair))
        return cls([a.numerator * (den // a.denominator) for a, _ in pairs],
                   [b.numerator * (den // b.denominator) for _, b in pairs], den)

    def gvec(self) -> GVec:
        return tuple(GaussQ(Q(a, self.den), Q(b, self.den)) for a, b in zip(self.re, self.im))

    def apply(self, m) -> "ScaledVec":
        """The image under an integer matrix m (rows)."""
        return ScaledVec([sum(map(mul, row, self.re)) for row in m],
                         [sum(map(mul, row, self.im)) for row in m], self.den)

    def __neg__(self) -> "ScaledVec":
        return ScaledVec([-x for x in self.re], [-x for x in self.im], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledVec):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __repr__(self):
        return f"ScaledVec({[format_gauss(z) for z in self.gvec()]})"


def format_gauss(z: GaussQ) -> str:
    """Canonical "a/b+c/di" form; pure reals drop the imaginary half."""
    if z.im == 0:
        return str(z.re)
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"


# The one numeral grammar: a sign, ASCII digits and an optional "/" with ASCII
# digits, with optional surrounding white space.
_NUMERAL = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(x) -> Q:
    """A document numeral, an int or a string in the numeral grammar; ValueError otherwise."""
    if type(x) is int:
        return Q(x)
    m = isinstance(x, str) and _RATIONAL_RE.fullmatch(x)
    if not m or m[2] and not int(m[2]):
        raise ValueError(f"bad rational: {x!r}")
    return Q(int(m[1]), int(m[2] or 1))


def read_rational(x) -> Q:
    """A library-API entry: a Fraction as is, an int or a numeral by parse_rational, else InputError."""
    if isinstance(x, Q):
        return x
    try:
        return parse_rational(x)
    except ValueError as exc:
        raise InputError(f"bad rational entry: {x!r}") from exc


def read_gauss(x) -> GaussQ:
    """read_rational for Gaussian entries: a GaussQ as is, a string by parse_gauss."""
    if isinstance(x, GaussQ):
        return x
    return parse_gauss(x) if isinstance(x, str) else GaussQ(read_rational(x))


def parse_integer(text: str) -> int:
    """An integer numeral: the numeral grammar without a denominator."""
    m = isinstance(text, str) and _RATIONAL_RE.fullmatch(text)
    if not m or m[2] is not None:
        raise ValueError(f"bad integer: {text!r}")
    return int(m[1])


# "a", "a+bi", "a-i", or a pure imaginary "bi", "-i"; every a and b is a numeral
_GAUSS_RE = re.compile(rf"\s*(?:(?P<re>[+-]?{_NUMERAL})(?:(?P<im>[+-](?:{_NUMERAL})?)i)?"
                       rf"|(?P<pure>[+-]?(?:{_NUMERAL})?)i)\s*")


def _coefficient(text: str) -> Q:
    """The numeral before an i, where a bare sign or nothing stands for 1."""
    return Q(-1 if text == "-" else 1) if text in ("", "+", "-") else parse_rational(text)


def parse_gauss(text: str) -> GaussQ:
    """Parse "a/b", "a/b+c/di", "c/di", "-i" and friends."""
    if not isinstance(text, str):
        raise InputError(f"expected a string, got {text!r}")
    m = _GAUSS_RE.fullmatch(text)
    try:
        if m is None:
            raise ValueError(text)
        if m["pure"] is not None:
            return GaussQ(0, _coefficient(m["pure"]))
        return GaussQ(parse_rational(m["re"]), _coefficient(m["im"]) if m["im"] else 0)
    except ValueError as exc:
        raise InputError(f"bad Gaussian rational: {text!r}") from exc
