"""Gaussian rationals a + b*i with exact Fraction components, and vectors of
them held as integer numerators over one denominator."""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import Tuple, Union

from .errors import InputError, clipped_repr, frozen_setattr

Rat = Union[int, Q]


class GaussQ:
    """One complex number with rational real and imaginary parts.

    Parts are read by read_rational, so a float or a bool is refused. Arithmetic
    takes a GaussQ, an int or a Fraction; any other operand (a float, a bool, a
    string) gives NotImplemented.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = Q(0), im: Rat = Q(0)):
        object.__setattr__(self, "re", read_rational(re))
        object.__setattr__(self, "im", read_rational(im))

    __setattr__ = __delattr__ = frozen_setattr

    def __repr__(self):
        return f"GaussQ(re={self.re!r}, im={self.im!r})"

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


class ScaledVec:
    """A Gaussian-rational vector as integer numerators over one denominator.

    Entry k is (re[k] + im[k] i) / den. The form is normal: den >= 1 and
    gcd(den, *re, *im) = 1, so two vectors are equal exactly when their fields
    are, and pairings with integer vectors, images under integer matrices and
    lattice tests are integer arithmetic. This is the RatWeight idiom of the
    atlas software (Adams-du Cloux 2009); format_vec writes it out from the
    numerators.
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
        """From the entries read_gauss accepts (never a float or a bool); a ScaledVec as is.

        A string entry is read by parse_gauss_scaled, so no GaussQ is built.
        """
        if isinstance(entries, cls):
            return entries
        triples = list(map(_scaled_entry, entries))
        den = lcm(*(d for _, _, d in triples))
        return cls([a * (den // d) for a, _, d in triples],
                   [b * (den // d) for _, b, d in triples], den)

    def apply(self, m) -> "ScaledVec":
        """The image under an integer matrix m (rows)."""
        return ScaledVec([sum(map(mul, row, self.re)) for row in m],
                         [sum(map(mul, row, self.im)) for row in m], self.den)

    def __neg__(self) -> "ScaledVec":
        return ScaledVec([-x for x in self.re], [-x for x in self.im], self.den)

    def __add__(self, other: "ScaledVec") -> "ScaledVec":
        return self._combine(other, 1)

    def __sub__(self, other: "ScaledVec") -> "ScaledVec":
        return self._combine(other, -1)

    def _combine(self, other: "ScaledVec", sign: int) -> "ScaledVec":
        """self + sign * other over the least common denominator."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return ScaledVec([x * a + y * b for x, y in zip(self.re, other.re)],
                         [x * a + y * b for x, y in zip(self.im, other.im)], den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledVec):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __repr__(self):
        return f"ScaledVec({format_vec(self)})"


def _ratio(n: int, d: int) -> str:
    """n/d for d >= 1 in lowest terms, written as str(Fraction(n, d)) is."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _gauss_text(a: int, b: int, den: int) -> str:
    """(a + b i)/den in canonical "a/b+c/di" form, one gcd per part; pure reals drop the i."""
    if not b:
        return _ratio(a, den)
    return f"{_ratio(a, den)}{'+' if b > 0 else '-'}{_ratio(abs(b), den)}i"


def _scaled_entry(x) -> Tuple[int, int, int]:
    """read_gauss(x) as integers (a, b, den), den >= 1 and not reduced: x = (a + b i) / den.

    A string (parse_gauss_scaled) or a rational (read_rational) builds no GaussQ,
    and an int no Fraction either.
    """
    if isinstance(x, str):
        return parse_gauss_scaled(x)
    if type(x) is int:
        return x, 0, 1
    re, im = (x.re, x.im) if isinstance(x, GaussQ) else (read_rational(x), Q(0))
    return (re.numerator * im.denominator, im.numerator * re.denominator,
            re.denominator * im.denominator)


def format_gauss(z: GaussQ) -> str:
    """Canonical "a/b+c/di" form; pure reals drop the imaginary half."""
    return _gauss_text(*_scaled_entry(z))


def format_vec(v: ScaledVec) -> list:
    """format_gauss of every entry, written straight from the numerators."""
    return [_gauss_text(a, b, v.den) for a, b in zip(v.re, v.im)]


def format_tuple(v: ScaledVec) -> str:
    """format_vec joined as "(a, b, ...)", the form of vectors in reports."""
    return "(" + ", ".join(format_vec(v)) + ")"


# The one numeral grammar: a sign, ASCII digits and an optional "/" with ASCII
# digits, with optional surrounding white space.
_NUMERAL = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _numeral(x) -> Tuple[int, int]:
    """(numerator, denominator) of a string in the numeral grammar, as written; ValueError otherwise."""
    m = isinstance(x, str) and _RATIONAL_RE.fullmatch(x)
    if not m or m[2] and not int(m[2]):
        raise ValueError(f"bad rational: {x!r}")
    return int(m[1]), int(m[2] or 1)


def parse_rational(x) -> Q:
    """A document numeral, an int or a string in the numeral grammar; ValueError otherwise."""
    return Q(x) if type(x) is int else Q(*_numeral(x))


def read_rational(x) -> Q:
    """A library-API entry: a Fraction as is, an int or a numeral by parse_rational, else InputError."""
    if isinstance(x, Q):
        return x
    try:
        return parse_rational(x)
    except ValueError as exc:
        raise InputError(f"bad rational entry: {clipped_repr(x)}") from exc


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


def _coefficient(text: str) -> Tuple[int, int]:
    """_numeral of the numeral before an i, where a bare sign or nothing stands for 1."""
    return (-1 if text == "-" else 1, 1) if text in ("", "+", "-") else _numeral(text)


def parse_gauss_scaled(text: str) -> Tuple[int, int, int]:
    """parse_gauss as integers (a, b, den), den >= 1 and not reduced: the number is (a + b i) / den."""
    if not isinstance(text, str):
        raise InputError(f"expected a string, got {clipped_repr(text)}")
    m = _GAUSS_RE.fullmatch(text)
    try:
        if m is None:
            raise ValueError(text)
        if m["pure"] is not None:
            (a, c), (b, d) = (0, 1), _coefficient(m["pure"])
        else:
            (a, c), (b, d) = _numeral(m["re"]), _coefficient(m["im"]) if m["im"] else (0, 1)
    except ValueError as exc:
        raise InputError(f"bad Gaussian rational: {clipped_repr(text)}") from exc
    return a * d, b * c, c * d


def parse_gauss(text: str) -> GaussQ:
    """Parse "a/b", "a/b+c/di", "c/di", "-i" and friends."""
    a, b, den = parse_gauss_scaled(text)
    return GaussQ(Q(a, den), Q(b, den))
