"""Semisimple finite-dimensional representations of the real Weil group.

The group is C^x together with an element j, j^2 = -1, j z j^{-1} = zbar.
Every irreducible is one of two families, and a semisimple representation is
a multiset of them:

  chi(t, eps): one-dimensional, z -> (z zbar)^t and j -> (-1)^eps;
  I(k, t):     two-dimensional, induced from z -> (z/|z|)^k (z zbar)^t.

Conventions fixed here once: k >= 1 after normalization (I(-k,t) and I(k,t)
are exchanged by conjugation inside the induced picture), and I(0,t) is not
irreducible, splitting as chi(t,0) + chi(t,1); rep-level constructors do the
split automatically. Exponents t are Gaussian rationals.

A representation is held as its sorted blocks (k, eps), k = 0 for a
character, and one ScaledVec of exponents, entry i belonging to block i, so
the dualities, sorting, parsing and the GL(n) bridge are integer
arithmetic; a GaussQ exponent is built only for a WeilIrr irreducible.

This is the GL(n) end of the dictionary: a multiset of total dimension n is
the same thing as a parameter into GL(n,C) in diagonal-block position, and
the contragredient on parameters is t -> -t summandwise here. The bridge
functions import the library modules they use when they run, so reading a
literal loads only errors and gaussian, and a malformed one is refused before
the rest of the library is compiled.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import cache
from math import lcm
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, InputError, clipped_repr
from .gaussian import (GaussQ, ScaledVec, format_gauss, format_vec, parse_gauss_scaled,
                       parse_integer, read_gauss)

if TYPE_CHECKING:
    from .lgroup import LGroup
    from .lparam import LParam


class WeilIrr(namedtuple("WeilIrr", "kind t eps k", defaults=(0, 0))):
    """An irreducible: kind "chi" or "ind", exponent t, eps (chi only) and k (ind only)."""

    __slots__ = ()

    def dim(self) -> int:
        return 1 if self.kind == "chi" else 2

    def __repr__(self):
        return format_irr(self)


def _eps(eps) -> int:
    """eps itself, if it is the int 0 or 1; InputError otherwise."""
    if type(eps) is not int or eps not in (0, 1):
        raise InputError(f"eps must be 0 or 1, got {clipped_repr(eps)}")
    return eps


def weil_chi(t, eps: int) -> WeilIrr:
    """chi(t, eps); t is read by read_gauss and eps must be the int 0 or 1."""
    return WeilIrr("chi", read_gauss(t), eps=_eps(eps))


def weil_ind(k: int, t) -> WeilIrr:
    """I(|k|, t); t is read by read_gauss and k must be a nonzero int (not a bool or a float)."""
    if type(k) is not int or k == 0:
        raise InputError(f"I(k,t) needs a nonzero integer k, got {clipped_repr(k)}; "
                         "I(0,t) is reducible, build it at the rep level")
    return WeilIrr("ind", read_gauss(t), k=abs(k))


class WeilRep(namedtuple("WeilRep", "blocks t")):
    """Sorted blocks (k, eps), k = 0 for a character, and their exponents t.

    Block i has exponent (t.re[i] + t.im[i] i) / t.den; blocks are sorted on
    (k, re, im, eps).
    """

    __slots__ = ()

    @property
    def summands(self) -> Tuple[WeilIrr, ...]:
        t = self.t
        exps = (GaussQ(Q(a, t.den), Q(b, t.den)) for a, b in zip(t.re, t.im))
        return tuple(WeilIrr("ind", z, k=k) if k else WeilIrr("chi", z, eps=eps)
                     for (k, eps), z in zip(self.blocks, exps))

    def dim(self) -> int:
        return sum(2 if k else 1 for k, _ in self.blocks)

    def __repr__(self):
        return format_rep(self)


def _rep(rows, den: int) -> WeilRep:
    """The rep of rows (k, re, im, eps), exponents (re + im i) / den, sorted."""
    rows = sorted(rows)
    return WeilRep(tuple((k, eps) for k, _, _, eps in rows),
                   ScaledVec([r[1] for r in rows], [r[2] for r in rows], den))


def weil_rep(items: Sequence[WeilIrr]) -> WeilRep:
    """Multiset of irreducibles, held as sorted blocks and one exponent vector."""
    items = list(items)
    for it in items:
        if not isinstance(it, WeilIrr):
            raise InputError(f"not a Weil irreducible: {clipped_repr(it)}")
    t = ScaledVec.of([it.t for it in items])
    return _rep(zip((it.k for it in items), t.re, t.im, (it.eps for it in items)), t.den)


def weil_dual(r: WeilRep) -> WeilRep:
    """Contragredient: t -> -t on every summand."""
    t = r.t
    return _rep(((k, -a, -b, eps) for (k, eps), a, b in zip(r.blocks, t.re, t.im)), t.den)


def weil_hermitian_dual(r: WeilRep) -> WeilRep:
    """Hermitian dual: t -> -conj(t) on every summand."""
    t = r.t
    return _rep(((k, -a, b, eps) for (k, eps), a, b in zip(r.blocks, t.re, t.im)), t.den)


def weil_is_hermitian(r: WeilRep) -> bool:
    return weil_hermitian_dual(r) == r


def weil_is_unitary(r: WeilRep) -> bool:
    """Bounded image: every exponent has zero real part."""
    return not any(r.t.re)


def _lam(r: WeilRep) -> ScaledVec:
    """lambda in block order: t per character, (t + k/2, t - k/2) per induced."""
    t, re, im = r.t, [], []
    for (k, _), a, b in zip(r.blocks, t.re, t.im):
        if k:
            re.extend((2 * a + k * t.den, 2 * a - k * t.den))
            im.extend((2 * b, 2 * b))
        else:
            re.append(2 * a)
            im.append(2 * b)
    return ScaledVec(re, im, 2 * t.den)


def weil_inf_char(r: WeilRep) -> ScaledVec:
    """Exponent multiset: {t} per character, {t + k/2, t - k/2} per induced.

    Entries are sorted by (real, imaginary) part.
    """
    lam = _lam(r)
    pairs = sorted(zip(lam.re, lam.im))
    return ScaledVec([a for a, _ in pairs], [b for _, b in pairs], lam.den)


# ---------------------------------------------------------------------------
# the bridge to parameters over GL(n) split

@cache
def _gl_lgroup(n: int) -> LGroup:
    """The split L-group of GL(n), built once per n."""
    from .lgroup import lgroup_split
    from .rootdata import build_datum

    return lgroup_split(build_datum(f"GL({n})"))


def weil_to_lparam(r: WeilRep, n: Optional[int] = None) -> LParam:
    """Diagonal-block parameter into GL(dim) with the standard split L-group.

    chi(t,eps) fills one coordinate: lambda-entry t, mu-entry eps/2, w fixes
    it. I(k,t) fills two consecutive coordinates: lambda-entries t +- k/2,
    w swaps them, mu-entries ((k-1)/2, 0); the parity condition on mu is one
    congruence per block and that choice satisfies it for either parity of k.
    GL(n) is supported for n <= 9, so a larger rep is refused here.
    """
    from .lparam import make_param
    from .tits import TorusPart

    dim = r.dim()
    if n is not None and n != dim:
        raise DimensionMismatch(f"rep has dimension {dim}, expected {n}")
    if dim > 9:
        raise InputError(f"rep has dimension {dim}; the GL(n) bridge supports n <= 9")
    mu: List[int] = []
    word: List[int] = []
    for k, eps in r.blocks:
        if k:
            word.append(len(mu) + 1)
            mu.extend((k - 1, 0))
        else:
            mu.append(eps)
    return make_param(_gl_lgroup(dim), _lam(r), TorusPart.scaled(mu, 2), word)


def lparam_to_weilrep(p: LParam) -> WeilRep:
    """Inverse bridge for parameters over GL(n) split, up to equivalence.

    The w-part must be an involutive permutation; fixed coordinates give
    characters (eps = 2 mu mod 2), 2-cycles give I(lambda_i - lambda_j, t)
    with t the coordinate average. A 2-cycle with equal lambda-entries is
    the reducible I(0,t) and splits; such a parameter is equivalent to the
    split one in GL(n,C) but not within the torus normalizer, so this map
    is the coarser of the two equivalences.
    """
    from .intlinalg import ident

    d = p.L.dual_datum
    n = d.rank
    if p.L.theta0.matrix != ident(n):
        raise InputError("bridge needs the split inner class")
    if d.label != f"GL({n})":
        raise InputError(f"bridge needs a GL(n) datum, got {d.label!r}")
    m = p.w.matrix
    re, im, den = p.lam.re, p.lam.im, p.lam.den
    mu, mu_den = p.mu.num, p.mu.den
    img = []
    for i in range(n):
        col = [r for r in range(n) if m[r][i] != 0]
        if len(col) != 1 or m[col[0]][i] != 1:
            raise InputError("w-part is not a permutation")
        img.append(col[0])
    # rows (k, re, im, eps) with exponents over 2 den
    rows = []
    for i in range(n):
        j = img[i]
        if j == i:
            if 2 * mu[i] % mu_den:
                raise InputError("mu-entry of a fixed coordinate must be in (1/2)Z")
            rows.append((0, 2 * re[i], 2 * im[i], 2 * mu[i] // mu_den % 2))
        elif j > i:
            if im[i] != im[j] or (re[i] - re[j]) % den:
                raise InputError("lambda-entries of a 2-cycle must differ by an integer")
            k = abs(re[i] - re[j]) // den
            a, b = re[i] + re[j], im[i] + im[j]
            rows.extend([(k, a, b, 0)] if k else [(0, a, b, 0), (0, a, b, 1)])
        elif img[j] != i:
            raise InputError("w-part is not an involution")
    return _rep(rows, 2 * den)


# ---------------------------------------------------------------------------
# literals

def _term(k: int, t: str, eps: int) -> str:
    """One literal term: chi(t,eps) for k = 0, else I(k,t)."""
    return f"I({k},{t})" if k else f"chi({t},{eps})"


def format_irr(s: WeilIrr) -> str:
    return _term(s.k, format_gauss(s.t), s.eps)


def format_rep(r: WeilRep) -> str:
    """The literal of r, written from its blocks and the exponent numerators."""
    if not r.blocks:
        return "0"
    return "+".join(_term(k, t, eps) for (k, eps), t in zip(r.blocks, format_vec(r.t)))


def _split_top(text: str, sep: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {clipped_repr(text)}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {clipped_repr(text)}")
    parts.append("".join(cur))
    return parts


def parse_weil_rep(text: str) -> WeilRep:
    """Parse "chi(t,eps)" and "I(k,t)" terms joined by "+"; I(0,t) splits into chi(t,0) + chi(t,1).

    Each exponent is read as integers (a, b, den) and all are put over one
    denominator once, for the blocks' sort.
    """
    body = text.replace(" ", "")
    if not body:
        raise InputError("empty rep literal")
    terms = []  # (k, eps, (a, b, den))
    for term in _split_top(body, "+"):
        if not (term.endswith(")") and "(" in term):
            raise InputError(f"bad rep term: {clipped_repr(term)}")
        head, args = term[:-1].split("(", 1)
        parts = _split_top(args, ",")
        if head == "chi":
            if len(parts) != 2:
                raise InputError(f"chi needs (t,eps): {clipped_repr(term)}")
            try:
                eps = parse_integer(parts[1])
            except ValueError as exc:
                raise InputError(f"bad eps in {clipped_repr(term)}") from exc
            t = _parse_t(parts[0], term)  # a bad exponent is reported before a bad eps
            terms.append((0, _eps(eps), t))
        elif head == "I":
            if len(parts) != 2:
                raise InputError(f"I needs (k,t): {clipped_repr(term)}")
            try:
                k = parse_integer(parts[0])
            except ValueError as exc:
                raise InputError(f"bad k in {clipped_repr(term)}") from exc
            t = _parse_t(parts[1], term)
            terms.extend([(abs(k), 0, t)] if k else [(0, 0, t), (0, 1, t)])
        else:
            raise InputError(f"unknown rep term {clipped_repr(head)} in {clipped_repr(term)}")
    den = lcm(*(d for _, _, (_, _, d) in terms))
    return _rep(((k, a * (den // d), b * (den // d), eps) for k, eps, (a, b, d) in terms), den)


def _parse_t(text: str, term: str) -> Tuple[int, int, int]:
    try:
        return parse_gauss_scaled(text)
    except (InputError, ValueError) as exc:
        raise InputError(f"bad exponent in {clipped_repr(term)}") from exc
