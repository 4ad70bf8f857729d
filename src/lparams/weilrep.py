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

This is the GL(n) end of the dictionary: a multiset of total dimension n is
the same thing as a parameter into GL(n,C) in diagonal-block position, and
the contragredient on parameters is t -> -t summandwise here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, InputError
from .gaussian import GaussQ, as_gauss, format_gauss, parse_gauss, parse_integer, read_gauss
from .intlinalg import ident
from .lgroup import LGroup, lgroup_split
from .lparam import LParam, make_param
from .rootdata import build_datum


@dataclass(frozen=True)
class WeilIrr:
    kind: str  # "chi" or "ind"
    t: GaussQ
    eps: int = 0  # chi only
    k: int = 0  # ind only

    def dim(self) -> int:
        return 1 if self.kind == "chi" else 2

    def __repr__(self):
        return format_irr(self)


def weil_chi(t, eps: int) -> WeilIrr:
    """chi(t, eps); t is read by read_gauss and eps must be the int 0 or 1."""
    if type(eps) is not int or eps not in (0, 1):
        raise InputError(f"eps must be 0 or 1, got {eps!r}")
    return WeilIrr("chi", read_gauss(t), eps=eps)


def weil_ind(k: int, t) -> WeilIrr:
    """I(|k|, t); t is read by read_gauss and k must be a nonzero int (not a bool or a float)."""
    if type(k) is not int or k == 0:
        raise InputError(f"I(k,t) needs a nonzero integer k, got {k!r}; "
                         "I(0,t) is reducible, build it at the rep level")
    return WeilIrr("ind", read_gauss(t), k=abs(k))


def ind_summands(k: int, t) -> Tuple[WeilIrr, ...]:
    """I(k,t) as a tuple of irreducibles; splits the reducible k = 0 case."""
    if type(k) is int and k == 0:
        return (weil_chi(t, 0), weil_chi(t, 1))
    return (weil_ind(k, t),)


def _irr_key(a: WeilIrr):
    return (0 if a.kind == "chi" else 1, a.k, a.t.sort_key(), a.eps)


@dataclass(frozen=True)
class WeilRep:
    summands: Tuple[WeilIrr, ...]

    def dim(self) -> int:
        return sum(s.dim() for s in self.summands)

    def __repr__(self):
        return format_rep(self)


def weil_rep(items: Sequence[WeilIrr]) -> WeilRep:
    """Multiset of irreducibles, held as a sorted tuple."""
    flat: List[WeilIrr] = []
    for it in items:
        if not isinstance(it, WeilIrr):
            raise InputError(f"not a Weil irreducible: {it!r}")
        flat.append(it)
    return WeilRep(tuple(sorted(flat, key=_irr_key)))


def _map_t(r: WeilRep, f) -> WeilRep:
    out = []
    for s in r.summands:
        if s.kind == "chi":
            out.append(weil_chi(f(s.t), s.eps))
        else:
            out.append(weil_ind(s.k, f(s.t)))
    return weil_rep(out)


def weil_dual(r: WeilRep) -> WeilRep:
    """Contragredient: t -> -t on every summand."""
    return _map_t(r, lambda t: -t)


def weil_hermitian_dual(r: WeilRep) -> WeilRep:
    """Hermitian dual: t -> -conj(t) on every summand."""
    return _map_t(r, lambda t: -t.conj())


def weil_is_hermitian(r: WeilRep) -> bool:
    return weil_hermitian_dual(r) == r


def weil_is_unitary(r: WeilRep) -> bool:
    """Bounded image: every exponent has zero real part."""
    return all(s.t.re == 0 for s in r.summands)


def weil_inf_char(r: WeilRep) -> Tuple[GaussQ, ...]:
    """Exponent multiset: {t} per character, {t + k/2, t - k/2} per induced."""
    out: List[GaussQ] = []
    for s in r.summands:
        if s.kind == "chi":
            out.append(s.t)
        else:
            h = as_gauss(Q(s.k, 2))
            out.extend((s.t + h, s.t - h))
    return tuple(sorted(out, key=lambda z: z.sort_key()))


# ---------------------------------------------------------------------------
# the bridge to parameters over GL(n) split

@cache
def _gl_lgroup(n: int) -> LGroup:
    """The split L-group of GL(n), built once per n."""
    return lgroup_split(build_datum(f"GL({n})"))


def weil_to_lparam(r: WeilRep, n: Optional[int] = None) -> LParam:
    """Diagonal-block parameter into GL(dim) with the standard split L-group.

    chi(t,eps) fills one coordinate: lambda-entry t, mu-entry eps/2, w fixes
    it. I(k,t) fills two consecutive coordinates: lambda-entries t +- k/2,
    w swaps them, mu-entries ((k-1)/2, 0); the parity condition on mu is one
    congruence per block and that choice satisfies it for either parity of k.
    GL(n) is supported for n <= 9, so a larger rep is refused here.
    """
    dim = r.dim()
    if n is not None and n != dim:
        raise DimensionMismatch(f"rep has dimension {dim}, expected {n}")
    if dim > 9:
        raise InputError(f"rep has dimension {dim}; the GL(n) bridge supports n <= 9")
    L = _gl_lgroup(dim)
    lam: List[GaussQ] = []
    mu: List[Q] = []
    word: List[int] = []
    for s in r.summands:
        if s.kind == "chi":
            lam.append(s.t)
            mu.append(Q(s.eps, 2))
        else:
            h = Q(s.k, 2)
            word.append(len(lam) + 1)
            lam.extend((s.t + h, s.t - h))
            mu.extend((Q(s.k - 1, 2), Q(0)))
    return make_param(L, lam, mu, word)


def lparam_to_weilrep(p: LParam) -> WeilRep:
    """Inverse bridge for parameters over GL(n) split, up to equivalence.

    The w-part must be an involutive permutation; fixed coordinates give
    characters (eps = 2 mu mod 2), 2-cycles give I(lambda_i - lambda_j, t)
    with t the coordinate average. A 2-cycle with equal lambda-entries is
    the reducible I(0,t) and splits; such a parameter is equivalent to the
    split one in GL(n,C) but not within the torus normalizer, so this map
    is the coarser of the two equivalences.
    """
    d = p.L.dual_datum
    n = d.rank
    if p.L.theta0.matrix != ident(n):
        raise InputError("bridge needs the split inner class")
    if d.label != f"GL({n})":
        raise InputError(f"bridge needs a GL(n) datum, got {d.label!r}")
    m = p.w.matrix
    lam, mu = p.lam, p.mu.entries
    img = []
    for i in range(n):
        col = [r for r in range(n) if m[r][i] != 0]
        if len(col) != 1 or m[col[0]][i] != 1:
            raise InputError("w-part is not a permutation")
        img.append(col[0])
    out: List[WeilIrr] = []
    for i in range(n):
        j = img[i]
        if j == i:
            two_mu = 2 * mu[i]
            if two_mu.denominator != 1:
                raise InputError("mu-entry of a fixed coordinate must be in (1/2)Z")
            out.append(weil_chi(lam[i], int(two_mu) % 2))
        elif j > i:
            dif = lam[i] - lam[j]
            if not (dif.is_rational() and dif.re.denominator == 1):
                raise InputError("lambda-entries of a 2-cycle must differ by an integer")
            t = (lam[i] + lam[j]) * Q(1, 2)
            out.extend(ind_summands(int(dif.re), t))
        elif img[j] != i:
            raise InputError("w-part is not an involution")
    return weil_rep(out)


# ---------------------------------------------------------------------------
# literals

def format_irr(s: WeilIrr) -> str:
    if s.kind == "chi":
        return f"chi({format_gauss(s.t)},{s.eps})"
    return f"I({s.k},{format_gauss(s.t)})"


def format_rep(r: WeilRep) -> str:
    if not r.summands:
        return "0"
    return "+".join(format_irr(s) for s in r.summands)


def _split_top(text: str, sep: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_weil_rep(text: str) -> WeilRep:
    """Parse "chi(t,eps)" and "I(k,t)" terms joined by "+"."""
    body = text.replace(" ", "")
    if not body:
        raise InputError("empty rep literal")
    out: List[WeilIrr] = []
    for term in _split_top(body, "+"):
        if not (term.endswith(")") and "(" in term):
            raise InputError(f"bad rep term: {term!r}")
        head, args = term[:-1].split("(", 1)
        parts = _split_top(args, ",")
        if head == "chi":
            if len(parts) != 2:
                raise InputError(f"chi needs (t,eps): {term!r}")
            try:
                eps = parse_integer(parts[1])
            except ValueError as exc:
                raise InputError(f"bad eps in {term!r}") from exc
            out.append(weil_chi(_parse_t(parts[0], term), eps))
        elif head == "I":
            if len(parts) != 2:
                raise InputError(f"I needs (k,t): {term!r}")
            try:
                k = parse_integer(parts[0])
            except ValueError as exc:
                raise InputError(f"bad k in {term!r}") from exc
            out.extend(ind_summands(k, _parse_t(parts[1], term)))
        else:
            raise InputError(f"unknown rep term {head!r} in {term!r}")
    return weil_rep(out)


def _parse_t(text: str, term: str) -> GaussQ:
    try:
        return parse_gauss(text)
    except (InputError, ValueError) as exc:
        raise InputError(f"bad exponent in {term!r}") from exc
