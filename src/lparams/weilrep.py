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
the dualities, sorting and the GL(n) bridge are integer arithmetic; GaussQ
exponents appear only in the `summands` and `weil_inf_char` views and in
parsing.

This is the GL(n) end of the dictionary: a multiset of total dimension n is
the same thing as a parameter into GL(n,C) in diagonal-block position, and
the contragredient on parameters is t -> -t summandwise here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, InputError
from .gaussian import GaussQ, ScaledVec, format_gauss, parse_gauss, parse_integer, read_gauss
from .intlinalg import ident
from .lgroup import LGroup, lgroup_split
from .lparam import LParam, make_param
from .rootdata import build_datum
from .tits import TorusPart


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


@dataclass(frozen=True)
class WeilRep:
    """Sorted blocks (k, eps), k = 0 for a character, and their exponents t.

    Block i has exponent (t.re[i] + t.im[i] i) / t.den; blocks are sorted on
    (k, re, im, eps).
    """

    blocks: Tuple[Tuple[int, int], ...]
    t: ScaledVec

    @property
    def summands(self) -> Tuple[WeilIrr, ...]:
        return tuple(WeilIrr("ind", z, k=k) if k else WeilIrr("chi", z, eps=eps)
                     for (k, eps), z in zip(self.blocks, self.t.gvec()))

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
            raise InputError(f"not a Weil irreducible: {it!r}")
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


def weil_inf_char(r: WeilRep) -> Tuple[GaussQ, ...]:
    """Exponent multiset: {t} per character, {t + k/2, t - k/2} per induced."""
    lam = _lam(r)
    pairs = sorted(zip(lam.re, lam.im))
    return ScaledVec([a for a, _ in pairs], [b for _, b in pairs], lam.den).gvec()


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
    d = p.L.dual_datum
    n = d.rank
    if p.L.theta0.matrix != ident(n):
        raise InputError("bridge needs the split inner class")
    if d.label != f"GL({n})":
        raise InputError(f"bridge needs a GL(n) datum, got {d.label!r}")
    m = p.w.matrix
    re, im, den = p.lam_s.re, p.lam_s.im, p.lam_s.den
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
