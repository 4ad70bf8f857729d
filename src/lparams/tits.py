"""Tits group of a based root datum and its outer extension.

Elements are stored in the normal form exp(2*pi*i*mu) * sigma_w * delta^eps:
a rational torus part modulo Z^n, a canonical Weyl lift, and a flag for the
outer generator. delta squares to 1 and acts through a distinguished
involution of the datum. A product carries the right torus part across
sigma_w and delta, and adds the cocycle of the two lifts.

A torus part is integer numerators over one denominator, each numerator
reduced into [0, den) and the fraction in lowest terms (the TorusElement
idiom of the atlas software), so sums, negation and the action of the Weyl
group and of delta are integer arithmetic; Fractions appear only in the
`entries` view that printing and serialization read.

The cocycle of sigma_u sigma_v is half the sum of u(beta-check) over beta in
N(u) & N(v^-1) (Tits, Normalisateurs de tores I, 1966). Each Weyl element met
caches its inversion set and the bitmasks of its beta with u(beta-check)_k odd,
so a product is a popcount per coordinate, one weyl_mul and one reduction.
Tits' lemma, sigma_w sigma_{w^-1} = exp(2*pi*i*z(w)) with z(w) = (2 rho-check
- w 2 rho-check)/4 = -z(w), gives the inverse and chevalley in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Optional

from .errors import (
    ContextMismatch,
    InputError,
    InvariantViolated,
    NotInvolution,
    PreconditionViolated,
    json_array,
)
from .gaussian import parse_rational, read_rational
from .intlinalg import ident, mat_mul, one_minus, solve_congruence_scaled
from .rootdata import (BasedAut, RootDatum, cartan_matrix, coaction, identity_aut,
                       positive_coroots, positive_roots, two_rho_check)
from .weyl import (
    WeylElem,
    apply_aut_to_weyl,
    descent,
    longest_element,
    simple_reflection,
    weyl_enumerate,
    weyl_from_word,
    weyl_identity,
    weyl_inv,
    weyl_mul,
)


def _reduce_mod_one(num, den: int):
    """(numerators, denominator) of num / den modulo Z^n in normal form."""
    num = [x % den for x in num]
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(x // g for x in num), den // g


class TorusPart:
    """Rational vector modulo Z^n: the element exp(2*pi*i*mu) of the torus.

    Held as integer numerators `num` over one denominator `den` in normal
    form: every numerator lies in [0, den), gcd(den, *num) = 1, and zero is
    den = 1. Equal torus parts therefore have equal fields, and equality,
    hashing, sums, negation and act_on_torus_part are integer arithmetic.
    `entries` is a read-only Fraction view, each entry in [0, 1).
    """

    __slots__ = ("num", "den")

    def __init__(self, entries):
        """From Fraction, int or numeral-string entries (read_rational), reduced modulo Z^n."""
        qs = [read_rational(x) for x in entries]
        den = lcm(*(q.denominator for q in qs))
        self.num, self.den = _reduce_mod_one(
            [q.numerator * (den // q.denominator) for q in qs], den)

    @classmethod
    def scaled(cls, num, den: int) -> "TorusPart":
        """num / den modulo Z^n, for integer numerators and a denominator den >= 1."""
        t = cls.__new__(cls)
        t.num, t.den = _reduce_mod_one(num, den)
        return t

    @property
    def entries(self):
        return tuple(Q(x, self.den) for x in self.num)

    def __add__(self, other: "TorusPart") -> "TorusPart":
        d1, d2 = self.den, other.den
        if d1 == d2:
            return TorusPart.scaled([a + b for a, b in zip(self.num, other.num)], d1)
        den = lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        return TorusPart.scaled([a * f1 + b * f2 for a, b in zip(self.num, other.num)], den)

    def __neg__(self) -> "TorusPart":
        return TorusPart.scaled([-a for a in self.num], self.den)

    def __sub__(self, other: "TorusPart") -> "TorusPart":
        return self + -other

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusPart):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"TorusPart({[str(x) for x in self.entries]})"

    def is_zero(self) -> bool:
        return self.den == 1


def torus_part(entries) -> TorusPart:
    return TorusPart(entries)


def torus_part_zero(rank: int) -> TorusPart:
    return TorusPart.scaled((0,) * rank, 1)


def act_on_torus_part(matrix, t: TorusPart) -> TorusPart:
    """The image of t under an integer matrix (rows)."""
    return TorusPart.scaled([sum(map(mul, row, t.num)) for row in matrix], t.den)


@dataclass(frozen=True)
class TitsContext:
    """A datum together with the distinguished involution delta acts by."""

    datum: RootDatum
    theta0: BasedAut


def tits_context(datum: RootDatum, theta0: Optional[BasedAut] = None) -> TitsContext:
    if theta0 is None:
        theta0 = identity_aut(datum)
    if theta0.datum != datum:
        raise ContextMismatch("theta0 belongs to a different datum")
    if mat_mul(theta0.matrix, theta0.matrix) != ident(datum.rank):
        raise NotInvolution("theta0 does not square to the identity")
    return TitsContext(datum, theta0)


@dataclass(frozen=True)
class ExtTitsElem:
    ctx: TitsContext
    t: TorusPart
    w: WeylElem
    eps: int

    def __repr__(self):
        return f"ExtTitsElem(t={self.t!r}, w={list(self.w.word)}, eps={self.eps})"


def tits_identity(ctx: TitsContext) -> ExtTitsElem:
    return ExtTitsElem(ctx, torus_part_zero(ctx.datum.rank), weyl_identity(ctx.datum), 0)


def torus_elem(ctx: TitsContext, t: TorusPart) -> ExtTitsElem:
    if len(t.num) != ctx.datum.rank:
        raise InputError("torus part has the wrong length")
    return ExtTitsElem(ctx, t, weyl_identity(ctx.datum), 0)


def sigma(ctx: TitsContext, w: WeylElem) -> ExtTitsElem:
    """Canonical lift of w: independent of the reduced word used to build it."""
    if w.datum != ctx.datum:
        raise ContextMismatch("Weyl element over a different datum")
    return ExtTitsElem(ctx, torus_part_zero(ctx.datum.rank), w, 0)


def delta_elem(ctx: TitsContext) -> ExtTitsElem:
    return ExtTitsElem(ctx, torus_part_zero(ctx.datum.rank), weyl_identity(ctx.datum), 1)


@cache
def _inversions(u: WeylElem):
    """(N(u), parities) as bitmasks over positive_coroots.

    Bit j of N(u) is set when u sends the j-th beta-check negative (read off its
    pairing with 2 rho); bit j of parities[k] when, in addition, entry k of
    u(beta-check) is odd.
    """
    d = u.datum
    two_rho = [sum(col) for col in zip(*positive_roots(d))]
    inv, par = 0, [0] * d.rank
    for j, b in enumerate(positive_coroots(d)):
        ub = [sum(map(mul, row, b)) for row in u.matrix]
        if sum(map(mul, two_rho, ub)) < 0:
            inv |= 1 << j
            par = [p | (x & 1) << j for p, x in zip(par, ub)]
    return inv, tuple(par)


def _sigma_cocycle(u: WeylElem, v: WeylElem):
    """(c, uv) with sigma_u sigma_v = exp(2*pi*i*c) sigma_{uv}: 2c is the sum of u(beta-check),
    beta in N(u) & N(v^-1), up to sign (the letters of v where sigma_a^2 pops out)."""
    nv = _inversions(weyl_inv(v))[0]
    return TorusPart.scaled([(m & nv).bit_count() for m in _inversions(u)[1]], 2), weyl_mul(u, v)


def tits_mul(g1: ExtTitsElem, g2: ExtTitsElem) -> ExtTitsElem:
    """t1 + u(theta0^eps1 t2) + c over lcm(den1, den2, 2), reduced once, times sigma_{u w2'}."""
    if g1.ctx != g2.ctx:
        raise ContextMismatch("elements from different Tits contexts")
    ctx, u, t1, t2, w2, n2 = g1.ctx, g1.w, g1.t, g2.t, g2.w, g2.t.num
    if g1.eps:
        n2 = [sum(map(mul, row, n2)) for row in coaction(ctx.theta0)]
        w2 = apply_aut_to_weyl(ctx.theta0, w2)
    nv = _inversions(weyl_inv(w2))[0]
    den = lcm(t1.den, t2.den, 2)
    f1, f2, h = den // t1.den, den // t2.den, den // 2
    num = [f1 * a + h * (m & nv).bit_count() for a, m in zip(t1.num, _inversions(u)[1])]
    if t2.den != 1:
        num = [x + f2 * sum(map(mul, row, n2)) for x, row in zip(num, u.matrix)]
    return ExtTitsElem(ctx, TorusPart.scaled(num, den), weyl_mul(u, w2), (g1.eps + g2.eps) % 2)


def _lemma_minus(w: WeylElem, num, den: int):
    """z(w) - num/den as (numerators, lcm(den, 4)), unreduced, for z(w) of Tits' lemma."""
    rc2, out = two_rho_check(w.datum), lcm(den, 4)
    f, h = out // den, out // 4
    return [h * (a - sum(map(mul, row, rc2))) - f * x for a, row, x in zip(rc2, w.matrix, num)], out


def tits_inverse(g: ExtTitsElem) -> ExtTitsElem:
    """delta^eps sigma_w^{-1} exp(-t), with sigma_w^{-1} = exp(z(w^-1)) sigma_{w^-1} by Tits'
    lemma: exp(theta0^eps(z(w^-1) - w^-1 t)) sigma_{theta0^eps(w^-1)} delta^eps."""
    ctx, winv = g.ctx, weyl_inv(g.w)
    if weyl_mul(winv, g.w) != weyl_identity(ctx.datum):
        raise InvariantViolated("sigma_{w^-1} sigma_w does not lie over the identity")
    num, den = _lemma_minus(winv, [sum(map(mul, row, g.t.num)) for row in winv.matrix], g.t.den)
    if g.eps:
        num = [sum(map(mul, row, num)) for row in coaction(ctx.theta0)]
        winv = apply_aut_to_weyl(ctx.theta0, winv)
    return ExtTitsElem(ctx, TorusPart.scaled(num, den), winv, g.eps)


def chevalley(g: ExtTitsElem) -> ExtTitsElem:
    """Chevalley involution: exp(t) -> exp(-t), delta -> delta and sigma_w ->
    (sigma_{w^{-1}})^{-1} = exp(z(w)) sigma_w, by Tits' lemma."""
    return ExtTitsElem(g.ctx, TorusPart.scaled(*_lemma_minus(g.w, g.t.num, g.t.den)), g.w, g.eps)


@cache
def _commutes(a: BasedAut, b: BasedAut) -> bool:
    """a b = b a, decided once per pair."""
    return mat_mul(a.matrix, b.matrix) == mat_mul(b.matrix, a.matrix)


def aut_on_tits(a: BasedAut, g: ExtTitsElem) -> ExtTitsElem:
    """Apply a based automorphism; it must commute with the context's theta0."""
    ctx = g.ctx
    if a.datum != ctx.datum:
        raise ContextMismatch("automorphism over a different datum")
    if not _commutes(a, ctx.theta0):
        raise PreconditionViolated("automorphism does not commute with theta0")
    return ExtTitsElem(ctx, act_on_torus_part(coaction(a), g.t),
                       apply_aut_to_weyl(a, g.w), g.eps)


def check_titslemma(ctx: TitsContext, w: WeylElem):
    """Compare sigma_w sigma_{w^{-1}} with exp(pi*i*(rho-check - w rho-check)).

    Returns (torus part computed by multiplication, predicted torus part,
    agreement flag).
    """
    prod = tits_mul(sigma(ctx, w), sigma(ctx, weyl_inv(w)))
    predicted = TorusPart.scaled(*_lemma_minus(w, (0,) * ctx.datum.rank, 1))
    ok = prod.w == weyl_identity(ctx.datum) and prod.eps == 0 and prod.t == predicted
    return prod.t, predicted, ok


def h_conjugate_to_inverse(g: ExtTitsElem) -> Optional[TorusPart]:
    """Witness h = exp(2*pi*i*nu) with h C(g) h^{-1} = g^{-1}, if one exists.

    Requires g in the outer coset with w * theta0(w) = e. The congruence
    (1 - w theta0) nu = t(g^{-1}) - t(C(g)) mod Z^n is solved by Smith
    reduction and the witness is verified by remultiplication.
    """
    ctx = g.ctx
    if g.eps != 1:
        raise PreconditionViolated("element is not in the delta coset")
    tw = apply_aut_to_weyl(ctx.theta0, g.w)
    if weyl_mul(g.w, tw) != weyl_identity(ctx.datum):
        raise PreconditionViolated("w * theta0(w) is not the identity")
    cg = chevalley(g)
    ginv = tits_inverse(g)
    if not (cg.w == ginv.w and cg.eps == ginv.eps == 1):
        raise InvariantViolated("C(g) and g^{-1} lie over different Weyl cosets")
    theta = mat_mul(cg.w.matrix, coaction(ctx.theta0))
    # t(g^{-1}) - t(C(g)) not reduced mod Z^n: the solution depends on the representative
    a, b = ginv.t, cg.t
    den = lcm(a.den, b.den)
    num = [x * (den // a.den) - y * (den // b.den) for x, y in zip(a.num, b.num)]
    nu = solve_congruence_scaled(one_minus(theta), num, den)
    if nu is None:
        return None
    witness = TorusPart.scaled(*nu)
    h = torus_elem(ctx, witness)
    h_inv = torus_elem(ctx, -witness)
    if tits_mul(tits_mul(h, cg), h_inv) != ginv:
        raise InvariantViolated("the congruence solution does not conjugate C(g) to g^{-1}")
    return witness


def run_tits_suite(ctx: TitsContext):
    """Exhaustive identity checks over the whole Weyl group.

    Rows are (name, passed, detail). Covers: the braid identity on the
    sigma lifts for every simple pair, a second reduced word per element
    (max-descent peeling) giving the same lift, sigma_i^2 = alpha-check(-1),
    sigma_w sigma_{w^{-1}} = exp(pi*i*(rho-check - w rho-check)),
    sigma_{w0}^2 = exp(2*pi*i*rho-check) and its centrality, equivariance of
    the lifts under theta0, and C(sigma_w) = (sigma_{w^{-1}})^{-1}.
    """
    d = ctx.datum
    elems = weyl_enumerate(d)
    rows = []

    a = cartan_matrix(d)
    bad = []
    for i in range(d.nsimple):
        for j in range(i + 1, d.nsimple):
            m = {0: 2, 1: 3, 2: 4, 3: 6}[a[i][j] * a[j][i]]
            si, sj = sigma(ctx, simple_reflection(d, i + 1)), sigma(ctx, simple_reflection(d, j + 1))
            lhs, rhs = tits_identity(ctx), tits_identity(ctx)
            for k in range(m):
                lhs = tits_mul(lhs, si if k % 2 == 0 else sj)
                rhs = tits_mul(rhs, sj if k % 2 == 0 else si)
            if lhs != rhs:
                bad.append((i + 1, j + 1))
    rows.append(("braid relations", not bad,
                 f"{d.nsimple * (d.nsimple - 1) // 2} simple pairs" if not bad
                 else f"failing pairs {bad}"))

    bad = []
    for w in elems:
        u, letters = w, []
        while u.word:
            i = max(k for k in range(1, d.nsimple + 1) if descent(u, k))
            letters.append(i)
            u = weyl_mul(u, simple_reflection(d, i))
        alt = tits_identity(ctx)
        for i in reversed(letters):
            alt = tits_mul(alt, sigma(ctx, simple_reflection(d, i)))
        if alt != sigma(ctx, w):
            bad.append(list(w.word))
    rows.append(("reduced-word independence", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))

    bad = []
    for i in range(1, d.nsimple + 1):
        si = sigma(ctx, simple_reflection(d, i))
        if tits_mul(si, si) != torus_elem(ctx, TorusPart.scaled(d.simple_coroots[i - 1], 2)):
            bad.append(i)
    rows.append(("sigma_i^2 = alpha-check(-1)", not bad,
                 f"{d.nsimple} generators" if not bad else f"failing indices {bad}"))

    bad = [list(w.word) for w in elems if not check_titslemma(ctx, w)[2]]
    rows.append(("sigma_w sigma_{w^-1} torus value", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))

    w0 = longest_element(d)
    s0 = sigma(ctx, w0)
    sq = tits_mul(s0, s0)
    ok = sq == torus_elem(ctx, TorusPart.scaled(two_rho_check(d), 2))
    gens = [sigma(ctx, simple_reflection(d, i)) for i in range(1, d.nsimple + 1)]
    gens.append(delta_elem(ctx))
    central = all(tits_mul(sq, g) == tits_mul(g, sq) for g in gens)
    rows.append(("sigma_{w0}^2 = exp(2 pi i rho-check), central", ok and central,
                 f"value {[str(x) for x in sq.t.entries]}"))

    bad = []
    for w in elems:
        if aut_on_tits(ctx.theta0, sigma(ctx, w)) != sigma(ctx, apply_aut_to_weyl(ctx.theta0, w)):
            bad.append(list(w.word))
    rows.append(("theta0 equivariance of lifts", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))

    bad = []
    for w in elems:
        if tits_mul(chevalley(sigma(ctx, w)), sigma(ctx, weyl_inv(w))) != tits_identity(ctx):
            bad.append(list(w.word))
    rows.append(("C(sigma_w) = (sigma_{w^-1})^{-1}", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))
    return rows


# ---------------------------------------------------------------------------
# serialization

def elem_to_dict(g: ExtTitsElem) -> dict:
    return {
        "mu": [str(x) for x in g.t.entries],
        "w": list(g.w.word),
        "eps": g.eps,
    }


def elem_from_dict(ctx: TitsContext, data: dict) -> ExtTitsElem:
    """Read back elem_to_dict output; types are checked, never coerced.

    mu is an array of strings or integers, w an array of integers and eps
    an integer; a bool, a float or a bare string is refused.
    """
    try:
        mu = torus_part([parse_rational(x) for x in json_array(data["mu"], (str, int))])
        word = json_array(data["w"], int)
        eps = data["eps"]
        if isinstance(eps, bool) or not isinstance(eps, int):
            raise TypeError(f"eps is not an integer: {eps!r}")
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad Tits element data: {data!r}") from exc
    if eps not in (0, 1):
        raise InputError("eps must be 0 or 1")
    if len(mu.num) != ctx.datum.rank:
        raise InputError("mu has the wrong length")
    return ExtTitsElem(ctx, mu, weyl_from_word(ctx.datum, word), eps)
