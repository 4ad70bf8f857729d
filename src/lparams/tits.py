"""Tits group of a based root datum and its outer extension.

Elements are stored in the normal form exp(2*pi*i*mu) * sigma_w * delta^eps:
a rational torus part modulo Z^n, a canonical Weyl lift, and a flag for the
outer generator. delta squares to 1 and acts through a distinguished
involution of the datum. A product carries the right torus part across
sigma_w and delta, and adds the cocycle of the two lifts.

A torus part is integer numerators over one denominator, each numerator
reduced into [0, den) and the fraction in lowest terms (the TorusElement
idiom of the atlas software), so sums, negation and the action of the Weyl
group and of delta are integer arithmetic; format_torus_part writes the
entries from the numerators.

The cocycle of sigma_u sigma_v is half the sum of u(beta-check) over beta in
N(u) & N(v^-1) (Tits, Normalisateurs de tores I, 1966). The inversion set and
the bitmasks of its beta with u(beta-check)_k odd are kept on the Weyl
element, filled from its parent's on first use (weyl._inversion_masks), so a
product is a popcount per coordinate, one weyl_mul and one reduction.
Tits' lemma, sigma_w sigma_{w^-1} = exp(2*pi*i*z(w)) with z(w) = (2 rho-check
- w 2 rho-check)/4 = -z(w), gives the inverse and chevalley in closed form.
"""

from __future__ import annotations

from collections import namedtuple
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
    frozen_setattr,
)
from .gaussian import _ratio, read_rational
from .intlinalg import ident, mat_mul, one_minus, solve_congruence_scaled
from .rootdata import BasedAut, RootDatum, _root_system, cartan_matrix, coaction, identity_aut
from .weyl import (
    WeylElem,
    _fill_matrix,
    _inversion_masks,
    _step,
    apply_aut_to_weyl,
    longest_element,
    parabolic_subgroup,
    simple_reflection,
    weyl_identity,
    weyl_inv,
    weyl_mul,
)


class TorusPart:
    """Rational vector modulo Z^n: the element exp(2*pi*i*mu) of the torus.

    Held as integer numerators `num` over one denominator `den` in normal
    form: every numerator lies in [0, den), gcd(den, *num) = 1, and zero is
    den = 1. Equal torus parts therefore have equal fields, and equality,
    hashing, sums, negation and act_on_torus_part are integer arithmetic.
    Immutable: `scaled` is the one constructor that sets the fields.
    """

    __slots__ = ("num", "den")

    def __new__(cls, entries):
        """From Fraction, int or numeral-string entries (read_rational), reduced modulo Z^n."""
        ratios = [(x if type(x) is Q else read_rational(x)).as_integer_ratio() for x in entries]
        den = lcm(*(q for _, q in ratios))
        return TorusPart.scaled([p * (den // q) for p, q in ratios], den)

    @staticmethod
    def scaled(num, den: int) -> "TorusPart":
        """num / den modulo Z^n in normal form, for integer numerators and a denominator den >= 1."""
        num = [x % den for x in num]
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
        t = object.__new__(TorusPart)
        _set_num(t, tuple(num))
        _set_den(t, den)
        return t

    __setattr__ = __delattr__ = frozen_setattr

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
        return f"TorusPart({format_torus_part(self)})"


# the slots' own setters, past the frozen __setattr__, as for WeylElem
_set_num, _set_den = (getattr(TorusPart, f).__set__ for f in TorusPart.__slots__)


def format_torus_part(t: TorusPart) -> list:
    """Each entry as str(Fraction) writes it, in [0, 1), written straight from the numerators."""
    return [_ratio(x, t.den) for x in t.num]


def torus_part(entries) -> TorusPart:
    return TorusPart(entries)


@cache
def torus_part_zero(rank: int) -> TorusPart:
    """The zero of rank `rank`, one shared record per rank."""
    return TorusPart.scaled((0,) * rank, 1)


def act_on_torus_part(matrix, t: TorusPart) -> TorusPart:
    """The image of t under an integer matrix (rows)."""
    return TorusPart.scaled([sum(map(mul, row, t.num)) for row in matrix], t.den)


class TitsContext(namedtuple("TitsContext", "datum theta0")):
    """A datum together with the distinguished involution delta acts by."""

    __slots__ = ()


def tits_context(datum: RootDatum, theta0: Optional[BasedAut] = None) -> TitsContext:
    if theta0 is None:
        theta0 = identity_aut(datum)
    if theta0.datum != datum:
        raise ContextMismatch("theta0 belongs to a different datum")
    if mat_mul(theta0.matrix, theta0.matrix) != ident(datum.rank):
        raise NotInvolution("theta0 does not square to the identity")
    return TitsContext(datum, theta0)


class ExtTitsElem(namedtuple("ExtTitsElem", "ctx t w eps")):
    """exp(2*pi*i*t) sigma_w delta^eps in the extended Tits group of ctx."""

    __slots__ = ()

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


# ExtTitsElem's fields as one tuple, past the namedtuple's Python-level __new__
_new_tuple = tuple.__new__


def tits_mul(g1: ExtTitsElem, g2: ExtTitsElem) -> ExtTitsElem:
    """t1 + u(theta0^eps1 t2) + c over lcm(den1, den2, 2), reduced once, times sigma_{u w2'}.

    c is half the parity counts of N(u) & N(w2'^-1), read off the elements' slots.
    """
    ctx, t1, u, e1 = g1
    ctx2, t2, w2, e2 = g2
    if ctx is not ctx2 and ctx != ctx2:
        raise ContextMismatch("elements from different Tits contexts")
    n2 = t2.num
    if e1:
        n2 = [sum(map(mul, row, n2)) for row in coaction(ctx.theta0)]
        w2 = apply_aut_to_weyl(ctx.theta0, w2)
    v = w2._inv or weyl_inv(w2)
    nv = (v._masks or _inversion_masks(v))[0]
    par = (u._masks or _inversion_masks(u))[1]
    d1, d2 = t1.den, t2.den
    den = lcm(d1, d2, 2)
    f1, f2, h = den // d1, den // d2, den // 2
    if d2 == 1:
        num = [f1 * a + h * (m & nv).bit_count() for a, m in zip(t1.num, par)]
    else:
        num = [f1 * a + h * (m & nv).bit_count() + f2 * sum(map(mul, row, n2))
               for a, m, row in zip(t1.num, par, u._mat or _fill_matrix(u))]
    return _new_tuple(ExtTitsElem, (ctx, TorusPart.scaled(num, den), weyl_mul(u, w2),
                                    (e1 + e2) % 2))


@cache
def _four_z(w: WeylElem):
    """4 z(w) = 2 rho_check - w 2 rho_check, once per element."""
    rc2 = _root_system(w.datum).two_rho_check
    return tuple(a - sum(map(mul, row, rc2)) for a, row in zip(rc2, w.matrix))


def tits_inverse(g: ExtTitsElem) -> ExtTitsElem:
    """delta^eps sigma_w^{-1} exp(-t), with sigma_w^{-1} = exp(z(w^-1)) sigma_{w^-1} by Tits'
    lemma: exp(theta0^eps(z(w^-1) - w^-1 t)) sigma_{theta0^eps(w^-1)} delta^eps."""
    ctx, t, w, eps = g
    winv = w._inv or weyl_inv(w)
    if weyl_mul(winv, w) != weyl_identity(ctx.datum):
        raise InvariantViolated("sigma_{w^-1} sigma_w does not lie over the identity")
    den = lcm(t.den, 4)
    f, h = den // t.den, den // 4
    num = [h * z - f * sum(map(mul, row, t.num))
           for z, row in zip(_four_z(winv), winv._mat or _fill_matrix(winv))]
    if eps:
        num = [sum(map(mul, row, num)) for row in coaction(ctx.theta0)]
        winv = apply_aut_to_weyl(ctx.theta0, winv)
    return _new_tuple(ExtTitsElem, (ctx, TorusPart.scaled(num, den), winv, eps))


def chevalley(g: ExtTitsElem) -> ExtTitsElem:
    """Chevalley involution: exp(t) -> exp(-t), delta -> delta and sigma_w ->
    (sigma_{w^{-1}})^{-1} = exp(z(w)) sigma_w, by Tits' lemma."""
    ctx, t, w, eps = g
    den = lcm(t.den, 4)
    f, h = den // t.den, den // 4
    num = [h * z - f * x for z, x in zip(_four_z(w), t.num)]
    return _new_tuple(ExtTitsElem, (ctx, TorusPart.scaled(num, den), w, eps))


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
    """Exhaustive identity checks over the whole Weyl group, in one walk of W.

    Rows are (name, passed, detail). Covers: the braid identity on the
    sigma lifts for every simple pair, a second reduced word per element
    giving the same lift (one edge per element, the largest right descent),
    sigma_i^2 = alpha-check(-1),
    sigma_w sigma_{w^{-1}} = exp(pi*i*(rho-check - w rho-check)),
    sigma_{w0}^2 = exp(2*pi*i*rho-check) and its centrality, equivariance of
    the lifts under theta0, and C(sigma_w) = (sigma_{w^{-1}})^{-1}. The four
    per-element rows read only w, w^-1, theta0(w) and w s_i, so one lazy walk
    of W in (length, word) order runs them all, and W is not stored.
    """
    d = ctx.datum
    one = tits_identity(ctx)
    lifts = [sigma(ctx, simple_reflection(d, i)) for i in range(1, d.nsimple + 1)]

    a = cartan_matrix(d)
    braid = []
    for i in range(d.nsimple):
        for j in range(i + 1, d.nsimple):
            m = {0: 2, 1: 3, 2: 4, 3: 6}[a[i][j] * a[j][i]]
            si, sj = lifts[i], lifts[j]
            lhs = rhs = one
            for k in range(m):
                lhs = tits_mul(lhs, si if k % 2 == 0 else sj)
                rhs = tits_mul(rhs, sj if k % 2 == 0 else si)
            if lhs != rhs:
                braid.append((i + 1, j + 1))

    squares = [i for i, si in enumerate(lifts, 1)
               if tits_mul(si, si) != torus_elem(ctx, TorusPart.scaled(d.simple_coroots[i - 1], 2))]

    s0 = sigma(ctx, longest_element(d))
    sq = tits_mul(s0, s0)
    ok = sq == torus_elem(ctx, TorusPart.scaled(_root_system(d).two_rho_check, 2))
    central = all(tits_mul(sq, g) == tits_mul(g, sq) for g in lifts + [delta_elem(ctx)])

    # The second word of w is that of w s_i followed by i, for i its largest
    # right descent. w s_i is one shorter and came earlier in the walk, so its
    # lift times sigma_i is the product along that word: one edge per element.
    # A failed element keeps its own product as its lift, which carries the
    # failure on to the longer words through it.
    edge, lemma, equi, chev, failed, n = [], [], [], [], {}, 0
    for w in parabolic_subgroup(d, range(1, d.nsimple + 1)):
        n += 1
        s, winv = sigma(ctx, w), weyl_inv(w)
        sinv = sigma(ctx, winv)
        if w.word:
            i = next(k for k in range(d.nsimple, 0, -1) if winv.key[k - 1] < 0)
            u = weyl_inv(_step(winv, i))
            alt = tits_mul(failed.get(u) or sigma(ctx, u), lifts[i - 1])
            if alt != s:
                failed[w] = alt
                edge.append(list(w.word))
        if tits_mul(s, sinv) != torus_elem(ctx, TorusPart.scaled(_four_z(w), 4)):
            lemma.append(list(w.word))
        if aut_on_tits(ctx.theta0, s) != sigma(ctx, apply_aut_to_weyl(ctx.theta0, w)):
            equi.append(list(w.word))
        if tits_mul(chevalley(s), sinv) != one:
            chev.append(list(w.word))

    def per_element(name, bad):
        return name, not bad, f"{n} elements" if not bad else f"failing words {bad}"

    return [
        ("braid relations", not braid,
         f"{d.nsimple * (d.nsimple - 1) // 2} simple pairs" if not braid
         else f"failing pairs {braid}"),
        per_element("reduced-word independence", edge),
        ("sigma_i^2 = alpha-check(-1)", not squares,
         f"{d.nsimple} generators" if not squares else f"failing indices {squares}"),
        per_element("sigma_w sigma_{w^-1} torus value", lemma),
        ("sigma_{w0}^2 = exp(2 pi i rho-check), central", ok and central,
         f"value {format_torus_part(sq.t)}"),
        per_element("theta0 equivariance of lifts", equi),
        per_element("C(sigma_w) = (sigma_{w^-1})^{-1}", chev),
    ]


# ---------------------------------------------------------------------------
# serialization

def elem_to_dict(g: ExtTitsElem) -> dict:
    return {
        "mu": format_torus_part(g.t),
        "w": list(g.w.word),
        "eps": g.eps,
    }
