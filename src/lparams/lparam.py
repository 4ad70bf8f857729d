"""Parameters for the real Weil group in aligned position, and their invariants.

A parameter is stored by the data (lambda, mu, w): the restriction to the
connected part is z -> z^lambda zbar^{theta(lambda)} into the dual torus, and
the extra generator goes to exp(2*pi*i*mu) sigma_w delta. Validity is the
translation of "these formulas define a homomorphism" into three exact
conditions, each raised as its own error. All invariants (infinitesimal and
radical characters, the central-character class, discrete-series and Levi
structure) and the two dualities (composition with the Chevalley involution,
precomposition with j -> j^{-1}) are computed through the Tits group, so
every half-integer correction is tracked exactly.

lambda is carried as a ScaledVec and mu as a TorusPart, both integer
numerators over one denominator, so validity, pairings with roots and the
invariants are integer arithmetic. What depends only on theta = w theta0 is
computed once per (L, w) and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from math import lcm
from operator import mul
from random import Random
from typing import List, NamedTuple, Sequence, Tuple

from .errors import (
    ContextMismatch,
    InputError,
    InvariantViolated,
    NormalizationRequired,
    NotInvolution,
    ValidityC,
    ValidityE,
    ValidityIntegrality,
    json_array,
)
from .gaussian import GaussQ, GVec, ScaledVec, format_gauss, parse_gauss, parse_rational
from .intlinalg import (
    descend_map,
    ident,
    in_span_z,
    mat_mul,
    mat_neg,
    mat_vec,
    one_minus,
    saturation_projection,
    solve_congruence_scaled,
    transpose,
    vadd,
    vdot,
    vneg,
    vsub,
)
from .lgroup import LGroup, StandardLevi, lgroup_tits_context, parse_inner_class
from .rootdata import (
    RootDatum,
    all_coroots,
    all_roots,
    based_aut,
    build_datum,
    coaction,
    compose_aut,
    positive_root_table,
    transpose_aut,
    two_rho_check,
)
from .tits import (
    ExtTitsElem,
    TorusPart,
    act_on_torus_part,
    chevalley,
    sigma,
    tits_inverse,
    tits_mul,
    torus_elem,
    torus_part,
)
from .torus import (
    TorusCharData,
    TorusParam,
    char_equal,
    param_to_char,
    torus_contragredient,
    torus_egroup,
    torus_param,
)
from .weyl import (
    WeylElem,
    _descend,
    apply_aut_to_weyl,
    neg_w0_aut,
    parabolic_subgroup,
    simple_reflection,
    weyl_act,
    weyl_enumerate,
    weyl_from_word,
    weyl_identity,
    weyl_mul,
)


@dataclass(frozen=True)
class LParam:
    """A valid parameter (lambda, mu, w) for the L-group L.

    lambda is held as a ScaledVec in `lam_s`; `lam` is its GaussQ view.
    """

    L: LGroup
    lam_s: ScaledVec
    mu: TorusPart
    w: WeylElem

    @property
    def lam(self) -> GVec:
        return self.lam_s.gvec()

    @property
    def theta(self) -> Tuple[Tuple[int, ...], ...]:
        """theta = w theta0 on X_*."""
        return _involution(self.L, self.w).theta

    def __repr__(self):
        return (f"LParam(lambda={[str(x) for x in self.lam]}, "
                f"mu={[str(x) for x in self.mu.entries]}, w={list(self.w.word)})")


class _Involution(NamedTuple):
    theta: Tuple[Tuple[int, ...], ...]  # w theta0 on X_*
    twisted: bool                       # w . theta0(w) = e
    involutive: bool                    # theta^2 = 1
    one_minus: Tuple[Tuple[int, ...], ...]
    one_plus: Tuple[Tuple[int, ...], ...]
    shift: Tuple[int, ...]              # rho_check - w rho_check


@cache
def _involution(L: LGroup, w: WeylElem) -> _Involution:
    """theta = w theta0 and the integer data validity and the invariants read off it.

    Computed once per (L, w); the cache holds one entry per Weyl element met,
    in practice the twisted involutions of L.
    """
    d = L.dual_datum
    theta = mat_mul(w.matrix, coaction(L.theta0))
    twisted = weyl_mul(w, apply_aut_to_weyl(L.theta0, w)) == weyl_identity(d)
    rc2 = two_rho_check(d)
    shift2 = vsub(rc2, weyl_act(w, rc2))
    if any(x % 2 for x in shift2):
        raise InvariantViolated("rho_check - w rho_check is not an integer vector")
    return _Involution(theta, twisted, mat_mul(theta, theta) == ident(d.rank),
                       one_minus(theta), one_minus(mat_neg(theta)),
                       tuple(x // 2 for x in shift2))


def _orthogonal(alpha, v: ScaledVec) -> bool:
    """<alpha, v> = 0 for an integer vector alpha."""
    return sum(map(mul, alpha, v.re)) == 0 and sum(map(mul, alpha, v.im)) == 0


def _coerce_parts(L: LGroup, lam, mu, w):
    d = L.dual_datum
    if isinstance(w, (list, tuple)):
        w = weyl_from_word(d, w)
    if w.datum != d:
        raise ContextMismatch("Weyl part over a different datum")
    lam = ScaledVec.of(lam)
    if not isinstance(mu, TorusPart):
        mu = torus_part(mu)
    if len(lam.re) != d.rank or len(mu.num) != d.rank:
        raise InputError("lambda/mu length does not match the dual rank")
    return lam, mu, w


def validity_rows(L: LGroup, lam, mu, w) -> List[Tuple[str, bool, str, type]]:
    """All validity verdicts: (name, passed, detail, error class to raise)."""
    return _validity_rows(L, *_coerce_parts(L, lam, mu, w))


def _validity_rows(L: LGroup, lam: ScaledVec, mu: TorusPart, w: WeylElem):
    """validity_rows on parts that _coerce_parts has already checked."""
    inv = _involution(L, w)
    rows: List[Tuple[str, bool, str, type]] = []

    c_ok = inv.twisted
    rows.append(("twisted-involution", c_ok,
                 "w . theta0(w) = e" if c_ok else "w . theta0(w) != e", ValidityC))
    inv_ok = inv.involutive
    rows.append(("theta-involution", inv_ok,
                 "theta^2 = 1" if inv_ok else "theta^2 != 1", NotInvolution))
    if not (c_ok and inv_ok):
        return rows

    dif = lam.apply(inv.one_minus)
    int_ok = dif.den == 1 and not any(dif.im)
    rows.append(("integrality", int_ok,
                 "lambda - theta(lambda) in Z^n" if int_ok
                 else "lambda - theta(lambda) not in Z^n", ValidityIntegrality))
    if not int_ok:
        return rows

    # 2(mu + theta(mu)) has numerators 2 * (1 + theta) mu.num over mu.den
    two_mu_plus = [2 * sum(map(mul, row, mu.num)) for row in inv.one_plus]
    e_ok = all(x % mu.den == 0 and (x // mu.den + r - y) % 2 == 0
               for x, r, y in zip(two_mu_plus, inv.shift, dif.re))
    rows.append(("parity", e_ok,
                 "2(mu + theta(mu)) + (rho_check - w rho_check) = "
                 "lambda - theta(lambda) mod 2Z^n" if e_ok else
                 "2(mu + theta(mu)) + (rho_check - w rho_check) != "
                 "lambda - theta(lambda) mod 2Z^n", ValidityE))
    return rows


def make_param(L: LGroup, lam, mu, w) -> LParam:
    """Validate (lambda, mu, w) against the homomorphism conditions."""
    lam, mu, w = _coerce_parts(L, lam, mu, w)
    for name, ok, detail, err in _validity_rows(L, lam, mu, w):
        if not ok:
            raise err(detail)
    return LParam(L, lam, mu, w)


def phi_j(p: LParam) -> ExtTitsElem:
    """The image of j in the extended Tits group: exp(2*pi*i*mu) sigma_w delta."""
    return ExtTitsElem(lgroup_tits_context(p.L), p.mu, p.w, 1)


def _from_phi_j(L: LGroup, lam, g: ExtTitsElem) -> LParam:
    if g.eps != 1:
        raise InvariantViolated("the image of j left the delta coset")
    return make_param(L, lam, g.t, g.w)


def conjugate_param(p: LParam, by) -> LParam:
    """Conjugate by a torus element (TorusPart) or a Weyl element's canonical lift."""
    ctx = lgroup_tits_context(p.L)
    if isinstance(by, TorusPart):
        g = tits_mul(tits_mul(torus_elem(ctx, by), phi_j(p)), torus_elem(ctx, -by))
        return _from_phi_j(p.L, p.lam_s, g)
    if isinstance(by, WeylElem):
        if by.datum != p.L.dual_datum:
            raise ContextMismatch("conjugator over a different datum")
        s = sigma(ctx, by)
        g = tits_mul(tits_mul(s, phi_j(p)), tits_inverse(s))
        return _from_phi_j(p.L, p.lam_s.apply(by.matrix), g)
    raise InputError("conjugator must be a TorusPart or a WeylElem")


def params_equivalent(p: LParam, q: LParam) -> bool:
    """Conjugacy under the torus and the normalizer.

    The pairing descent carries lambda_p and lambda_q to the dominant point
    of their W-orbit by x and y. If the points differ the parameters are not
    conjugate; otherwise the u with u(lambda_p) = lambda_q are exactly
    y^{-1} s x for s in the stabilizer W_J of the dominant point, J the
    simple indices of zero pairing. Each such u conjugates p, and the torus
    parts are compared by a lattice solve. The cost scales with |W_J|, which
    is 1 for regular lambda, not with |W|.
    """
    if p.L != q.L:
        raise ContextMismatch("parameters for different L-groups")
    d = p.L.dual_datum
    dom, x, pairings = _dominance_descent(d, p.lam_s)
    dom_q, y, _ = _dominance_descent(d, q.lam_s)
    if dom != dom_q:
        return False
    zero = [i + 1 for i, (re, im) in enumerate(pairings) if re == 0 and im == 0]
    for s in parabolic_subgroup(d, zero):
        pc = conjugate_param(p, weyl_from_word(d, [*y, *s.word, *reversed(x)]))
        if pc.w != q.w:
            continue
        diff = q.mu - pc.mu
        if solve_congruence_scaled(_involution(q.L, q.w).one_minus, diff.num, diff.den) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# invariants

def _dominance_descent(d: RootDatum, v: ScaledVec):
    """(dominant point, reflection indices in order applied, final simple pairings).

    weyl's dominance descent on the numerators' real and imaginary pairings;
    each step i with pairings p_i moves v by -p_i alpha-check_i. Pairings are
    returned as scaled (real, imaginary) pairs, good for sign and zero tests.
    """
    cols = [[vdot(a, v.re) for a in d.simple_roots], [vdot(a, v.im) for a in d.simple_roots]]
    steps = _descend(d, cols)
    re, im = list(v.re), list(v.im)
    for i, (ri, ii) in steps:
        cv = d.simple_coroots[i - 1]
        re = [x - ri * c for x, c in zip(re, cv)]
        im = [x - ii * c for x, c in zip(im, cv)]
    return ScaledVec(re, im, v.den), [i for i, _ in steps], list(zip(*cols))


def dominant_rep(d: RootDatum, vec: GVec) -> GVec:
    """Dominant representative of the W-orbit, for vectors on the cocharacter side.

    Dominance is taken for the lexicographic order on (real, imaginary) parts
    of each simple pairing; that order linearizes the orbit like a field
    order, so the dominant point is unique and the dominance descent reaches it.
    """
    return _dominance_descent(d, ScaledVec.of(vec))[0].gvec()


def _inf_char(p: LParam) -> ScaledVec:
    return _dominance_descent(p.L.dual_datum, p.lam_s)[0]


def inf_char(p: LParam) -> GVec:
    return _inf_char(p).gvec()


@cache
def _radical_projection(d: RootDatum):
    """saturation_projection of the coroot lattice, once per datum."""
    return saturation_projection(d.simple_coroots, d.rank)


def rad_param(p: LParam) -> TorusParam:
    """Push the parameter through the surjection onto the radical-torus E-group.

    The radical cocharacter lattice is X_* modulo the saturated coroot
    lattice; theta descends because it permutes coroots up to sign.
    """
    proj, uinv, rank = _radical_projection(p.L.dual_datum)
    th_rad = descend_map(proj, uinv, rank, p.theta)
    eg = torus_egroup(th_rad, (Q(0),) * len(proj))
    return torus_param(eg, p.lam_s.apply(proj), act_on_torus_part(proj, p.mu))


def rad_char(p: LParam) -> TorusCharData:
    return param_to_char(rad_param(p))


@cache
def _two_rho_imaginary(L: LGroup, w: WeylElem) -> Tuple[int, ...]:
    """Sum of the imaginary roots made positive by a functional (1, t, t^2, ...), t >= 2.

    The imaginary roots are the roots of the group itself (coroots of the
    dual datum) negated by theta = w theta0; computed once per (L, w).
    """
    theta = _involution(L, w).theta
    imag = [c for c in sorted(all_coroots(L.dual_datum))
            if tuple(mat_vec(theta, c)) == tuple(-x for x in c)]
    n = L.dual_datum.rank
    t = 2
    while True:
        f = tuple(t ** k for k in range(n))
        vals = [vdot(f, r) for r in imag]
        if all(v != 0 for v in vals):
            total = (0,) * n
            for r, v in zip(imag, vals):
                if v > 0:
                    total = vadd(total, r)
            return total
        t += 1


def central_char(p: LParam) -> Tuple[Q, ...]:
    """Representative of the central-character class.

    tau = (1/2)(1-theta)lambda - (1+theta)mu + rho_i, where rho_i is the
    half-sum of a positive system of theta-negated roots. The class lives
    modulo root lattice + (1-theta)Z^n + (1+theta)Z^n; the last summand
    absorbs the Z^n-ambiguity of mu, and any two positive systems differ by a
    root-lattice element, so the class is representative-independent.
    """
    inv = _involution(p.L, p.w)
    dif = p.lam_s.apply(inv.one_minus)
    mu_plus = [sum(map(mul, row, p.mu.num)) for row in inv.one_plus]
    two_rho = _two_rho_imaginary(p.L, p.w)
    den = lcm(2 * dif.den, p.mu.den)
    a, b, c = den // (2 * dif.den), den // p.mu.den, den // 2
    return tuple(Q(x * a - y * b + r * c, den)
                 for x, y, r in zip(dif.re, mu_plus, two_rho))


def central_modulus_gens(p: LParam) -> List[Tuple[int, ...]]:
    inv = _involution(p.L, p.w)
    gens = [tuple(c) for c in p.L.dual_datum.simple_coroots]
    for mat in (inv.one_minus, inv.one_plus):
        gens.extend(transpose(mat))
    return gens


def central_chars_agree(p: LParam, t1: Sequence[Q], t2: Sequence[Q]) -> bool:
    diff = [a - b for a, b in zip(t1, t2)]
    if any(x.denominator != 1 for x in diff):
        return False
    return in_span_z([x.numerator for x in diff], central_modulus_gens(p))


def is_discrete_series(p: LParam) -> bool:
    """lambda regular, and theta acts as inversion on the derived part."""
    d = p.L.dual_datum
    for alpha in all_roots(d):
        if _orthogonal(alpha, p.lam_s):
            return False
    for c in d.simple_coroots:
        if tuple(mat_vec(p.theta, c)) != tuple(-x for x in c):
            return False
    return True


# ---------------------------------------------------------------------------
# Levi reduction

def _s_hat_roots(p: LParam) -> List[Tuple[int, ...]]:
    """Dual-group roots pairing to zero against both lambda and theta(lambda)."""
    th_lam = p.lam_s.apply(p.theta)
    return [alpha for alpha in sorted(all_roots(p.L.dual_datum))
            if _orthogonal(alpha, p.lam_s) and _orthogonal(alpha, th_lam)]


def _levi_subsystem(d: RootDatum, subset: frozenset) -> frozenset:
    """Roots supported on the given simple indices."""
    keep = set()
    for _, alpha, coeffs in positive_root_table(d):
        if all(c == 0 or (i + 1) in subset for i, c in enumerate(coeffs)):
            keep.update((alpha, vneg(alpha)))
    return frozenset(keep)


def _levi_roots(d: RootDatum, theta) -> frozenset:
    """The roots vanishing on ker(1 - theta); for an involution, those negated by theta^T."""
    th_star = transpose(theta)
    return frozenset(alpha for alpha in all_roots(d) if mat_vec(th_star, alpha) == vneg(alpha))


def levi_of(p: LParam) -> Tuple[StandardLevi, LParam]:
    """Standardize the Levi the parameter factors through, staying in the normalizer.

    A centralizer root negated by theta means the centralizer torus is bigger
    than the theta-fixed part of the dual torus; moving it to standard
    position would take a Cayley transform outside the normalizer, which is
    not modeled, so NormalizationRequired is raised with the root as witness.
    """
    d = p.L.dual_datum
    if not _involution(p.L, p.w).involutive:
        raise NotInvolution("theta^2 != 1")
    mset = _levi_roots(d, p.theta)
    for alpha in _s_hat_roots(p):
        if alpha in mset:
            raise NormalizationRequired(
                "centralizer root is negated by theta; a Cayley move would be needed",
                witness=alpha)
    perm = p.L.theta0.perm
    for u in weyl_enumerate(d):
        image = frozenset(tuple(weyl_act(u, alpha, side="X^*")) for alpha in mset)
        subset = frozenset(i + 1 for i in range(d.nsimple) if d.simple_roots[i] in image)
        if any(perm[i - 1] not in subset for i in subset):
            continue
        if _levi_subsystem(d, subset) == image:
            return StandardLevi(subset), conjugate_param(p, u)
    raise InputError("no Weyl element standardizes the Levi")


# ---------------------------------------------------------------------------
# dualities

def contragredient_param(p: LParam) -> LParam:
    """Compose with the Chevalley involution: lambda -> -lambda, phi(j) -> C(phi(j))."""
    g = chevalley(phi_j(p))
    _check_over_w(p, g, "C(phi(j))")
    return _from_phi_j(p.L, -p.lam_s, g)


def tau_twist_param(p: LParam) -> LParam:
    """Precompose with z -> z^{-1}, j -> j^{-1}: lambda -> -lambda, phi(j) -> phi(j)^{-1}."""
    g = tits_inverse(phi_j(p))
    _check_over_w(p, g, "phi(j)^{-1}")
    return _from_phi_j(p.L, -p.lam_s, g)


def _check_over_w(p: LParam, g: ExtTitsElem, what: str) -> None:
    if g.w != p.w or g.eps != 1:
        raise InvariantViolated(f"{what} does not lie over w delta (w={list(p.w.word)})")


# ---------------------------------------------------------------------------
# descriptors and the theorem report

@dataclass(frozen=True)
class PacketDescriptor:
    levi: StandardLevi
    inf: GVec
    rad: TorusCharData


def packet_descriptor(p: LParam) -> PacketDescriptor:
    levi, reduced = levi_of(p)
    return PacketDescriptor(levi, inf_char(reduced), rad_char(reduced))


def verify_contragredient(p: LParam) -> List[Tuple[str, bool, str]]:
    """The four contragredient checks; each row is (name, passed, detail)."""
    d = p.L.dual_datum
    cp = contragredient_param(p)
    rows = []

    want = _dominance_descent(d, -_inf_char(p))[0]
    got = _inf_char(cp)
    rows.append(("inf_char negation", got == want,
                 f"inf(C)={_fmt_vec(got)} dominant(-inf)={_fmt_vec(want)}"))

    rc_c = rad_char(cp)
    rc_dual = param_to_char(torus_contragredient(rad_param(p)))
    rows.append(("rad_char dual", char_equal(rc_c, rc_dual),
                 f"kappa(C)={[str(x) for x in rc_c.kappa]} "
                 f"kappa(dual)={[str(x) for x in rc_dual.kappa]}"))

    tp = tau_twist_param(p)
    rows.append(("C-twist vs tau-twist conjugacy", params_equivalent(cp, tp),
                 f"C: mu={[str(x) for x in cp.mu.entries]} "
                 f"tau: mu={[str(x) for x in tp.mu.entries]}"))

    tau_p = central_char(p)
    tau_c = central_char(cp)
    flip = central_chars_agree(p, tau_c, tuple(-x for x in tau_p))
    rows.append(("central_char flip", flip,
                 f"tau(C)={[str(x) for x in tau_c]} -tau(p)={[str(-x) for x in tau_p]}"))
    return rows


def _fmt_vec(v: ScaledVec) -> str:
    return "(" + ", ".join(format_gauss(x) for x in v.gvec()) + ")"


# ---------------------------------------------------------------------------
# sampling and serialization

@cache
def _twisted_involution_set(L: LGroup) -> Tuple[WeylElem, ...]:
    """Walk the Richardson-Springer twisted-involution graph up from e.

    From a twisted involution w and a left ascent s_i (l(s_i w) > l(w), that
    is <alpha_i, w rho_check> > 0 on w's key) the walk moves to
    s_i w theta0(s_i), or to s_i w when that product is w itself; every
    twisted involution is reached this way.
    """
    d = L.dual_datum
    refl = [simple_reflection(d, i) for i in range(1, d.nsimple + 1)]
    found = [weyl_identity(d)]
    seen = set(found)
    for w in found:
        for i in range(1, d.nsimple + 1):
            if w.key[i - 1] < 0:
                continue
            v = weyl_mul(refl[i - 1], w)
            twisted = weyl_mul(v, refl[L.theta0.perm[i - 1] - 1])
            v = v if twisted == w else twisted
            if v not in seen:
                seen.add(v)
                found.append(v)
    return tuple(sorted(found, key=lambda w: (len(w.word), w.word)))


def twisted_involutions(L: LGroup) -> List[WeylElem]:
    """All w with w . theta0(w) = e, in enumeration order (length, then word).

    The set is found once per L-group by walking the twisted-involution graph,
    without scanning W; each call returns a fresh list.
    """
    return list(_twisted_involution_set(L))


def _sixths(rng: Random, n: int) -> List[int]:
    """n draws a/b, a in [-6, 6] and b in {1, 2, 3}, as numerators over 6."""
    return [a * (6 // b) for a, b in ((rng.randrange(-6, 7), rng.choice([1, 2, 3]))
                                      for _ in range(n))]


def random_param(L: LGroup, rng: Random, denominator: int = 4) -> LParam:
    """Seeded valid parameter: pick a twisted involution, then solve for lambda.

    Integrality and the parity congruence combine into one congruence for the
    real part of lambda, handed to the Smith solver; a mu that makes the
    right-hand side non-integral is redrawn. The free directions (even
    vectors and theta-fixed vectors) are randomized for coverage.
    """
    n = L.dual_datum.rank
    words = twisted_involutions(L)
    for _ in range(400):
        w = rng.choice(words)
        inv = _involution(L, w)
        den = rng.choice([1, 2, 2, denominator])
        mu = TorusPart.scaled([rng.randrange(-2 * den, 2 * den + 1) for _ in range(n)], den)
        # t0 = 2(mu + theta(mu)) + (rho_check - w rho_check) must be integral
        two_mu_plus = [2 * sum(map(mul, row, mu.num)) for row in inv.one_plus]
        if any(x % mu.den for x in two_mu_plus):
            continue
        t0 = [x // mu.den + r for x, r in zip(two_mu_plus, inv.shift)]
        # (1 - theta) x / 2 = t0 / 2 (mod Z^n): solve (1 - theta) y = t0 / 2, then x = 2y
        sol = solve_congruence_scaled(inv.one_minus, t0, 2)
        if sol is None:
            continue
        y, y_den = sol
        even = [2 * rng.randrange(-2, 3) for _ in range(n)]
        # theta-fixed shifts (1 + theta) x / 2 with x in (1/6)Z^n, numerators over 12
        fix, im = ([sum(map(mul, row, x)) for row in inv.one_plus]
                   for x in (_sixths(rng, n), _sixths(rng, n)))
        den = lcm(12, y_den)
        re = [2 * x * (den // y_den) + e * den + f * (den // 12)
              for x, e, f in zip(y, even, fix)]
        return make_param(L, ScaledVec(re, [x * (den // 12) for x in im], den), mu, w)
    raise InputError("could not sample a valid parameter")


def param_to_dict(p: LParam) -> dict:
    g = p.L.g_datum
    theta0 = p.L.theta0
    if theta0.matrix == ident(g.rank):
        inner = "split"
    elif theta0 == transpose_aut(neg_w0_aut(g)):
        inner = "compact"
    else:
        gamma = compose_aut(neg_w0_aut(g), _tau_of(p.L))
        inner = [list(r) for r in gamma.matrix]
    return {
        "group": g.label,
        "inner_class": inner,
        "lambda": [format_gauss(z) for z in p.lam],
        "mu": [str(x) for x in p.mu.entries],
        "w": list(p.w.word),
    }


def _tau_of(L: LGroup):
    return based_aut(L.g_datum, transpose(L.theta0.matrix))


def param_parts(data: dict) -> Tuple[LGroup, List[GaussQ], TorusPart, List[int]]:
    """(L, lambda, mu, word) read from a parameter document, not yet validated.

    lambda and mu are arrays of strings or integers and w an array of
    integers; a bare string, a bool or a float is refused, not coerced.
    """
    try:
        group = data["group"]
        inner = data["inner_class"]
        lam = [parse_gauss(str(z)) for z in json_array(data["lambda"], (str, int))]
        mu = torus_part([parse_rational(x) for x in json_array(data["mu"], (str, int))])
        word = json_array(data["w"], int)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad parameter data: {data!r}") from exc
    return parse_inner_class(build_datum(group), inner), lam, mu, word


def param_from_dict(data: dict) -> LParam:
    return make_param(*param_parts(data))
