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

lambda is a ScaledVec and mu a TorusPart, both integer numerators over one
denominator, and so are the infinitesimal and central characters, so
validity, pairings with roots and the invariants are integer arithmetic.
What depends only on theta = w theta0 is computed once per (L, w) and cached.
A parameter also keeps dif = (1 - theta)lambda, the integer image of lambda
that validity, the central and radical characters read: make_param computes
it once, and the dualities, which send lambda to -lambda over the same w,
hand its negation on.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import count
from math import lcm
from operator import mul
from random import Random
from typing import List, Tuple

from .errors import (
    ContextMismatch,
    InputError,
    InvariantViolated,
    NormalizationRequired,
    NotInvolution,
    ValidityC,
    ValidityE,
    ValidityIntegrality,
    clipped_repr,
    frozen_setattr,
    json_array,
)
from .gaussian import ScaledVec, _numeral, format_tuple, format_vec
from .intlinalg import (
    _congruence,
    descend_map,
    ident,
    mat_mul,
    mat_neg,
    mat_vec,
    matrix_rank,
    one_minus,
    saturation_projection,
    transpose,
    vneg,
)
from .lgroup import LGroup, StandardLevi, lgroup_tits_context, parse_inner_class
from .rootdata import (
    RootDatum,
    _root_system,
    based_aut,
    build_datum,
    coaction,
    compose_aut,
    transpose_aut,
)
from .tits import (
    ExtTitsElem,
    TorusPart,
    act_on_torus_part,
    chevalley,
    format_torus_part,
    sigma,
    tits_inverse,
    tits_mul,
    torus_elem,
    torus_part,
)
from .torus import (
    TorusCharData,
    TorusParam,
    _char_data,
    _kappa,
    char_equal,
    torus_egroup,
)
from .weyl import (
    WeylElem,
    _descend,
    _elem_from_matrix,
    _four_z,
    _replay_key,
    apply_aut_to_weyl,
    longest_element,
    neg_w0_aut,
    parabolic_subgroup,
    weyl_from_word,
    weyl_identity,
    weyl_mul,
)


class LParam(namedtuple("LParam", "L lam mu w dif")):
    """A valid parameter (lambda, mu, w) for the L-group L, and dif = (1 - theta)lambda."""

    __slots__ = ()

    @property
    def theta(self) -> Tuple[Tuple[int, ...], ...]:
        """theta = w theta0 on X_*."""
        return _involution(self.L, self.w).theta

    def __repr__(self):
        return (f"LParam(lambda={format_vec(self.lam)}, "
                f"mu={format_torus_part(self.mu)}, w={list(self.w.word)})")


class _Involution(namedtuple("_Involution",
                              "theta twisted one_minus one_plus shift rho_i central")):
    """theta = w theta0 on X_*; twisted: w . theta0(w) = e, which is theta^2 = 1, as
    theta^2 = (w . theta0(w)) theta0^2 and LGroup holds theta0^2 = 1; the matrices
    1 - theta and 1 + theta; shift = rho_check - w rho_check; rho_i, half the sum of
    a positive system of imaginary roots; central, the lattice central_modulus_gens
    spans, mod 2, as an xor basis."""

    __slots__ = ()

    def parity_target(self, mu: TorusPart):
        """The integer vector 2(mu + theta(mu)) + (rho_check - w rho_check), or None if
        it is not integral; validity's parity row compares it with (1 - theta)lambda mod 2."""
        # 2(mu + theta(mu)) has numerators 2 * (1 + theta) mu.num over mu.den
        den, target = mu.den, []
        for row, r in zip(self.one_plus, self.shift):
            x, rem = divmod(2 * sum(map(mul, row, mu.num)), den)
            if rem:
                return None
            target.append(x + r)
        return target


@cache
def _involution(L: LGroup, w: WeylElem) -> _Involution:
    """theta = w theta0 and the integer data validity and the invariants read off it.

    Computed once per (L, w); the cache holds one entry per Weyl element met,
    in practice the twisted involutions of L.

    rho_i: the imaginary roots are the roots of the group itself (coroots of
    the dual datum) negated by theta. They are closed under negation and
    f(-c) = -f(c), so for a functional f = (1, t, t^2, ...), t >= 2, nonzero
    on all of them, each positive c with theta c = -c adds c or -c, whichever
    f makes positive.

    central: the lattice contains 2Z^n, as (1 - theta) e_k + (1 + theta) e_k =
    2 e_k, so an integer vector lies in it exactly when its parity mask lies
    in the F_2-span of the generators' masks (1 + theta = 1 - theta mod 2, so
    each distinct mask is reduced once). The basis holds at most n masks with
    distinct leading bits, in decreasing order, so x = min(x, x ^ b) over it
    clears x's bits from the top down.
    """
    d = L.dual_datum
    n = d.rank
    theta = mat_mul(w.matrix, coaction(L.theta0))
    twisted = weyl_mul(w, apply_aut_to_weyl(L.theta0, w)) == weyl_identity(d)
    shift2 = _four_z(w)
    if any(x % 2 for x in shift2):
        raise InvariantViolated("rho_check - w rho_check is not an integer vector")
    imag = [c for c in _root_system(d).coroots
            if all(sum(map(mul, row, c)) == -x for row, x in zip(theta, c))]
    for t in count(2):
        f = [t ** k for k in range(n)]
        vals = [sum(map(mul, f, c)) for c in imag]
        if all(vals):
            break
    rho_i = ScaledVec([sum(c[k] if v > 0 else -c[k] for c, v in zip(imag, vals))
                       for k in range(n)], (0,) * n, 2)
    om, op = one_minus(theta), one_minus(mat_neg(theta))
    basis: List[int] = []
    for x in {_parity_mask(g) for g in central_modulus_gens(d, om, op)}:
        x = _xor_reduce(x, basis)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return _Involution(theta, twisted, om, op, tuple(x // 2 for x in shift2), rho_i, tuple(basis))


def _orthogonal(alpha, v: ScaledVec) -> bool:
    """<alpha, v> = 0 for an integer vector alpha."""
    return sum(map(mul, alpha, v.re)) == 0 and sum(map(mul, alpha, v.im)) == 0


def _coerce_parts(L: LGroup, lam, mu, w):
    """(lambda, mu, w, dif = (1 - theta)lambda), each of the type and length a parameter holds."""
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
    return lam, mu, w, lam.apply(_involution(L, w).one_minus)


def validity_rows(L: LGroup, lam, mu, w) -> List[Tuple[str, bool, str, type]]:
    """All validity verdicts: (name, passed, detail, error class to raise)."""
    _, mu, w, dif = _coerce_parts(L, lam, mu, w)
    return _validity_rows(L, mu, w, dif)


def _validity_rows(L: LGroup, mu: TorusPart, w: WeylElem, dif: ScaledVec):
    """validity_rows on parts that _coerce_parts has already checked; dif = (1 - theta)lambda."""
    inv = _involution(L, w)
    rows: List[Tuple[str, bool, str, type]] = []

    c_ok = inv.twisted
    rows.append(("twisted-involution", c_ok,
                 "w . theta0(w) = e" if c_ok else "w . theta0(w) != e", ValidityC))
    rows.append(("theta-involution", c_ok,
                 "theta^2 = 1" if c_ok else "theta^2 != 1", NotInvolution))
    if not c_ok:
        return rows

    int_ok = dif.den == 1 and not any(dif.im)
    rows.append(("integrality", int_ok,
                 "lambda - theta(lambda) in Z^n" if int_ok
                 else "lambda - theta(lambda) not in Z^n", ValidityIntegrality))
    if not int_ok:
        return rows

    target = inv.parity_target(mu)
    e_ok = target is not None and not any([(t - y) & 1 for t, y in zip(target, dif.re)])
    rows.append(("parity", e_ok,
                 "2(mu + theta(mu)) + (rho_check - w rho_check) = "
                 "lambda - theta(lambda) mod 2Z^n" if e_ok else
                 "2(mu + theta(mu)) + (rho_check - w rho_check) != "
                 "lambda - theta(lambda) mod 2Z^n", ValidityE))
    return rows


def make_param(L: LGroup, lam, mu, w) -> LParam:
    """Validate (lambda, mu, w) against the homomorphism conditions."""
    return _make_param(L, *_coerce_parts(L, lam, mu, w))


def _make_param(L: LGroup, lam: ScaledVec, mu: TorusPart, w: WeylElem, dif: ScaledVec) -> LParam:
    """make_param on checked parts; dif = (1 - theta)lambda."""
    for name, ok, detail, err in _validity_rows(L, mu, w, dif):
        if not ok:
            raise err(detail)
    return LParam(L, lam, mu, w, dif)


def phi_j(p: LParam) -> ExtTitsElem:
    """The image of j in the extended Tits group: exp(2*pi*i*mu) sigma_w delta."""
    return ExtTitsElem(lgroup_tits_context(p.L), p.mu, p.w, 1)


def _from_phi_j(L: LGroup, lam: ScaledVec, g: ExtTitsElem) -> LParam:
    """The parameter (lam, g), g's parts coming from the Tits group over L, so none is coerced.

    dif is computed from g's own w, not carried across the conjugation, so
    the conjugate's validity is checked afresh.
    """
    if g.eps != 1:
        raise InvariantViolated("the image of j left the delta coset")
    return _make_param(L, lam, g.t, g.w, lam.apply(_involution(L, g.w).one_minus))


def conjugate_param(p: LParam, by) -> LParam:
    """Conjugate by a torus element (TorusPart) or a Weyl element's canonical lift."""
    ctx = lgroup_tits_context(p.L)
    if isinstance(by, TorusPart):
        g = tits_mul(tits_mul(torus_elem(ctx, by), phi_j(p)), torus_elem(ctx, -by))
        return _from_phi_j(p.L, p.lam, g)
    if isinstance(by, WeylElem):
        if by.datum != p.L.dual_datum:
            raise ContextMismatch("conjugator over a different datum")
        s = sigma(ctx, by)
        g = tits_mul(tits_mul(s, phi_j(p)), tits_inverse(s))
        return _from_phi_j(p.L, p.lam.apply(by.matrix), g)
    raise InputError("conjugator must be a TorusPart or a WeylElem")


def params_equivalent(p: LParam, q: LParam) -> bool:
    """Conjugacy under the torus and the normalizer.

    The pairing descent carries lambda_p and lambda_q to the dominant point
    of their W-orbit by x and y. If the points differ the parameters are not
    conjugate; otherwise the u with u(lambda_p) = lambda_q are exactly
    y^{-1} s x for s in the stabilizer W_J of the dominant point, J the
    simple indices of zero pairing. Each such u conjugates p, and the torus
    parts are compared by the class test: they are T-conjugate exactly when
    they agree modulo (1 - theta)Q^n + Z^n. W_J is walked lazily, in (length,
    word) order, and the walk stops at the first u that conjugates p to q; W_J
    is {e} for regular lambda, and only a pair that is not conjugate walks all
    of it. verify_contragredient, which has already descended lambda_p, calls
    _params_equivalent with that descent.
    """
    return _params_equivalent(p, q, _dominance_descent(p.L.dual_datum, p.lam))


def _params_equivalent(p: LParam, q: LParam, desc_p) -> bool:
    """params_equivalent given desc_p, the dominance descent of lambda_p.

    q reuses desc_p only when lambda_q equals lambda_p, which is tested, so a
    q with another lambda pays its own descent. The candidate u = e conjugates
    p to itself, so p is used as is; when q reuses desc_p, the candidate for
    s = e is u = e, and no word is replayed. The walk of W_J stops at the
    first s whose u conjugates p to q, that is gives q's w and passes the
    class test. That test reads the Smith form U (1 - theta) V of the (L, w)
    record's one_minus, looked up when the test runs, and asks that the
    coordinates of U (mu_q - mu_u(p)) past the nonzero invariant factors be
    integers; no x is solved for.
    """
    if p.L != q.L:
        raise ContextMismatch("parameters for different L-groups")
    d = p.L.dual_datum
    dom, x, pairings = desc_p
    dom_q, y, _ = desc_p if q.lam == p.lam else _dominance_descent(d, q.lam)
    if dom != dom_q:
        return False
    zero = [i + 1 for i, (re, im) in enumerate(pairings) if re == 0 and im == 0]
    for s in parabolic_subgroup(d, zero):
        if y is x and not s.word:
            pc = p  # u = y s x^-1 = e, known without replaying the word
        else:
            u = weyl_from_word(d, [*y, *s.word, *reversed(x)])
            pc = conjugate_param(p, u) if u.word else p
        if pc.w != q.w:
            continue
        diff = q.mu - pc.mu
        if _congruence(_involution(q.L, q.w).one_minus, diff.num, diff.den, witness=False):
            return True
    return False


# ---------------------------------------------------------------------------
# invariants

def _dominance_descent(d: RootDatum, v: ScaledVec):
    """(dominant point, reflection indices in order applied, final simple pairings).

    weyl's dominance descent on the numerators' real and imaginary pairings;
    each step i with pairings p_i moves v by -p_i alpha-check_i, so the walk
    adds up one coefficient c_i per simple index and v moves once, by
    -sum c_i alpha-check_i. Pairings are returned as scaled (real, imaginary)
    pairs, good for sign and zero tests. The lexicographic order on (real,
    imaginary) pairings linearizes the orbit like a field order, so the
    dominant point is unique.
    """
    p_re = [sum(map(mul, a, v.re)) for a in d.simple_roots]
    p_im = [sum(map(mul, a, v.im)) for a in d.simple_roots]
    steps = _descend(d, p_re, p_im)
    c_re, c_im = [0] * d.nsimple, [0] * d.nsimple
    for i, ri, ii in steps:
        c_re[i - 1] += ri
        c_im[i - 1] += ii
    re, im = list(v.re), list(v.im)
    for cv, a, b in zip(d.simple_coroots, c_re, c_im):
        if a or b:
            re = [x - a * c for x, c in zip(re, cv)]
            im = [x - b * c for x, c in zip(im, cv)]
    return ScaledVec(re, im, v.den), [i for i, _, _ in steps], list(zip(p_re, p_im))


def inf_char(p: LParam) -> ScaledVec:
    """The dominant point of W lambda."""
    return _dominance_descent(p.L.dual_datum, p.lam)[0]


# the radical torus of L: the projection of X_* onto its cocharacters and its E-group;
# where the projection has no rows (L is semisimple), also the torus's one parameter,
# its character and row 2's row
_Radical = namedtuple("_Radical", "proj egroup param char row")


@cache
def _radical(L: LGroup) -> _Radical:
    """The radical torus of L, once per L.

    W acts trivially on X_* modulo the saturated coroot lattice, as s_alpha
    moves x by a multiple of alpha-check, so theta = w theta0 descends to
    what theta0 does, for every w. Where the torus has rank 0, lambda_r,
    dif_r and mu_r are empty for every parameter of L: rad(p), rad(C(p)) and
    the dual's character are one character, checked once by _char_data, and
    row 2 is one record per L: char_equal's verdict on it, and its text,
    written on first read and kept.
    """
    d = L.dual_datum
    proj, uinv, rank = saturation_projection(d.simple_coroots, d.rank)
    eg = torus_egroup(descend_map(proj, uinv, rank, coaction(L.theta0)), (0,) * len(proj))
    if proj:
        return _Radical(proj, eg, None, None, None)
    lam, mu = ScaledVec((), (), 1), TorusPart.scaled((), 1)
    rc = _char_data(eg, lam, lam, mu)
    return _Radical(proj, eg, TorusParam(eg, lam, mu), rc,
                    TheoremRow("rad_char dual", char_equal(rc, rc), (rc.kappa, rc.kappa)))


def _radical_of(p: LParam, cp: LParam | None = None) -> _Radical:
    """p's radical record: rad(p) and its character, and row 2's row when cp = C(p) is given.

    Where the radical torus has rank 0 this is _radical(p.L) itself. Else
    lambda_p, p.dif and mu_p are projected once, to lambda_r, dif_r =
    (1 - theta_rad)lambda_r (as proj theta = theta_rad proj, descend_map)
    and mu_r, and _char_data checks rad(p) from them; row 2 checks rad(C(p))
    from (-lambda_r, -dif_r) and proj mu_C, and the dual from (-lambda_r,
    -dif_r) and -mu_r, one kappa each.
    """
    rad = _radical(p.L)
    proj, eg = rad.proj, rad.egroup
    if not proj:
        return rad
    lam_r, dif_r, mu_r = p.lam.apply(proj), p.dif.apply(proj), act_on_torus_part(proj, p.mu)
    rc, row = _char_data(eg, lam_r, dif_r, mu_r), None
    if cp is not None:
        neg_lam_r, neg_dif_r = -lam_r, -dif_r
        rc_c = _char_data(eg, neg_lam_r, neg_dif_r, act_on_torus_part(proj, cp.mu))
        rc_dual = _char_data(eg, neg_lam_r, neg_dif_r, -mu_r)
        row = TheoremRow("rad_char dual", char_equal(rc_c, rc_dual), (rc_c.kappa, rc_dual.kappa))
    return _Radical(proj, eg, TorusParam(eg, lam_r, mu_r), rc, row)


def rad_param(p: LParam) -> TorusParam:
    """Push the parameter through the surjection onto the radical-torus E-group.

    The radical cocharacter lattice is X_* modulo the saturated coroot
    lattice; theta descends because it permutes coroots up to sign.
    """
    return _radical_of(p).param


def rad_char(p: LParam) -> TorusCharData:
    return _radical_of(p).char


def central_char(p: LParam) -> ScaledVec:
    """Representative of the central-character class.

    tau = kappa + rho_i, with kappa = (1/2)(1-theta)lambda - (1+theta)mu the
    torus kappa at theta = w theta0, and rho_i the half-sum of a positive
    system of theta-negated roots. The class lives modulo root lattice +
    (1-theta)Z^n + (1+theta)Z^n; the last summand absorbs the Z^n-ambiguity
    of mu, and any two positive systems differ by a root-lattice element, so
    the class is representative-independent.
    """
    inv = _involution(p.L, p.w)
    return _kappa(p.dif, inv.one_plus, p.mu) + inv.rho_i


def central_modulus_gens(d: RootDatum, one_minus_theta, one_plus_theta) -> List[Tuple[int, ...]]:
    """The simple coroots of d and the columns of 1 - theta and 1 + theta."""
    gens = [tuple(c) for c in d.simple_coroots]
    for mat in (one_minus_theta, one_plus_theta):
        gens.extend(transpose(mat))
    return gens


def _parity_mask(v) -> int:
    """The integer vector v mod 2, as a bitmask: bit k is entry k's parity."""
    return sum((x & 1) << k for k, x in enumerate(v))


def _xor_reduce(x: int, basis) -> int:
    """x reduced against an xor basis: 0 exactly when x is in the basis's span."""
    for b in basis:
        x = min(x, x ^ b)
    return x


def central_chars_agree(p: LParam, t1: ScaledVec, t2: ScaledVec) -> bool:
    """t1 - t2 is an integer vector in the span of central_modulus_gens: its parity mask reduces to 0."""
    diff = t1 - t2
    return (diff.den == 1 and not any(diff.im)
            and not _xor_reduce(_parity_mask(diff.re), _involution(p.L, p.w).central))


def is_discrete_series(p: LParam) -> bool:
    """lambda regular, and theta acts as inversion on the derived part."""
    d = p.L.dual_datum
    for alpha in _root_system(d).all_roots:
        if _orthogonal(alpha, p.lam):
            return False
    for c in d.simple_coroots:
        if tuple(mat_vec(p.theta, c)) != tuple(-x for x in c):
            return False
    return True


# ---------------------------------------------------------------------------
# Levi reduction

def _s_hat_roots(p: LParam) -> List[Tuple[int, ...]]:
    """Dual-group roots pairing to zero against both lambda and theta(lambda)."""
    th_lam = p.lam.apply(p.theta)
    return [alpha for alpha in sorted(_root_system(p.L.dual_datum).all_roots)
            if _orthogonal(alpha, p.lam) and _orthogonal(alpha, th_lam)]


def _levi_roots(d: RootDatum, theta) -> frozenset:
    """The roots vanishing on ker(1 - theta); for an involution, those negated by theta^T."""
    th_star = transpose(theta)
    return frozenset(alpha for alpha in _root_system(d).all_roots
                     if mat_vec(th_star, alpha) == vneg(alpha))


def levi_of(p: LParam) -> Tuple[StandardLevi, LParam]:
    """Standardize the Levi the parameter factors through, staying in the normalizer.

    A centralizer root negated by theta means the centralizer torus is bigger
    than the theta-fixed part of the dual torus; moving it to standard
    position would take a Cayley transform outside the normalizer, which is
    not modeled, so NormalizationRequired is raised with the root as witness.
    """
    d = p.L.dual_datum
    if not _involution(p.L, p.w).twisted:
        raise NotInvolution("theta^2 != 1")
    mset = _levi_roots(d, p.theta)
    for alpha in _s_hat_roots(p):
        if alpha in mset:
            raise NormalizationRequired(
                "centralizer root is negated by theta; a Cayley move would be needed",
                witness=alpha)
    perm = p.L.theta0.perm
    rank = matrix_rank(sorted(mset))
    for u in parabolic_subgroup(d, range(1, d.nsimple + 1)):
        # J = {i : u^-1 alpha_i in M}, u^-1 acting on X^* by u's X_* matrix transposed.
        # M is the roots in a subspace, so Phi_J lies in u(M), and the two are equal
        # exactly when J spans u(M), as Phi meets span(J) in Phi_J: when |J| = rank M
        cols = transpose(u.matrix)
        subset = frozenset(i + 1 for i, alpha in enumerate(d.simple_roots)
                           if mat_vec(cols, alpha) in mset)
        if len(subset) == rank and all(perm[i - 1] in subset for i in subset):
            return StandardLevi(subset), conjugate_param(p, u)
    raise InputError("no Weyl element standardizes the Levi")


# ---------------------------------------------------------------------------
# dualities

def contragredient_param(p: LParam) -> LParam:
    """Compose with the Chevalley involution: lambda -> -lambda, phi(j) -> C(phi(j))."""
    return _twist(p, chevalley(phi_j(p)), "C(phi(j))")


def tau_twist_param(p: LParam) -> LParam:
    """Precompose with z -> z^{-1}, j -> j^{-1}: lambda -> -lambda, phi(j) -> phi(j)^{-1}."""
    return _twist(p, tits_inverse(phi_j(p)), "phi(j)^{-1}")


def _twist(p: LParam, g: ExtTitsElem, what: str) -> LParam:
    """The parameter (-lambda_p, g) for g = C(phi(j)) or phi(j)^{-1}, checked as make_param checks.

    g lies over p's w, so the twist's theta is p's and its (1 - theta)lambda
    is -p.dif; g's parts come from the Tits group, so none is coerced.
    """
    if g.w != p.w or g.eps != 1:
        raise InvariantViolated(f"{what} does not lie over w delta (w={list(p.w.word)})")
    return _make_param(p.L, -p.lam, g.t, g.w, -p.dif)


# ---------------------------------------------------------------------------
# descriptors and the theorem report

class PacketDescriptor(namedtuple("PacketDescriptor", "levi inf rad")):
    """The packet's standard Levi, infinitesimal character and radical character."""

    __slots__ = ()


def packet_descriptor(p: LParam) -> PacketDescriptor:
    levi, reduced = levi_of(p)
    return PacketDescriptor(levi, inf_char(reduced), rad_char(reduced))


class TheoremRow:
    """One theorem row: its name, its verdict and the two values it compared.

    The verdict is decided when the row is built; the detail text is written
    from the values when it is first read, and kept. A row iterates, indexes
    and compares equal as the triple (name, passed, detail), so unpacking or
    indexing a row writes its text; .passed does not. Rows are immutable:
    on a semisimple L, row 2 is one record per L that every op returns.
    """

    __slots__ = ("name", "passed", "values", "_detail")

    def __init__(self, name: str, passed: bool, values: tuple):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "passed", passed)
        init(self, "values", values)
        init(self, "_detail", None)

    __setattr__ = __delattr__ = frozen_setattr

    @property
    def detail(self) -> str:
        if self._detail is None:
            a, b = self.values
            if self.name == "inf_char negation":
                text = f"inf(C)={format_tuple(a)} dominant(-inf)={format_tuple(b)}"
            elif self.name == "rad_char dual":
                text = f"kappa(C)={format_vec(a)} kappa(dual)={format_vec(b)}"
            elif self.name == "C-twist vs tau-twist conjugacy":
                text = f"C: mu={format_torus_part(a)} tau: mu={format_torus_part(b)}"
            else:
                text = f"tau(C)={format_vec(a)} -tau(p)={format_vec(b)}"
            object.__setattr__(self, "_detail", text)
        return self._detail

    def __iter__(self):
        return iter((self.name, self.passed, self.detail))

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other):
        if isinstance(other, (TheoremRow, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"TheoremRow{tuple(self)!r}"


def verify_contragredient(p: LParam) -> List[TheoremRow]:
    """The four contragredient checks, as TheoremRow records.

    Each row's verdict is computed here; its detail text is written only
    when it is first read, and a row compares equal to the triple (name,
    passed, detail).

    Both dualities send lambda to -lambda over p's w and change only the
    Tits-group part, so C(p) and tau(p), from contragredient_param and
    tau_twist_param, keep -p.dif as their (1 - theta)lambda, and row 4's
    central_char reads each record's dif: the op applies no 1 - theta. Row 2
    is _radical_of's row: three kappas from one projection of lambda_p and
    p.dif, or, where the radical torus has rank 0, the row built once per L.

    What the theorem compares stays independent: the mu parts come from
    chevalley and tits_inverse on one side and from the torus negation on
    the other; row 1 sets the descent of lambda_C, its dominant point inf(C),
    against -w0 inf(p) from p's own descent (-w0 permutes the simple roots);
    row 3 reuses lambda_C's descent, as both twists carry -lambda_p, walks
    W_J and applies the class test, mu_tau - mu_C in (1 - theta)Q^n + Z^n,
    to each candidate; row 4 reduces its difference against its lattice's
    xor basis mod 2, read from the record per (L, w).
    """
    d = p.L.dual_datum
    cp = contragredient_param(p)
    desc_c = _dominance_descent(d, cp.lam)
    got, want = desc_c[0], -inf_char(p).apply(longest_element(d).matrix)
    rows = [TheoremRow("inf_char negation", got == want, (got, want)), _radical_of(p, cp).row]
    tp = tau_twist_param(p)
    rows.append(TheoremRow("C-twist vs tau-twist conjugacy", _params_equivalent(cp, tp, desc_c),
                           (cp.mu, tp.mu)))
    tau_c, neg_tau_p = central_char(cp), -central_char(p)
    rows.append(TheoremRow("central_char flip", central_chars_agree(p, tau_c, neg_tau_p),
                           (tau_c, neg_tau_p)))
    return rows


# ---------------------------------------------------------------------------
# sampling and serialization

@cache
def _twisted_involution_set(L: LGroup) -> Tuple[WeylElem, ...]:
    """Walk the Richardson-Springer twisted-involution graph up from e.

    From a twisted involution w and a left ascent s_i (l(s_i w) > l(w), that
    is <alpha_i, w rho_check> > 0 on w's key) the walk moves to
    s_i w theta0(s_i), or to s_i w when that product is w itself; every
    twisted involution is reached this way. The walk goes on keys: only the
    twisted involutions it finds are interned, never s_i w on the way.
    """
    d = L.dual_datum
    ones = (1,) * d.nsimple
    found = [weyl_identity(d)]
    seen = {found[0].key}
    for w in found:
        for i in range(1, d.nsimple + 1):
            if w.key[i - 1] < 0:
                continue
            key = tuple(_replay_key(d, (i, *w.word, L.theta0.perm[i - 1]), ones))
            if key == w.key:
                key = tuple(_replay_key(d, (i,), w.key))
            if key not in seen:
                seen.add(key)
                found.append(_elem_from_matrix(d, key))
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


def random_param(L: LGroup, rng: Random) -> LParam:
    """Seeded valid parameter: pick a twisted involution, then solve for lambda.

    Integrality and the parity congruence combine into one congruence for the
    real part of lambda, solved on the cached Smith form of the (L, w)
    record's 1 - theta, which the library built and is not re-checked; a mu
    that makes the right-hand side non-integral, or that fails the class
    test, is redrawn. The free directions (even vectors and theta-fixed
    vectors) are randomized for coverage.
    """
    n = L.dual_datum.rank
    words = _twisted_involution_set(L)
    for _ in range(400):
        w = rng.choice(words)
        inv = _involution(L, w)
        den = rng.choice([1, 2, 2, 4])
        mu = TorusPart.scaled([rng.randrange(-2 * den, 2 * den + 1) for _ in range(n)], den)
        # t0 = 2(mu + theta(mu)) + (rho_check - w rho_check) must be integral
        t0 = inv.parity_target(mu)
        if t0 is None:
            continue
        # (1 - theta) x / 2 = t0 / 2 (mod Z^n): solve (1 - theta) y = t0 / 2, then x = 2y
        sol = _congruence(inv.one_minus, t0, 2)
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
        "lambda": format_vec(p.lam),
        "mu": format_torus_part(p.mu),
        "w": list(p.w.word),
    }


def _tau_of(L: LGroup):
    return based_aut(L.g_datum, transpose(L.theta0.matrix))


def param_parts(data: dict) -> Tuple[LGroup, ScaledVec, TorusPart, List[int]]:
    """(L, lambda, mu, word) read from a parameter document, not yet validated.

    lambda and mu are arrays of strings or integers and w an array of
    integers; a bare string, a bool or a float is refused, not coerced.
    """
    try:
        group = data["group"]
        inner = data["inner_class"]
        lam = ScaledVec.of(json_array(data["lambda"], (str, int)))
        pairs = [(x, 1) if type(x) is int else _numeral(x)
                 for x in json_array(data["mu"], (str, int))]
        den = lcm(*(d for _, d in pairs))
        mu = TorusPart.scaled([a * (den // d) for a, d in pairs], den)
        word = json_array(data["w"], int)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad parameter data: {clipped_repr(data)}") from exc
    return parse_inner_class(build_datum(group), inner), lam, mu, word


def param_from_dict(data: dict) -> LParam:
    return make_param(*param_parts(data))
