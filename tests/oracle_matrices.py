"""Simple reflections as integer matrices, built straight from the simple roots
and coroots: s_i(x) = x - <x, alpha-check_i> alpha_i on X^* and
s_i(y) = y - <alpha_i, y> alpha-check_i on X_*.

The library never forms these matrices (it moves pairing keys through the
Cartan matrix), so the oracle tests multiply them out as an independent
route. The right-descent predicate the library once exported, the Levi
subsystem levi_of once compared against, and the inversion masks as the
library once filled them, one coroot at a time, are kept here too, as are
vadd, all_coroots, torus_char_data and torus_entries, which the library no
longer needs, leibniz_det, the determinant the library no longer computes,
and multipass_tits_suite, the Tits suite as it was before it walked W once,
with check_titslemma, its Tits' lemma row. radical_route is rad(p) and the
theorem's row 2 as lparam computed them on every L before a radical torus of
rank 0 was read from a record cached per L.
Not a test module: pytest does not collect it.
"""

from fractions import Fraction as Q
from functools import cache
from itertools import permutations
from operator import mul

import lparams.tits as tits
from lparams.errors import InputError, InvalidParam
from lparams.gaussian import ScaledVec, format_vec, read_rational
from lparams.intlinalg import (descend_map, mat_mul, mat_neg, one_minus, saturation_projection,
                               vneg)
from lparams.rootdata import _root_system, cartan_matrix, coaction
from lparams.torus import TorusCharData, TorusParam, _char_data, char_equal, torus_egroup
from lparams.weyl import (apply_aut_to_weyl, longest_element, simple_reflection, weyl_enumerate,
                          weyl_identity, weyl_inv, weyl_mul)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def leibniz_det(m):
    """The permutation expansion, an elimination-free determinant for small n."""
    n = len(m)
    total = 0
    for p in permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i in range(n):
            term *= m[i][p[i]]
        total += term
    return total


def torus_entries(t):
    """A torus part's entries as Fractions, each in [0, 1)."""
    return tuple(Q(x, t.den) for x in t.num)


@cache
def all_coroots(d):
    """The positive coroots and their negatives."""
    pos = _root_system(d).coroots
    return frozenset(pos).union(vneg(v) for v in pos)


def torus_char_data(theta, lam, kappa, gamma):
    """The character (lambda, kappa) of the gamma-cover, checked from its definition.

    The library builds characters only from parameters (torus.param_to_char);
    the tests build the negated character (-lambda, -kappa) and a second
    kappa for one lambda with this. kappa must be real, (1+theta)lambda =
    (1+theta)kappa, and kappa must lie in gamma + Z^n.
    """
    theta = tuple(map(tuple, theta))
    lam, kappa = ScaledVec.of(lam), ScaledVec.of(kappa)
    gamma = tuple(map(read_rational, gamma))
    if not (len(lam.re) == len(kappa.re) == len(gamma) == len(theta)):
        raise InputError("vector lengths do not match the involution")
    if any(kappa.im):
        raise InputError("kappa must be real")
    one_plus = one_minus(mat_neg(theta))
    if lam.apply(one_plus) != kappa.apply(one_plus):
        raise InvalidParam("(1+theta)lambda != (1+theta)kappa")
    if any((Q(k, kappa.den) - g).denominator != 1 for k, g in zip(kappa.re, gamma)):
        raise InvalidParam("kappa is not in gamma + Z^n")
    return TorusCharData(theta, lam, kappa, gamma)


def radical_route(p, cp):
    """(rad_param(p), rad_char(p), row 2 for p and cp = C(p)), each projected and checked.

    The radical E-group is built afresh from p's theta = w theta0; lambda_p,
    p.dif and the mu parts of p and C(p) are projected to it, and rad(p),
    rad(C(p)) and the dual (-lambda_r, -mu_r) are checked by _char_data, one
    each. On a radical torus of rank 0 every vector here is empty.
    """
    d = p.L.dual_datum
    proj, uinv, rank = saturation_projection(d.simple_coroots, d.rank)
    theta = mat_mul(p.w.matrix, coaction(p.L.theta0))
    eg = torus_egroup(descend_map(proj, uinv, rank, theta), (0,) * len(proj))
    lam_r, dif_r = p.lam.apply(proj), p.dif.apply(proj)
    mu_r = tits.act_on_torus_part(proj, p.mu)
    rc_p = _char_data(eg, lam_r, dif_r, mu_r)
    rc_c = _char_data(eg, -lam_r, -dif_r, tits.act_on_torus_part(proj, cp.mu))
    rc_dual = _char_data(eg, -lam_r, -dif_r, -mu_r)
    row = ("rad_char dual", char_equal(rc_c, rc_dual),
           f"kappa(C)={format_vec(rc_c.kappa)} kappa(dual)={format_vec(rc_dual.kappa)}")
    return TorusParam(eg, lam_r, mu_r), rc_p, row


def descent(u, i):
    """True iff length(u * s_i) < length(u), that is <alpha_i, u^{-1} rho_check> < 0."""
    return weyl_inv(u).key[i - 1] < 0


def inversion_masks(u):
    """(N(u), parities) as weyl._inversion_masks gives them, read off u's X_* matrix.

    Bit j of N(u) is set when u sends the j-th positive coroot beta-check
    negative (its pairing with 2 rho is negative), and bit j of parities[k]
    when, in addition, entry k of u(beta-check) is odd.
    """
    d, m = u.datum, u.matrix
    two_rho = [sum(col) for col in zip(*_root_system(d).roots)]
    inv, par = 0, [0] * d.rank
    for j, b in enumerate(_root_system(d).coroots):
        ub = [sum(map(mul, row, b)) for row in m]
        if sum(map(mul, two_rho, ub)) < 0:
            inv |= 1 << j
            par = [p | (x & 1) << j for p, x in zip(par, ub)]
    return inv, tuple(par)


def levi_subsystem(d, subset):
    """Roots supported on the given simple indices."""
    keep = set()
    for _, alpha, coeffs in _root_system(d).table:
        if all(c == 0 or (i + 1) in subset for i, c in enumerate(coeffs)):
            keep.update((alpha, vneg(alpha)))
    return frozenset(keep)


@cache
def xstar_reflections(d):
    """Matrices of the simple reflections on X^*."""
    return tuple(tuple(tuple((r == c) - a[r] * av[c] for c in range(d.rank))
                       for r in range(d.rank))
                 for a, av in zip(d.simple_roots, d.simple_coroots))


@cache
def xcostar_reflections(d):
    """Matrices of the simple reflections on X_*."""
    return tuple(tuple(tuple((r == c) - av[r] * a[c] for c in range(d.rank))
                       for r in range(d.rank))
                 for a, av in zip(d.simple_roots, d.simple_coroots))


def check_titslemma(ctx, w):
    """Compare sigma_w sigma_{w^{-1}} with exp(pi*i*(rho-check - w rho-check)).

    Returns (torus part computed by multiplication through tits.tits_mul,
    predicted torus part, agreement flag).
    """
    prod = tits.tits_mul(tits.sigma(ctx, w), tits.sigma(ctx, weyl_inv(w)))
    rc2 = _root_system(ctx.datum).two_rho_check
    four_z = [a - sum(map(mul, row, rc2)) for a, row in zip(rc2, w.matrix)]
    predicted = tits.TorusPart.scaled(four_z, 4)
    ok = prod.w == weyl_identity(ctx.datum) and prod.eps == 0 and prod.t == predicted
    return prod.t, predicted, ok


def multipass_tits_suite(ctx):
    """The rows of tits.run_tits_suite, one loop over a stored W per row.

    Products go through tits.tits_mul, looked up on the module at each call,
    so a mutant patched in there reaches this suite and the library's alike.
    """
    sigma, one, d = tits.sigma, tits.tits_identity(ctx), ctx.datum
    elems = weyl_enumerate(d)
    rows = []

    a = cartan_matrix(d)
    bad = []
    for i in range(d.nsimple):
        for j in range(i + 1, d.nsimple):
            m = {0: 2, 1: 3, 2: 4, 3: 6}[a[i][j] * a[j][i]]
            si, sj = sigma(ctx, simple_reflection(d, i + 1)), sigma(ctx, simple_reflection(d, j + 1))
            lhs = rhs = one
            for k in range(m):
                lhs = tits.tits_mul(lhs, si if k % 2 == 0 else sj)
                rhs = tits.tits_mul(rhs, sj if k % 2 == 0 else si)
            if lhs != rhs:
                bad.append((i + 1, j + 1))
    rows.append(("braid relations", not bad,
                 f"{d.nsimple * (d.nsimple - 1) // 2} simple pairs" if not bad
                 else f"failing pairs {bad}"))

    # w's second word is that of w s_i, i its largest right descent, then i;
    # a failed w s_i carries its own product on to w
    bad, failed = [], {}
    for w in elems[1:]:
        i = next(k for k in range(d.nsimple, 0, -1) if descent(w, k))
        u = weyl_mul(w, simple_reflection(d, i))
        alt = tits.tits_mul(failed.get(u) or sigma(ctx, u), sigma(ctx, simple_reflection(d, i)))
        if alt != sigma(ctx, w):
            failed[w] = alt
            bad.append(list(w.word))
    rows.append(("reduced-word independence", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))

    bad = []
    for i in range(1, d.nsimple + 1):
        si = sigma(ctx, simple_reflection(d, i))
        alpha_check = tits.TorusPart.scaled(d.simple_coroots[i - 1], 2)
        if tits.tits_mul(si, si) != tits.torus_elem(ctx, alpha_check):
            bad.append(i)
    rows.append(("sigma_i^2 = alpha-check(-1)", not bad,
                 f"{d.nsimple} generators" if not bad else f"failing indices {bad}"))

    bad = [list(w.word) for w in elems if not check_titslemma(ctx, w)[2]]
    rows.append(("sigma_w sigma_{w^-1} torus value", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))

    s0 = sigma(ctx, longest_element(d))
    sq = tits.tits_mul(s0, s0)
    ok = sq == tits.torus_elem(ctx, tits.TorusPart.scaled(_root_system(d).two_rho_check, 2))
    gens = [sigma(ctx, simple_reflection(d, i)) for i in range(1, d.nsimple + 1)]
    gens.append(tits.delta_elem(ctx))
    central = all(tits.tits_mul(sq, g) == tits.tits_mul(g, sq) for g in gens)
    rows.append(("sigma_{w0}^2 = exp(2 pi i rho-check), central", ok and central,
                 f"value {tits.format_torus_part(sq.t)}"))

    bad = [list(w.word) for w in elems
           if tits.aut_on_tits(ctx.theta0, sigma(ctx, w))
           != sigma(ctx, apply_aut_to_weyl(ctx.theta0, w))]
    rows.append(("theta0 equivariance of lifts", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))

    bad = [list(w.word) for w in elems
           if tits.tits_mul(tits.chevalley(sigma(ctx, w)), sigma(ctx, weyl_inv(w))) != one]
    rows.append(("C(sigma_w) = (sigma_{w^-1})^{-1}", not bad,
                 f"{len(elems)} elements" if not bad else f"failing words {bad}"))
    return rows
