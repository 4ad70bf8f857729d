"""Simple reflections as integer matrices, built straight from the simple roots
and coroots: s_i(x) = x - <x, alpha-check_i> alpha_i on X^* and
s_i(y) = y - <alpha_i, y> alpha-check_i on X_*.

The library never forms these matrices (it moves pairing keys through the
Cartan matrix), so the oracle tests multiply them out as an independent
route. The right-descent predicate the library once exported, the Levi
subsystem levi_of once compared against, and the inversion masks as the
library once filled them, one coroot at a time, are kept here too, as are
vadd, all_coroots, torus_char_data and torus_entries, which the library no
longer needs, and leibniz_det, the determinant the library no longer computes.
Not a test module: pytest does not collect it.
"""

from fractions import Fraction as Q
from functools import cache
from itertools import permutations
from operator import mul

from lparams.errors import InputError, InvalidParam
from lparams.gaussian import ScaledVec, read_rational
from lparams.intlinalg import mat_neg, one_minus, vneg
from lparams.rootdata import positive_coroots, positive_root_table, positive_roots
from lparams.torus import TorusCharData
from lparams.weyl import weyl_inv


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
    pos = positive_coroots(d)
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
    two_rho = [sum(col) for col in zip(*positive_roots(d))]
    inv, par = 0, [0] * d.rank
    for j, b in enumerate(positive_coroots(d)):
        ub = [sum(map(mul, row, b)) for row in m]
        if sum(map(mul, two_rho, ub)) < 0:
            inv |= 1 << j
            par = [p | (x & 1) << j for p, x in zip(par, ub)]
    return inv, tuple(par)


def levi_subsystem(d, subset):
    """Roots supported on the given simple indices."""
    keep = set()
    for _, alpha, coeffs in positive_root_table(d):
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
