"""Genuine characters of two-fold covers of real tori, dually packaged.

A real torus with Cartan involution theta has covers indexed by gamma in
(1/2)X^*; genuine characters of the gamma-cover are classified by pairs
(lambda, kappa). The same characters arise as parameters into an E-group of
the dual torus: a vector lambda, a torus part mu with phi(j) = exp(2*pi*i*mu)
times delta-check, and delta-check squared = exp(2*pi*i*gamma). This module
holds both pictures and the dictionary between them.

Transport convention: if theta-check is the involution on X_*(dual torus),
the character-side involution on the identified lattice X^* is -theta-check.
That sign is forced by (1+theta)(1-theta-check) = 0, which makes the kappa
formula land in character data.

lambda and kappa are ScaledVecs and mu is a TorusPart, so the validity
checks, kappa and character equality are integer arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import lcm
from operator import mul
from random import Random
from typing import Tuple

from .errors import ContextMismatch, InputError, InvalidParam, NotInvolution
from .gaussian import ScaledVec, read_rational
from .intlinalg import (
    _congruence,
    ident,
    in_span_z,
    mat_mul,
    mat_neg,
    one_minus,
    solve_congruence_scaled,
    transpose,
)
from .tits import TorusPart, torus_part

Matrix = Tuple[Tuple[int, ...], ...]


class TorusEGroup(namedtuple("TorusEGroup", "theta_check gamma")):
    """Dual-side context: involution on X_* and the gamma with delta^2 = exp(2*pi*i*gamma)."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.theta_check)


def torus_egroup(theta_check, gamma) -> TorusEGroup:
    tc = tuple(tuple(row) for row in theta_check)
    if any(type(x) is not int for row in tc for x in row):
        raise InputError("matrix entries must be integers")
    n = len(tc)
    if any(len(r) != n for r in tc):
        raise InputError("theta_check must be square")
    if mat_mul(tc, tc) != ident(n):
        raise NotInvolution("theta_check does not square to the identity")
    g = tuple(map(read_rational, gamma))
    if len(g) != n:
        raise InputError("gamma has the wrong length")
    if any((2 * x).denominator != 1 for x in g):
        raise InputError("gamma must lie in (1/2)Z^n")
    return TorusEGroup(tc, g)


@cache
def _matrices(m: Matrix):
    """(1 - m, 1 + m, -m, the columns of 1 - m) for an integer matrix m, once per matrix.

    m is an E-group's theta-check or a character's theta = -theta-check, and
    the columns of 1 - theta span the lattice char_equal tests; the cache
    holds one entry per involution met.
    """
    neg = mat_neg(m)
    lattice = one_minus(m)
    return lattice, one_minus(neg), neg, transpose(lattice)


def _in_coset(kappa: ScaledVec, gamma: tuple) -> bool:
    """kappa in gamma + Z^n, for gamma a tuple of Fractions."""
    den = kappa.den
    return all((k * g.denominator - g.numerator * den) % (den * g.denominator) == 0
               for k, g in zip(kappa.re, gamma))


class TorusCharData(namedtuple("TorusCharData", "theta lam kappa gamma")):
    """(lambda, kappa) data of a genuine character of the gamma-cover.

    theta is the involution on the character lattice X^*; kappa is real.
    """

    __slots__ = ()


class TorusParam(namedtuple("TorusParam", "egroup lam mu")):
    """E-group parameter: phi(z) = z^lambda zbar^{theta-check lambda}, phi(j) = exp(2*pi*i*mu) delta."""

    __slots__ = ()


def _kappa(dif: ScaledVec, one_plus_tc: Matrix, mu: TorusPart) -> ScaledVec:
    """kappa = (1/2)(1-theta-check)lambda - (1+theta-check)mu, which must be real.

    Takes dif = (1-theta-check)lambda and the matrix 1 + theta-check. lparam's
    central character is this kappa at theta = w theta0, plus rho_i.
    """
    if any(dif.im):
        raise InvalidParam("kappa is not real: lambda fails the reality constraint")
    mu_plus = [sum(map(mul, row, mu.num)) for row in one_plus_tc]
    den = lcm(2 * dif.den, mu.den)
    a, b = den // (2 * dif.den), den // mu.den
    return ScaledVec([x * a - y * b for x, y in zip(dif.re, mu_plus)], (0,) * len(mu_plus), den)


def _char_data(eg: TorusEGroup, lam: ScaledVec, dif: ScaledVec, mu: TorusPart) -> TorusCharData:
    """The character of the parameter (lambda, mu) into eg, checked; dif = (1-theta-check)lambda.

    The one validity check of a torus parameter, on parts of the right type
    and length: dif is integral, and kappa, computed once, lies in gamma +
    Z^n. On the character side theta = -theta-check, so (1+theta)lambda is
    dif, and the character's (1+theta)lambda = (1+theta)kappa test reads it.
    A caller that holds dif, or its negation for (-lambda, mu'), applies no
    matrix to lambda.
    """
    if dif.den != 1 or any(dif.im):
        raise InvalidParam("lambda - theta-check(lambda) is not in Z^n")
    lattice, one_plus, neg, _ = _matrices(eg.theta_check)
    kappa = _kappa(dif, one_plus, mu)
    if not _in_coset(kappa, eg.gamma):
        raise InvalidParam("kappa is not in gamma + Z^n")
    # (1+theta)kappa = dif on numerators: kappa is real and dif an integer vector
    if any(sum(map(mul, row, kappa.re)) != kappa.den * x for row, x in zip(lattice, dif.re)):
        raise InvalidParam("(1+theta)lambda != (1+theta)kappa")
    return TorusCharData(neg, lam, kappa, eg.gamma)


def torus_param(eg: TorusEGroup, lam, mu) -> TorusParam:
    lam = ScaledVec.of(lam)
    if not isinstance(mu, TorusPart):
        mu = torus_part(mu)
    if len(lam.re) != eg.rank or len(mu.num) != eg.rank:
        raise InputError("vector lengths do not match the E-group rank")
    _char_data(eg, lam, lam.apply(_matrices(eg.theta_check)[0]), mu)
    return TorusParam(eg, lam, mu)


def param_to_char(p: TorusParam) -> TorusCharData:
    return _char_data(p.egroup, p.lam, p.lam.apply(_matrices(p.egroup.theta_check)[0]), p.mu)


def char_equal(c1: TorusCharData, c2: TorusCharData) -> bool:
    if c1.theta != c2.theta or c1.gamma != c2.gamma:
        raise ContextMismatch("characters live on different covers")
    if c1.lam != c2.lam:
        return False
    diff = c1.kappa - c2.kappa
    return diff.den == 1 and in_span_z(diff.re, _matrices(c1.theta)[3])


def torus_contragredient(p: TorusParam) -> TorusParam:
    """Contragredient parameter (-lambda, -mu); its character is (-lambda, -kappa)."""
    return torus_param(p.egroup, -p.lam, -p.mu)


def torus_params_equivalent(p: TorusParam, q: TorusParam) -> bool:
    """Conjugate by exp(2*pi*i*nu): mu moves by (1-theta-check)nu, lambda is fixed.

    So the torus parts agree modulo (1-theta-check)Q^n + Z^n: the class test
    on the cached Smith form of 1-theta-check, with no nu built.
    """
    if p.egroup != q.egroup:
        raise ContextMismatch("parameters into different E-groups")
    if p.lam != q.lam:
        return False
    d = q.mu - p.mu
    return _congruence(_matrices(p.egroup.theta_check)[0], d.num, d.den, witness=False) is not None


def random_torus_param(eg: TorusEGroup, rng: Random) -> TorusParam:
    """Seeded valid parameter: sample mu, solve the kappa congruence for lambda.

    The real part x = 2y of lambda must satisfy two congruences at once, so
    they are stacked into one integer system ((1-theta-check); 2(1-theta-check))y
    for the Smith solver; a mu for which it is unsolvable is redrawn.
    """
    n = eg.rank
    tc = eg.theta_check
    lattice, one_plus, _, _ = _matrices(tc)
    stacked = lattice + tuple(tuple(2 * x for x in row) for row in lattice)
    for _ in range(200):
        den = rng.choice([1, 2, 2, 4])
        mu = TorusPart.scaled([rng.randrange(-2 * den, 2 * den + 1) for _ in range(n)], den)
        mu_plus = [sum(map(mul, row, mu.num)) for row in one_plus]
        rhs_den = lcm(2, mu.den)
        rhs = [g.numerator * (rhs_den // g.denominator) + x * (rhs_den // mu.den)
               for g, x in zip(eg.gamma, mu_plus)] + [0] * n
        sol = solve_congruence_scaled(stacked, rhs, rhs_den)
        if sol is None:
            continue
        ynum, yden = sol
        # homogeneous freedom that keeps both congruences: 2Z^n and (1+theta-check)Z^n
        even = [2 * rng.randrange(-2, 3) for _ in range(n)]
        shift = [rng.randrange(-2, 3) for _ in range(n)]
        fixed = [sum(map(mul, row, shift)) for row in one_plus]
        # imaginary part: (1+theta-check)x/2 for x in (1/6)Z^n, numerators over 12
        x = [a * (6 // b) for a, b in ((rng.randrange(-8, 9), rng.choice([1, 2, 3]))
                                      for _ in range(n))]
        im = [sum(map(mul, row, x)) for row in one_plus]
        lam_den = lcm(12, yden)
        re = [2 * q * (lam_den // yden) + (e + f) * lam_den
              for q, e, f in zip(ynum, even, fixed)]
        p = torus_param(eg, ScaledVec(re, [y * (lam_den // 12) for y in im], lam_den), mu)
        # exercise representatives that differ within the conjugacy class
        nu = [rng.randrange(-4, 5) for _ in range(n)]
        mu2 = mu + TorusPart.scaled([sum(map(mul, row, nu)) for row in lattice], 4)
        return torus_param(eg, p.lam, mu2)
    raise InputError("could not sample a valid parameter for this E-group")
