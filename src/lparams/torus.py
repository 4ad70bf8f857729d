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

lambda and kappa are held as ScaledVecs and mu as a TorusPart, so the
validity checks, kappa and character equality are integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from operator import mul
from random import Random
from typing import Optional, Tuple

from .errors import ContextMismatch, InputError, InvalidParam, NotInvolution, json_array
from .gaussian import GVec, ScaledVec, format_gauss, parse_gauss, parse_rational, read_rational
from .intlinalg import (
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


def _int_matrix(rows, n: Optional[int] = None) -> Matrix:
    m = tuple(tuple(row) for row in rows)
    if any(type(x) is not int for row in m for x in row):
        raise InputError("matrix entries must be integers")
    if n is not None and (len(m) != n or any(len(r) != n for r in m)):
        raise InputError(f"expected a {n}x{n} matrix")
    return m


@dataclass(frozen=True)
class RealTorusInvolution:
    """Involution on the character lattice X^* of a real torus."""

    theta: Matrix


def real_torus_involution(rows) -> RealTorusInvolution:
    theta = _int_matrix(rows)
    n = len(theta)
    if any(len(r) != n for r in theta):
        raise InputError("theta must be square")
    if mat_mul(theta, theta) != ident(n):
        raise NotInvolution("theta does not square to the identity")
    return RealTorusInvolution(theta)


@dataclass(frozen=True)
class TorusEGroup:
    """Dual-side context: involution on X_* and the gamma with delta^2 = exp(2*pi*i*gamma)."""

    theta_check: Matrix
    gamma: Tuple[Q, ...]

    @property
    def rank(self) -> int:
        return len(self.theta_check)


def torus_egroup(theta_check, gamma) -> TorusEGroup:
    tc = _int_matrix(theta_check)
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


def char_side_involution(eg: TorusEGroup) -> RealTorusInvolution:
    return RealTorusInvolution(mat_neg(eg.theta_check))


def _reals(v: ScaledVec) -> Tuple[Q, ...]:
    return tuple(Q(x, v.den) for x in v.re)


def _in_coset(kappa: ScaledVec, gamma: Tuple[Q, ...]) -> bool:
    """kappa in gamma + Z^n."""
    den = kappa.den
    return all((k * g.denominator - g.numerator * den) % (den * g.denominator) == 0
               for k, g in zip(kappa.re, gamma))


@dataclass(frozen=True)
class TorusCharData:
    """(lambda, kappa) data of a genuine character of the gamma-cover.

    lambda and kappa are held as ScaledVecs (kappa is real); `lam` and
    `kappa` are their GaussQ and Fraction views.
    """

    inv: RealTorusInvolution
    lam_s: ScaledVec
    kappa_s: ScaledVec
    gamma: Tuple[Q, ...]

    @property
    def lam(self) -> GVec:
        return self.lam_s.gvec()

    @property
    def kappa(self) -> Tuple[Q, ...]:
        return _reals(self.kappa_s)


def torus_char_data(inv: RealTorusInvolution, lam, kappa, gamma) -> TorusCharData:
    lam = ScaledVec.of(lam)
    kappa = ScaledVec.of(kappa)
    gamma = tuple(map(read_rational, gamma))
    n = len(inv.theta)
    if not (len(lam.re) == len(kappa.re) == len(gamma) == n):
        raise InputError("vector lengths do not match the involution")
    if any(kappa.im):
        raise InputError("kappa must be real")
    # (1+theta)lambda = (1+theta)kappa, compared across the two denominators
    one_plus = one_minus(mat_neg(inv.theta))
    lam_plus, kap_plus = lam.apply(one_plus), kappa.apply(one_plus)
    if lam_plus != kap_plus:
        raise InvalidParam("(1+theta)lambda != (1+theta)kappa")
    if not _in_coset(kappa, gamma):
        raise InvalidParam("kappa is not in gamma + Z^n")
    return TorusCharData(inv, lam, kappa, gamma)


@dataclass(frozen=True)
class TorusParam:
    """E-group parameter: phi(z) = z^lambda zbar^{theta-check lambda}, phi(j) = exp(2*pi*i*mu) delta.

    lambda is held as a ScaledVec in `lam_s`; `lam` is its GaussQ view.
    """

    egroup: TorusEGroup
    lam_s: ScaledVec
    mu: TorusPart

    @property
    def lam(self) -> GVec:
        return self.lam_s.gvec()


def _kappa(eg: TorusEGroup, lam: ScaledVec, mu: TorusPart) -> ScaledVec:
    """kappa = (1/2)(1-theta-check)lambda - (1+theta-check)mu, which must be real."""
    tc = eg.theta_check
    dif = lam.apply(one_minus(tc))
    if any(dif.im):
        raise InvalidParam("kappa is not real: lambda fails the reality constraint")
    mu_plus = [a + sum(map(mul, row, mu.num)) for a, row in zip(mu.num, tc)]
    den = lcm(2 * dif.den, mu.den)
    a, b = den // (2 * dif.den), den // mu.den
    return ScaledVec([x * a - y * b for x, y in zip(dif.re, mu_plus)], (0,) * len(mu_plus), den)


def param_kappa(eg: TorusEGroup, lam, mu: TorusPart) -> Tuple[Q, ...]:
    """kappa = (1/2)(1-theta-check)lambda - (1+theta-check)mu, which must be rational."""
    return _reals(_kappa(eg, ScaledVec.of(lam), mu))


def torus_param(eg: TorusEGroup, lam, mu) -> TorusParam:
    lam = ScaledVec.of(lam)
    if not isinstance(mu, TorusPart):
        mu = torus_part(mu)
    if len(lam.re) != eg.rank or len(mu.num) != eg.rank:
        raise InputError("vector lengths do not match the E-group rank")
    dif = lam.apply(one_minus(eg.theta_check))
    if dif.den != 1 or any(dif.im):
        raise InvalidParam("lambda - theta-check(lambda) is not in Z^n")
    if not _in_coset(_kappa(eg, lam, mu), eg.gamma):
        raise InvalidParam("kappa is not in gamma + Z^n")
    return TorusParam(eg, lam, mu)


def param_to_char(p: TorusParam) -> TorusCharData:
    kappa = _kappa(p.egroup, p.lam_s, p.mu)
    return torus_char_data(char_side_involution(p.egroup), p.lam_s, kappa, p.egroup.gamma)


def char_equal(c1: TorusCharData, c2: TorusCharData) -> bool:
    if c1.inv != c2.inv or c1.gamma != c2.gamma:
        raise ContextMismatch("characters live on different covers")
    if c1.lam_s != c2.lam_s:
        return False
    k1, k2 = c1.kappa_s, c2.kappa_s
    den = lcm(k1.den, k2.den)
    a, b = den // k1.den, den // k2.den
    diff = [x * a - y * b for x, y in zip(k1.re, k2.re)]
    if any(x % den for x in diff):
        return False
    return in_span_z([x // den for x in diff], transpose(one_minus(c1.inv.theta)))


def torus_contragredient(p: TorusParam) -> TorusParam:
    """Contragredient parameter (-lambda, -mu); its character is (-lambda, -kappa)."""
    return torus_param(p.egroup, -p.lam_s, -p.mu)


def torus_params_equivalent(p: TorusParam, q: TorusParam) -> bool:
    """Conjugate by exp(2*pi*i*nu): mu moves by (1-theta-check)nu, lambda is fixed."""
    if p.egroup != q.egroup:
        raise ContextMismatch("parameters into different E-groups")
    if p.lam_s != q.lam_s:
        return False
    d = q.mu - p.mu
    return solve_congruence_scaled(one_minus(p.egroup.theta_check), d.num, d.den) is not None


def random_torus_param(eg: TorusEGroup, rng: Random) -> TorusParam:
    """Seeded valid parameter: sample mu, solve the kappa congruence for lambda.

    The real part x = 2y of lambda must satisfy two congruences at once, so
    they are stacked into one integer system ((1-theta-check); 2(1-theta-check))y
    for the Smith solver; a mu for which it is unsolvable is redrawn.
    """
    n = eg.rank
    tc = eg.theta_check
    lattice = one_minus(tc)
    one_plus = one_minus(mat_neg(tc))
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
        return torus_param(eg, p.lam_s, mu2)
    raise InputError("could not sample a valid parameter for this E-group")


# ---------------------------------------------------------------------------
# serialization

def torus_param_to_dict(p: TorusParam) -> dict:
    return {
        "theta_check": [list(r) for r in p.egroup.theta_check],
        "gamma": [str(x) for x in p.egroup.gamma],
        "lambda": [format_gauss(z) for z in p.lam],
        "mu": [str(x) for x in p.mu.entries],
    }


def torus_param_from_dict(data: dict) -> TorusParam:
    """Read back torus_param_to_dict output; types are checked, never coerced.

    theta_check is an array of integer arrays; gamma, lambda and mu are
    arrays of strings or integers. A bool, a float or a bare string is refused.
    """
    try:
        theta_check = [json_array(row, int) for row in json_array(data["theta_check"], list)]
        gamma = [parse_rational(x) for x in json_array(data["gamma"], (str, int))]
        eg = torus_egroup(theta_check, gamma)
        lam = [parse_gauss(str(z)) for z in json_array(data["lambda"], (str, int))]
        mu = torus_part([parse_rational(x) for x in json_array(data["mu"], (str, int))])
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad torus parameter data: {data!r}") from exc
    return torus_param(eg, lam, mu)
