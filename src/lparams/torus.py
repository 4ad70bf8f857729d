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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from random import Random
from typing import Optional, Tuple

from .errors import ContextMismatch, InputError, InvalidParam, NotInvolution, json_array
from .gaussian import GaussQ, GVec, as_gauss, format_gauss, gvec, gvec_add, gvec_neg, parse_gauss
from .intlinalg import (ident, in_span_z, mat_mul, mat_neg, mat_vec, one_minus,
                        solve_congruence, transpose, vadd, vscale, vsub)
from .tits import TorusPart, torus_part

Matrix = Tuple[Tuple[int, ...], ...]


def _int_matrix(rows, n: Optional[int] = None) -> Matrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if any(any(x != y for x, y in zip(r, row)) for r, row in zip(m, rows)):
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
    g = tuple(Q(x) for x in gamma)
    if len(g) != n:
        raise InputError("gamma has the wrong length")
    if any((2 * x).denominator != 1 for x in g):
        raise InputError("gamma must lie in (1/2)Z^n")
    return TorusEGroup(tc, g)


def char_side_involution(eg: TorusEGroup) -> RealTorusInvolution:
    return RealTorusInvolution(mat_neg(eg.theta_check))


@dataclass(frozen=True)
class TorusCharData:
    """(lambda, kappa) data of a genuine character of the gamma-cover."""

    inv: RealTorusInvolution
    lam: GVec
    kappa: Tuple[Q, ...]
    gamma: Tuple[Q, ...]


def torus_char_data(inv: RealTorusInvolution, lam, kappa, gamma) -> TorusCharData:
    lam = gvec(lam)
    kappa = tuple(Q(x) for x in kappa)
    gamma = tuple(Q(x) for x in gamma)
    n = len(inv.theta)
    if not (len(lam) == len(kappa) == len(gamma) == n):
        raise InputError("vector lengths do not match the involution")
    lam_plus = gvec_add(lam, tuple(mat_vec(inv.theta, lam)))
    kap_plus = vadd(kappa, mat_vec(inv.theta, kappa))
    if any(a != b for a, b in zip(lam_plus, kap_plus)):
        raise InvalidParam("(1+theta)lambda != (1+theta)kappa")
    if any((k - g).denominator != 1 for k, g in zip(kappa, gamma)):
        raise InvalidParam("kappa is not in gamma + Z^n")
    return TorusCharData(inv, lam, kappa, gamma)


@dataclass(frozen=True)
class TorusParam:
    """E-group parameter: phi(z) = z^lambda zbar^{theta-check lambda}, phi(j) = exp(2*pi*i*mu) delta."""

    egroup: TorusEGroup
    lam: GVec
    mu: TorusPart


def param_kappa(eg: TorusEGroup, lam: GVec, mu: TorusPart) -> Tuple[Q, ...]:
    """kappa = (1/2)(1-theta-check)lambda - (1+theta-check)mu, which must be rational."""
    dif = tuple(a - b for a, b in zip(lam, mat_vec(eg.theta_check, lam)))
    half = tuple(as_gauss(x) * Q(1, 2) for x in dif)
    mu_plus = vadd(mu.entries, mat_vec(eg.theta_check, mu.entries))
    out = []
    for h, m in zip(half, mu_plus):
        v = h - m
        if not v.is_rational():
            raise InvalidParam("kappa is not real: lambda fails the reality constraint")
        out.append(v.re)
    return tuple(out)


def torus_param(eg: TorusEGroup, lam, mu) -> TorusParam:
    lam = gvec(lam)
    if not isinstance(mu, TorusPart):
        mu = torus_part(mu)
    if len(lam) != eg.rank or len(mu.entries) != eg.rank:
        raise InputError("vector lengths do not match the E-group rank")
    dif = tuple(a - b for a, b in zip(lam, mat_vec(eg.theta_check, lam)))
    for v in dif:
        if not (v.is_rational() and v.re.denominator == 1):
            raise InvalidParam("lambda - theta-check(lambda) is not in Z^n")
    kappa = param_kappa(eg, lam, mu)
    if any((k - g).denominator != 1 for k, g in zip(kappa, eg.gamma)):
        raise InvalidParam("kappa is not in gamma + Z^n")
    return TorusParam(eg, lam, mu)


def param_to_char(p: TorusParam) -> TorusCharData:
    kappa = param_kappa(p.egroup, p.lam, p.mu)
    return torus_char_data(char_side_involution(p.egroup), p.lam, kappa, p.egroup.gamma)


def char_equal(c1: TorusCharData, c2: TorusCharData) -> bool:
    if c1.inv != c2.inv or c1.gamma != c2.gamma:
        raise ContextMismatch("characters live on different covers")
    if any(a != b for a, b in zip(c1.lam, c2.lam)):
        return False
    diff = vsub(c1.kappa, c2.kappa)
    if any(x.denominator != 1 for x in diff):
        return False
    return in_span_z(diff, transpose(one_minus(c1.inv.theta)))


def torus_contragredient(p: TorusParam) -> TorusParam:
    """Contragredient parameter (-lambda, -mu); its character is (-lambda, -kappa)."""
    return torus_param(p.egroup, gvec_neg(p.lam), -p.mu)


def torus_params_equivalent(p: TorusParam, q: TorusParam) -> bool:
    """Conjugate by exp(2*pi*i*nu): mu moves by (1-theta-check)nu, lambda is fixed."""
    if p.egroup != q.egroup:
        raise ContextMismatch("parameters into different E-groups")
    if any(a != b for a, b in zip(p.lam, q.lam)):
        return False
    d = vsub(q.mu.entries, p.mu.entries)
    return solve_congruence(one_minus(p.egroup.theta_check), d) is not None


def random_torus_param(eg: TorusEGroup, rng: Random, qmax: int = 4) -> TorusParam:
    """Seeded valid parameter: sample mu, solve the kappa congruence for lambda.

    The real part of lambda must satisfy two congruences at once, so they are
    stacked and handed to the Smith solver; a mu for which the system is
    unsolvable is redrawn.
    """
    n = eg.rank
    tc = eg.theta_check
    lattice = one_minus(tc)
    for _ in range(200):
        den = rng.choice([1, 2, 2, 4])
        mu = torus_part([Q(rng.randrange(-2 * den, 2 * den + 1), den) for _ in range(n)])
        mu_plus = vadd(mu.entries, mat_vec(tc, mu.entries))
        target = vadd(eg.gamma, mu_plus)
        stacked = tuple(tuple(Q(x, 2) for x in row) for row in lattice) + lattice
        rhs = tuple(target) + (Q(0),) * n
        sol = solve_congruence(stacked, rhs)
        if sol is None:
            continue
        lam_re = list(sol)
        # homogeneous freedom that keeps both congruences: 2Z^n and (1+theta-check)Z^n
        shift = [rng.randrange(-2, 3) for _ in range(n)]
        lam_re = vadd(lam_re, [2 * s for s in shift])
        shift2 = [rng.randrange(-2, 3) for _ in range(n)]
        lam_re = vadd(lam_re, mat_vec(tc, shift2))
        lam_re = vadd(lam_re, shift2)
        # imaginary part: any theta-check-fixed rational vector
        x = [Q(rng.randrange(-8, 9), rng.choice([1, 2, 3])) for _ in range(n)]
        lam_im = vscale(Q(1, 2), vadd(x, mat_vec(tc, x)))
        lam = tuple(GaussQ(r, i) for r, i in zip(lam_re, lam_im))
        p = torus_param(eg, lam, mu)
        # exercise representatives that differ within the conjugacy class
        nu = [Q(rng.randrange(-4, 5), 4) for _ in range(n)]
        mu2 = mu + torus_part(mat_vec(lattice, nu))
        return torus_param(eg, p.lam, mu2)
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
        gamma = [Q(x) for x in json_array(data["gamma"], (str, int))]
        eg = torus_egroup(theta_check, gamma)
        lam = [parse_gauss(str(z)) for z in json_array(data["lambda"], (str, int))]
        mu = torus_part([Q(x) for x in json_array(data["mu"], (str, int))])
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad torus parameter data: {data!r}") from exc
    return torus_param(eg, lam, mu)
