"""The L-group attached to an inner class of real forms.

Only the inner class of the real form enters: a based involutive automorphism
of the group's datum. The L-group is the dual group extended by an order-two
element delta acting through the distinguished involution theta0 of the dual
datum. Two constructors are offered: from tau (the automorphism whose
transpose is theta0) or from gamma (the image of the Cartan involution in the
outer automorphism group), related by tau = -w0 composed with gamma.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations
from typing import List, Optional

from .errors import InputError, NotInvolution, clipped_repr, frozen_setattr, json_matrix
from .intlinalg import ident, mat_mul, mat_neg
from .rootdata import (
    BasedAut,
    RootDatum,
    based_aut,
    coaction,
    compose_aut,
    identity_aut,
    transpose_aut,
)
from .tits import TitsContext, tits_context
from .weyl import longest_element, neg_w0_aut


class LGroup:
    """The dual datum and theta0 on it, which decide equality, and the group's datum g_datum.

    theta0 must square to the identity: a parameter's theta = w theta0 is then
    an involution exactly when w . theta0(w) = e.
    """

    __slots__ = ("dual_datum", "theta0", "g_datum", "_hash")

    def __init__(self, dual_datum: RootDatum, theta0: BasedAut, g_datum: RootDatum):
        if mat_mul(theta0.matrix, theta0.matrix) != ident(dual_datum.rank):
            raise NotInvolution("theta0 does not square to the identity")
        init = object.__setattr__
        init(self, "dual_datum", dual_datum)
        init(self, "theta0", theta0)
        init(self, "g_datum", g_datum)
        # (L, w) keys the involution and E-group caches, so hash once
        init(self, "_hash", hash((dual_datum, theta0)))

    __setattr__ = __delattr__ = frozen_setattr

    def __eq__(self, other):
        if other.__class__ is not LGroup:
            return NotImplemented
        return self is other or (self.dual_datum == other.dual_datum
                                 and self.theta0 == other.theta0)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"LGroup(dual_datum={self.dual_datum!r}, theta0={self.theta0!r}, "
                f"g_datum={self.g_datum!r})")


def lgroup_from_tau(d: RootDatum, tau: BasedAut) -> LGroup:
    """L-group with theta0 the transpose of tau, a based involution of d; LGroup checks theta0^2 = 1."""
    if tau.datum != d:
        raise InputError("tau is not an automorphism of the given datum")
    theta0 = transpose_aut(tau)
    return LGroup(theta0.datum, theta0, d)


def build_lgroup(d: RootDatum, inner: BasedAut) -> LGroup:
    """Constructor taking the inner class gamma; lgroup_from_tau takes tau = -w0 gamma."""
    if inner.datum != d:
        raise InputError("inner is not an automorphism of the given datum")
    if mat_mul(inner.matrix, inner.matrix) != ident(d.rank):
        raise NotInvolution("inner class automorphism is not an involution")
    return lgroup_from_tau(d, compose_aut(neg_w0_aut(d), inner))


def lgroup_split(d: RootDatum) -> LGroup:
    return lgroup_from_tau(d, identity_aut(d))


def lgroup_compact(d: RootDatum) -> LGroup:
    """Inner class of the compact form: theta is inner, tau = -w0."""
    return lgroup_from_tau(d, neg_w0_aut(d))


_NAMED_INNER_CLASSES = {"split": identity_aut, "compact": neg_w0_aut}


def named_inner_class(d: RootDatum, text) -> Optional[BasedAut]:
    """The automorphism of d that an inner-class name stands for, or None.

    The names are "split" (the identity) and "compact" (-w0), in any case and
    with white space around. parse_inner_class takes the automorphism as tau;
    check-tits takes it as theta0 of the named datum itself.
    """
    make = _NAMED_INNER_CLASSES.get(text.strip().lower()) if isinstance(text, str) else None
    return make(d) if make else None


def parse_inner_class(d: RootDatum, text) -> LGroup:
    """Inner-class field of input files: a named_inner_class, or an explicit matrix (gamma)."""
    tau = named_inner_class(d, text)
    if tau is not None:
        return lgroup_from_tau(d, tau)
    if isinstance(text, str):
        raise InputError(f"unknown inner class {clipped_repr(text)}")
    try:
        mat = json_matrix(text)
    except TypeError as exc:
        raise InputError(f"bad inner class matrix: {clipped_repr(text)}") from exc
    return build_lgroup(d, based_aut(d, mat))


@cache
def lgroup_tits_context(L: LGroup) -> TitsContext:
    return tits_context(L.dual_datum, L.theta0)


def has_compact_cartan(L: LGroup) -> bool:
    """True iff some w makes w . theta0 act as inversion on the dual torus.

    theta0 permutes the simple coroots, so it fixes rho_check, and such a w
    sends rho_check to -rho_check: w0 is the one element of W that does.
    """
    return longest_element(L.dual_datum).matrix == mat_neg(coaction(L.theta0))


class StandardLevi(namedtuple("StandardLevi", "subset")):
    """A theta0-stable set of simple indices (subset, a frozenset)."""

    __slots__ = ()

    def __repr__(self):
        return f"StandardLevi({sorted(self.subset)})"


def standard_levis(L: LGroup) -> List[StandardLevi]:
    """All theta0-stable subsets of simple indices, smallest first."""
    m = L.dual_datum.nsimple
    perm = L.theta0.perm
    out = []
    for size in range(m + 1):
        for combo in combinations(range(1, m + 1), size):
            s = frozenset(combo)
            if all(perm[i - 1] in s for i in s):
                out.append(StandardLevi(s))
    return out
