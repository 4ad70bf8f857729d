"""Weyl group elements with canonical reduced words.

The cached X_* matrix decides equality; the stored word is always the
lexicographically smallest reduced word, recomputed from the matrix by
peeling left descents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Tuple

from .errors import DatumMismatch, InputError
from .intlinalg import ident, mat_mul, mat_neg, mat_vec, transpose, vneg
from .rootdata import (
    BasedAut,
    RootDatum,
    based_aut,
    coaction,
    positive_roots,
    xcostar_reflections,
    xstar_reflections,
)


@dataclass(frozen=True, eq=False)
class WeylElem:
    datum: RootDatum
    matrix: Tuple[Tuple[int, ...], ...]  # action on X_*
    xstar: Tuple[Tuple[int, ...], ...]   # action on X^*
    word: Tuple[int, ...]                # canonical reduced word, 1-based
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        # every cache keyed by Weyl elements hashes them, so hash once
        object.__setattr__(self, "_hash", hash((self.datum, self.matrix)))

    def __eq__(self, other):
        if not isinstance(other, WeylElem):
            return NotImplemented
        return self.datum == other.datum and self.matrix == other.matrix

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeylElem{list(self.word)}"


def length(u: WeylElem) -> int:
    return len(u.word)


@cache
def _pos_root_set(d: RootDatum):
    return frozenset(positive_roots(d))


def _is_negative_root(d: RootDatum, v) -> bool:
    return vneg(v) in _pos_root_set(d)


@cache
def _elem_from_matrix(d: RootDatum, matrix) -> WeylElem:
    """Canonicalize: derive the lex-smallest reduced word from the matrix."""
    word = []
    m = matrix
    refl = xcostar_reflections(d)
    guard = len(_pos_root_set(d)) + 1
    while m != ident(d.rank):
        if len(word) >= guard:
            raise InputError("matrix is not a Weyl group element")
        mt = transpose(m)
        for i, alpha in enumerate(d.simple_roots):
            # left descent: w^{-1}(alpha_i) < 0, and w^{-1} acts on X^* by m^T
            if _is_negative_root(d, mat_vec(mt, alpha)):
                word.append(i + 1)
                m = mat_mul(refl[i], m)
                break
        else:
            raise InputError("matrix is not a Weyl group element")
    xstar = ident(d.rank)
    for i in word:
        xstar = mat_mul(xstar, xstar_reflections(d)[i - 1])
    return WeylElem(d, matrix, xstar, tuple(word))


def weyl_identity(d: RootDatum) -> WeylElem:
    return _elem_from_matrix(d, ident(d.rank))


def simple_reflection(d: RootDatum, i: int) -> WeylElem:
    if not 1 <= i <= d.nsimple:
        raise InputError(f"simple index {i} out of range 1..{d.nsimple}")
    return _elem_from_matrix(d, xcostar_reflections(d)[i - 1])


def weyl_from_word(d: RootDatum, word) -> WeylElem:
    m = ident(d.rank)
    for i in word:
        if not 1 <= int(i) <= d.nsimple:
            raise InputError(f"simple index {i} out of range 1..{d.nsimple}")
        m = mat_mul(m, xcostar_reflections(d)[int(i) - 1])
    return _elem_from_matrix(d, m)


def weyl_mul(u: WeylElem, v: WeylElem) -> WeylElem:
    _check(u, v)
    return _elem_from_matrix(u.datum, mat_mul(u.matrix, v.matrix))


def weyl_inv(u: WeylElem) -> WeylElem:
    # (M^T)^{-1} is the X^* action, so M^{-1} is its transpose
    return _elem_from_matrix(u.datum, transpose(u.xstar))


def weyl_act(u: WeylElem, x, side: str = "X_*"):
    """Apply u to a vector of X_* (default) or X^*; entries may be complex."""
    if side in ("X_*", "cochar"):
        return mat_vec(u.matrix, x)
    if side in ("X^*", "char"):
        return mat_vec(u.xstar, x)
    raise InputError(f"unknown side {side!r}")


def descent(u: WeylElem, i: int) -> bool:
    """True iff length(u * s_i) < length(u)."""
    if not 1 <= i <= u.datum.nsimple:
        raise InputError(f"simple index {i} out of range 1..{u.datum.nsimple}")
    return _is_negative_root(u.datum, mat_vec(u.xstar, u.datum.simple_roots[i - 1]))


@cache
def longest_element(d: RootDatum) -> WeylElem:
    u = weyl_identity(d)
    while True:
        i = next((i for i in range(1, d.nsimple + 1) if not descent(u, i)), None)
        if i is None:
            return u
        u = weyl_mul(u, simple_reflection(d, i))


@cache
def weyl_enumerate(d: RootDatum) -> Tuple[WeylElem, ...]:
    """All of W, ordered by length then lexicographic canonical word."""
    out = [weyl_identity(d)]
    seen = {out[0].matrix}
    layer = list(out)
    while layer:
        nxt = []
        for u in layer:
            for i in range(1, d.nsimple + 1):
                if not descent(u, i):
                    v = weyl_mul(u, simple_reflection(d, i))
                    if v.matrix not in seen:
                        seen.add(v.matrix)
                        nxt.append(v)
        nxt.sort(key=lambda w: w.word)
        out.extend(nxt)
        layer = nxt
    return tuple(out)


def parabolic_subgroup(d: RootDatum, subset) -> Tuple[WeylElem, ...]:
    """The subgroup W_J generated by the simple reflections with indices in subset.

    Found by a breadth-first closure under right multiplication by those
    reflections, so the cost scales with |W_J| rather than |W|.
    """
    gens = [simple_reflection(d, i) for i in sorted(subset)]
    out = [weyl_identity(d)]
    seen = set(out)
    for u in out:
        for s in gens:
            v = weyl_mul(u, s)
            if v not in seen:
                seen.add(v)
                out.append(v)
    return tuple(out)


def weyl_order(d: RootDatum) -> int:
    return len(weyl_enumerate(d))


def apply_aut_to_weyl(a: BasedAut, u: WeylElem) -> WeylElem:
    """Conjugate u by a datum automorphism (s_i goes to s_{perm(i)})."""
    if a.datum != u.datum:
        raise DatumMismatch("automorphism and element over different data")
    n = coaction(a)
    n_inv = transpose(a.matrix)
    return _elem_from_matrix(u.datum, mat_mul(mat_mul(n, u.matrix), n_inv))


def neg_w0_aut(d: RootDatum) -> BasedAut:
    """The based automorphism -w0 (identity when w0 = -1)."""
    return based_aut(d, mat_neg(longest_element(d).xstar))


def _check(u: WeylElem, v: WeylElem) -> None:
    if u.datum != v.datum:
        raise DatumMismatch("Weyl elements over different data")
