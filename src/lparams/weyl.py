"""Weyl group elements, each interned under its key (<alpha_j, w rho_check>)_j.

rho_check is regular, so the key decides equality. A left reflection moves a
key through the Cartan matrix, so words and automorphisms are replayed on keys
without matrices. The canonical (lex-smallest reduced) word is the dominance
descent on the key, the walk that also gives infinitesimal characters. Its
first step reflects the first negative index i, so the word is i followed by
the word of the parent s_i w. One table interns the elements, each from a
neighbour already in it: the layer walk interns s_i u from the u that
reached it, and a lookup that misses walks up the parents to the nearest
interned one and interns back down. Each costs one Cartan-column update per
element, with no descent and no recursion.

The interned elements carry W's Cayley graph (Casselman, Machine calculations
in Weyl groups, 1994; du Cloux, A transducer approach to Coxeter groups,
1999). Private slots of each element hold, filled on first use, its left
neighbours s_i w (one Cartan-column update each), its inverse (its word
replayed backwards, then linked both ways), its X_* matrix (a rank-one row
update of its parent's) and its inversion masks (its parent's and one more
root, found by one row-times-matrix product). A product u v hops from v along
u's word, one list lookup per letter, and hashes no element; where a neighbour
is missing it fills that one and replays the rest of the word, so a cold
product costs what a word replay does. An element keeps one matrix: its action
on X^* is the transpose of its inverse's X_* matrix.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from functools import cache
from operator import mul
from typing import Iterator, Tuple

from .errors import DatumMismatch, InputError, InvariantViolated, frozen_setattr
from .intlinalg import ident, mat_neg, mat_vec, transpose
from .rootdata import (
    BasedAut,
    RootDatum,
    based_aut,
    cartan_matrix,
    positive_root_table,
    positive_roots,
)


class WeylElem:
    """An interned Weyl element; the datum and the key decide equality.

    key is (<alpha_j, w rho_check>)_j, every entry nonzero; word is the
    canonical reduced word, 1-based. The private slots, None until first use,
    hold the element's place in the Cayley graph: _left[i] is s_i w, _inv the
    inverse (linked both ways), _mat the action on X_* and _masks the
    inversion masks of _inversion_masks.
    """

    __slots__ = ("datum", "key", "word", "_hash", "_left", "_inv", "_mat", "_masks")

    def __init__(self, datum: RootDatum, key: Tuple[int, ...], word: Tuple[int, ...]):
        _set_datum(self, datum)
        _set_key(self, key)
        _set_word(self, word)
        # every cache keyed by Weyl elements hashes them, so hash once
        _set_hash(self, hash((datum, key)))
        _set_left(self, None)
        _set_inv(self, None)
        _set_mat(self, None)
        _set_masks(self, None)

    __setattr__ = __delattr__ = frozen_setattr

    def __eq__(self, other):
        if not isinstance(other, WeylElem):
            return NotImplemented
        return self is other or (self.datum == other.datum and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeylElem{list(self.word)}"

    @property
    def matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """Action on X_*."""
        m = self._mat
        return m if m is not None else _fill_matrix(self)

    @property
    def xstar(self) -> Tuple[Tuple[int, ...], ...]:
        """Action on X^*: the contragredient of the action on X_*, (M^-1)^T."""
        return transpose(weyl_inv(self).matrix)


# Each slot's own setter, past the frozen __setattr__: half the cost of
# object.__setattr__ by name, and every element of a cold enumeration is built here.
(_set_datum, _set_key, _set_word, _set_hash, _set_left, _set_inv, _set_mat,
 _set_masks) = (getattr(WeylElem, f).__set__ for f in WeylElem.__slots__)


def _row_times(r, m) -> list:
    """The row r M as a list: for M the X_* matrix of an element v and r in X^*, v^-1 r."""
    rm = [0] * len(r)
    for x, row in zip(r, m):
        if x:
            rm = [a + x * b for a, b in zip(rm, row)]
    return rm


def _reflect_rows(d: RootDatum, i: int, m, rm):
    """s_i M on X_*, for M the X_* matrix of an element and rm = _row_times(alpha_i, M).

    s_i M = M - alpha-check_i rm is a rank-one update of the rows where
    alpha-check_i is nonzero.
    """
    return tuple(tuple(a - x * b for a, b in zip(row, rm)) if x else row
                 for x, row in zip(d.simple_coroots[i - 1], m))


def _fill_matrix(u: WeylElem):
    """u's X_* matrix: s_i M for M the matrix of its parent s_i u, i u's first letter.

    Walks up the parents to the nearest element whose matrix is filled (the
    identity's is the identity matrix), then fills each on the way back down,
    so no word recurses on the stack.
    """
    chain = []
    while u._mat is None and u.word:
        chain.append(u)
        u = _step(u, u.word[0])
    if u._mat is None:
        _set_mat(u, ident(u.datum.rank))
    m = u._mat
    for v in reversed(chain):
        d, i = v.datum, v.word[0]
        m = _reflect_rows(d, i, m, _row_times(d.simple_roots[i - 1], m))
        _set_mat(v, m)
    return m


def _inversion_masks(u: WeylElem):
    """(N(u), parities) as bitmasks over positive_coroots, filled once per element.

    Bit j of N(u) is set when u sends the j-th beta-check negative; bit j of
    parities[k] when, in addition, entry k of u(beta-check) is odd. As in
    _fill_matrix, walks up to the nearest parent whose masks are filled (the
    identity's are empty) and fills each on the way down. For u = s_i v, v its
    parent, gamma = v^-1 alpha_i is positive and N(u) = N(v) + {gamma-check}
    (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.6-1.7). Since
    u beta-check = v beta-check - <gamma, beta-check> alpha-check_i, where entry
    k of alpha-check_i is odd parities[k] flips on N(v) where that pairing is
    odd and gains gamma-check's bit. Each element's X_* matrix is filled on
    the way too, from the same row product.
    """
    d, chain = u.datum, []
    while u._masks is None and u.word:
        chain.append(u)
        u = _step(u, u.word[0])
    if u._masks is None:
        _set_masks(u, (0, (0,) * d.rank))
    (inv, par), m, steps = u._masks, u.matrix, _root_steps(d)
    for u in reversed(chain):
        i = u.word[0]
        rm = _row_times(d.simple_roots[i - 1], m)
        step = steps.get(tuple(rm))
        if step is None:
            raise InvariantViolated("v^-1 alpha_i is not a positive root for a parent v")
        bit, flip = 1 << step[0], step[1] & inv
        par = tuple((p ^ flip) | bit if x & 1 else p for p, x in zip(par, d.simple_coroots[i - 1]))
        inv |= bit
        _set_masks(u, (inv, par))
        if u._mat is None:
            _set_mat(u, _reflect_rows(d, i, m, rm))
        m = u._mat
    return u._masks


@cache
def _root_steps(d: RootDatum):
    """{positive root: (j, odd)}, for the mask step of _inversion_masks.

    j is the index of the root's coroot in positive_coroots, and bit l of odd
    is set when <root, beta-check_l> is odd. A walk on simple coefficients, as
    in positive_root_table, pairs each root with its coroot: s_i takes a root
    beta to beta - <beta, alpha-check_i> alpha_i and its coroot to beta-check
    - <alpha_i, beta-check> alpha-check_i. odd is linear in beta, so the step
    xors in alpha_i's mask when <beta, alpha-check_i> is odd.
    """
    a, cotable = cartan_matrix(d), positive_root_table(d, True)
    cols = tuple(zip(*a))
    odd_i = [sum(1 << j for j, (_, _, c) in enumerate(cotable) if sum(map(mul, row, c)) & 1)
             for row in a]
    pairs = {e: (e, o) for e, o in zip(ident(d.nsimple), odd_i)}
    queue = list(pairs)
    for c in queue:
        cc, odd = pairs[c]
        for i, col in enumerate(cols):
            n = sum(map(mul, c, col))
            if n and c[i] >= n:
                img = c[:i] + (c[i] - n,) + c[i + 1:]
                if img not in pairs:
                    pairs[img] = (cc[:i] + (cc[i] - sum(map(mul, a[i], cc)),) + cc[i + 1:],
                                  odd ^ odd_i[i] if n & 1 else odd)
                    queue.append(img)
    index = {c: j for j, (_, _, c) in enumerate(cotable)}
    return {v: (index[pairs[c][0]], pairs[c][1]) for _, v, c in positive_root_table(d)}


@cache
def _cartan_columns(d: RootDatum):
    """For each simple index i, the pairs (j, <alpha_j, alpha-check_i>) with a nonzero pairing."""
    a = cartan_matrix(d)
    return tuple(tuple((j, a[j][i]) for j in range(d.nsimple) if a[j][i])
                 for i in range(d.nsimple))


def _descend(d: RootDatum, re: list, im: list):
    """The dominance descent: walk a point v to the dominant chamber by its simple pairings.

    re and im, the real and imaginary parts of the pairings (<alpha_j, v>)_j,
    changed in place, end dominant: while a pairing is negative in the
    lexicographic order on (real, imaginary), the first such i is reflected,
    p_j -= <alpha_j, alpha-check_i> p_i. A real key passes zero imaginary
    parts. Returns the steps (i, real and imaginary pairing at i before it),
    reaching s_{i_k} ... s_{i_1} (v); no walk takes more steps than there are
    positive roots.
    """
    columns = _cartan_columns(d)
    steps = []
    for _ in range(len(positive_roots(d)) + 1):
        for i, a in enumerate(re):
            if a < 0 or not a and im[i] < 0:
                break
        else:
            return steps
        b = im[i]
        steps.append((i + 1, a, b))
        for j, c in columns[i]:
            re[j] -= c * a
            im[j] -= c * b
    raise InvariantViolated("dominance descent failed to terminate")


# The intern table, {datum: {key: element}}. Every miss interns one element,
# so the misses are the table's size. The hits count only lookups that found an
# element already interned: the layer walk interns each element from the one
# that reached it with no lookup of its parent, so a cold walk reads no hits.
_interned = defaultdict(dict)
_hits = 0
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _elem_from_matrix(d: RootDatum, key: Tuple[int, ...]) -> WeylElem:
    """The one element with this key, looked up in the intern table.

    On a miss, walks up the canonical parents (reflect the first negative
    index, the dominance descent's first step) to the nearest interned key,
    or to the identity's, then interns each key on the way back down with its
    first letter followed by its parent's word: one Cartan-column update per
    element not yet interned, and no recursion however long the word.
    """
    global _hits
    tab = _interned[d]
    u = tab.get(key)
    if u is not None:
        _hits += 1
        return u
    columns, p, chain = _cartan_columns(d), list(key), []
    while True:
        for i, x in enumerate(p):
            if x < 0:
                break
        else:
            u = tab[key] = WeylElem(d, key, ())
            break
        chain.append((i + 1, key))
        for j, a in columns[i]:
            p[j] -= a * x
        key = tuple(p)
        u = tab.get(key)
        if u is not None:
            _hits += 1
            break
    for i, key in reversed(chain):
        u = tab[key] = WeylElem(d, key, (i,) + u.word)
    return u


def _cache_info():
    n = sum(map(len, _interned.values()))
    return _CacheInfo(_hits, n, None, n)


def _cache_clear():
    global _hits
    _interned.clear()
    _hits = 0


# named after the matrix canonicalizer it replaced; a functools cache's statistics and
# clearing, which perfbench/spans.py reads and every cold set-up calls
_elem_from_matrix.cache_info, _elem_from_matrix.cache_clear = _cache_info, _cache_clear


def _replay_key(d: RootDatum, word, key) -> list:
    """The key of s_{word[0]} ... s_{word[-1]} x for x with the given key, last letter first."""
    p = list(key)
    columns = _cartan_columns(d)
    for i in reversed(word):
        x = p[i - 1]
        for j, a in columns[i - 1]:
            p[j] -= a * x
    return p


def _replay(d: RootDatum, word, key) -> WeylElem:
    """s_{word[0]} ... s_{word[-1]} x for the element x with the given key, last letter first."""
    return _elem_from_matrix(d, tuple(_replay_key(d, word, key)))


def _step(u: WeylElem, i: int) -> WeylElem:
    """s_i u, u's left neighbour i: one Cartan-column update on first use, then a list lookup.

    u's neighbour list is made when u is first stepped from.
    """
    left = u._left
    if left is None:
        left = [None] * (u.datum.nsimple + 1)
        _set_left(u, left)
    v = left[i]
    if v is None:
        d, x, p = u.datum, u.key[i - 1], list(u.key)
        for j, a in _cartan_columns(d)[i - 1]:
            p[j] -= a * x
        v = left[i] = _elem_from_matrix(d, tuple(p))
    return v


@cache
def weyl_identity(d: RootDatum) -> WeylElem:
    return _elem_from_matrix(d, (1,) * d.nsimple)


def _index(d: RootDatum, i: int) -> int:
    """A simple index: a plain int (not a bool, a float or a string) in 1..nsimple."""
    if type(i) is not int:
        raise InputError(f"simple index must be an integer, got {i!r}")
    if not 1 <= i <= d.nsimple:
        raise InputError(f"simple index {i} out of range 1..{d.nsimple}")
    return i


def simple_reflection(d: RootDatum, i: int) -> WeylElem:
    return _step(weyl_identity(d), _index(d, i))


def weyl_from_word(d: RootDatum, word) -> WeylElem:
    return _replay(d, [_index(d, i) for i in word], (1,) * d.nsimple)


def weyl_mul(u: WeylElem, v: WeylElem) -> WeylElem:
    """u v: hops from v to the left neighbours along u's word, last letter first.

    The first neighbour not filled yet is filled, and the rest of the word is
    replayed on its key at once: a product fills one edge per call, so a first
    product costs about one replay of the word and a repeated one only hops.
    """
    if u.datum is not v.datum and u.datum != v.datum:
        raise DatumMismatch("Weyl elements over different data")
    word = u.word
    for k in range(len(word) - 1, -1, -1):
        i = word[k]
        left = v._left
        w = left and left[i]
        if w is None:
            v = _step(v, i)
            return _replay(v.datum, word[:k], v.key) if k else v
        v = w
    return v


def weyl_inv(u: WeylElem) -> WeylElem:
    """u^-1, replayed once per element and linked both ways."""
    v = u._inv
    if v is None:
        v = _replay(u.datum, u.word[::-1], (1,) * u.datum.nsimple)
        _set_inv(u, v)
        _set_inv(v, u)
    return v


def weyl_act(u: WeylElem, x, side: str = "X_*"):
    """Apply u to a vector of X_* (default) or X^*; entries may be complex."""
    if len(x) != u.datum.rank:
        raise InputError(f"vector of length {len(x)} for a datum of rank {u.datum.rank}")
    if side == "X_*":
        return mat_vec(u.matrix, x)
    if side == "X^*":
        return mat_vec(u.xstar, x)
    raise InputError(f"unknown side {side!r}")


def longest_element(d: RootDatum) -> WeylElem:
    """w0, the element with w0 rho_check = -rho_check."""
    return _elem_from_matrix(d, (-1,) * d.nsimple)


@cache
def weyl_enumerate(d: RootDatum) -> Tuple[WeylElem, ...]:
    """All of W, ordered by length then lexicographic canonical word: the one materialised W."""
    return tuple(parabolic_subgroup(d, range(1, d.nsimple + 1)))


def parabolic_subgroup(d: RootDatum, subset) -> Iterator[WeylElem]:
    """Yield W_J for J the given simple indices, by length then canonical word.

    Each length is s_i u over i in J and the left ascents i of the previous
    length's u, kept when the word of s_i u is i then u's word, that is when
    no entry of its key before the i-th is negative: each element is met
    once, in order, and interned from u with that word, its key updated from
    u's by one Cartan column. The walk is lazy, one length at a time, so a
    caller that stops early interns only the layers it reached; the indices
    are checked when the walk starts.
    """
    global _hits
    letters = sorted(_index(d, i) for i in subset)
    columns = _cartan_columns(d)
    layer = [weyl_identity(d)]
    yield layer[0]
    while layer:
        # read per layer: a caller may empty the table between two yields
        nxt, tab = [], _interned[d]
        for i in letters:
            col = columns[i - 1]
            near = {j + 1 for j, _ in col}
            for u in layer:
                x = u.key[i - 1]
                if x > 0:
                    # u's key is positive before its first letter f, and s_i raises every
                    # entry but the i-th: f > i passes, and f < i only if s_i moves entry f
                    word = u.word
                    f = word[0] if word else i + 1
                    if f > i or f in near:
                        p = list(u.key)
                        for j, a in col:
                            p[j] -= a * x
                        if f > i or min(p[:i - 1]) > 0:
                            key = tuple(p)
                            v = tab.get(key)
                            if v is None:
                                v = tab[key] = WeylElem(d, key, (i,) + word)
                            else:
                                _hits += 1
                            nxt.append(v)
        yield from nxt
        layer = nxt


def weyl_order(d: RootDatum) -> int:
    return len(weyl_enumerate(d))


@cache
def apply_aut_to_weyl(a: BasedAut, u: WeylElem) -> WeylElem:
    """Conjugate u by a datum automorphism: s_i goes to s_{perm(i)}, letter by letter.

    Cached: at most |W| entries per automorphism.
    """
    if a.datum != u.datum:
        raise DatumMismatch("automorphism and element over different data")
    return _replay(u.datum, [a.perm[i - 1] for i in u.word], (1,) * u.datum.nsimple)


def neg_w0_aut(d: RootDatum) -> BasedAut:
    """The based automorphism -w0 (identity when w0 = -1)."""
    return based_aut(d, mat_neg(longest_element(d).xstar))
