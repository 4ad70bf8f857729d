"""Based root data on Z^n with the standard dot-product pairing.

A datum lists simple roots (in X^* = Z^n) and simple coroots (in X_* = Z^n)
in matching order; everything downstream (Weyl group, Tits group, dual
group) is derived from these vectors.

The positive roots and coroots are found once per datum as integer
coefficient vectors over the simple ones, by one closure through the Cartan
matrix, and kept in one record with what the Weyl walks read off them.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache
from operator import mul
from typing import Tuple

from .errors import (DatumMismatch, InputError, InvalidCartan, NotBasedAut, RankMismatch,
                     clipped_repr, frozen_setattr)
from .intlinalg import (
    ident,
    mat_from_rows,
    mat_inv_z,
    mat_mul,
    mat_vec,
    matrix_rank,
    transpose,
    vdot,
    vneg,
)

IntVec = Tuple[int, ...]


class RootDatum:
    """Rank, simple roots and simple coroots; the label names it and is not compared."""

    __slots__ = ("rank", "simple_roots", "simple_coroots", "label", "_hash")

    def __init__(self, rank: int, simple_roots: Tuple[IntVec, ...],
                 simple_coroots: Tuple[IntVec, ...], label: str = ""):
        init = object.__setattr__
        init(self, "rank", rank)
        init(self, "simple_roots", simple_roots)
        init(self, "simple_coroots", simple_coroots)
        init(self, "label", label)
        # a datum keys many caches; hash its nested tuples once, not per lookup
        init(self, "_hash", hash((rank, simple_roots, simple_coroots)))

    __setattr__ = __delattr__ = frozen_setattr

    def __eq__(self, other):
        if other.__class__ is not RootDatum:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.rank == other.rank
                                 and self.simple_roots == other.simple_roots
                                 and self.simple_coroots == other.simple_coroots)

    def __hash__(self):
        return self._hash

    @property
    def nsimple(self) -> int:
        return len(self.simple_roots)

    def __repr__(self):
        return f"RootDatum({self.label or self.cartan_summary()})"

    def cartan_summary(self) -> str:
        return f"rank {self.rank}, {self.nsimple} simple roots"


def datum_from_vectors(roots, coroots, rank=None, label="") -> RootDatum:
    """Build and validate a datum from explicit root/coroot vectors of ints."""
    roots = tuple(tuple(v) for v in roots)
    coroots = tuple(tuple(v) for v in coroots)
    if any(type(x) is not int for v in roots + coroots for x in v):
        raise InputError("root and coroot entries must be integers")
    if len(roots) != len(coroots):
        raise RankMismatch(
            f"{len(roots)} simple roots but {len(coroots)} simple coroots")
    if rank is None:
        if not roots:
            raise RankMismatch("rank is required for a datum with no roots")
        rank = len(roots[0])
    for v in roots + coroots:
        if len(v) != rank:
            raise RankMismatch(f"vector {v} does not have length {rank}")
    if len(roots) > rank:
        raise RankMismatch("more simple roots than the rank allows")
    d = RootDatum(rank, roots, coroots, label)
    _validate_cartan(d)
    return d


def cartan_matrix(d: RootDatum):
    """Pairing matrix <alpha_i, alpha-check_j>."""
    return tuple(tuple(vdot(a, b) for b in d.simple_coroots) for a in d.simple_roots)


def _validate_cartan(d: RootDatum) -> None:
    """InvalidCartan unless the Cartan matrix is a generalized one of finite type, that is
    with finitely many real roots (Kac, 1990, ch. 4-5). The root closure decides it: a cap
    of 6 on its coefficients, E8's largest, refuses every infinite type and admits E6-E8."""
    m = d.nsimple
    a = cartan_matrix(d)
    for i in range(m):
        if a[i][i] != 2:
            raise InvalidCartan(f"<alpha_{i+1}, alpha-check_{i+1}> = {a[i][i]} != 2")
        for j in range(m):
            if i != j:
                if a[i][j] > 0:
                    raise InvalidCartan(f"positive off-diagonal pairing at ({i+1},{j+1})")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise InvalidCartan(f"asymmetric zero pattern at ({i+1},{j+1})")
    for vecs, name in ((d.simple_roots, "roots"), (d.simple_coroots, "coroots")):
        if m and matrix_rank(vecs) != m:
            raise InvalidCartan(f"simple {name} are linearly dependent")
    _root_system(d)


# ---------------------------------------------------------------------------
# named types and the datum grammar

_CHAINS = {"A": 1, "B": 2, "C": 2, "D": 2, "F": 4, "G": 2}


def _cartan_of_type(letter: str, n: int):
    if letter not in _CHAINS or n < _CHAINS[letter]:
        raise InputError(f"unsupported type {letter}{n}")
    if letter in "ABC":
        a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
             for i in range(n)]
        if letter == "B" and n >= 2:
            a[n - 2][n - 1] = -2
        if letter == "C" and n >= 2:
            a[n - 1][n - 2] = -2
        return a
    if letter == "D":
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(i, i + 1) for i in range(n - 3)]
        if n >= 3:
            edges += [(n - 3, n - 2), (n - 3, n - 1)]
        for i, j in edges:
            a[i][j] = a[j][i] = -1
        return a
    if letter == "F":
        if n != 4:
            raise InputError(f"unsupported type F{n}")
        return [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    if n != 2:
        raise InputError(f"unsupported type G{n}")
    return [[2, -1], [-3, 2]]


_TYPE_RE = re.compile(r"^([A-G])([1-9])(?:\s+(sc|ad))?$")
_GL_RE = re.compile(r"^GL\(([1-9])\)$")


def _factor_datum(token: str) -> RootDatum:
    token = token.strip()
    if token == "T1":
        return RootDatum(1, (), (), "T1")
    m = _GL_RE.match(token)
    if m:
        n = int(m.group(1))
        vecs = tuple(
            tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(n))
            for i in range(n - 1))
        return RootDatum(n, vecs, vecs, f"GL({n})")
    m = _TYPE_RE.match(token)
    if not m:
        raise InputError(f"bad group token: {clipped_repr(token)}")
    letter, n, lattice = m.group(1), int(m.group(2)), m.group(3) or "sc"
    if n > 4:
        raise InputError(f"rank of {letter}{n} exceeds the supported cap of 4")
    a = _cartan_of_type(letter, n)
    if lattice == "sc":
        # coroots are the standard basis, roots are the Cartan rows
        roots = tuple(tuple(row) for row in a)
        coroots = ident(n)
    else:
        roots = ident(n)
        coroots = tuple(tuple(a[i][j] for i in range(n)) for j in range(n))
    return RootDatum(n, roots, coroots, f"{letter}{n} {lattice}")


def build_datum(spec: str) -> RootDatum:
    """Parse "A2 sc x GL(2)"-style product specs into a datum."""
    if not isinstance(spec, str) or not spec.strip():
        raise InputError(f"bad group spec: {clipped_repr(spec)}")
    tokens = re.split(r"\s*[x×]\s*", spec.strip())
    if not all(tokens):
        raise InputError(f"empty product factor in group spec: {clipped_repr(spec)}")
    factors = [_factor_datum(t) for t in tokens]
    if len(factors) == 1:
        return factors[0]
    rank = sum(f.rank for f in factors)
    roots, coroots = [], []
    offset = 0
    for f in factors:
        pad = lambda v: (0,) * offset + v + (0,) * (rank - offset - f.rank)
        roots += [pad(v) for v in f.simple_roots]
        coroots += [pad(v) for v in f.simple_coroots]
        offset += f.rank
    label = " x ".join(f.label for f in factors)
    return RootDatum(rank, tuple(roots), tuple(coroots), label)


_DUAL_LABEL = {"sc": "ad", "ad": "sc"}


def dual_datum(d: RootDatum) -> RootDatum:
    """Swap roots and coroots; X^* and X_* trade places."""
    parts = []
    for tok in d.label.split(" x "):
        m = _TYPE_RE.match(tok)
        if m and m.group(3):
            letter = {"B": "C", "C": "B"}.get(m.group(1), m.group(1))
            parts.append(f"{letter}{m.group(2)} {_DUAL_LABEL[m.group(3)]}")
        elif tok == "T1" or _GL_RE.match(tok):
            parts.append(tok)
        else:
            parts.append(f"dual({tok})" if tok else "")
    label = " x ".join(parts) if d.label else ""
    return RootDatum(d.rank, d.simple_coroots, d.simple_roots, label)


# ---------------------------------------------------------------------------
# roots, closures, rho-check

_MAX_COEFF = 6  # E8's highest root; no finite root system has more (Bourbaki, VI, plates)

# table and cotable: ((height, vector, coefficients), ...) of the positive roots and
# coroots, by height then vector; roots and coroots: their vectors, in that order;
# all_roots: the roots and their negatives; two_rho_check: the sum of the positive
# coroots; steps: {positive root: (j, odd)}, j its coroot's index in cotable and bit l
# of odd set when <root, coroots[l]> is odd; columns[i]: the pairs (j, <alpha_j,
# alpha-check_i>) with a nonzero pairing
_RootSystem = namedtuple("_RootSystem",
                         "table cotable roots coroots all_roots two_rho_check steps columns")


@cache
def _root_system(d: RootDatum) -> _RootSystem:
    """The positive roots and coroots of d and what is read off them, once per datum.

    One closure on simple coefficients walks each root with its coroot. From
    the simple roots e_i, s_i sends a root's c to c - <beta, alpha_i-check> e_i
    and its coroot's cc to cc - <alpha_i, beta-check> e_i, with
    <beta, alpha_i-check> = sum_j c_j a[j][i] and <alpha_i, beta-check> =
    sum_j a[i][j] cc_j (a the Cartan matrix); an image with no negative
    coefficient is kept. Each non-simple positive root is such an image of a
    lower one. An image coefficient above 6, E8's largest, is refused, so E6-E8
    pass and finite type is decided: an infinite type's real roots are
    unbounded, and the first on a chain of raising steps to pass 6 is an image
    formed here. Every walk on Weyl keys reads columns from this record, so a
    datum of infinite type raises InvalidCartan before it walks. A root's odd
    mask is linear in it: the xor of the simple roots' masks over its odd
    coefficients.
    """
    m, a = d.nsimple, cartan_matrix(d)
    columns = tuple(tuple((j, a[j][i]) for j in range(m) if a[j][i]) for i in range(m))
    coroot_of = {e: e for e in ident(m)}
    queue = list(coroot_of)
    for c in queue:
        for i, col in enumerate(columns):
            n = sum(c[j] * x for j, x in col)
            if n and c[i] >= n:  # the image's coefficients are all nonnegative
                img = c[:i] + (c[i] - n,) + c[i + 1:]
                if img not in coroot_of:
                    if img[i] > _MAX_COEFF:
                        raise InvalidCartan(
                            f"root coefficient above {_MAX_COEFF}: not of finite type")
                    cc = coroot_of[c]
                    coroot_of[img] = cc[:i] + (cc[i] - sum(map(mul, a[i], cc)),) + cc[i + 1:]
                    queue.append(img)
    rcols, ccols = transpose(d.simple_roots), transpose(d.simple_coroots)
    table = tuple(sorted((sum(c), mat_vec(rcols, c), c) for c in coroot_of))
    cotable = tuple(sorted((sum(cc), mat_vec(ccols, cc), cc) for cc in coroot_of.values()))
    roots, coroots = tuple(v for _, v, _ in table), tuple(v for _, v, _ in cotable)
    index = {cc: j for j, (_, _, cc) in enumerate(cotable)}
    odd_i = [sum(1 << j for j, (_, _, cc) in enumerate(cotable) if sum(map(mul, row, cc)) & 1)
             for row in a]
    steps = {}
    for _, v, c in table:
        odd = 0
        for x, o in zip(c, odd_i):
            if x & 1:
                odd ^= o
        steps[v] = (index[coroot_of[c]], odd)
    return _RootSystem(table, cotable, roots, coroots,
                       frozenset(roots).union(vneg(v) for v in roots),
                       tuple(sum(v[k] for v in coroots) for k in range(d.rank)),
                       steps, columns)


# ---------------------------------------------------------------------------
# based automorphisms

class BasedAut(namedtuple("BasedAut", "datum matrix perm")):
    """Lattice automorphism of X^* permuting the simple roots.

    perm is 1-based: matrix sends alpha_i to alpha_{perm[i-1]}.
    """

    __slots__ = ()


def based_aut(d: RootDatum, matrix) -> BasedAut:
    matrix = mat_from_rows(matrix)
    if len(matrix) != d.rank or any(len(r) != d.rank for r in matrix):
        raise NotBasedAut(f"matrix is not {d.rank} x {d.rank}")
    if any(type(x) is not int for row in matrix for x in row):
        raise NotBasedAut("matrix entries must be integers")
    try:
        inv_t = transpose(mat_inv_z(matrix))
    except ValueError as exc:
        raise NotBasedAut("matrix is not invertible over Z") from exc
    perm = []
    for i, a in enumerate(d.simple_roots):
        img = mat_vec(matrix, a)
        try:
            j = d.simple_roots.index(img)
        except ValueError:
            raise NotBasedAut(f"image of alpha_{i+1} is not a simple root")
        perm.append(j + 1)
    if sorted(perm) != list(range(1, d.nsimple + 1)):
        raise NotBasedAut("simple roots are not permuted")
    for i, av in enumerate(d.simple_coroots):
        if mat_vec(inv_t, av) != d.simple_coroots[perm[i] - 1]:
            raise NotBasedAut("coroot images do not follow the root permutation")
    return BasedAut(d, matrix, tuple(perm))


def identity_aut(d: RootDatum) -> BasedAut:
    return BasedAut(d, ident(d.rank), tuple(range(1, d.nsimple + 1)))


def compose_aut(a: BasedAut, b: BasedAut) -> BasedAut:
    """a after b."""
    _same_datum(a, b)
    perm = tuple(a.perm[j - 1] for j in b.perm)
    return BasedAut(a.datum, mat_mul(a.matrix, b.matrix), perm)


def inverse_aut(a: BasedAut) -> BasedAut:
    inv = mat_inv_z(a.matrix)
    perm = [0] * len(a.perm)
    for i, j in enumerate(a.perm):
        perm[j - 1] = i + 1
    return BasedAut(a.datum, inv, tuple(perm))


@cache
def coaction(a: BasedAut):
    """Matrix of the automorphism on X_* (inverse transpose)."""
    return transpose(mat_inv_z(a.matrix))


def transpose_aut(a: BasedAut) -> BasedAut:
    """Carry an automorphism of the datum to one of the dual datum."""
    return based_aut(dual_datum(a.datum), transpose(a.matrix))


def _same_datum(a: BasedAut, b: BasedAut) -> None:
    if a.datum != b.datum:
        raise DatumMismatch("automorphisms over different data")
