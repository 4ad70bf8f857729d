"""Exact integer linear algebra: matrices as tuples of row tuples of ints.

Every lattice question (congruences mod Z^n, membership in a Z-span,
saturations, ranks, unimodular inverses) is read off one Smith factorisation
per matrix, computed once and cached (invariant factors, u and v, as tuples).
Right-hand sides travel as integer numerators over one denominator, so a
congruence solve is two integer matrix-vector products and a divisibility
test per invariant factor; Smith is the one elimination kernel. The class
test "is num / den in a Q^n + Z^n", which decides whether two torus parts
over one theta are T-conjugate (a = 1 - theta), reads only the rows of u
past the nonzero invariant factors and builds no x. The public lattice
entry points take int entries only and raise ValueError on a Fraction, a
float or a bool; the library's own callers, whose matrices are int tuples
built by the library, use the private _congruence, which checks nothing.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence, Tuple

IntMat = Tuple[Tuple[int, ...], ...]


def ident(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def one_minus(m) -> IntMat:
    """1 - m for a square matrix m."""
    return tuple(tuple((1 if r == c else 0) - x for c, x in enumerate(row))
                 for r, row in enumerate(m))


def mat_from_rows(rows) -> IntMat:
    return tuple(tuple(row) for row in rows)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def mat_vec(m, v):
    """m (rows) applied to column vector v."""
    return tuple(sum(map(mul, row, v)) for row in m)


def vneg(a):
    return tuple(-x for x in a)


def vdot(a, b):
    return sum(map(mul, a, b))


def _ints(*rows) -> None:
    """ValueError unless every entry of every row is an int; a bool is refused too."""
    if not set(map(type, chain(*rows))) <= {int}:
        raise ValueError("entries must be integers")


def _int_rows(m, square: bool = False) -> IntMat:
    """m as a tuple of row tuples of ints (_ints), optionally square."""
    rows = tuple(map(tuple, m))
    _ints(*rows)
    if square and any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return rows


def matrix_rank(m) -> int:
    """Rank over Q: the number of nonzero invariant factors."""
    return sum(1 for s in _smith_factors(_int_rows(m))[0] if s)


def mat_inv_z(m) -> IntMat:
    """Inverse of a GL(n, Z) matrix; ValueError unless every invariant factor is 1.

    With the cached Smith form u m v = 1, the inverse is v u.
    """
    factors, u, v = _smith_factors(_int_rows(m, square=True))
    if any(s != 1 for s in factors):
        raise ValueError("matrix is not invertible over Z")
    return mat_mul(v, u)


def smith(a) -> Tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: returns (s, u, v) with u a v = s.

    u, v are unimodular; s is diagonal with nonnegative entries and
    d_i | d_{i+1}.
    """
    a = _int_rows(a)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("smith form needs a rectangular matrix")
    s = [list(row) for row in a]
    u = [list(row) for row in ident(rows)]
    v = [list(row) for row in ident(cols)]

    def row_add(i, j, k):
        s[i] = [x + k * y for x, y in zip(s[i], s[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_add(i, j, k):
        for r in range(rows):
            s[r][i] += k * s[r][j]
        for r in range(cols):
            v[r][i] += k * v[r][j]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_neg(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(rows):
                if i != t and s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_add(i, t, -q)
                    if s[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(cols):
                if j != t and s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_add(j, t, -q)
                    if s[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                # force divisibility d_t | everything below
                for i in range(t + 1, rows):
                    bad = next((j for j in range(t + 1, cols) if s[i][j] % s[t][t]), None)
                    if bad is not None:
                        row_add(t, i, 1)
                        dirty = True
                        break
        if s[t][t] < 0:
            row_neg(t)
        t += 1
    return mat_from_rows(s), mat_from_rows(u), mat_from_rows(v)


@cache
def _smith_factors(a: IntMat) -> Tuple[Tuple[int, ...], IntMat, IntMat]:
    """(invariant factors, u, v) of the integer matrix a, u a v diagonal.

    One Smith reduction per distinct matrix: the cache keeps only the
    min(rows, cols) diagonal entries, zeros last, and the unimodular u and v,
    all tuples.
    """
    s, u, v = smith(a)
    return tuple(s[i][i] for i in range(min(len(u), len(v)))), u, v


def solve_congruence_scaled(a: IntMat, num: Sequence[int], den: int):
    """One x = xnum / xden with a x = num / den (mod Z^rows), as (xnum, xden), or None.

    a is an integer matrix given as a tuple of row tuples, num integers and
    den >= 1; each is checked, then _congruence solves.
    """
    _ints(*a, num, (den,))
    if len(num) != len(a):
        raise ValueError("right-hand side length does not match the matrix")
    if den < 1:
        raise ValueError("denominator must be positive")
    return _congruence(a, num, den)


def _congruence(a: IntMat, num: Sequence[int], den: int, witness: bool = True):
    """solve_congruence_scaled on trusted parts: a tuple of int row tuples, num ints, den >= 1.

    With a's cached Smith form u a v = diag(s), s_1 .. s_r nonzero and the
    rest zero, num / den lies in a Q^cols + Z^rows exactly when den divides
    (u num)_i for every i > r: the class test, which is all a caller with
    witness false gets (True, or None). Then x = v eta with eta_i =
    (u num)_i / (s_i den) for i <= r and the free coordinates 0. The answer
    is reduced: gcd(xden, *xnum) = 1.
    """
    factors, u, v = _smith_factors(a)
    r = len(factors) - factors.count(0)
    if any(sum(map(mul, row, num)) % den for row in u[r:]):
        return None
    if not witness:
        return True
    scale = den * lcm(*factors[:r])
    eta = [sum(map(mul, row, num)) * (scale // (s * den)) for row, s in zip(u, factors[:r])]
    eta += [0] * (len(v) - r)
    xnum = [sum(map(mul, row, eta)) for row in v]
    g = gcd(scale, *xnum)
    return tuple(x // g for x in xnum), scale // g


def in_span_z(x: Sequence[int], gens: Sequence[Sequence[int]]) -> bool:
    """Is the integer vector x in the Z-span of the generator vectors?

    With the cached Smith form u g v = diag(s) of the matrix g whose columns
    are the generators, x = g y has an integer solution y iff s_i divides
    (u x)_i for every i, where s_i = 0 asks for (u x)_i = 0.
    """
    _ints(x, *gens)
    if any(len(g) != len(x) for g in gens):
        raise ValueError("generator length does not match the vector")
    if not gens:
        return not any(x)
    factors, u, _ = _smith_factors(tuple(zip(*gens)))
    for i, row in enumerate(u):
        z = sum(map(mul, row, x))
        s = factors[i] if i < len(factors) else 0
        if z % s if s else z:
            return False
    return True


def saturation_projection(gens: Sequence[Sequence[int]], n: int):
    """Projection Z^n -> Z^n/sat(span gens), plus data to descend maps.

    Returns (proj, uinv, rank): proj is the (n-rank) x n projection matrix,
    uinv's columns are a Z-basis of Z^n whose first `rank` members span the
    saturation.
    """
    gens = _int_rows(gens)
    if any(len(g) != n for g in gens):
        raise ValueError("generator length does not match the lattice rank")
    if not gens:
        return ident(n), ident(n), 0
    factors, u, _ = _smith_factors(tuple(zip(*gens)))
    rank = sum(1 for s in factors if s)
    proj = u[rank:]
    uinv = mat_inv_z(u)
    return proj, uinv, rank


def descend_map(proj, uinv, rank: int, t):
    """Matrix of t on Z^n/sat given that t preserves the saturation.

    In the basis uinv, t is u t u^{-1}; only its rows from `rank` down are
    needed, and those rows of u are proj.
    """
    rows = mat_mul(mat_mul(proj, t), uinv)
    if any(any(row[:rank]) for row in rows):
        raise ValueError("map does not preserve the saturation")
    return tuple(tuple(row[rank:]) for row in rows)
