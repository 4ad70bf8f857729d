"""sympy as an independent oracle for the exact linear algebra in intlinalg.

Every function here is compared against sympy on seeded random integer
matrices: square, rectangular, singular and unimodular. The answers are unique
(inverse, rank, the Smith diagonal up to sign), so equality is exact; sympy's
determinant decides which square matrices are invertible over Z. A congruence
solution is not unique, so sympy checks its residual instead; rational systems
are scaled to integers first, as the library's callers do.
"""

from fractions import Fraction as Q
from math import lcm
from random import Random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from lparams.intlinalg import (  # noqa: E402
    ident,
    mat_inv_z,
    matrix_rank,
    smith,
    solve_congruence_scaled,
)


def _rand_entry(rng, rational):
    return Q(rng.randrange(-5, 6), rng.choice([1, 2, 3])) if rational else rng.randrange(-5, 6)


def _rand_matrix(rng, rows, cols, rational=False, singular=False):
    m = [[_rand_entry(rng, rational) for _ in range(cols)] for _ in range(rows)]
    if singular and rows >= 2:
        # the last row a combination of the others drops the rank
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[min(1, rows - 2)])]
    return tuple(tuple(row) for row in m)


def _cases(seed, count=60):
    rng = Random(seed)
    for k in range(count):
        # square, rectangular, then square with a dependent last row
        shape = k % 3
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6) if shape == 1 else rows
        yield _rand_matrix(rng, rows, cols, singular=shape == 2), rng


def _unimodular(rng, n, steps=15):
    """A product of elementary row operations and sign flips: a GL(n, Z) matrix."""
    m = [list(row) for row in ident(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.choice([-2, -1, 1, 2])
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(map(tuple, m))


def _sym(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) if isinstance(x, Q)
                          else x for x in row] for row in m])


def test_determinant_rank_and_inverse_match_sympy():
    singular_seen = 0
    for m, _ in _cases(101):
        s = _sym(m)
        assert matrix_rank(m) == s.rank()
        if len(m) != len(m[0]):
            continue
        det = int(s.det())
        singular_seen += det == 0
        if abs(det) == 1:
            want = s.inv()
            assert mat_inv_z(m) == tuple(tuple(int(want[i, j]) for j in range(len(m)))
                                         for i in range(len(m)))
        else:
            with pytest.raises(ValueError):
                mat_inv_z(m)
    assert singular_seen >= 5


def test_mat_inv_z_matches_sympy_on_unimodular_products():
    rng = Random(202)
    for n in range(1, 7):
        for _ in range(6):
            m = _unimodular(rng, n)
            want = _sym(m).inv()
            assert mat_inv_z(m) == tuple(tuple(int(want[i, j]) for j in range(n))
                                         for i in range(n))
            # doubling a row gives det +-2; a repeated row makes it singular
            doubled = (tuple(2 * x for x in m[0]),) + m[1:]
            repeated = (m[0],) + m[:-1] if n > 1 else ((0,),)
            assert abs(_sym(doubled).det()) == 2 and _sym(repeated).det() == 0
            for bad in (doubled, repeated):
                with pytest.raises(ValueError):
                    mat_inv_z(bad)


def test_smith_diagonal_matches_sympy():
    rng = Random(404)
    for k in range(80):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = _rand_matrix(rng, rows, cols, singular=k % 3 == 2)
        s, _, _ = smith(a)
        want = smith_normal_form(sympy.Matrix(a), domain=sympy.ZZ)
        diag = min(rows, cols)
        assert [s[i][i] for i in range(diag)] == [abs(int(want[i, i])) for i in range(diag)]


def _congruence_systems(seed, count=120):
    """Integer, rational, rectangular and stacked [a/2; a] systems, half of them solvable."""
    rng = Random(seed)
    for k in range(count):
        kind = k % 4
        rows = rng.randrange(1, 6)
        cols = rows if kind < 2 else rng.randrange(1, 6)
        a = _rand_matrix(rng, rows, cols, rational=kind == 1)
        if kind == 3:
            a = tuple(tuple(Q(x, 2) for x in row) for row in a) + a
        if k % 2:
            x0 = [_rand_entry(rng, True) for _ in range(cols)]
            d = tuple(sum(Q(c) * x for c, x in zip(row, x0)) for row in a)
        else:
            d = tuple(Q(rng.randrange(-6, 7), rng.choice([1, 2, 4])) for _ in a)
        yield a, d


def _scaled(a, d, den):
    """(m a as integers, d's numerators over den, m), m the lcm of a's denominators.

    a x = d (mod Z) is the integer system (m a) y = d with x = m y.
    """
    m = lcm(*(Q(x).denominator for row in a for x in row))
    return tuple(tuple(int(Q(x) * m) for x in row) for row in a), [int(x * den) for x in d], m


def _residual_is_integral(a, d, xnum, xden, m):
    x = _sym([[sympy.Rational(c * m, xden)] for c in xnum])
    residual = _sym(a) * x - _sym([[c] for c in d])
    return all(r.is_integer for r in residual)


def test_congruence_solutions_have_integral_residuals_in_sympy():
    solved = unsolvable = 0
    for a, d in _congruence_systems(505):
        den = lcm(*(x.denominator for x in d))
        ia, num, m = _scaled(a, d, den)
        for _ in range(2):  # the second solve reads the cached factorisation
            got = solve_congruence_scaled(ia, num, den)
            if got is None:
                unsolvable += 1
                continue
            solved += 1
            assert _residual_is_integral(a, d, *got, m)
    assert solved >= 100 and unsolvable >= 20


def test_scaled_congruence_solutions_have_integral_residuals_in_sympy():
    # every system kind, rational matrices scaled to integers, with the
    # right-hand side over 12 times its reduced denominator
    solved, kinds = 0, set()
    for k, (a, d) in enumerate(_congruence_systems(606)):
        den = 12 * lcm(*(x.denominator for x in d))
        ia, num, m = _scaled(a, d, den)
        got = solve_congruence_scaled(ia, num, den)
        if got is None:
            continue
        assert _residual_is_integral(a, d, *got, m)
        solved += 1
        kinds.add(k % 4)
    assert solved >= 40 and kinds == {0, 1, 2, 3}
