"""sympy as an independent oracle for the exact linear algebra in intlinalg.

Every function here is compared against sympy on seeded random integer and
rational matrices: square, rectangular and singular. The answers are unique
(inverse, determinant, rank, the Smith diagonal up to sign), so equality is
exact. A congruence solution is not unique, so sympy checks its
residual instead.
"""

from fractions import Fraction as Q
from random import Random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from lparams.intlinalg import (  # noqa: E402
    determinant,
    mat_inv_q,
    matrix_rank,
    smith,
    solve_congruence,
    solve_congruence_scaled,
)


def _to_q(x) -> Q:
    x = sympy.Rational(x)
    return Q(int(x.p), int(x.q))


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
        yield _rand_matrix(rng, rows, cols, rational=k % 2 == 1, singular=shape == 2), rng


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
        det = determinant(m)
        assert det == _to_q(s.det())
        if det == 0:
            singular_seen += 1
            with pytest.raises(ZeroDivisionError):
                mat_inv_q(m)
        else:
            want = s.inv()
            assert mat_inv_q(m) == tuple(tuple(_to_q(want[i, j]) for j in range(len(m)))
                                         for i in range(len(m)))
    assert singular_seen >= 5


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


def test_congruence_solutions_have_integral_residuals_in_sympy():
    solved = unsolvable = 0
    for a, d in _congruence_systems(505):
        for _ in range(2):  # the second solve reads the cached factorisation
            x = solve_congruence(a, d)
            if x is None:
                unsolvable += 1
                continue
            solved += 1
            residual = _sym(a) * _sym([[c] for c in x]) - _sym([[c] for c in d])
            assert all(r.is_integer for r in residual)
    assert solved >= 100 and unsolvable >= 20


def test_scaled_congruence_solutions_have_integral_residuals_in_sympy():
    solved = 0
    for a, d in _congruence_systems(606):
        if any(isinstance(x, Q) for row in a for x in row):
            continue
        num = [int(x * 12) for x in d]
        got = solve_congruence_scaled(a, num, 12)
        if got is None:
            continue
        xnum, xden = got
        x = _sym([[sympy.Rational(c, xden)] for c in xnum])
        residual = _sym(a) * x - _sym([[sympy.Rational(c, 12)] for c in num])
        assert all(r.is_integer for r in residual)
        solved += 1
    assert solved >= 20
