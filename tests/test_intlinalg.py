"""Exact integer linear algebra: Smith form, congruences, lattices, unimodular inverses."""

from fractions import Fraction as Q
from math import gcd, lcm
from random import Random

import pytest

import lparams.intlinalg as intlinalg
from lparams.intlinalg import (
    _smith_factors,
    descend_map,
    ident,
    in_span_z,
    mat_inv_z,
    mat_mul,
    mat_vec,
    matrix_rank,
    saturation_projection,
    smith,
    solve_congruence_scaled,
    transpose,
    vdot,
)
from lparams.lgroup import parse_inner_class
from lparams.lparam import random_param, verify_contragredient
from lparams.rootdata import build_datum
from cold_caches import clear_all_caches
from oracle_matrices import leibniz_det


def _rand_mat(rng, n, lo=-5, hi=6):
    return tuple(tuple(rng.randrange(lo, hi) for _ in range(n)) for _ in range(n))


def _unimodular(rng, n, steps=12):
    """A seeded GL(n, Z) matrix: a product of elementary row operations and sign flips."""
    m = [list(row) for row in ident(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.choice([-2, -1, 1, 2])
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(map(tuple, m))


def test_determinant_and_inverse_seeded():
    rng = Random(31)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = _rand_mat(rng, n)
        if abs(leibniz_det(m)) == 1:
            inv = mat_inv_z(m)
            assert mat_mul(m, inv) == mat_mul(inv, m) == ident(n)
        else:
            with pytest.raises(ValueError):
                mat_inv_z(m)
    for n in range(1, 7):
        m = _unimodular(rng, n)
        inv = mat_inv_z(m)
        assert abs(leibniz_det(m)) == 1
        assert mat_mul(m, inv) == mat_mul(inv, m) == ident(n)
    assert mat_inv_z(()) == ()


def test_mat_inv_z_unimodular_only():
    assert mat_inv_z(((1, 1), (0, 1))) == ((1, -1), (0, 1))
    assert mat_inv_z([[0, 1], [1, 0]]) == ((0, 1), (1, 0))
    for m in (((2, 0), (0, 1)), ((1, 1), (1, -1)), ((1, 2), (2, 4)), ((0, 0), (0, 0)),
              ((1, 0),), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError):
            mat_inv_z(m)


@pytest.mark.parametrize("entry", [Q(1), Q(1, 2), 1.0, 0.5, True, False],
                         ids=["Fraction(1)", "Fraction(1,2)", "1.0", "0.5", "True", "False"])
def test_integer_entry_points_refuse_non_int_entries(entry):
    # an integral Fraction, a float or a bool used to be coerced to an int
    m = ((entry, 0), (0, 1))
    for fn in (smith, matrix_rank, mat_inv_z):
        with pytest.raises(ValueError):
            fn(m)
    with pytest.raises(ValueError):
        in_span_z((entry, 0), [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        in_span_z((1, 0), [(entry, 0)])
    with pytest.raises(ValueError):
        solve_congruence_scaled(m, (1, 0), 2)
    with pytest.raises(ValueError):
        solve_congruence_scaled(((2, 0), (0, 1)), (entry, 0), 2)
    with pytest.raises(ValueError):
        saturation_projection([(entry, 0)], 2)


def test_matrix_rank_counts_nonzero_invariant_factors():
    assert matrix_rank(((1, 2), (2, 4))) == 1
    assert matrix_rank(((0, 0, 0),)) == 0
    assert matrix_rank(((1, 0, 0), (0, 1, 0))) == 2
    assert matrix_rank(()) == 0


def test_smith_invariants_seeded():
    rng = Random(7)
    for _ in range(80):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = tuple(tuple(rng.randrange(-6, 7) for _ in range(cols)) for _ in range(rows))
        s, u, v = smith(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert abs(leibniz_det(u)) == 1 and abs(leibniz_det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0) or (x == 0 and y == 0)


def test_smith_rejects_nonintegral():
    for a in (((Q(1, 2),),), ((2.0,),), ((Q(2), True),)):
        with pytest.raises(ValueError):
            smith(a)


def scaled_solve(a, d):
    """A rational x with a x = d (mod Z^rows), or None, for rational a and d.

    x ranges over all of Q^cols, so a is scaled by the lcm m of its
    denominators: a x = (m a)(x / m). The integer system goes to
    solve_congruence_scaled with d as numerators over their common denominator.
    """
    m = lcm(*(Q(x).denominator for row in a for x in row))
    den = lcm(*(Q(x).denominator for x in d))
    sol = solve_congruence_scaled(tuple(tuple(int(Q(x) * m) for x in row) for row in a),
                                  [int(Q(x) * den) for x in d], den)
    if sol is None:
        return None
    xnum, xden = sol
    return tuple(Q(x * m, xden) for x in xnum)


def test_solve_congruence_integer_matrix():
    # (1-theta) for theta = -1 on Z: solve 2x = 1 mod Z
    assert solve_congruence_scaled(((2,),), (1,), 1) == ((1,), 2)
    # no solution: 0*x = 1/2 mod Z
    assert solve_congruence_scaled(((0,),), (1,), 2) is None


def test_solve_congruence_rational_matrix():
    # a row pattern that truncation used to mangle: x1 = 1/2 mod Z forces
    # x1 odd over 2, while -x1/2 = 0 mod Z forces x1 in 2Z; no solution.
    # Scaled by 2 the matrix is ((2, 0), (-1, 0)) acting on y = x/2.
    assert solve_congruence_scaled(((2, 0), (-1, 0)), (1, 0), 2) is None
    assert scaled_solve(((Q(1), Q(0)), (Q(-1, 2), Q(0))), (Q(1, 2), Q(0))) is None
    # solvable rational system, verified by residual
    a2 = ((Q(1, 2), Q(0)), (Q(0), Q(1, 3)))
    d = (Q(1, 4), Q(1, 6))
    x = scaled_solve(a2, d)
    assert x is not None
    res = [r - y for r, y in zip(mat_vec(a2, x), d)]
    assert all(r.denominator == 1 for r in res)


def test_solve_congruence_seeded_rational():
    rng = Random(97)
    hits = 0
    for _ in range(300):
        n = rng.randrange(1, 4)
        a = tuple(tuple(Q(rng.randrange(-4, 5), rng.choice([1, 2, 2, 3])) for _ in range(n))
                  for _ in range(n))
        d = tuple(Q(rng.randrange(-6, 7), rng.choice([1, 2, 4])) for _ in range(n))
        x = scaled_solve(a, d)
        if x is None:
            continue
        hits += 1
        res = [r - y for r, y in zip(mat_vec(a, x), d)]
        assert all(r.denominator == 1 for r in res)
    assert hits > 100


def test_in_span_z():
    gens = [(2, 0), (0, 3)]
    assert in_span_z((4, -3), gens)
    assert not in_span_z((1, 0), gens)
    with pytest.raises(ValueError):  # callers test integrality first
        in_span_z((Q(1, 2), 0), gens)
    assert in_span_z((0, 0), [])
    assert not in_span_z((1,), [])


def test_saturation_projection_and_descend():
    # span of (2,0) saturates to Z x 0; quotient is the second coordinate
    proj, uinv, rank = saturation_projection([(2, 0)], 2)
    assert rank == 1 and len(proj) == 1
    # a map preserving the span descends; proj o t = t_bar o proj
    t = ((1, 3), (0, -1))
    tbar = descend_map(proj, uinv, rank, t)
    lhs = mat_mul(proj, t)
    rhs = mat_mul(tbar, proj)
    assert lhs == rhs
    with pytest.raises(ValueError):
        descend_map(proj, uinv, rank, ((0, 1), (1, 0)))


def test_saturation_projection_full_rank_gives_empty_quotient():
    proj, _, rank = saturation_projection([(1, 0), (0, 1)], 2)
    assert rank == 2 and proj == ()


def test_transpose_and_dot():
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    assert vdot((1, 2, 3), (4, 5, 6)) == 32


# ---------------------------------------------------------------------------
# shape checks: a length mismatch is refused, never truncated by zip

def test_solve_congruence_refuses_a_longer_right_hand_side():
    # the unsolvable second entry 1/2 used to be dropped
    with pytest.raises(ValueError):
        solve_congruence_scaled(((2,),), (2, 1), 2)


def test_solve_congruence_refuses_a_shorter_right_hand_side():
    # the second row used to be dropped from the answer
    with pytest.raises(ValueError):
        solve_congruence_scaled(((1, 0), (0, 0)), (1,), 2)


def test_in_span_z_refuses_longer_generators():
    with pytest.raises(ValueError):
        in_span_z((0,), [(0, 1)])


def test_in_span_z_refuses_shorter_generators():
    # used to raise a bare IndexError
    with pytest.raises(ValueError):
        in_span_z((0, 1), [(1,)])


def test_scaled_solve_and_smith_refuse_bad_shapes():
    with pytest.raises(ValueError):
        solve_congruence_scaled(((2,),), (1,), 0)
    with pytest.raises(ValueError):
        smith(((1, 0), (1,)))
    with pytest.raises(ValueError):
        saturation_projection([(1, 0)], 3)


# ---------------------------------------------------------------------------
# the uncached, Fraction-valued solvers the cached integer path replaced, as oracles

def oracle_solve_congruence(a, d):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    den = 1
    for row in a:
        for x in row:
            if not isinstance(x, int):
                q = Q(x)
                den = den * q.denominator // gcd(den, q.denominator)
    if den != 1:
        scaled = tuple(tuple(Q(x) * den for x in row) for row in a)
        sol = oracle_solve_congruence(scaled, d)
        return None if sol is None else tuple(Q(den) * x for x in sol)
    s, u, v = smith(tuple(tuple(int(x) for x in row) for row in a))
    ud = mat_vec(u, tuple(Q(x) for x in d))
    eta = [Q(0)] * cols
    for i in range(rows):
        si = s[i][i] if i < cols else 0
        if si:
            eta[i] = Q(ud[i], si)
        elif Q(ud[i]).denominator != 1:
            return None
    return mat_vec(v, tuple(eta))


def oracle_in_span_z(x, gens):
    if not gens:
        return all(Q(c) == 0 for c in x)
    n = len(x)
    a = tuple(tuple(int(g[i]) for g in gens) for i in range(n))
    s, u, _ = smith(a)
    z = mat_vec(u, tuple(Q(c) for c in x))
    m = len(gens)
    for i in range(n):
        si = s[i][i] if i < min(n, m) else 0
        if si:
            if Q(z[i], si).denominator != 1:
                return False
        elif z[i] != 0:
            return False
    return True


def _entry(rng, rational):
    return Q(rng.randrange(-4, 5), rng.choice([1, 2, 3])) if rational else rng.randrange(-4, 5)


def congruence_cases(seed, count=240):
    """(a, d) over integer, rational, rectangular and stacked [a/2; a] matrices.

    Every other right-hand side is a x0 plus an integer vector for a rational
    x0, so it is solvable; the rest are random and often are not.
    """
    rng = Random(seed)
    for k in range(count):
        kind = k % 4
        rows = rng.randrange(1, 5)
        cols = rows if kind < 2 else rng.randrange(1, 5)
        a = tuple(tuple(_entry(rng, kind == 1) for _ in range(cols)) for _ in range(rows))
        if kind == 3:
            a = tuple(tuple(Q(x, 2) for x in row) for row in a) + a
        if k % 8 < 4:
            x0 = [Q(rng.randrange(-6, 7), rng.choice([1, 2, 3, 4, 6])) for _ in range(cols)]
            d = tuple(sum(Q(c) * x for c, x in zip(row, x0)) + rng.randrange(-2, 3)
                      for row in a)
        else:
            d = tuple(Q(rng.randrange(-6, 7), rng.choice([1, 2, 3, 4])) for _ in a)
        yield a, d


def test_solve_congruence_matches_the_uncached_oracle_twice():
    solved = unsolvable = 0
    for a, d in congruence_cases(11):
        want = oracle_solve_congruence(a, d)
        for _ in range(2):  # the second solve reads the cached factorisation
            assert scaled_solve(a, d) == want
        solved += want is not None
        unsolvable += want is None
    assert solved >= 120 and unsolvable >= 20


def test_scaled_solve_returns_the_same_reduced_vector():
    for a, d in congruence_cases(12):
        if any(type(x) is not int for row in a for x in row):
            continue
        den = 12
        num = [int(x * den) for x in d]
        want = oracle_solve_congruence(a, d)
        for _ in range(2):
            got = solve_congruence_scaled(a, num, den)
            if want is None:
                assert got is None
                continue
            xnum, xden = got
            assert tuple(Q(x, xden) for x in xnum) == want
            assert xden >= 1 and gcd(xden, *xnum) == 1


def test_in_span_z_matches_the_uncached_oracle_twice():
    rng = Random(13)
    inside = outside = 0
    for _ in range(300):
        n, m = rng.randrange(1, 5), rng.randrange(0, 6)
        gens = [tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(m)]
        if rng.random() < 0.5:
            # an integer combination of the generators, sometimes nudged off the lattice
            c = [rng.randrange(-3, 4) for _ in gens]
            x = [sum(k * g[i] for k, g in zip(c, gens)) for i in range(n)]
            if rng.random() < 0.3:
                x[rng.randrange(n)] += rng.choice([1, 2, 3])
        else:
            x = [rng.randrange(-6, 7) for _ in range(n)]
        want = oracle_in_span_z(x, gens)
        for _ in range(2):
            assert in_span_z(x, gens) == want
        inside += want
        outside += not want
    assert inside >= 60 and outside >= 60


def test_cached_factors_are_immutable_tuples():
    a = ((2, 4, 4), (-6, 6, 12), (10, -4, -16))
    factors, u, v = _smith_factors(a)
    assert _smith_factors(a) is _smith_factors(a)
    s, _, _ = smith(a)
    assert factors == tuple(s[i][i] for i in range(3)) == (2, 6, 12)
    for part in (factors, u, v, *u, *v):
        assert type(part) is tuple
    with pytest.raises(TypeError):
        u[0][0] = 5
    with pytest.raises(TypeError):
        factors[0] = 1
    assert mat_mul(mat_mul(u, a), v) == s


# ---------------------------------------------------------------------------
# one Smith reduction per distinct matrix on the theorem op

THEOREM_FLEET = [
    ("A2 sc", "compact"),
    ("B3 sc", "split"),
    ("C3 ad", "split"),
    ("G2 sc", "split"),
    ("D4 sc", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    ("GL(4)", "split"),
    ("GL(3)", "compact"),
    ("A1 sc x A1 sc", [[0, 1], [1, 0]]),
]


def test_smith_runs_once_per_distinct_matrix_on_the_theorem_op(monkeypatch):
    seen = []
    real_smith = smith

    def counting(a):
        seen.append(tuple(map(tuple, a)))
        return real_smith(a)

    monkeypatch.setattr(intlinalg, "smith", counting)
    clear_all_caches()
    assert _smith_factors.cache_info().currsize == 0

    def one_pass():
        for k, (group, inner) in enumerate(THEOREM_FLEET):
            L = parse_inner_class(build_datum(group), inner)
            for i in range(20):
                p = random_param(L, Random(f"smith-count:{k}:{i}"))
                assert all(passed for _, passed, _ in verify_contragredient(p))

    one_pass()
    first = len(seen)
    assert first > 0 and len(set(seen)) == first
    assert _smith_factors.cache_info().currsize == first
    one_pass()
    assert len(seen) == first
    # the cache is a module-level functools cache, so the benchmark's cold
    # set-up (cache_clear on every such object) empties it
    clear_all_caches()
    assert _smith_factors.cache_info().currsize == 0
