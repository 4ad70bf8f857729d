"""Exact integer/rational linear algebra: Smith form, congruences, lattices."""

import importlib
from fractions import Fraction as Q
from math import gcd
from random import Random

import pytest

import lparams.intlinalg as intlinalg
from lparams.intlinalg import (
    _smith_factors,
    descend_map,
    determinant,
    ident,
    in_span_z,
    mat_inv_q,
    mat_inv_z,
    mat_mul,
    mat_vec,
    saturation_projection,
    smith,
    solve_congruence,
    solve_congruence_scaled,
    transpose,
    vdot,
    vsub,
)
from lparams.lgroup import parse_inner_class
from lparams.lparam import random_param, verify_contragredient
from lparams.rootdata import build_datum


def _rand_mat(rng, n, lo=-5, hi=6):
    return tuple(tuple(rng.randrange(lo, hi) for _ in range(n)) for _ in range(n))


def test_determinant_and_inverse_seeded():
    rng = Random(31)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = _rand_mat(rng, n)
        d = determinant(m)
        if d == 0:
            continue
        inv = mat_inv_q(m)
        assert mat_mul(m, inv) == tuple(tuple(Q(x) for x in row) for row in ident(n))


def test_mat_inv_z_unimodular_only():
    assert mat_inv_z(((1, 1), (0, 1))) == ((1, -1), (0, 1))
    with pytest.raises(ValueError):
        mat_inv_z(((2, 0), (0, 1)))


def test_smith_invariants_seeded():
    rng = Random(7)
    for _ in range(80):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = tuple(tuple(rng.randrange(-6, 7) for _ in range(cols)) for _ in range(rows))
        s, u, v = smith(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0) or (x == 0 and y == 0)


def test_smith_rejects_nonintegral():
    with pytest.raises(ValueError):
        smith(((Q(1, 2),),))


def test_solve_congruence_integer_matrix():
    # (1-theta) for theta = -1 on Z: solve 2x = 1 mod Z
    x = solve_congruence(((2,),), (Q(1),))
    assert x is not None and (2 * x[0] - 1).denominator == 1
    # no solution: 0*x = 1/2 mod Z
    assert solve_congruence(((0,),), (Q(1, 2),)) is None


def test_solve_congruence_rational_matrix():
    # a row pattern that truncation used to mangle: x1 = 1/2 mod Z forces
    # x1 odd over 2, while -x1/2 = 0 mod Z forces x1 in 2Z; no solution
    a = ((Q(1), Q(0)), (Q(-1, 2), Q(0)))
    assert solve_congruence(a, (Q(1, 2), Q(0))) is None
    # solvable rational system, verified by residual
    a2 = ((Q(1, 2), Q(0)), (Q(0), Q(1, 3)))
    d = (Q(1, 4), Q(1, 6))
    x = solve_congruence(a2, d)
    assert x is not None
    res = vsub(mat_vec(a2, x), d)
    assert all(r.denominator == 1 for r in res)


def test_solve_congruence_seeded_rational():
    rng = Random(97)
    hits = 0
    for _ in range(300):
        n = rng.randrange(1, 4)
        a = tuple(tuple(Q(rng.randrange(-4, 5), rng.choice([1, 2, 2, 3])) for _ in range(n))
                  for _ in range(n))
        d = tuple(Q(rng.randrange(-6, 7), rng.choice([1, 2, 4])) for _ in range(n))
        x = solve_congruence(a, d)
        if x is None:
            continue
        hits += 1
        res = vsub(mat_vec(a, x), d)
        assert all(r.denominator == 1 for r in res)
    assert hits > 100


def test_in_span_z():
    gens = [(2, 0), (0, 3)]
    assert in_span_z((4, -3), gens)
    assert not in_span_z((1, 0), gens)
    assert not in_span_z((Q(1, 2), 0), gens)
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
        solve_congruence(((2,),), (Q(1), Q(1, 2)))


def test_solve_congruence_refuses_a_shorter_right_hand_side():
    # the second row used to be dropped from the answer
    with pytest.raises(ValueError):
        solve_congruence(((1, 0), (0, 0)), (Q(1, 2),))


def test_in_span_z_refuses_longer_generators():
    with pytest.raises(ValueError):
        in_span_z((0,), [(0, 1)])


def test_in_span_z_refuses_shorter_generators():
    # used to raise a bare IndexError
    with pytest.raises(ValueError):
        in_span_z((0, 1), [(1,)])


def test_scaled_solve_and_smith_refuse_bad_shapes():
    with pytest.raises(ValueError):
        solve_congruence_scaled(((2,),), (1, 1), 2)
    with pytest.raises(ValueError):
        solve_congruence_scaled(((1, 0), (0, 0)), (1,), 2)
    with pytest.raises(ValueError):
        solve_congruence_scaled(((2,),), (1,), 0)
    with pytest.raises(ValueError):
        smith(((1, 0), (1,)))
    with pytest.raises(ValueError):
        saturation_projection([(1, 0)], 3)


# ---------------------------------------------------------------------------
# the uncached, Fraction-valued solvers the cached path replaced, as oracles

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
    s, u, v = smith(a)
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
            assert solve_congruence(a, d) == want
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
                x[rng.randrange(n)] += Q(1, rng.choice([1, 2, 3]))
        else:
            x = [Q(rng.randrange(-6, 7), rng.choice([1, 1, 2])) for _ in range(n)]
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


def _clear_all_caches():
    """Empty every functools cache held by a module-level name of lparams, as the benchmark does."""
    for name in ("gaussian", "intlinalg", "rootdata", "weyl", "tits", "torus", "lgroup",
                 "lparam", "weilrep", "cli"):
        for obj in list(vars(importlib.import_module(f"lparams.{name}")).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_smith_runs_once_per_distinct_matrix_on_the_theorem_op(monkeypatch):
    seen = []
    real_smith = smith

    def counting(a):
        seen.append(tuple(map(tuple, a)))
        return real_smith(a)

    monkeypatch.setattr(intlinalg, "smith", counting)
    _clear_all_caches()
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
    _clear_all_caches()
    assert _smith_factors.cache_info().currsize == 0
