"""The theorem op computes each value once; each shortcut against the route it replaced.

- `weyl._descend` is one loop over the real and imaginary pairings. The
  column-list descent it replaced is kept here as an oracle.
- `_params_equivalent` uses p itself when q reuses p's descent and s = e,
  with no replay of the word of u = e.
- Row 4 reads the Smith data of its lattice from a cache per (L, w).
- `torus` reads 1 - theta-check, 1 + theta-check, -theta-check and
  char_equal's lattice from a cache per involution matrix.
- A torus parameter's kappa is computed once, by its validity check.
- `format_torus_part` writes a torus part from its numerators.
"""

from fractions import Fraction as Q
from random import Random

import pytest

from lparams import lparam, torus, weyl
from lparams.gaussian import ScaledVec
from lparams.intlinalg import in_span_z, mat_neg, one_minus, transpose
from lparams.lgroup import parse_inner_class
from lparams.lparam import (
    LParam,
    _dominance_descent,
    _params_equivalent,
    _radical_egroup,
    central_chars_agree,
    central_modulus_gens,
    conjugate_param,
    params_equivalent,
    rad_char,
    rad_param,
    random_param,
    twisted_involutions,
    verify_contragredient,
)
from lparams.rootdata import build_datum, cartan_matrix, positive_roots
from lparams.tits import TorusPart, format_torus_part, torus_part_zero
from lparams.torus import param_to_char, torus_egroup
from lparams.weyl import weyl_enumerate, weyl_from_word

D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]

# the theorem_fleet and big_weyl configurations of the benchmark
FLEET = [
    ("A2 sc", "compact"),
    ("B3 sc", "split"),
    ("C3 ad", "split"),
    ("G2 sc", "split"),
    ("D4 sc", D4_SWAP),
    ("GL(4)", "split"),
    ("GL(3)", "compact"),
    ("A1 sc x A1 sc", [[0, 1], [1, 0]]),
]
BIG = [("B4 sc", "split"), ("F4 sc", "split"), ("GL(6)", "split")]
CONFIGS = FLEET + BIG
IDS = [f"{g}|{ic if isinstance(ic, str) else 'matrix'}" for g, ic in CONFIGS]


def _L(group, inner):
    return parse_inner_class(build_datum(group), inner)


# ---------------------------------------------------------------------------
# the descent

def descend_columns(d, cols):
    """The descent on a list of pairing columns, read lexicographically, that the one loop replaced."""
    a = cartan_matrix(d)
    columns = [[(j, a[j][i]) for j in range(d.nsimple) if a[j][i]] for i in range(d.nsimple)]
    steps = []
    for _ in range(len(positive_roots(d)) + 1):
        for i in range(d.nsimple):
            for col in cols:
                if col[i]:
                    break
            if col[i] < 0:
                break
        else:
            return steps
        vals = tuple(col[i] for col in cols)
        steps.append((i + 1, vals))
        for j, c in columns[i]:
            for col, x in zip(cols, vals):
                col[j] -= c * x
    raise RuntimeError("descent did not terminate")


def _points(d, rng, count):
    """Seeded (re, im) pairings: small entries, so zero real parts and ties are common."""
    n = d.nsimple
    for k in range(count):
        re = [rng.randrange(-2, 3) for _ in range(n)]
        if k % 4 == 0:
            re = [0] * n  # the imaginary parts alone decide
        elif k % 4 == 1:
            re = [rng.choice([0, re[0]]) for _ in range(n)]  # ties
        im = [rng.randrange(-2, 3) for _ in range(n)] if k % 3 else [0] * n
        yield re, im


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_one_loop_descent_matches_column_oracle(group, inner):
    d = build_datum(group)
    rng = Random(f"descent:{group}")
    zero_real = 0
    for re, im in _points(d, rng, 200):
        cols = [list(re), list(im)]
        want = descend_columns(d, cols)
        got = weyl._descend(d, re, im)
        assert [(i, (a, b)) for i, a, b in got] == want
        assert [re, im] == cols
        zero_real += any(not a for _, a, _ in got)
    assert zero_real  # some step was decided by its imaginary part


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_one_loop_descent_on_real_keys(group, inner):
    d = build_datum(group)
    rng = Random(f"keys:{group}")
    elems = weyl_enumerate(d)
    for u in (rng.choice(elems) for _ in range(50)):
        re = list(u.key)
        steps = weyl._descend(d, re, [0] * len(re))
        assert tuple(i for i, _, _ in steps) == u.word
        # the real key was one column; its imaginary parts stay zero
        assert [(i, (a,)) for i, a, b in steps if not b] == descend_columns(d, [list(u.key)])
        assert re == [1] * d.nsimple


def test_word_path_past_256_roots_matches_column_oracle(cold):
    d = build_datum(" x ".join(["GL(9)"] * 8))
    assert len(positive_roots(d)) > 256
    rng = Random("deep-words")
    for _ in range(20):
        u = weyl_from_word(d, [rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(300))])
        assert u.word == tuple(i for i, _ in descend_columns(d, [list(u.key)]))


def test_cold_intern_of_deep_words_matches_column_oracle(cold):
    """A miss walks up to the nearest interned parent and back down, with no recursion:
    w0 of 14 x GL(9) has a word of 504 letters, each a parent not yet interned."""
    d = build_datum(" x ".join(["GL(9)"] * 14))
    w0 = weyl.longest_element(d)
    assert len(w0.word) == len(positive_roots(d)) == 504
    assert weyl._elem_from_matrix.cache_info().currsize == 505
    assert w0.word == tuple(i for i, _ in descend_columns(d, [list(w0.key)]))
    rng = Random("deep-cold-words")
    for _ in range(20):
        # each word from an empty table: its whole chain of parents is interned by one walk
        weyl._elem_from_matrix.cache_clear()
        word = [rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(600, 1200))]
        u = weyl_from_word(d, word)
        assert len(u.word) > 100
        assert weyl._elem_from_matrix.cache_info().currsize == len(u.word) + 1
        assert u.word == tuple(i for i, _ in descend_columns(d, [list(u.key)]))


# ---------------------------------------------------------------------------
# row 3: no replay of u = e

def _regular(p):
    return all(re or im for re, im in _dominance_descent(p.L.dual_datum, p.lam)[2])


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_regular_lambda_replays_no_word(monkeypatch, group, inner):
    L = _L(group, inner)
    rng = Random(f"replay:{group}")
    params = [p for p in (random_param(L, rng) for _ in range(6)) if _regular(p)]
    assert params
    calls = []
    replay = lparam.weyl_from_word
    monkeypatch.setattr(lparam, "weyl_from_word", lambda *a: calls.append(a) or replay(*a))
    for p in params:
        assert all(ok for _, ok, _ in verify_contragredient(p))
    assert calls == []


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_conjugates_at_regular_lambda_are_equivalent(group, inner):
    # q has another lambda, so it pays its own descent and s = e still replays y x^-1
    L = _L(group, inner)
    d = L.dual_datum
    rng = Random(f"conjugates:{group}")
    elems = weyl_enumerate(d)[1:]
    for _ in range(4):
        p = random_param(L, rng)
        q = conjugate_param(p, rng.choice(elems))
        assert params_equivalent(p, q)
        assert _params_equivalent(p, q, _dominance_descent(d, p.lam))


# ---------------------------------------------------------------------------
# row 4: the lattice per (L, w)

def oracle_modulus_gens(L, w):
    """Simple coroots and the columns of 1 - theta and 1 + theta, from a fresh theta."""
    theta = lparam._involution(L, w).theta
    return ([tuple(c) for c in L.dual_datum.simple_coroots]
            + list(transpose(one_minus(theta))) + list(transpose(one_minus(mat_neg(theta)))))


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_cached_row_4_matches_in_span_z(group, inner):
    L = _L(group, inner)
    n = L.dual_datum.rank
    rng = Random(f"row4:{group}")
    zero = ScaledVec([0] * n, [0] * n, 1)
    verdicts = set()
    for w in twisted_involutions(L):
        # row 4 reads only L and w
        p = LParam(L, zero, torus_part_zero(n), w)
        gens = central_modulus_gens(p)
        assert sorted(gens) == sorted(oracle_modulus_gens(L, w))
        for k in range(6):
            if k == 0:  # in the lattice
                coeffs = [rng.randrange(-2, 3) for _ in gens]
                re = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
            else:
                re = [rng.randrange(-3, 4) for _ in range(n)]
            diff = ScaledVec(re, [0] * n, rng.choice([1, 1, 1, 2]))
            t1 = ScaledVec.of([Q(rng.randrange(-5, 6), 3) for _ in range(n)])
            got = central_chars_agree(p, diff + t1, t1)
            want = diff.den == 1 and in_span_z(diff.re, gens)
            assert got == want
            assert want == (diff.den == 1 and in_span_z(diff.re, oracle_modulus_gens(L, w)))
            verdicts.add(got)
    assert verdicts == {True, False}


def test_row_4_rejects_an_integral_difference_outside_the_lattice():
    # the split GL(4) class at w = e: theta = 1, the lattice is the coroot lattice + 2Z^4
    L = _L("GL(4)", "split")
    p = LParam(L, ScaledVec.of([0] * 4), torus_part_zero(4), weyl_enumerate(L.dual_datum)[0])
    zero = ScaledVec.of([0] * 4)
    assert not central_chars_agree(p, ScaledVec.of([1, 0, 0, 0]), zero)
    assert central_chars_agree(p, ScaledVec.of([1, -1, 0, 0]), zero)
    assert central_chars_agree(p, ScaledVec.of([2, 0, 0, 0]), zero)


# ---------------------------------------------------------------------------
# torus: matrices per involution, kappa once per parameter

def _fresh(m):
    lattice = one_minus(m)
    return lattice, one_minus(mat_neg(m)), mat_neg(m), transpose(lattice)


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_cached_torus_matrices_match_fresh(group, inner, cold):
    L = _L(group, inner)
    for w in twisted_involutions(L):
        theta = lparam._involution(L, w).theta
        tc = _radical_egroup(L, w)[1].theta_check
        for m in (theta, tc, mat_neg(theta), mat_neg(tc)):
            assert torus._matrices(m) == _fresh(m)
            assert torus._matrices(m) is torus._matrices(tuple(map(tuple, m)))


def test_cached_torus_matrices_on_small_egroups():
    for tc in [((1,),), ((-1,),), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ()]:
        eg = torus_egroup(tc, [0] * len(tc))
        assert torus._matrices(eg.theta_check) == _fresh(eg.theta_check)


@pytest.mark.parametrize("group,inner", [("GL(4)", "split"), ("GL(3)", "compact"),
                                         ("GL(6)", "split"), ("F4 sc", "split")])
def test_kappa_once_per_torus_parameter(monkeypatch, group, inner):
    L = _L(group, inner)
    rng = Random(f"kappa:{group}")
    calls = []
    kappa = torus._kappa
    monkeypatch.setattr(torus, "_kappa", lambda *a: calls.append(a) or kappa(*a))
    for _ in range(4):
        p = random_param(L, rng)
        calls.clear()
        assert rad_char(p) == param_to_char(rad_param(p))
        # rad_char: one kappa; then rad_param's check and param_to_char's own
        assert len(calls) == 3
        calls.clear()
        assert all(ok for _, ok, _ in verify_contragredient(p))
        # row 2: rad(C), rad(p) and the dual's parameter, one kappa each
        assert len(calls) == 3


# ---------------------------------------------------------------------------
# the torus-part text writer

def test_format_torus_part_matches_fraction_text():
    rng = Random("torus-part-text")
    for den in range(1, 13):
        for _ in range(40):
            t = TorusPart.scaled([rng.randrange(-3 * den, 3 * den) for _ in range(rng.randrange(6))],
                                 den)
            assert format_torus_part(t) == [str(x) for x in t.entries]
    assert format_torus_part(TorusPart.scaled([1, 2, 3], 4)) == ["1/4", "1/2", "3/4"]
    assert format_torus_part(torus_part_zero(2)) == ["0", "0"]
