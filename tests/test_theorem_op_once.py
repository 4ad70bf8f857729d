"""The theorem op computes each value once; each shortcut against the route it replaced.

- `weyl._descend` is one loop over the real and imaginary pairings. The
  column-list descent it replaced is kept here as an oracle.
- `_params_equivalent` uses p itself when q reuses p's descent and s = e,
  with no replay of the word of u = e.
- Row 4 reads its lattice mod 2, an xor basis, from a cache per (L, w);
  it is checked against `in_span_z`'s Smith route.
- rho_i is read off one pass over the positive coroots; the scan of all
  coroots it replaced is kept here as an oracle.
- `torus` reads 1 - theta-check, 1 + theta-check, -theta-check and
  char_equal's lattice from a cache per involution matrix.
- A torus parameter's kappa is computed once, by its validity check.
- `format_torus_part` writes a torus part from its numerators.
- A parameter keeps dif = (1 - theta)lambda, computed by the validator that
  built it; C(p) and tau(p) keep -p.dif, so the op applies no 1 - theta.
  Every constructor's dif is checked against a fresh theta, and
  `verify_by_public_route`, the op made of the public functions, is kept
  here as an oracle.
- A semisimple L has a radical torus of rank 0: `rad_param`, `rad_char` and
  row 2 read one character built per L, checked against `radical_route`,
  the projections and three torus checks they replaced. Where the rank is
  positive, row 2 still checks three torus parameters.
"""

import sys
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

from lparams import lparam, torus, weyl
from lparams.errors import InvalidParam, LparamsError, NormalizationRequired
from lparams.gaussian import ScaledVec, format_tuple, format_vec
from lparams.intlinalg import in_span_z, mat_mul, mat_neg, mat_vec, one_minus, transpose, vdot, vneg
from lparams.lgroup import parse_inner_class
from lparams.lparam import (
    LParam,
    _dominance_descent,
    _params_equivalent,
    _radical,
    central_char,
    central_chars_agree,
    conjugate_param,
    contragredient_param,
    inf_char,
    levi_of,
    make_param,
    param_from_dict,
    param_to_dict,
    params_equivalent,
    rad_char,
    rad_param,
    random_param,
    tau_twist_param,
    twisted_involutions,
    verify_contragredient,
)
from lparams.rootdata import _root_system, build_datum, cartan_matrix, coaction
from lparams.tits import TorusPart, chevalley, format_torus_part, tits_inverse, torus_part_zero
from lparams.torus import char_equal, param_to_char, torus_contragredient, torus_egroup
from lparams.weilrep import parse_weil_rep, weil_to_lparam
from lparams.weyl import longest_element, weyl_enumerate, weyl_from_word

from oracle_matrices import all_coroots, radical_route, torus_entries, vadd

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
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
    for _ in range(len(_root_system(d).roots) + 1):
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
    assert len(_root_system(d).roots) > 256
    rng = Random("deep-words")
    for _ in range(20):
        u = weyl_from_word(d, [rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(300))])
        assert u.word == tuple(i for i, _ in descend_columns(d, [list(u.key)]))


def test_cold_intern_of_deep_words_matches_column_oracle(cold):
    """A miss walks up its parents to the identity with no recursion and interns only the
    element asked for: w0 of 14 x GL(9) has a word of 504 letters, and no parent interned."""
    d = build_datum(" x ".join(["GL(9)"] * 14))
    w0 = weyl.longest_element(d)
    assert len(w0.word) == len(_root_system(d).roots) == 504
    assert weyl._elem_from_matrix.cache_info().currsize == 1
    assert w0.word == tuple(i for i, _ in descend_columns(d, [list(w0.key)]))
    rng = Random("deep-cold-words")
    for _ in range(20):
        # each word from an empty table: one walk, one element interned
        weyl._elem_from_matrix.cache_clear()
        word = [rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(600, 1200))]
        u = weyl_from_word(d, word)
        assert len(u.word) > 100
        assert weyl._elem_from_matrix.cache_info().currsize == 1
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


# CONFIGS, a compact class of type C, a product, and ten seeded twisted
# involutions of split GL(9), of its 2,620
ROW_4 = CONFIGS + [("C4 sc", "compact"), ("GL(3) x GL(3)", "split"), ("GL(9)", "split")]
ROW_4_SAMPLE = {"GL(9)": 10}


@pytest.mark.parametrize("group,inner", ROW_4,
                         ids=IDS + ["C4 sc|compact", "GL(3) x GL(3)|split", "GL(9)|split"])
def test_cached_row_4_matches_in_span_z(group, inner):
    L = _L(group, inner)
    n = L.dual_datum.rank
    rng = Random(f"row4:{group}")
    zero = ScaledVec([0] * n, [0] * n, 1)
    verdicts = set()
    ws = twisted_involutions(L)
    if group in ROW_4_SAMPLE:
        ws = rng.sample(ws, ROW_4_SAMPLE[group])
    for w in ws:
        # row 4 reads only L and w
        p = LParam(L, zero, torus_part_zero(n), w, zero)
        inv = lparam._involution(L, w)
        gens = lparam.central_modulus_gens(L.dual_datum, inv.one_minus, inv.one_plus)
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


def rho_imaginary_all_coroots(L, w):
    """rho_i by the route the one pass replaced: every coroot, sorted, tested for theta c = -c."""
    theta = lparam._involution(L, w).theta
    imag = [c for c in sorted(all_coroots(L.dual_datum)) if mat_vec(theta, c) == vneg(c)]
    n = L.dual_datum.rank
    t = 2
    while not all(vdot([t ** k for k in range(n)], c) for c in imag):
        t += 1
    total = (0,) * n
    for c in imag:
        if vdot([t ** k for k in range(n)], c) > 0:
            total = vadd(total, c)
    return ScaledVec(total, (0,) * n, 2)


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_rho_imaginary_matches_all_coroots_route(group, inner, cold):
    L = _L(group, inner)
    for w in twisted_involutions(L):
        assert lparam._involution(L, w).rho_i == rho_imaginary_all_coroots(L, w)


def test_row_4_rejects_an_integral_difference_outside_the_lattice():
    # the split GL(4) class at w = e: theta = 1, the lattice is the coroot lattice + 2Z^4
    L = _L("GL(4)", "split")
    zero = ScaledVec.of([0] * 4)
    p = LParam(L, zero, torus_part_zero(4), weyl_enumerate(L.dual_datum)[0], zero)
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
        tc = _radical(L).egroup.theta_check
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
    rank = len(_radical(L).proj)
    rng = Random(f"kappa:{group}")
    calls = []
    kappa = torus._kappa
    monkeypatch.setattr(torus, "_kappa", lambda *a: calls.append(a) or kappa(*a))
    # on rank 0 the one character is built once per L, with one kappa
    lparam._radical.cache_clear()
    lparam._radical(L)
    assert len(calls) == (0 if rank else 1)
    for _ in range(4):
        p = random_param(L, rng)
        calls.clear()
        assert rad_char(p) == param_to_char(rad_param(p))
        # rad_char: one kappa; then rad_param's check and param_to_char's own.
        # On rank 0 the first two read the cached character.
        assert len(calls) == (3 if rank else 1)
        calls.clear()
        assert all(ok for _, ok, _ in verify_contragredient(p))
        # row 2: rad(C), rad(p) and the dual's parameter, one kappa each, or none on rank 0
        assert len(calls) == (3 if rank else 0)


# ---------------------------------------------------------------------------
# the torus-part text writer

def test_format_torus_part_matches_fraction_text():
    rng = Random("torus-part-text")
    for den in range(1, 13):
        for _ in range(40):
            t = TorusPart.scaled([rng.randrange(-3 * den, 3 * den) for _ in range(rng.randrange(6))],
                                 den)
            assert format_torus_part(t) == [str(x) for x in torus_entries(t)]
    assert format_torus_part(TorusPart.scaled([1, 2, 3], 4)) == ["1/4", "1/2", "3/4"]
    assert format_torus_part(torus_part_zero(2)) == ["0", "0"]


# ---------------------------------------------------------------------------
# the theorem op against the public route

def verify_by_public_route(p):
    """verify_contragredient made of the public functions, each reading its own record.

    C(p) and tau(p) from contragredient_param and tau_twist_param, rad(C(p))
    and rad(p) each projecting its own lambda and dif, the dual built by
    torus_contragredient and read by param_to_char, both dominant points by
    inf_char, the conjugacy test by params_equivalent, and each central
    character by central_char. On a radical torus of rank 0, rad_char and
    rad_param read the character cached per L that row 2 reads too;
    radical_route checks that record by the projection route.
    """
    d = p.L.dual_datum
    cp = contragredient_param(p)
    rows = []
    want = -inf_char(p).apply(longest_element(d).matrix)
    got = inf_char(cp)
    rows.append(("inf_char negation", got == want,
                 f"inf(C)={format_tuple(got)} dominant(-inf)={format_tuple(want)}"))
    rc_c = rad_char(cp)
    rc_dual = param_to_char(torus_contragredient(rad_param(p)))
    rows.append(("rad_char dual", char_equal(rc_c, rc_dual),
                 f"kappa(C)={format_vec(rc_c.kappa)} kappa(dual)={format_vec(rc_dual.kappa)}"))
    tp = tau_twist_param(p)
    rows.append(("C-twist vs tau-twist conjugacy", params_equivalent(cp, tp),
                 f"C: mu={format_torus_part(cp.mu)} tau: mu={format_torus_part(tp.mu)}"))
    tau_c, neg_tau_p = central_char(cp), -central_char(p)
    rows.append(("central_char flip", central_chars_agree(p, tau_c, neg_tau_p),
                 f"tau(C)={format_vec(tau_c)} -tau(p)={format_vec(neg_tau_p)}"))
    return rows


def _outcome(route, p):
    """route(p)'s rows, or the class and message of the library error it raised."""
    try:
        return route(p)
    except LparamsError as exc:
        return type(exc), str(exc)


EXTRA = [("GL(7)", "split"), ("GL(7)", "compact"), ("F4 sc", "compact"), ("B4 ad", "split"),
         ("D4 sc", "compact"), ("C4 sc", "compact"), ("A3 sc", "compact"),
         ("GL(3) x GL(3)", "split"), ("B3 sc x G2 sc", "split"), ("GL(5) x GL(5)", "split")]
ROUTE_CONFIGS = CONFIGS + EXTRA
ROUTE_IDS = IDS + [f"{g}|{ic}" for g, ic in EXTRA]


def _route_params(L, count=20, zero=True):
    """count seeded parameters of L, then, if zero, lambda = 0 with mu = 0 and w = e."""
    rng = Random(f"public-route:{L.g_datum.label}")
    n = L.dual_datum.rank
    params = [random_param(L, rng) for _ in range(count)]
    return params + [make_param(L, (0,) * n, (0,) * n, [])] if zero else params


@pytest.mark.parametrize("group,inner", ROUTE_CONFIGS, ids=ROUTE_IDS)
def test_op_matches_public_route(group, inner):
    for p in _route_params(_L(group, inner)):
        rows = verify_contragredient(p)
        assert all(ok for _, ok, _ in rows), rows
        assert rows == verify_by_public_route(p), p


def test_op_matches_public_route_at_singular_lambda():
    # lambda = (1, 1, 0, -2) pairs to zero with e1 - e2; theta = 1 for w = e in the split class
    L = _L("GL(4)", "split")
    p = make_param(L, (1, 1, 0, -2), (0, 0, 0, 0), [])
    assert (0, 0) in _dominance_descent(L.dual_datum, p.lam)[2]
    rows = verify_contragredient(p)
    assert all(ok for _, ok, _ in rows), rows
    assert rows == verify_by_public_route(p)


# theta_rad swaps and negates the two radical coordinates and mu_r = (1/4, 3/4), so
# -mu_r != mu_r and (1 + theta_rad)mu_r != 0: kappa(dual) reads the sign of -proj mu
ORDER_4 = {"group": "GL(2) x GL(2)",
           "inner_class": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
           "lambda": ["11/6+3i", "-19/4-13/6i", "23/4+13/6i", "1/6-3i"],
           "mu": ["0", "1/4", "3/4", "0"], "w": []}


def test_op_matches_public_route_on_a_radical_torus_part_of_order_4():
    p = param_from_dict(ORDER_4)
    rp = rad_param(p)
    assert rp.egroup.theta_check == ((0, -1), (-1, 0))
    assert rp.mu == TorusPart.scaled([1, 3], 4)
    rows = verify_contragredient(p)
    assert all(ok for _, ok, _ in rows), rows
    assert rows == verify_by_public_route(p)


def _off_coset(f, shift):
    """f with its image's torus part moved by shift, where the image lies over the delta coset."""
    def moved(g):
        out = f(g)
        return type(out)(out.ctx, out.t + shift, out.w, out.eps) if out.eps == 1 else out
    return moved


def _shifts(n):
    """Torus parts that move mu off its coset: each e_k / 2, e_1 / 4, and (1/2, ..., 1/2)."""
    halves = [TorusPart.scaled([int(i == k) for i in range(n)], 2) for k in range(n)]
    return halves + [TorusPart.scaled([1] + [0] * (n - 1), 4), TorusPart.scaled([1] * n, 2)]


@pytest.mark.parametrize("name, original", [("chevalley", chevalley),
                                            ("tits_inverse", tits_inverse)])
@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_off_coset_twist_fails_as_on_the_public_route(monkeypatch, name, original, group, inner):
    L = _L(group, inner)
    # at lambda = 0 a twist moved off its coset is conjugate to no other, and row 3 walks all of W
    params = _route_params(L, 4, zero=len(weyl_enumerate(L.dual_datum)) <= 48)
    raised = set()
    for shift in _shifts(L.dual_datum.rank):
        monkeypatch.setattr(lparam, name, _off_coset(original, shift))
        for p in params:
            got = _outcome(verify_contragredient, p)
            assert got == _outcome(verify_by_public_route, p), (p, shift)
            if isinstance(got, tuple):
                raised.add(got[0])
    # in every configuration some shift is refused, by a twist's parity row or a radical check
    assert raised, (group, inner)


@pytest.mark.parametrize("group,inner", [("GL(3)", "compact"), ("GL(4)", "compact"),
                                         ("GL(3) x GL(3)", "compact"), ("GL(4)", "split")])
def test_kappa_off_one_plus_theta_lambda_is_refused_on_both_routes(monkeypatch, group, inner):
    # kappa moved by e_1 stays in gamma + Z^n; where the radical theta-check negates e_1,
    # (1 + theta)kappa moves by 2 e_1 and the character's test must refuse it
    kappa = torus._kappa

    def moved(dif, one_plus, mu):
        k = kappa(dif, one_plus, mu)
        return k + ScaledVec([1] + [0] * (len(k.re) - 1), [0] * len(k.re), 1) if k.re else k

    L = _L(group, inner)
    params = _route_params(L, 10)
    monkeypatch.setattr(torus, "_kappa", moved)
    refused = 0
    for p in params:
        theta_rad = _radical(L).egroup.theta_check
        got = _outcome(verify_contragredient, p)
        assert got == _outcome(verify_by_public_route, p), p
        if theta_rad[0][0] == -1:
            assert got == (InvalidParam, "(1+theta)lambda != (1+theta)kappa"), p
            refused += 1
    # the split class fixes the centre, theta_rad = 1, and no kappa can fail the test there
    assert refused == (0 if inner == "split" else len(params))


# ---------------------------------------------------------------------------
# the radical character of a semisimple L, once per L

def _radical_rank(group, inner):
    return len(_radical(_L(group, inner)).proj)


RANK_0 = [c for c in ROUTE_CONFIGS if not _radical_rank(*c)]
RANK_0_IDS = [i for c, i in zip(ROUTE_CONFIGS, ROUTE_IDS) if not _radical_rank(*c)]
# the rank-positive ROUTE_CONFIGS, groups with a T1 or GL(2) factor in both inner
# classes, and ORDER_4's parameter
RANK_POSITIVE = [c for c in ROUTE_CONFIGS if _radical_rank(*c)] + [
    ("A1 sc x T1", "split"), ("A1 sc x T1", "compact"),
    ("B2 sc x GL(2)", "split"), ("B2 sc x GL(2)", "compact"), ("GL(2) x GL(2)", "order 4")]
RANK_POSITIVE_IDS = [f"{g}|{ic}" for g, ic in RANK_POSITIVE]


def test_radical_rank_splits_route_configs():
    assert [c for c in ROUTE_CONFIGS if _radical_rank(*c)] == [
        ("GL(4)", "split"), ("GL(3)", "compact"), ("GL(6)", "split"), ("GL(7)", "split"),
        ("GL(7)", "compact"), ("GL(3) x GL(3)", "split"), ("GL(5) x GL(5)", "split")]
    assert len(RANK_0) == 14


@pytest.mark.parametrize("group,inner", RANK_0, ids=RANK_0_IDS)
def test_rank_0_radical_matches_the_projection_route(group, inner):
    L = _L(group, inner)
    empty = ScaledVec((), (), 1)
    for p in _route_params(L):
        param, char, row = radical_route(p, contragredient_param(p))
        assert param.lam == char.lam == char.kappa == empty
        assert param.mu == TorusPart.scaled((), 1)
        assert rad_param(p) == param
        assert rad_char(p) == char
        assert verify_contragredient(p)[1] == row == (
            "rad_char dual", True, "kappa(C)=[] kappa(dual)=[]")


def _counted_char_data(monkeypatch):
    calls = []
    char_data = lparam._char_data
    monkeypatch.setattr(lparam, "_char_data", lambda *a: calls.append(a) or char_data(*a))
    return calls


@pytest.mark.parametrize("group,inner", RANK_0, ids=RANK_0_IDS)
def test_rank_0_row_2_checks_no_torus_parameter(monkeypatch, group, inner):
    L = _L(group, inner)
    params = _route_params(L, 4)
    lparam._radical.cache_clear()
    calls = _counted_char_data(monkeypatch)
    for p in params:
        verify_contragredient(p)
    # the one build of the cached character; every op after it reads the record
    assert len(calls) == 1


@pytest.mark.parametrize("group,inner", RANK_POSITIVE, ids=RANK_POSITIVE_IDS)
def test_rank_positive_row_2_checks_three_torus_parameters(monkeypatch, group, inner):
    if inner == "order 4":
        params = [param_from_dict(ORDER_4)]
    else:
        params = _route_params(_L(group, inner), 4)
    assert lparam._radical(params[0].L).row is None
    calls = _counted_char_data(monkeypatch)
    for p in params:
        calls.clear()
        rows = verify_contragredient(p)
        assert len(calls) == 3
        param, char, row = radical_route(p, contragredient_param(p))
        assert rows[1] == row
        assert rad_param(p) == param
        assert rad_char(p) == char


def test_benchmark_cold_set_up_empties_the_radical_cache():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    L = _L("F4 sc", "split")
    lparam._radical(L)
    lparam._involution(L, weyl.weyl_identity(L.dual_datum))
    caches = (lparam._radical, lparam._involution, _root_system)
    assert all(c.cache_info().currsize for c in caches)
    spans.clear_caches()
    assert [c.cache_info().currsize for c in caches] == [0, 0, 0]


# ---------------------------------------------------------------------------
# the record's dif

def _fresh_dif(p):
    """(1 - theta)lambda of p, from theta = w theta0 multiplied out afresh."""
    return p.lam.apply(one_minus(mat_mul(p.w.matrix, coaction(p.L.theta0))))


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_every_constructor_keeps_one_minus_theta_lambda(group, inner):
    L = _L(group, inner)
    n = L.dual_datum.rank
    elems = weyl_enumerate(L.dual_datum)
    rng = Random(f"dif:{group}")
    reduced = 0
    for p in _route_params(L):
        built = [p, make_param(L, p.lam, p.mu, p.w), param_from_dict(param_to_dict(p)),
                 conjugate_param(p, TorusPart.scaled([rng.randrange(8) for _ in range(n)], 8)),
                 conjugate_param(p, rng.choice(elems)),
                 contragredient_param(p), tau_twist_param(p)]
        try:
            built.append(levi_of(p)[1])
            reduced += 1
        except NormalizationRequired:
            pass
        for q in built:
            assert q.dif == _fresh_dif(q), q
    assert reduced


@pytest.mark.parametrize("literal", ["chi(1/2+i,1)+I(2,-1/4+3/2i)", "I(0,1/4)", "I(-3,1/2)",
                                     "I(1,1/2)+I(2,-1/2)+I(3,i)+I(4,0)+chi(1,1)"])
def test_weil_to_lparam_keeps_one_minus_theta_lambda(literal):
    p = weil_to_lparam(parse_weil_rep(literal))
    assert p.dif == _fresh_dif(p)


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_op_applies_no_one_minus_theta(monkeypatch, group, inner):
    # each ScaledVec.apply of the op is counted, except inside a conjugation of row 3's
    # walk, which validates the conjugate afresh from its own w
    L = _L(group, inner)
    params = _route_params(L)
    applied, counting = [], [True]
    apply, conjugate = ScaledVec.apply, lparam.conjugate_param

    def counted_apply(v, m):
        if counting[0]:
            applied.append(m)
        return apply(v, m)

    def uncounted_conjugate(p, by):
        counting[0] = False
        try:
            return conjugate(p, by)
        finally:
            counting[0] = True

    monkeypatch.setattr(ScaledVec, "apply", counted_apply)
    monkeypatch.setattr(lparam, "conjugate_param", uncounted_conjugate)
    rank = len(_radical(L).proj)
    lparam._radical(L)
    for p in params:
        one_minus_theta = lparam._involution(L, p.w).one_minus
        one_minus_rad = torus._matrices(_radical(L).egroup.theta_check)[0]
        applied.clear()
        assert all(ok for _, ok, _ in verify_contragredient(p))
        # -w0 on inf(p), and the radical projection on lambda_p and on p.dif where the
        # radical torus has positive rank; on rank 0 row 2 reads the record cached per L
        assert len(applied) == (3 if rank else 1)
        assert one_minus_theta not in applied
        assert not one_minus_rad or one_minus_rad not in applied
