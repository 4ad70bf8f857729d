"""Tits group lifts, the Chevalley involution, and a signed-matrix oracle.

The oracle realizes the extended Tits group of SL(n) concretely: torus parts
exp(2*pi*i*mu) become diagonal matrices of complex units, the canonical lift
of a simple reflection becomes the usual signed permutation block, and every
abstract identity is replayed as plain matrix arithmetic.

The reduced-word row of run_tits_suite checks one edge per element; the row
it replaced, each element's max-descent word peeled and multiplied out one
letter at a time, is kept as an oracle for its failure report under broken
products. The suite walks W once; oracle_matrices.multipass_tits_suite, one
loop over a stored W per row, is compared with it row for row, with the real
product and under the broken ones.
"""

import json
import sys
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

import lparams.tits as tits
from lparams.errors import LparamsError, PreconditionViolated
from lparams.lgroup import named_inner_class
from lparams.rootdata import _root_system, based_aut, build_datum
from lparams.tits import (
    ExtTitsElem,
    TorusPart,
    chevalley,
    delta_elem,
    elem_to_dict,
    h_conjugate_to_inverse,
    run_tits_suite,
    sigma,
    tits_context,
    tits_identity,
    tits_inverse,
    tits_mul,
    torus_elem,
    torus_part,
)
from lparams.weyl import (
    longest_element,
    simple_reflection,
    weyl_enumerate,
    weyl_from_word,
    weyl_identity,
    weyl_inv,
    weyl_mul,
)
from oracle_matrices import check_titslemma, descent, multipass_tits_suite, torus_entries

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def _ctx(name):
    return tits_context(build_datum(name))


def test_simple_lift_squares_to_coroot_of_minus_one():
    ctx = _ctx("A1 sc")
    s = sigma(ctx, simple_reflection(ctx.datum, 1))
    sq = tits_mul(s, s)
    assert sq.w == weyl_identity(ctx.datum) and sq.eps == 0
    # alpha-check(-1) = exp(2 pi i * alpha-check / 2)
    assert sq.t == torus_part((Q(1, 2),))


def test_a2_braid_lifts_agree():
    ctx = _ctx("A2 sc")
    s1 = sigma(ctx, simple_reflection(ctx.datum, 1))
    s2 = sigma(ctx, simple_reflection(ctx.datum, 2))
    lhs = tits_mul(tits_mul(s1, s2), s1)
    rhs = tits_mul(tits_mul(s2, s1), s2)
    assert lhs == rhs
    # and both equal the canonical lift of w0
    assert lhs == sigma(ctx, longest_element(ctx.datum))


def test_a2_cocycle_value():
    ctx = _ctx("A2 sc")
    u = weyl_from_word(ctx.datum, [1, 2])
    v = weyl_from_word(ctx.datum, [2, 1])
    prod = tits_mul(sigma(ctx, u), sigma(ctx, v))
    # lengths do not add, so a torus correction appears
    assert prod.w == weyl_identity(ctx.datum)
    assert prod.t == torus_part((Q(0), Q(1, 2)))


def test_w0_lift_square_is_exp_rho_check():
    for name in ("A2 sc", "B2 sc", "G2 sc"):
        ctx = _ctx(name)
        s = sigma(ctx, longest_element(ctx.datum))
        sq = tits_mul(s, s)
        assert sq.w == weyl_identity(ctx.datum) and sq.eps == 0
        assert sq.t == TorusPart.scaled(_root_system(ctx.datum).two_rho_check, 2)


def test_check_titslemma_values():
    ctx = _ctx("A1 sc")
    t, pred, ok = check_titslemma(ctx, simple_reflection(ctx.datum, 1))
    assert ok and t == torus_part((Q(1, 2),))
    ctx2 = _ctx("A2 sc")
    t2, _, ok2 = check_titslemma(ctx2, weyl_from_word(ctx2.datum, [1, 2]))
    assert ok2 and t2 == torus_part((Q(0), Q(1, 2)))


def test_chevalley_is_involution_seeded():
    ctx = _ctx("B2 sc")
    rng = Random(41)
    elems = weyl_enumerate(ctx.datum)
    for _ in range(200):
        g = ExtTitsElem(
            ctx,
            torus_part([Q(rng.randrange(8), 4) for _ in range(2)]),
            rng.choice(elems),
            rng.randrange(2),
        )
        assert chevalley(chevalley(g)) == g


def test_chevalley_against_inverse_lift():
    # C(sigma_w) = sigma_{w^{-1}}^{-1} for every w; both closed forms read Tits' lemma,
    # so the product with sigma_{w^{-1}} checks them against the cocycle
    for name in ("A2 sc", "B3 sc", "G2 sc"):
        ctx = _ctx(name)
        for w in weyl_enumerate(ctx.datum):
            c = chevalley(sigma(ctx, w))
            assert c == tits_inverse(sigma(ctx, weyl_inv(w)))
            assert tits_mul(c, sigma(ctx, weyl_inv(w))) == tits_identity(ctx)


def test_chevalley_inverts_split_coset_elements():
    # split theta0 = id: if w^2 = e then C(sigma_w delta) = (sigma_w delta)^{-1}
    ctx = _ctx("A2 sc")
    for w in weyl_enumerate(ctx.datum):
        if weyl_mul(w, w) != weyl_identity(ctx.datum):
            continue
        g = tits_mul(sigma(ctx, w), delta_elem(ctx))
        assert chevalley(g) == tits_inverse(g)


def test_h_conjugate_to_inverse_witnesses():
    ctx = _ctx("A1 sc")
    g = tits_mul(sigma(ctx, simple_reflection(ctx.datum, 1)), delta_elem(ctx))
    nu = h_conjugate_to_inverse(g)
    assert nu is not None
    ctx2 = _ctx("A2 sc")
    g2 = tits_mul(
        torus_elem(ctx2, torus_part((Q(1, 3), Q(0)))),
        tits_mul(sigma(ctx2, longest_element(ctx2.datum)), delta_elem(ctx2)))
    nu2 = h_conjugate_to_inverse(g2)
    assert nu2 is not None  # the witness is re-verified inside the call


def test_h_conjugate_preconditions():
    ctx = _ctx("A2 sc")
    with pytest.raises(PreconditionViolated):
        h_conjugate_to_inverse(sigma(ctx, simple_reflection(ctx.datum, 1)))
    # w theta0(w) = (s1 s2)^2 != e, so the coset element is out of scope
    bad = tits_mul(sigma(ctx, weyl_from_word(ctx.datum, [1, 2])), delta_elem(ctx))
    with pytest.raises(PreconditionViolated):
        h_conjugate_to_inverse(bad)


def test_run_tits_suite_all_green():
    for name in ("A1 sc", "A2 sc", "B2 sc", "GL(2)"):
        rows = run_tits_suite(_ctx(name))
        assert rows and all(ok for _, ok, _ in rows), rows


def _peel_row(ctx):
    """The reduced-word row by peeling: each element's largest right descent
    taken off until e, then the lifts of the letters multiplied left to right."""
    d = ctx.datum
    elems = weyl_enumerate(d)
    bad = []
    for w in elems:
        u, letters = w, []
        while u.word:
            i = next(k for k in range(d.nsimple, 0, -1) if descent(u, k))
            letters.append(i)
            u = weyl_mul(u, simple_reflection(d, i))
        alt = tits_identity(ctx)
        for i in reversed(letters):
            alt = tits.tits_mul(alt, sigma(ctx, simple_reflection(d, i)))
        if alt != sigma(ctx, w):
            bad.append(list(w.word))
    return ("reduced-word independence", not bad,
            f"{len(elems)} elements" if not bad else f"failing words {bad}")


def _half_on_length_3(mul):
    """mul, plus 1/2 on coordinate 1 when the product lies over a length-3 element."""
    def broken(g1, g2):
        g = mul(g1, g2)
        if len(g.w.word) != 3:
            return g
        return g._replace(t=g.t + TorusPart.scaled([1] + [0] * (len(g.t.num) - 1), 2))
    return broken


def _half_after_sigma_2(mul):
    """mul, plus 1/2 (1, ..., 1) when the right factor is sigma_2 and the left
    factor's length is 1 mod 4."""
    def broken(g1, g2):
        g = mul(g1, g2)
        if len(g1.w.word) % 4 != 1 or g2 != sigma(g1.ctx, simple_reflection(g1.ctx.datum, 2)):
            return g
        return g._replace(t=g.t + TorusPart.scaled([1] * len(g.t.num), 2))
    return broken


@pytest.mark.parametrize("mutant", [_half_on_length_3, _half_after_sigma_2])
@pytest.mark.parametrize("name", ["B3 sc", "A3 sc", "G2 sc", "D4 sc"])
def test_reduced_word_row_reports_what_the_peel_does(name, mutant, monkeypatch):
    ctx = _ctx(name)
    monkeypatch.setattr(tits, "tits_mul", mutant(tits.tits_mul))
    row = run_tits_suite(ctx)[1]
    assert not row[1]
    assert row == _peel_row(ctx)


def _check_tits_fleet():
    """The (group, inner class) pairs the cli_requests benchmark runs check-tits on."""
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import CHECK_TITS
    finally:
        sys.path.remove(PERFBENCH)
    return CHECK_TITS


SUITE_CONTEXTS = list(dict.fromkeys(_check_tits_fleet() + [
    ("F4 sc", "split"), ("F4 sc", "compact"),
    ("D4 sc", json.dumps([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
    ("GL(5)", "compact"), ("A1 sc x A1 sc", json.dumps([[0, 1], [1, 0]]))]))


def _suite_ctx(group, inner):
    """The Tits context of a named group, theta0 a named inner class or a JSON matrix."""
    d = build_datum(group)
    theta0 = named_inner_class(d, inner)
    return tits_context(d, theta0 if theta0 is not None else based_aut(d, json.loads(inner)))


def _suite_outcome(suite, ctx):
    """The suite's rows, or the refusal it ends in."""
    try:
        return suite(ctx)
    except LparamsError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mutant", [None, _half_on_length_3, _half_after_sigma_2],
                         ids=["real", "half_on_length_3", "half_after_sigma_2"])
@pytest.mark.parametrize("group,inner", SUITE_CONTEXTS, ids=[f"{g}-{i}" for g, i in SUITE_CONTEXTS])
def test_one_pass_suite_matches_the_multipass_oracle(group, inner, mutant, monkeypatch):
    ctx = _suite_ctx(group, inner)
    if mutant is not None:
        monkeypatch.setattr(tits, "tits_mul", mutant(tits.tits_mul))
    assert _suite_outcome(run_tits_suite, ctx) == _suite_outcome(multipass_tits_suite, ctx)


def test_suite_makes_one_reduced_word_product_per_element(monkeypatch):
    """On F4 sc: 32 braid products, 1151 edges, 4 squares, 8 for delta sigma_i delta,
    1152 lemma products, 11 for sigma_{w0}^2 and its centrality and 1152 Chevalley
    products."""
    mul, calls = tits.tits_mul, []
    monkeypatch.setattr(tits, "tits_mul", lambda g1, g2: calls.append(1) or mul(g1, g2))
    assert all(ok for _, ok, _ in run_tits_suite(_ctx("F4 sc")))
    assert len(calls) == 3510


THETA0_ROW = 5  # "theta0 equivariance of lifts"


@pytest.mark.parametrize("group,inner,failing", [
    ("D4 sc", json.dumps([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), [[3], [4]]),
    ("A2 sc", "compact", [[1], [2]]),
    ("GL(5)", "compact", [[1], [2], [3], [4]]),
    ("A1 sc x A1 sc", json.dumps([[0, 1], [1, 0]]), [[1], [2]]),
    ("B3 sc", "split", None),
])
def test_theta0_row_alone_fails_when_delta_does_not_move_w(group, inner, failing, monkeypatch):
    """A tits_mul whose delta leaves sigma_w over w, not over theta0(w), fails the theta0
    row on its moved generators and no other row; with theta0 trivial it is harmless."""
    ctx = _suite_ctx(group, inner)
    monkeypatch.setattr(tits, "apply_aut_to_weyl", lambda a, u: u)
    rows = run_tits_suite(ctx)
    assert rows[THETA0_ROW][0] == "theta0 equivariance of lifts"
    assert [ok for _, ok, _ in rows] == [k != THETA0_ROW or failing is None
                                         for k in range(len(rows))]
    if failing is not None:
        assert rows[THETA0_ROW][2] == f"failing words {failing}"


def test_serialization_round_trip():
    ctx = _ctx("B2 sc")
    g = tits_mul(
        torus_elem(ctx, torus_part((Q(1, 4), Q(1, 2)))),
        tits_mul(sigma(ctx, weyl_from_word(ctx.datum, [1, 2, 1])), delta_elem(ctx)))
    doc = elem_to_dict(g)
    assert doc == {"mu": ["1/4", "1/2"], "w": [1, 2, 1], "eps": 1}
    # read back through the public constructors
    back = tits_mul(torus_elem(ctx, torus_part(doc["mu"])),
                    tits_mul(sigma(ctx, weyl_from_word(ctx.datum, doc["w"])), delta_elem(ctx)))
    assert back == g


# ---------------------------------------------------------------------------
# signed-matrix oracle for SL(2) and SL(3)

def _mat_mul_c(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


_I4 = {0: 1, 1: 1j, 2: -1, 3: -1j}


def _unit(q):
    # exp(2 pi i q) for q with denominator dividing 4
    q = Q(q) % 1
    assert q.denominator in (1, 2, 4)
    return _I4[int(q * 4) % 4]


def _sl2_torus(t):
    # exp of mu alpha-check: alpha-check = diag(1, -1) direction
    c = _unit(torus_entries(t)[0])
    return ((c, 0), (0, 1 / c))


_SL2_SIGMA = ((0, 1), (-1, 0))


def _sl3_torus(t):
    # coordinates in the coroot basis: diag(c1, c2/c1, 1/c2)
    c1 = _unit(torus_entries(t)[0])
    c2 = _unit(torus_entries(t)[1])
    return ((c1, 0, 0), (0, c2 / c1, 0), (0, 0, 1 / c2))


def _sl3_sigma(i):
    if i == 1:
        return ((0, 1, 0), (-1, 0, 0), (0, 0, 1))
    return ((1, 0, 0), (0, 0, 1), (0, -1, 0))


def _embed(ctx, g, torus, sigma_i):
    m = torus(g.t)
    for i in g.w.word:
        m = _mat_mul_c(m, sigma_i(i))
    return m


@pytest.mark.parametrize("name,torus,sigma_i", [
    ("A1 sc", _sl2_torus, lambda i: _SL2_SIGMA),
    ("A2 sc", _sl3_torus, _sl3_sigma),
])
def test_signed_matrix_oracle(name, torus, sigma_i):
    ctx = _ctx(name)
    rng = Random(73)
    elems = weyl_enumerate(ctx.datum)
    rank = ctx.datum.rank
    for _ in range(150):
        g = ExtTitsElem(ctx, torus_part([Q(rng.randrange(4), 2) for _ in range(rank)]),
                        rng.choice(elems), 0)
        h = ExtTitsElem(ctx, torus_part([Q(rng.randrange(4), 2) for _ in range(rank)]),
                        rng.choice(elems), 0)
        prod = tits_mul(g, h)
        lhs = _mat_mul_c(_embed(ctx, g, torus, sigma_i),
                         _embed(ctx, h, torus, sigma_i))
        assert lhs == _embed(ctx, prod, torus, sigma_i)
