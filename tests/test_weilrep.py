"""Representations of the real Weil group and the dictionary with GL(n)."""

import re
import sys
from fractions import Fraction as Q
from random import Random

import pytest

from lparams.errors import DimensionMismatch, InputError
from lparams.gaussian import GaussQ, ScaledVec, parse_gauss
from lparams.lgroup import lgroup_compact, lgroup_split
from lparams.lparam import LParam, _involution, conjugate_param, make_param, params_equivalent
from lparams.rootdata import build_datum
from lparams.tits import torus_part
from lparams.weilrep import (
    WeilIrr,
    format_rep,
    lparam_to_weilrep,
    parse_weil_rep,
    weil_chi,
    weil_dual,
    weil_hermitian_dual,
    weil_ind,
    weil_inf_char,
    weil_is_hermitian,
    weil_is_unitary,
    weil_rep,
    weil_to_lparam,
)
from lparams.weyl import weyl_from_word

from gauss_entries import gauss_entries
from oracle_matrices import torus_entries


def _rand_rep(rng, max_dim=4, qmax=4):
    items = []
    dim = 0
    while dim < max_dim:
        re = Q(rng.randrange(-2 * qmax, 2 * qmax + 1), rng.choice([1, 2, qmax]))
        im = Q(rng.randrange(-2 * qmax, 2 * qmax + 1), rng.choice([1, 2, qmax]))
        t = GaussQ(re, im)
        if rng.randrange(2) and dim + 2 <= max_dim:
            items.append(weil_ind(rng.randrange(1, 5), t))
            dim += 2
        else:
            items.append(weil_chi(t, rng.randrange(2)))
            dim += 1
        if rng.randrange(3) == 0:
            break
    return weil_rep(items)


def test_normalization_rules():
    # negative k folds onto positive k
    assert weil_ind(-3, Q(1, 2)) == weil_ind(3, Q(1, 2))
    # k = 0 splits into the two characters at the rep level
    r = parse_weil_rep("I(0,1/4)")
    assert r == weil_rep([weil_chi(Q(1, 4), 0), weil_chi(Q(1, 4), 1)])
    with pytest.raises(InputError):
        weil_ind(0, Q(1, 4))


def test_an_eps_past_the_digit_limit_is_refused_with_its_size():
    # as for a Weyl index: repr refuses the int, so the refusal gives its size in bits
    with pytest.raises(InputError) as exc:
        weil_chi("1", 10 ** 5000)
    assert len(str(exc.value)) < 250
    if hasattr(sys, "get_int_max_str_digits"):
        assert str(exc.value) == "eps must be 0 or 1, got <int of 16610 bits>"


def test_multiset_semantics():
    a = weil_rep([weil_chi(0, 0), weil_chi(0, 0), weil_ind(2, 1)])
    b = weil_rep([weil_ind(2, 1), weil_chi(0, 0), weil_chi(0, 0)])
    assert a == b
    assert a.dim() == 4
    assert a != weil_rep([weil_chi(0, 0), weil_ind(2, 1)])


def test_dual_and_hermitian_dual():
    r = weil_rep([weil_chi(parse_gauss("1/2+3i"), 1), weil_ind(2, parse_gauss("1/4-i"))])
    d = weil_dual(r)
    assert d == weil_rep([weil_chi(parse_gauss("-1/2-3i"), 1),
                          weil_ind(2, parse_gauss("-1/4+i"))])
    h = weil_hermitian_dual(r)
    assert h == weil_rep([weil_chi(parse_gauss("-1/2+3i"), 1),
                          weil_ind(2, parse_gauss("-1/4-i"))])
    # both are involutions and they commute
    rng = Random(91)
    for _ in range(200):
        x = _rand_rep(rng)
        assert weil_dual(weil_dual(x)) == x
        assert weil_hermitian_dual(weil_hermitian_dual(x)) == x
        assert weil_dual(weil_hermitian_dual(x)) == weil_hermitian_dual(weil_dual(x))


def _conj_rep(x):
    out = []
    for s in x.summands:
        tc = GaussQ(s.t.re, -s.t.im)
        out.append(weil_chi(tc, s.eps) if s.kind == "chi" else weil_ind(s.k, tc))
    return weil_rep(out)


def test_dual_equals_hermitian_dual_iff_conj_stable():
    # hermitian dual = dual of the conjugate, so the two duals agree exactly
    # on conjugation-stable multisets (not only on all-real ones)
    rng = Random(92)
    for _ in range(200):
        x = _rand_rep(rng)
        assert (weil_dual(x) == weil_hermitian_dual(x)) == (_conj_rep(x) == x)
    pair = weil_rep([weil_chi(parse_gauss("1/2+i"), 0),
                     weil_chi(parse_gauss("1/2-i"), 0)])
    assert weil_dual(pair) == weil_hermitian_dual(pair)
    lone = weil_rep([weil_chi(parse_gauss("1/2+i"), 0)])
    assert weil_dual(lone) != weil_hermitian_dual(lone)


def test_unitary_implies_hermitian():
    rng = Random(93)
    seen_unitary = 0
    for _ in range(300):
        x = _rand_rep(rng)
        if weil_is_unitary(x):
            seen_unitary += 1
            assert weil_is_hermitian(x)
    # imaginary-only exponents do appear in the sample
    assert seen_unitary > 0


def test_inf_char_multiset():
    r = weil_rep([weil_chi(Q(1, 2), 0), weil_ind(3, 0)])
    assert weil_inf_char(r) == ScaledVec.of(
        sorted((GaussQ(Q(-3, 2)), GaussQ(Q(1, 2)), GaussQ(Q(3, 2))),
               key=lambda z: (z.re, z.im)))


def test_bridge_to_gl1():
    p = weil_to_lparam(weil_rep([weil_chi(Q(3), 1)]))
    assert p.L == lgroup_split(build_datum("GL(1)"))
    assert p.lam == ScaledVec.of([3])
    assert torus_entries(p.mu) == (Q(1, 2),)
    assert lparam_to_weilrep(p) == weil_rep([weil_chi(Q(3), 1)])


def test_bridge_to_gl2_induced():
    r = weil_rep([weil_ind(2, Q(1, 2))])
    p = weil_to_lparam(r)
    assert p.lam == ScaledVec.of([Q(3, 2), Q(-1, 2)])
    assert p.w.word == (1,)
    assert torus_entries(p.mu) == (Q(1, 2), Q(0))
    assert lparam_to_weilrep(p) == r


def test_bridge_dimension_check():
    with pytest.raises(DimensionMismatch):
        weil_to_lparam(weil_rep([weil_chi(0, 0)]), n=2)


def test_bridge_round_trip_seeded():
    rng = Random(94)
    for _ in range(150):
        r = _rand_rep(rng)
        if r.dim() == 0:
            continue
        assert lparam_to_weilrep(weil_to_lparam(r)) == r


def test_bridge_respects_equivalence():
    # the same rep written in two orders gives equivalent parameters
    r1 = weil_to_lparam(weil_rep([weil_chi(1, 0), weil_ind(2, 0)]))
    hand = make_param(lgroup_split(build_datum("GL(3)")),
                      (1, 1, -1), (0, Q(1, 2), 0), [2])
    assert params_equivalent(r1, hand)


def test_split_zero_k_collapse():
    # I(0,t) written as a w-swap block is equivalent to the two characters
    L = lgroup_split(build_datum("GL(2)"))
    swapped = make_param(L, (Q(1, 4), Q(1, 4)), (Q(1, 2), 0), [1])
    assert lparam_to_weilrep(swapped) == weil_rep(
        [weil_chi(Q(1, 4), 0), weil_chi(Q(1, 4), 1)])


def test_parse_and_format():
    r = parse_weil_rep("chi(1/2,1) + I(2,-1/4+i)")
    assert r == weil_rep([weil_chi(Q(1, 2), 1), weil_ind(2, parse_gauss("-1/4+i"))])
    assert parse_weil_rep(format_rep(r)) == r
    assert parse_weil_rep("I(0,1/4)+I(0,-i)") == weil_rep(
        [weil_chi(Q(1, 4), 0), weil_chi(Q(1, 4), 1), weil_chi("-i", 1), weil_chi("-i", 0)])
    assert parse_weil_rep("I(-2,0)") == weil_rep([weil_ind(2, 0)])


@pytest.mark.parametrize("bad", [
    "", "chi(1/2)", "I(2)", "chi(1,2,3)", "psi(1,0)", "chi(1,0)+",
    "I(2,1))", "chi(x,0)", "I(1/2,0)", "chi(1,3)",
])
def test_parse_rejections(bad):
    with pytest.raises(InputError):
        parse_weil_rep(bad)


@pytest.mark.parametrize("text, message", [
    ("", "empty rep literal"),
    ("I(2,1))", "unbalanced parentheses in 'I(2,1))'"),
    ("chi(1,0)+x", "bad rep term: 'x'"),
    ("psi(1,0)", "unknown rep term 'psi' in 'psi(1,0)'"),
    ("chi(1/2)", "chi needs (t,eps): 'chi(1/2)'"),
    ("I(2)", "I needs (k,t): 'I(2)'"),
    ("chi(1,x)", "bad eps in 'chi(1,x)'"),
    ("I(x,1)", "bad k in 'I(x,1)'"),
    ("chi(1/0,3)", "bad exponent in 'chi(1/0,3)'"),  # the exponent is read before eps is checked
    ("I(0,2+/3i)", "bad exponent in 'I(0,2+/3i)'"),
    ("chi(1,3)", "eps must be 0 or 1, got 3"),
])
def test_parse_messages(text, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse_weil_rep(text)


def _rand_numeral(rng, signed=True):
    """A numeral, often not in lowest terms."""
    n = rng.randrange(-6 if signed else 0, 7)
    d = rng.choice([1, 2, 3, 4, 6])
    return str(n) if d == 1 and rng.randrange(2) else f"{n}/{d}"


def _rand_exponent(rng):
    a, b, sign = _rand_numeral(rng), _rand_numeral(rng, False), rng.choice("+-")
    return rng.choice([a, f"{a}{sign}{b}i", f"{a}{sign}i", f"{sign}{b}i", f"{b}i", "i"])


def test_parse_matches_gauss_reference():
    # literals with unreduced numerals, spaces and I(0,t) against irreducibles built by hand
    rng = Random(96)
    for _ in range(300):
        terms, irrs = [], []
        for _ in range(rng.randrange(1, 5)):
            t = _rand_exponent(rng)
            if rng.randrange(2):
                eps = rng.randrange(2)
                terms.append(f"chi({t}, {eps})")
                irrs.append(WeilIrr("chi", parse_gauss(t), eps=eps))
            else:
                k = rng.randrange(-3, 4)
                terms.append(f"I({k},{t})")
                irrs.extend([WeilIrr("ind", parse_gauss(t), k=abs(k))] if k else
                            [WeilIrr("chi", parse_gauss(t), eps=e) for e in (0, 1)])
        r = parse_weil_rep(" + ".join(terms))
        assert r == weil_rep(irrs)
        assert r.summands == _oracle_sorted(irrs)


def test_format_empty():
    assert format_rep(weil_rep([])) == "0"


@pytest.mark.parametrize("make", [lambda: weil_chi(0.5, 0), lambda: weil_chi(True, 0),
                                  lambda: weil_chi(0, 1.0), lambda: weil_chi(0, True),
                                  lambda: weil_chi(0, "1"), lambda: weil_ind(2.0, 0),
                                  lambda: weil_ind(True, 0), lambda: weil_ind("2", 0),
                                  lambda: weil_ind(2, 0.5)],
                         ids=["chi-float-t", "chi-bool-t", "chi-float-eps", "chi-bool-eps",
                              "chi-str-eps", "ind-float-k", "ind-bool-k", "ind-str-k",
                              "ind-float-t"])
def test_constructors_refuse_floats_bools_and_strings_for_numbers(make):
    with pytest.raises(InputError):
        make()


def test_constructors_read_t_with_read_gauss():
    assert weil_chi("1/2+i", 1) == weil_chi(parse_gauss("1/2+i"), 1)
    assert weil_ind(-2, Q(1, 4)) == weil_ind(2, "1/4")
    assert format_rep(weil_rep([weil_chi(0, 1)])) == "chi(0,1)"


# ---------------------------------------------------------------------------
# a test-only reference in GaussQ arithmetic for the integer representation

def _oracle_sorted(irrs):
    return tuple(sorted(irrs, key=lambda a: (a.kind == "ind", a.k, a.t.re, a.t.im, a.eps)))


def _oracle_map(r, f):
    return _oracle_sorted(WeilIrr(s.kind, f(s.t), s.eps, s.k) for s in r.summands)


def _oracle_lam(r):
    """lambda in block order: t per character, (t + k/2, t - k/2) per induced."""
    out = []
    for s in r.summands:
        if s.kind == "chi":
            out.append(s.t)
        else:
            out.extend((s.t + Q(s.k, 2), s.t - Q(s.k, 2)))
    return tuple(out)


def _oracle_weilrep(p):
    """Fixed coordinates are characters; a 2-cycle is I(difference, midpoint)."""
    lam, mu, m = gauss_entries(p.lam), torus_entries(p.mu), p.w.matrix
    n = len(lam)
    img = [next(r for r in range(n) if m[r][i]) for i in range(n)]
    out = []
    for i, j in enumerate(img):
        if j == i:
            out.append(WeilIrr("chi", lam[i], eps=int(2 * mu[i]) % 2))
        elif j > i:
            dif, mid = lam[i] - lam[j], (lam[i] + lam[j]) * Q(1, 2)
            assert dif.im == 0 and dif.re.denominator == 1
            if dif.re:
                out.append(WeilIrr("ind", mid, k=abs(int(dif.re))))
            else:
                out.extend((WeilIrr("chi", mid, eps=0), WeilIrr("chi", mid, eps=1)))
    return _oracle_sorted(out)


def test_integer_weilrep_matches_gauss_reference():
    rng = Random(95)
    for _ in range(300):
        r = _rand_rep(rng)
        assert r.summands == _oracle_sorted(r.summands)
        assert weil_dual(r).summands == _oracle_map(r, lambda t: -t)
        assert weil_hermitian_dual(r).summands == _oracle_map(r, lambda t: GaussQ(-t.re, t.im))
        assert weil_inf_char(r) == ScaledVec.of(sorted(_oracle_lam(r), key=lambda z: (z.re, z.im)))
        if r.dim() == 0:
            continue
        p = weil_to_lparam(r)
        assert p.lam == ScaledVec.of(_oracle_lam(r))
        assert lparam_to_weilrep(p).summands == _oracle_weilrep(p) == r.summands
        # a conjugate moves the blocks to other coordinates and 2-cycles
        u = weyl_from_word(p.L.dual_datum, [rng.randrange(1, r.dim()) for _ in range(3)]
                           if r.dim() > 1 else [])
        q = conjugate_param(p, u)
        assert lparam_to_weilrep(q).summands == _oracle_weilrep(q)


def test_split_zero_k_matches_gauss_reference():
    L = lgroup_split(build_datum("GL(3)"))
    p = make_param(L, ("1/4+i", 2, "1/4+i"), (Q(1, 2), Q(1, 2), Q(1, 2)), [1, 2, 1])
    assert lparam_to_weilrep(p).summands == _oracle_weilrep(p)
    assert format_rep(lparam_to_weilrep(p)) == "chi(1/4+1i,0)+chi(1/4+1i,1)+chi(2,1)"


def _raw_param(group, lam, mu, word, compact=False):
    """An LParam built without make_param's validity checks."""
    d = build_datum(group)
    L = (lgroup_compact if compact else lgroup_split)(d)
    lam, w = ScaledVec.of(lam), weyl_from_word(L.dual_datum, word)
    return LParam(L, lam, torus_part(mu), w, lam.apply(_involution(L, w).one_minus))


@pytest.mark.parametrize("p, message", [
    (_raw_param("GL(2)", (0, 0), (0, 0), [], compact=True), "bridge needs the split inner class"),
    (_raw_param("A1 sc", (0,), (0,), []), "bridge needs a GL(n) datum, got 'A1 ad'"),
    (_raw_param("GL(2)", (0, 0), ("1/4", 0), []), "mu-entry of a fixed coordinate"),
    (_raw_param("GL(2)", ("1/2", 0), (0, 0), [1]), "lambda-entries of a 2-cycle"),
    (_raw_param("GL(2)", ("i", 0), (0, 0), [1]), "lambda-entries of a 2-cycle"),
    (_raw_param("GL(3)", (2, 1, 0), (0, 0, 0), [1, 2]), "w-part is not an involution"),
], ids=["compact", "not-gl", "mu-quarter", "lambda-half", "lambda-imaginary", "three-cycle"])
def test_bridge_refusals_raise(p, message):
    # raised by the bridge itself, so python -O keeps them
    with pytest.raises(InputError, match=re.escape(message)):
        lparam_to_weilrep(p)
