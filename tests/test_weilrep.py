"""Representations of the real Weil group and the dictionary with GL(n)."""

from fractions import Fraction as Q
from random import Random

import pytest

from lparams.errors import DimensionMismatch, InputError
from lparams.gaussian import GaussQ, parse_gauss
from lparams.lgroup import lgroup_split
from lparams.lparam import make_param, params_equivalent
from lparams.rootdata import build_datum
from lparams.weilrep import (
    format_rep,
    ind_summands,
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
    r = weil_rep(ind_summands(0, Q(1, 4)))
    assert r == weil_rep([weil_chi(Q(1, 4), 0), weil_chi(Q(1, 4), 1)])
    with pytest.raises(InputError):
        weil_ind(0, Q(1, 4))


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
    assert weil_inf_char(r) == tuple(
        sorted((GaussQ(Q(-3, 2)), GaussQ(Q(1, 2)), GaussQ(Q(3, 2))),
               key=lambda z: z.sort_key()))


def test_bridge_to_gl1():
    p = weil_to_lparam(weil_rep([weil_chi(Q(3), 1)]))
    assert p.L == lgroup_split(build_datum("GL(1)"))
    assert p.lam == (GaussQ(3),)
    assert p.mu.entries == (Q(1, 2),)
    assert lparam_to_weilrep(p) == weil_rep([weil_chi(Q(3), 1)])


def test_bridge_to_gl2_induced():
    r = weil_rep([weil_ind(2, Q(1, 2))])
    p = weil_to_lparam(r)
    assert p.lam == (GaussQ(Q(3, 2)), GaussQ(Q(-1, 2)))
    assert p.w.word == (1,)
    assert p.mu.entries == (Q(1, 2), Q(0))
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
    assert parse_weil_rep("I(0,1/4)") == weil_rep(ind_summands(0, Q(1, 4)))
    assert parse_weil_rep("I(-2,0)") == weil_rep([weil_ind(2, 0)])


@pytest.mark.parametrize("bad", [
    "", "chi(1/2)", "I(2)", "chi(1,2,3)", "psi(1,0)", "chi(1,0)+",
    "I(2,1))", "chi(x,0)", "I(1/2,0)", "chi(1,3)",
])
def test_parse_rejections(bad):
    with pytest.raises(InputError):
        parse_weil_rep(bad)


def test_format_empty():
    assert format_rep(weil_rep([])) == "0"


@pytest.mark.parametrize("make", [lambda: weil_chi(0.5, 0), lambda: weil_chi(True, 0),
                                  lambda: weil_chi(0, 1.0), lambda: weil_chi(0, True),
                                  lambda: weil_chi(0, "1"), lambda: weil_ind(2.0, 0),
                                  lambda: weil_ind(True, 0), lambda: weil_ind("2", 0),
                                  lambda: weil_ind(2, 0.5), lambda: ind_summands(0.0, 0),
                                  lambda: ind_summands(False, 0)],
                         ids=["chi-float-t", "chi-bool-t", "chi-float-eps", "chi-bool-eps",
                              "chi-str-eps", "ind-float-k", "ind-bool-k", "ind-str-k",
                              "ind-float-t", "summands-float-k", "summands-bool-k"])
def test_constructors_refuse_floats_bools_and_strings_for_numbers(make):
    with pytest.raises(InputError):
        make()


def test_constructors_read_t_with_read_gauss():
    assert weil_chi("1/2+i", 1) == weil_chi(parse_gauss("1/2+i"), 1)
    assert weil_ind(-2, Q(1, 4)) == weil_ind(2, "1/4")
    assert format_rep(weil_rep([weil_chi(0, 1)])) == "chi(0,1)"
