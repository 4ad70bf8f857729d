"""The parity cocycle, the closed-form inverse and Chevalley involution, and
the integer torus-part arithmetic.

`tits_mul` reads the cocycle off cached inversion-set parity masks, and
`tits_inverse` and `chevalley` are closed forms from Tits' lemma. Kept here as
test-only oracles: the letter-by-letter reduction over Fractions, the cached
exchange-step walk with the product built on it, the inverse and the
Chevalley involution defined through that product, the old normalisation of a
torus entry, and the old Fraction arithmetic on torus parts (sum, negation,
transport by a matrix).
"""

from fractions import Fraction as Q
from functools import cache
from math import gcd
from random import Random

import pytest

from lparams.errors import ContextMismatch, InputError
from lparams.intlinalg import mat_vec, saturation_projection
from lparams.lgroup import lgroup_tits_context, parse_inner_class
from lparams.rootdata import build_datum, coaction
from lparams.tits import (
    ExtTitsElem,
    TorusPart,
    act_on_torus_part,
    chevalley,
    delta_elem,
    sigma,
    tits_context,
    tits_inverse,
    tits_mul,
    torus_elem,
    torus_part_zero,
)
from lparams.weyl import (
    apply_aut_to_weyl,
    simple_reflection,
    weyl_act,
    weyl_enumerate,
    weyl_identity,
    weyl_inv,
    weyl_mul,
)
from oracle_matrices import descent, torus_entries, vadd

A1A1_SWAP = [[0, 1], [1, 0]]
D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]

# the inner classes of the theorem benchmark, (group, inner class)
FLEET = [
    ("A2 sc", "compact"),
    ("B3 sc", "split"),
    ("C3 ad", "split"),
    ("G2 sc", "split"),
    ("D4 sc", D4_SWAP),
    ("GL(4)", "split"),
    ("GL(3)", "compact"),
    ("A1 sc x A1 sc", A1A1_SWAP),
]


def _oracle_cocycle(u, v):
    """sigma_u * sigma_v = exp(2*pi*i*c) * sigma_{uv}, one Fraction vector step per letter."""
    d = u.datum
    c = (Q(0),) * d.rank
    acc = u
    for a in v.word:
        if descent(acc, a):
            y = weyl_mul(acc, simple_reflection(d, a))
            c = vadd(c, weyl_act(y, tuple(Q(x, 2) for x in d.simple_coroots[a - 1])))
            acc = y
        else:
            acc = weyl_mul(acc, simple_reflection(d, a))
    return TorusPart(c), acc


def _cocycle(ctx, u, v):
    """(c, uv) read off the product sigma_u sigma_v = exp(2*pi*i*c) sigma_{uv}."""
    g = tits_mul(sigma(ctx, u), sigma(ctx, v))
    return g.t, g.w


def _oracle_mod_one(x):
    return Q(x) - (Q(x).numerator // Q(x).denominator)


def _same(got, want):
    assert got == want
    assert torus_entries(got[0]) == torus_entries(want[0])
    assert all(type(x) is Q for x in torus_entries(got[0]))


@pytest.mark.parametrize("group", ["A3 sc", "B3 sc", "G2 sc", "GL(3)", "A1 sc x A1 sc"])
def test_cocycle_matches_oracle_on_every_pair(group):
    ctx = tits_context(build_datum(group))
    elems = weyl_enumerate(ctx.datum)
    for u in elems:
        for v in elems:
            _same(_cocycle(ctx, u, v), _oracle_cocycle(u, v))


@pytest.mark.parametrize("group", ["F4 sc", "B4 sc", "D4 sc", "GL(5)"])
def test_cocycle_matches_oracle_on_seeded_pairs(group):
    ctx = tits_context(build_datum(group))
    elems = weyl_enumerate(ctx.datum)
    rng = Random(f"cocycle:{group}")
    for _ in range(2000):
        u, v = rng.choice(elems), rng.choice(elems)
        _same(_cocycle(ctx, u, v), _oracle_cocycle(u, v))


def test_torus_part_normalisation_matches_oracle():
    rng = Random(4)
    values = [0, 1, -1, 7, -7, Q(0), Q(1, 2), Q(3, 4), Q(-1, 2), Q(-9, 4), Q(5, 3), Q(-6, 3)]
    for _ in range(500):
        den = rng.choice([1, 2, 3, 4, 6, 12])
        values.append(Q(rng.randrange(-5 * den, 5 * den + 1), den))
    values += [str(x) for x in values] + ["-0", "10/4", "-10/4"]
    for x in values:
        (got,) = torus_entries(TorusPart((x,)))
        assert type(got) is Q
        assert got == _oracle_mod_one(x) and 0 <= got < 1, x


def _oracle_add(a, b):
    return tuple(_oracle_mod_one(x + y) for x, y in zip(a, b))


def _oracle_neg(a):
    return tuple(_oracle_mod_one(-x) for x in a)


def _oracle_act(matrix, a):
    return tuple(_oracle_mod_one(x) for x in mat_vec(matrix, a))


def _assert_normal(t, want):
    """t is in normal form and its entries equal the oracle's Fractions."""
    assert t.den >= 1 and all(0 <= x < t.den for x in t.num)
    assert gcd(t.den, *t.num) == 1
    assert (t.den == 1) == all(x == 0 for x in want)
    assert torus_entries(t) == want
    assert all(type(x) is Q for x in torus_entries(t))


def _draw(rng, n):
    den = rng.choice([1, 2, 3, 4, 6, 8, 12])
    return tuple(Q(rng.randrange(-3 * den, 3 * den + 1), den) for _ in range(n))


def test_torus_part_normal_form():
    assert (TorusPart(()).num, TorusPart(()).den) == ((), 1)
    cases = [((0, 0), ((0, 0), 1)), ((3, -2), ((0, 0), 1)), ((Q(1, 2), Q(3, 2)), ((1, 1), 2)),
             ((Q(-1, 4), Q(1, 2)), ((3, 2), 4)), (("2/6", "-5/3"), ((1, 1), 3)),
             ((Q(3, 4), Q(1, 6)), ((9, 2), 12))]
    for entries, (num, den) in cases:
        t = TorusPart(entries)
        assert (t.num, t.den) == (num, den), entries
        _assert_normal(t, tuple(_oracle_mod_one(x) for x in entries))
    assert TorusPart.scaled((4, -6, 8), 8) == TorusPart((Q(1, 2), Q(1, 4), 0))
    assert hash(TorusPart((Q(1, 2),))) == hash(TorusPart.scaled((3,), 2))


@pytest.mark.parametrize("bad", [["0.5"], [0.5], [True], [None], [Q(1, 2), 1.0]])
def test_torus_part_refuses_what_read_rational_refuses(bad):
    with pytest.raises(InputError):
        TorusPart(bad)


def test_products_compare_contexts_by_value():
    d = build_datum("A2 sc")
    ctx, twin = tits_context(d), tits_context(d)
    assert ctx is not twin and ctx == twin
    s1, s2 = sigma(ctx, simple_reflection(d, 1)), simple_reflection(d, 2)
    assert tits_mul(s1, sigma(twin, s2)) == tits_mul(s1, sigma(ctx, s2))
    # the same datum with another theta0, and another datum of the same rank
    for other in (lgroup_tits_context(parse_inner_class(d, "compact")),
                  tits_context(build_datum("B2 sc"))):
        with pytest.raises(ContextMismatch):
            tits_mul(s1, sigma(other, simple_reflection(other.datum, 2)))


@pytest.mark.parametrize("group, inner", FLEET, ids=[g for g, _ in FLEET])
def test_torus_part_arithmetic_matches_fraction_oracle(group, inner):
    L = parse_inner_class(build_datum(group), inner)
    d = L.dual_datum
    proj = saturation_projection(d.simple_coroots, d.rank)[0]
    matrices = [w.matrix for w in weyl_enumerate(d)] + [coaction(L.theta0), proj]
    rng = Random(f"torus-part:{group}")
    for _ in range(300):
        a, b = _draw(rng, d.rank), _draw(rng, d.rank)
        ta, tb = TorusPart(a), TorusPart(b)
        _assert_normal(ta + tb, _oracle_add(a, b))
        _assert_normal(-ta, _oracle_neg(a))
        _assert_normal(ta - tb, _oracle_add(a, _oracle_neg(b)))
        m = rng.choice(matrices)
        _assert_normal(act_on_torus_part(m, ta), _oracle_act(m, a))
        assert (ta + tb == tb + ta) and (ta - ta).den == 1


@cache
def _cocycle_step(acc, a):
    """(y, coroot) with y = acc * s_a.

    coroot is the integer vector y(alpha-check_a) when a is a descent of acc,
    and None when it is not.
    """
    d = acc.datum
    y = weyl_mul(acc, simple_reflection(d, a))
    if descent(acc, a):
        return y, weyl_act(y, d.simple_coroots[a - 1])
    return y, None


def _walk_cocycle(u, v):
    """sigma_u * sigma_v by the exchange rule, letters of v absorbed one at a time."""
    c = [0] * u.datum.rank
    acc = u
    for a in v.word:
        acc, coroot = _cocycle_step(acc, a)
        if coroot is not None:
            for k, x in enumerate(coroot):
                c[k] += x
    return TorusPart.scaled(c, 2), acc


def _oracle_mul(g1, g2):
    ctx = g1.ctx
    t2, w2 = g2.t, g2.w
    if g1.eps:
        t2 = act_on_torus_part(coaction(ctx.theta0), t2)
        w2 = apply_aut_to_weyl(ctx.theta0, w2)
    c, w12 = _walk_cocycle(g1.w, w2)
    return ExtTitsElem(ctx, g1.t + act_on_torus_part(g1.w.matrix, t2) + c, w12,
                       (g1.eps + g2.eps) % 2)


def _oracle_inverse(g):
    """delta^eps * sigma_w^{-1} * exp(-t); sigma_w^{-1} from the walk of sigma_{w^-1} sigma_w."""
    ctx = g.ctx
    c, prod = _walk_cocycle(weyl_inv(g.w), g.w)
    assert prod == weyl_identity(ctx.datum)
    out = ExtTitsElem(ctx, torus_part_zero(ctx.datum.rank), weyl_identity(ctx.datum), g.eps)
    out = _oracle_mul(out, ExtTitsElem(ctx, -c, weyl_inv(g.w), 0))
    return _oracle_mul(out, torus_elem(ctx, -g.t))


def _oracle_chevalley(g):
    """exp(-t) * (sigma_{w^-1})^{-1} * delta^eps, every step a product."""
    ctx = g.ctx
    out = _oracle_mul(torus_elem(ctx, -g.t), _oracle_inverse(sigma(ctx, weyl_inv(g.w))))
    return _oracle_mul(out, delta_elem(ctx)) if g.eps else out


def _tits_ctx(group, inner):
    return lgroup_tits_context(parse_inner_class(build_datum(group), inner))


def _check_against_oracles(g, h):
    assert tits_inverse(g) == _oracle_inverse(g)
    assert chevalley(g) == _oracle_chevalley(g)
    assert tits_mul(g, h) == _oracle_mul(g, h)
    assert tits_mul(h, g) == _oracle_mul(h, g)


@pytest.mark.parametrize("group, inner", [
    ("A3 sc", "split"), ("B3 sc", "split"), ("G2 sc", "split"), ("GL(3)", "split"),
    ("A1 sc x A1 sc", A1A1_SWAP)], ids=["A3 sc", "B3 sc", "G2 sc", "GL(3)", "A1 sc x A1 sc swap"])
def test_inverse_and_chevalley_match_product_oracles_on_all_of_w(group, inner):
    ctx = _tits_ctx(group, inner)
    n = ctx.datum.rank
    rng = Random(f"closed-forms:{group}")
    for w in weyl_enumerate(ctx.datum):
        for eps in (0, 1):
            for den in (1, 2, 4):
                g = ExtTitsElem(ctx, TorusPart.scaled([rng.randrange(den) for _ in range(n)], den),
                                w, eps)
                h = ExtTitsElem(ctx, TorusPart.scaled([rng.randrange(4) for _ in range(n)], 4),
                                rng.choice(weyl_enumerate(ctx.datum)), rng.randrange(2))
                _check_against_oracles(g, h)


@pytest.mark.parametrize("group, inner", [
    ("F4 sc", "split"), ("B4 sc", "split"), ("D4 sc", D4_SWAP), ("GL(5)", "compact")],
    ids=["F4 sc", "B4 sc", "D4 sc swap", "GL(5) compact"])
def test_inverse_and_chevalley_match_product_oracles_on_seeded_elements(group, inner):
    ctx = _tits_ctx(group, inner)
    elems, n = weyl_enumerate(ctx.datum), ctx.datum.rank
    rng = Random(f"closed-forms:{group}")

    def draw():
        den = rng.choice([1, 2, 4])
        return ExtTitsElem(ctx, TorusPart.scaled([rng.randrange(den) for _ in range(n)], den),
                           rng.choice(elems), rng.randrange(2))

    for _ in range(2000):
        _check_against_oracles(draw(), draw())
