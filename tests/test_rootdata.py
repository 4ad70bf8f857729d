"""Root datum construction, duality, root closures, based automorphisms."""

from fractions import Fraction as Q
from itertools import product
from random import Random

import pytest

from lparams.errors import InputError, InvalidCartan, NotBasedAut, RankMismatch
from lparams.intlinalg import ident, mat_vec, transpose, vdot
from lparams.rootdata import (
    RootDatum,
    _root_system,
    based_aut,
    build_datum,
    cartan_matrix,
    compose_aut,
    coaction,
    datum_from_vectors,
    dual_datum,
    identity_aut,
    inverse_aut,
    transpose_aut,
)
from lparams.weyl import neg_w0_aut

from oracle_matrices import all_coroots, leibniz_det


def test_a1_lattices():
    sc = build_datum("A1 sc")
    assert sc.simple_roots == ((2,),)
    assert sc.simple_coroots == ((1,),)
    ad = build_datum("A1 ad")
    assert ad.simple_roots == ((1,),)
    assert ad.simple_coroots == ((2,),)
    for d in (sc, ad):
        assert vdot(d.simple_roots[0], d.simple_coroots[0]) == 2


def test_gl_datum_self_dual():
    g = build_datum("GL(2)")
    assert g.simple_roots == ((1, -1),)
    assert g.simple_roots == g.simple_coroots
    assert dual_datum(g).simple_roots == g.simple_roots
    assert dual_datum(g).label == "GL(2)"
    # GL(1) is a bare torus of rank 1
    g1 = build_datum("GL(1)")
    assert g1.rank == 1 and g1.nsimple == 0


def test_dual_swaps_lattices_and_label():
    d = build_datum("A2 sc")
    dd = dual_datum(d)
    assert dd.simple_roots == d.simple_coroots
    assert dd.simple_coroots == d.simple_roots
    assert dd.label == "A2 ad"
    assert dual_datum(dd) == d
    # B and C trade places on the dual side
    assert dual_datum(build_datum("B2 sc")).label == "C2 ad"


def test_cartan_matrices():
    assert cartan_matrix(build_datum("A2 sc")) == ((2, -1), (-1, 2))
    assert cartan_matrix(build_datum("B2 sc")) == ((2, -2), (-1, 2))
    assert cartan_matrix(build_datum("G2 sc")) == ((2, -1), (-3, 2))
    # the pairing is lattice-independent
    assert cartan_matrix(build_datum("G2 ad")) == ((2, -1), (-3, 2))


def test_rho_check_values():
    assert _root_system(build_datum("A1 sc")).two_rho_check == (1,)
    assert _root_system(build_datum("A1 ad")).two_rho_check == (2,)
    assert _root_system(build_datum("A2 sc")).two_rho_check == (2, 2)
    assert _root_system(build_datum("GL(2)")).two_rho_check == (1, -1)


def test_root_closure_counts():
    assert len(_root_system(build_datum("A2 sc")).all_roots) == 6
    assert len(_root_system(build_datum("B2 sc")).all_roots) == 8
    assert len(_root_system(build_datum("G2 sc")).all_roots) == 12
    assert len(_root_system(build_datum("A3 sc")).all_roots) == 12
    assert len(all_coroots(build_datum("B2 sc"))) == 8
    d = build_datum("A2 sc")
    pos = _root_system(d).roots
    assert len(pos) == 3
    highest = tuple(a + b for a, b in zip(*d.simple_roots))
    assert highest in pos


def test_products():
    d = build_datum("A1 sc x A1 sc")
    assert d.rank == 2 and d.nsimple == 2
    assert d.simple_roots == ((2, 0), (0, 2))
    assert len(_root_system(d).all_roots) == 4
    mixed = build_datum("GL(2) x T1")
    assert mixed.rank == 3 and mixed.nsimple == 1
    assert mixed.simple_roots == ((1, -1, 0),)


def test_grammar_rejections():
    with pytest.raises(InputError):
        build_datum("A5 sc")
    with pytest.raises(InputError):
        build_datum("Z2")
    with pytest.raises(InputError):
        build_datum("")
    for spec in ("A2 xx", "A2 sc x", "x A2 sc"):
        with pytest.raises(InputError, match="empty product factor"):
            build_datum(spec)
    with pytest.raises(RankMismatch):
        datum_from_vectors([(2,)], [])
    with pytest.raises(RankMismatch):
        datum_from_vectors([], [], rank=None)


@pytest.mark.parametrize("roots, coroots", [
    ([(2.7,)], [(1,)]), ([(2.0,)], [(1,)]), ([("2",)], [(1,)]), ([(2,)], [(True,)]),
    ([(Q(2),)], [(1,)]), ([(2, 0), (0, 2)], [(1, 0), (0, 1.0)]),
])
def test_datum_from_vectors_refuses_non_integers(roots, coroots):
    with pytest.raises(InputError, match="entries must be integers"):
        datum_from_vectors(roots, coroots)
    assert datum_from_vectors([(2,)], [(1,)]).simple_roots == ((2,),)


def test_datum_from_vectors_checks_pairing():
    # <alpha, alpha-check> must be 2
    with pytest.raises(InvalidCartan):
        datum_from_vectors([(1,)], [(1,)])


def _gcms():
    """Every rank-2 and rank-3 generalized Cartan matrix with off-diagonal entries in
    {0, -1, -2, -3, -4}, then 3,000 seeded rank-4 ones, half of their pairs zero."""
    pairs = [(0, 0)] + list(product(range(-4, 0), repeat=2))
    rng = Random(32)
    choices = [(m, c) for m in (2, 3) for c in product(pairs, repeat=m * (m - 1) // 2)]
    choices += [(4, [(0, 0) if rng.random() < 0.5 else rng.choice(pairs[1:]) for _ in range(6)])
                for _ in range(3000)]
    for m, choice in choices:
        a = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
        for (i, j), (x, y) in zip(((i, j) for i in range(m) for j in range(i + 1, m)), choice):
            a[i][j], a[j][i] = x, y
        yield a


def _realize(a):
    """Roots e_i and coroots sum_i a[i][j] e_i + e_{m+j} in Z^2m: independent for any a."""
    m = len(a)
    eye = ident(2 * m)
    coroots = [tuple(a[k][j] if k < m else eye[m + j][k] for k in range(2 * m))
               for j in range(m)]
    return eye[:m], coroots


def _positive_minors(a):
    """The rule datum_from_vectors once applied: every principal minor is positive."""
    m = len(a)
    return all(leibniz_det([[a[i][j] for j in idx] for i in idx]) > 0
               for mask in range(1, 1 << m)
               for idx in [[i for i in range(m) if mask >> i & 1]])


def test_finite_type_matches_the_principal_minor_rule():
    # a generalized Cartan matrix is of finite type iff its real roots are finite
    # (Kac, ch. 4-5), iff every principal minor is positive (Kac, ch. 4)
    seen = finite = 0
    for a in _gcms():
        roots, coroots = _realize(a)
        try:
            d = datum_from_vectors(roots, coroots)
        except InvalidCartan as exc:
            assert not _positive_minors(a), (a, exc)
            assert "not of finite type" in str(exc)
        else:
            assert _positive_minors(a), a
            assert cartan_matrix(d) == tuple(map(tuple, a))
            finite += 1
        seen += 1
    # 6 of rank 2 (A1 x A1, A2, B2 twice, G2 twice), 31 of rank 3 and 138 of rank 4
    assert seen == 7930 and finite == 175


@pytest.mark.parametrize("a", [((2, -2), (-2, 2)), ((2, -1), (-4, 2)), ((2, -3), (-3, 2)),
                               ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))],
                         ids=["affine A1", "affine A2(2)", "hyperbolic", "affine A2"])
def test_directly_built_datum_of_infinite_type_raises(a):
    # RootDatum validates nothing; the root closure refuses to run without end
    d = RootDatum(len(a), a, ident(len(a)))
    with pytest.raises(InvalidCartan, match="not of finite type"):
        _root_system(d)


def test_based_aut_flip_on_a2():
    d = build_datum("A2 sc")
    flip = based_aut(d, ((0, 1), (1, 0)))
    assert flip.perm == (2, 1)
    a1, a2 = d.simple_roots
    assert mat_vec(flip.matrix, a1) == a2


def test_based_aut_rejects_non_permutation():
    d = build_datum("A2 sc")
    with pytest.raises(NotBasedAut):
        based_aut(d, ((1, 1), (0, 1)))
    with pytest.raises(NotBasedAut):
        based_aut(d, ((2, 0), (0, 2)))


@pytest.mark.parametrize("entry", [Q(1, 2), 0.5, Q(1), 1.0, True],
                         ids=["Fraction(1,2)", "0.5", "Fraction(1)", "1.0", "True"])
def test_based_aut_refuses_non_integer_entries(entry):
    # the Fraction inverse of 1/2 is the integer 2, so [[1/2]] used to be
    # accepted as a lattice automorphism of T1
    with pytest.raises(NotBasedAut, match="matrix entries must be integers"):
        based_aut(build_datum("T1"), [[entry]])
    with pytest.raises(NotBasedAut, match="matrix entries must be integers"):
        based_aut(build_datum("A2 sc"), [[0, entry], [1, 0]])
    assert based_aut(build_datum("T1"), [[-1]]).matrix == ((-1,),)


def test_neg_w0_identities():
    # -w0 is the flip for A2, the identity for A1, B2, G2
    flip = neg_w0_aut(build_datum("A2 sc"))
    assert flip.perm == (2, 1)
    for name in ("A1 sc", "B2 sc", "G2 sc"):
        d = build_datum(name)
        assert neg_w0_aut(d).matrix == ident(d.rank)
    # GL(2): -w0 acts by the antidiagonal sign pattern, its own transpose
    g = build_datum("GL(2)")
    a = neg_w0_aut(g)
    assert transpose(a.matrix) == transpose_aut(a).matrix


def test_transpose_aut_lands_on_dual():
    d = build_datum("A2 sc")
    a = neg_w0_aut(d)
    b = transpose_aut(a)
    assert b.datum == dual_datum(d)
    assert b.perm == (2, 1)


def test_aut_algebra():
    d = build_datum("A2 sc")
    a = neg_w0_aut(d)
    assert compose_aut(a, a).matrix == ident(2)
    assert inverse_aut(a).matrix == a.matrix
    assert compose_aut(a, identity_aut(d)).perm == a.perm
    # coaction is the inverse transpose, so it fixes each coroot's image rule
    ca = coaction(a)
    for i, av in enumerate(d.simple_coroots):
        assert mat_vec(ca, av) == d.simple_coroots[a.perm[i] - 1]
