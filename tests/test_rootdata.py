"""Root datum construction, duality, root closures, based automorphisms."""

from fractions import Fraction as Q

import pytest

from lparams.errors import InputError, NotBasedAut, RankMismatch
from lparams.intlinalg import ident, mat_vec, transpose, vdot
from lparams.rootdata import (
    all_coroots,
    all_roots,
    based_aut,
    build_datum,
    cartan_matrix,
    compose_aut,
    coaction,
    datum_from_vectors,
    dual_datum,
    identity_aut,
    inverse_aut,
    is_positive_root,
    positive_roots,
    rho_check,
    transpose_aut,
)
from lparams.weyl import neg_w0_aut


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
    assert rho_check(build_datum("A1 sc")) == (Q(1, 2),)
    assert rho_check(build_datum("A1 ad")) == (Q(1),)
    assert rho_check(build_datum("A2 sc")) == (Q(1), Q(1))
    assert rho_check(build_datum("GL(2)")) == (Q(1, 2), Q(-1, 2))


def test_root_closure_counts():
    assert len(all_roots(build_datum("A2 sc"))) == 6
    assert len(all_roots(build_datum("B2 sc"))) == 8
    assert len(all_roots(build_datum("G2 sc"))) == 12
    assert len(all_roots(build_datum("A3 sc"))) == 12
    assert len(all_coroots(build_datum("B2 sc"))) == 8
    d = build_datum("A2 sc")
    pos = positive_roots(d)
    assert len(pos) == 3
    assert all(is_positive_root(d, v) for v in pos)
    highest = tuple(a + b for a, b in zip(*d.simple_roots))
    assert highest in pos


def test_products():
    d = build_datum("A1 sc x A1 sc")
    assert d.rank == 2 and d.nsimple == 2
    assert d.simple_roots == ((2, 0), (0, 2))
    assert len(all_roots(d)) == 4
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
    from lparams.errors import InvalidCartan

    with pytest.raises(InvalidCartan):
        datum_from_vectors([(1,)], [(1,)])


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
