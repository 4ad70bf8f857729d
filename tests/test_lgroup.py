"""L-groups of inner classes: duality side, compact Cartans, standard Levis."""

import pytest

from lparams.errors import InputError, NotInvolution
from lparams.intlinalg import ident, mat_neg, transpose
from lparams.lgroup import (
    LGroup,
    build_lgroup,
    has_compact_cartan,
    lgroup_compact,
    lgroup_from_tau,
    lgroup_split,
    lgroup_tits_context,
    parse_inner_class,
    standard_levis,
)
from lparams.rootdata import based_aut, build_datum, dual_datum, identity_aut, transpose_aut
from lparams.weyl import neg_w0_aut, weyl_enumerate


def test_split_lgroup_sides():
    d = build_datum("A1 sc")
    L = lgroup_split(d)
    assert L.g_datum == d
    assert L.dual_datum == dual_datum(d)
    assert L.dual_datum.label == "A1 ad"
    assert L.theta0.matrix == ident(1)


def test_gamma_and_tau_agree_for_split():
    # gamma = -w0 tau, so tau = id corresponds to gamma = -w0
    d = build_datum("A2 sc")
    via_tau = lgroup_from_tau(d, identity_aut(d))
    via_gamma = build_lgroup(d, neg_w0_aut(d))
    assert via_tau == via_gamma
    assert via_tau == lgroup_split(d)


def test_compact_class_theta0():
    # compact inner class: gamma = id, tau = -w0; theta0 is tau transposed
    d = build_datum("A2 sc")
    L = lgroup_compact(d)
    assert L == build_lgroup(d, identity_aut(d))
    assert L.theta0.perm == (2, 1)
    assert L.theta0.matrix == transpose(neg_w0_aut(d).matrix)
    # for A1 both classes coincide since -w0 = id
    d1 = build_datum("A1 sc")
    assert lgroup_compact(d1) == lgroup_split(d1)


def test_build_lgroup_argument_contract():
    # triality on D4 is based but has order three, so it is rejected
    d4 = build_datum("D4 sc")
    rot = based_aut(d4, ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)))
    assert rot.perm == (3, 2, 4, 1)
    with pytest.raises(NotInvolution):
        build_lgroup(d4, rot)


def test_lgroup_refuses_a_theta0_that_is_not_an_involution():
    # a hand-built LGroup skips lgroup_from_tau; validity reads theta^2 = 1 off
    # w . theta0(w) = e, which needs theta0^2 = 1
    g = build_datum("D4 sc")
    d = dual_datum(g)
    triality = based_aut(d, ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)))
    assert triality.perm == (3, 2, 4, 1)
    with pytest.raises(NotInvolution):
        LGroup(d, triality, g)


def test_parse_inner_class():
    d = build_datum("A2 sc")
    assert parse_inner_class(d, "split") == lgroup_split(d)
    assert parse_inner_class(d, "compact") == lgroup_compact(d)
    mat = [[1, 0], [0, 1]]
    assert parse_inner_class(d, mat) == build_lgroup(d, identity_aut(d))
    with pytest.raises(InputError):
        parse_inner_class(d, "quasisplit?")
    for bad in ([[1.0, 0], [0, 1]], [[True, 0], [0, 1]], [[1.5, 0], [0, 1]], [1, 0], 5, None):
        with pytest.raises(InputError, match="bad inner class matrix"):
            parse_inner_class(d, bad)


def test_tits_context_lives_on_dual():
    d = build_datum("B2 sc")
    ctx = lgroup_tits_context(lgroup_split(d))
    assert ctx.datum == dual_datum(d)
    assert ctx.theta0.matrix == ident(2)


@pytest.mark.parametrize("group,inner", [
    ("B3 sc", "split"), ("A3 sc", "compact"), ("GL(4)", "compact"),
    ("D4 sc", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])])
def test_theta0_lives_on_the_lgroups_own_dual_datum(group, inner):
    # one dual datum per L-group: theta0 is built over the very object L holds, and
    # equals the transpose of tau carried to a freshly built dual datum
    d = build_datum(group)
    L = parse_inner_class(d, inner)
    assert L.theta0.datum is L.dual_datum
    assert L.dual_datum == dual_datum(d) and L.dual_datum.label == dual_datum(d).label
    tau = based_aut(d, transpose(L.theta0.matrix))
    assert L.theta0 == transpose_aut(tau) and transpose_aut(tau).datum is not L.dual_datum


def test_has_compact_cartan_table():
    expected = {
        "A1 sc": True,
        "A2 sc": False,
        "GL(2)": False,
        "B2 sc": True,
        "G2 sc": True,
    }
    for name, want in expected.items():
        assert has_compact_cartan(lgroup_split(build_datum(name))) == want, name


def test_has_compact_cartan_matches_minus_one_in_weyl():
    # split class: the criterion reduces to -1 lying in the Weyl group
    for name in ("A1 sc", "A2 sc", "A3 sc", "B2 sc", "G2 sc", "GL(2)", "GL(3)"):
        L = lgroup_split(build_datum(name))
        d = L.dual_datum
        brute = any(w.matrix == mat_neg(ident(d.rank)) for w in weyl_enumerate(d))
        assert has_compact_cartan(L) == brute, name
    # compact class of A2: theta0 is the flip, and a compact Cartan exists
    assert has_compact_cartan(lgroup_compact(build_datum("A2 sc")))


def test_standard_levis():
    d1 = build_datum("A1 sc")
    assert [tuple(sorted(s.subset)) for s in standard_levis(lgroup_split(d1))] == [(), (1,)]
    # split A2: every subset is theta0-stable
    d2 = build_datum("A2 sc")
    split_sets = [tuple(sorted(s.subset)) for s in standard_levis(lgroup_split(d2))]
    assert split_sets == [(), (1,), (2,), (1, 2)]
    # compact A2: theta0 flips 1 and 2, killing the singletons
    compact_sets = [tuple(sorted(s.subset)) for s in standard_levis(lgroup_compact(d2))]
    assert compact_sets == [(), (1, 2)]
