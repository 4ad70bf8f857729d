"""Admissible parameters: validity, conjugacy, invariants, contragredients.

The GaussQ/Fraction validity check and central character that the integer
ones replaced are kept here as test-only oracles.
"""

import json
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

from lparams.errors import (
    ContextMismatch,
    InputError,
    NormalizationRequired,
    ValidityC,
    ValidityE,
    ValidityIntegrality,
)
from lparams import lparam
from lparams.gaussian import GaussQ, ScaledVec
from lparams.intlinalg import ident, mat_mul, mat_vec, vdot
from lparams.lgroup import (build_lgroup, lgroup_compact, lgroup_split, parse_inner_class,
                            standard_levis)
from lparams.lparam import (
    central_char,
    central_chars_agree,
    conjugate_param,
    contragredient_param,
    _dominance_descent,
    inf_char,
    is_discrete_series,
    levi_of,
    make_param,
    packet_descriptor,
    param_from_dict,
    param_to_dict,
    params_equivalent,
    rad_char,
    rad_param,
    random_param,
    tau_twist_param,
    twisted_involutions,
    validity_rows,
    verify_contragredient,
)
from lparams.rootdata import _root_system, based_aut, build_datum, coaction
from lparams.tits import TorusPart, torus_part
from lparams.torus import param_to_char, torus_contragredient
from lparams.weyl import (apply_aut_to_weyl, longest_element, weyl_act, weyl_enumerate,
                          weyl_identity, weyl_mul)

from gauss_entries import gauss_entries
from oracle_matrices import all_coroots, torus_entries, vadd


SL2 = lgroup_split(build_datum("A1 sc"))
PGL2 = lgroup_split(build_datum("A1 ad"))
GL2 = lgroup_split(build_datum("GL(2)"))
GL3 = lgroup_split(build_datum("GL(3)"))
A2S = lgroup_split(build_datum("A2 sc"))
A2C = lgroup_compact(build_datum("A2 sc"))


def test_sl2_discrete_series_param():
    p = make_param(SL2, (1,), (0,), [1])
    assert is_discrete_series(p)
    assert inf_char(p) == ScaledVec.of([1])
    levi, reduced = levi_of(p)
    assert tuple(sorted(levi.subset)) == (1,)
    assert reduced.w == p.w
    assert central_char(p) == ScaledVec.of([2])


def test_sl2_validity_failures():
    # half-integral lambda: integrality holds (2*lambda in Z) but parity fails
    with pytest.raises(ValidityE):
        make_param(SL2, (Q(1, 2),), (0,), [1])
    with pytest.raises(ValidityIntegrality):
        make_param(SL2, (Q(1, 4),), (0,), [1])
    rows = validity_rows(SL2, (Q(1, 2),), (0,), [1])
    by_name = {name: ok for name, ok, _, _ in rows}
    assert by_name["twisted-involution"]
    assert by_name["integrality"]
    assert not by_name["parity"]


def test_validity_c_rejects_non_twisted_involution():
    with pytest.raises(ValidityC):
        make_param(A2S, (0, 0), (0, 0), [1, 2])
    rows = validity_rows(A2S, (0, 0), (0, 0), [1, 2])
    assert rows[0][0] == "twisted-involution" and not rows[0][1]


THETA_SQUARED = [(g, ic) for g in ("A2 sc", "B3 sc", "C3 ad", "G2 sc", "GL(4)")
                 for ic in ("split", "compact")] + [
    ("A1 sc x A1 sc", [[0, 1], [1, 0]]),
    ("D4 sc", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])]


@pytest.mark.parametrize("group,inner", THETA_SQUARED,
                         ids=[f"{g}|{ic if isinstance(ic, str) else 'swap'}"
                              for g, ic in THETA_SQUARED])
def test_theta_squared_is_one_exactly_at_twisted_involutions(group, inner):
    # theta^2 = (w . theta0(w)) theta0^2 and theta0^2 = 1, so the theta-involution row
    # reports the twisted-involution test; here theta^2 is multiplied out over all of W
    L = parse_inner_class(build_datum(group), inner)
    d = L.dual_datum
    zero = (0,) * d.rank
    twisted = set(twisted_involutions(L))
    assert len(twisted) > 1
    for w in weyl_enumerate(d):
        theta = mat_mul(w.matrix, coaction(L.theta0))
        involutive = mat_mul(theta, theta) == ident(d.rank)
        assert involutive == (w in twisted) == lparam._involution(L, w).twisted
        rows = validity_rows(L, zero, zero, w)
        assert rows[1][:2] == ("theta-involution", involutive)


def test_make_param_coerces_once(monkeypatch):
    calls = []
    coerce = lparam._coerce_parts
    monkeypatch.setattr(lparam, "_coerce_parts", lambda *a: calls.append(a) or coerce(*a))
    make_param(GL2, (1, 0), (0, 0), [1])
    assert len(calls) == 1


def test_spherical_param_always_valid():
    for L in (SL2, PGL2, GL2, GL3, A2S, A2C):
        n = L.dual_datum.rank
        p = make_param(L, (0,) * n, (0,) * n, [])
        assert not is_discrete_series(p)


def test_pgl2_values():
    # dual group is simply connected: rho-check = (1/2) shifts the parity rule
    p = make_param(PGL2, (Q(1, 2),), (0,), [1])
    assert is_discrete_series(p)
    with pytest.raises(ValidityE):
        make_param(PGL2, (0,), (0,), [1])


def test_gl2_parity_pairs():
    # odd lambda gap wants mu summing to an integer, even gap the opposite
    make_param(GL2, (1, 0), (0, 0), [1])
    make_param(GL2, (1, 0), (Q(1, 2), Q(1, 2)), [1])
    with pytest.raises(ValidityE):
        make_param(GL2, (1, 0), (Q(1, 2), 0), [1])
    make_param(GL2, (1, -1), (Q(1, 2), 0), [1])
    with pytest.raises(ValidityE):
        make_param(GL2, (1, -1), (0, 0), [1])


@pytest.mark.parametrize("lam,mu", [((0.5,), ("0.5",)), (("1e0",), (0.0,)), ((1,), ("1_0/4",)),
                                    ((True,), (0,)), ((0,), (False,))])
def test_make_param_refuses_floats_bools_and_non_numerals(lam, mu):
    # Fraction(float) and Fraction(str) used to accept each of these
    with pytest.raises(InputError):
        make_param(SL2, lam, mu, [])


def test_torus_conjugation_moves_mu():
    p = make_param(SL2, (1,), (0,), [1])
    q = conjugate_param(p, torus_part((Q(1, 4),)))
    assert q.w == p.w and q.lam == p.lam
    assert q.lam is p.lam  # passed through as is, not rebuilt
    assert q.mu == torus_part((Q(1, 2),))
    assert params_equivalent(p, q)


def test_weyl_conjugation():
    p = make_param(A2S, (1, 2), (0, 0), [])
    w0 = longest_element(A2S.dual_datum)
    q = conjugate_param(p, w0)
    assert params_equivalent(p, q)
    assert inf_char(q) == inf_char(p)
    with pytest.raises(ContextMismatch):
        conjugate_param(p, longest_element(build_datum("B2 sc")))


def test_equivalence_examples():
    p = make_param(SL2, (1,), (0,), [1])
    q = make_param(SL2, (-1,), (0,), [1])
    assert params_equivalent(p, q)  # -1 lies in W(A1)
    a = make_param(A2S, (1, 2), (0, 0), [])
    b = make_param(A2S, (-1, -2), (0, 0), [])
    assert not params_equivalent(a, b)  # -1 is not in W(A2)


def test_dominant_rep_and_inf_char():
    d = A2S.dual_datum
    def dominant(v):
        return _dominance_descent(d, ScaledVec.of(v))[0]
    assert dominant((GaussQ(-1), GaussQ(-2))) == dominant((GaussQ(2), GaussQ(1)))
    p = make_param(SL2, (-1,), (0,), [1])
    assert inf_char(p) == ScaledVec.of([1])


def test_rad_char_values():
    # semisimple group: the radical is trivial and the data is empty
    p = make_param(SL2, (1,), (0,), [1])
    assert rad_char(p).kappa == ScaledVec.of([])
    # GL(2) discrete series: kappa on the one-dimensional radical is 0
    g = make_param(GL2, (1, 0), (0, 0), [1])
    assert rad_char(g).kappa == ScaledVec.of([0])
    assert rad_char(g).lam == ScaledVec.of([1])


def test_central_char_flip_seeded():
    rng = Random(88)
    for L in (SL2, GL2):
        for _ in range(100):
            p = random_param(L, rng)
            cp = contragredient_param(p)
            assert central_chars_agree(p, central_char(cp), -central_char(p))


def test_is_discrete_series_table():
    assert is_discrete_series(make_param(SL2, (1,), (0,), [1]))
    assert not is_discrete_series(make_param(SL2, (0,), (Q(1, 4),), [1]))
    assert is_discrete_series(make_param(GL2, (1, 0), (0, 0), [1]))
    assert not is_discrete_series(make_param(GL2, (1, 1), (Q(1, 2), 0), [1]))
    # A2 split admits no theta inverting all coroots
    rng = Random(61)
    for _ in range(40):
        assert not is_discrete_series(random_param(A2S, rng))


def test_levi_of_proper_factor():
    p = make_param(GL3, (1, 0, 5), (0, 0, 0), [1])
    levi, reduced = levi_of(p)
    assert tuple(sorted(levi.subset)) == (1,)
    assert params_equivalent(p, reduced)
    # principal series reduce to the empty Levi
    q = make_param(GL3, (3, 1, 0), (0, 0, 0), [])
    assert tuple(sorted(levi_of(q)[0].subset)) == ()


def test_levi_limit_shape_needs_normalization():
    # singular lambda with an imaginary centralizer root: out of scope by design
    p = make_param(SL2, (0,), (0,), [1])
    assert not is_discrete_series(p)
    with pytest.raises(NormalizationRequired) as exc:
        levi_of(p)
    assert exc.value.witness == (-1,)


def test_contragredient_and_tau_twist():
    p = make_param(SL2, (1,), (0,), [1])
    cp = contragredient_param(p)
    tp = tau_twist_param(p)
    assert cp.lam == tp.lam == ScaledVec.of([-1])
    assert cp.w == p.w and tp.w == p.w
    assert params_equivalent(cp, tp)


def test_verify_contragredient_discrete_series():
    p = make_param(SL2, (1,), (0,), [1])
    rows = verify_contragredient(p)
    assert len(rows) == 4
    assert all(ok for _, ok, _ in rows), rows


def test_verify_contragredient_non_self_dual():
    # generic A2 principal series: the theorem holds but C(p) is a new packet
    p = make_param(A2S, (1, 2), (0, 0), [])
    rows = verify_contragredient(p)
    assert all(ok for _, ok, _ in rows), rows
    cp = contragredient_param(p)
    assert not params_equivalent(p, cp)
    assert packet_descriptor(cp).inf != packet_descriptor(p).inf


# Mutations of contragredient_param that each row must catch although verify_contragredient
# shares one descent of -lambda between rows 1 and 3. The version that descended each
# point separately (five descents per call) fails the same rows on the same parameters.
MUTATION_PARAMS = [((1, 2), (0, 0), []), (("1/2", "5/3+i"), (0, 0), []), ((3, -1), (0, 0), [])]


@pytest.mark.parametrize("lam,mu,w", MUTATION_PARAMS)
def test_verify_contragredient_catches_kept_lambda(monkeypatch, lam, mu, w):
    # A2 is not self-dual (-w0 swaps the simple roots), so these lambda are not W-conjugate
    # to -lambda and a contragredient that keeps lambda must fail row 1
    p = make_param(A2S, lam, mu, w)
    assert inf_char(p) != inf_char(contragredient_param(p))
    honest = contragredient_param
    monkeypatch.setattr(lparam, "contragredient_param",
                        lambda q: make_param(q.L, q.lam, honest(q).mu, q.w))
    rows = verify_contragredient(p)
    assert rows[0][0] == "inf_char negation" and not rows[0][1], rows


@pytest.mark.parametrize("lam,mu,w", MUTATION_PARAMS)
def test_verify_contragredient_catches_shifted_mu(monkeypatch, lam, mu, w):
    # w = e in the split class: theta = 1, so (1 - theta)Q^n + Z^n is Z^n and a shift of mu
    # by (1/2, 0) is not absorbed; (1 + theta)(1/2, 0) is integral, so the twist stays valid
    p = make_param(A2S, lam, mu, w)
    honest = contragredient_param
    delta = torus_part([Q(1, 2), 0])
    monkeypatch.setattr(lparam, "contragredient_param",
                        lambda q: make_param(q.L, -q.lam, honest(q).mu + delta, q.w))
    rows = verify_contragredient(p)
    assert rows[0][1], rows
    assert rows[2][0] == "C-twist vs tau-twist conjugacy" and not rows[2][1], rows


@pytest.mark.parametrize("group,inner", [("A2 sc", "compact"), ("F4 sc", "split"),
                                         ("GL(6)", "split"), ("D4 sc", "split")])
def test_verify_contragredient_descends_twice(monkeypatch, group, inner):
    # one descent of lambda for inf(p) and one of -lambda shared by rows 1 and 3
    L = parse_inner_class(build_datum(group), inner)
    rng = Random(f"descents:{group}")
    params = [random_param(L, rng) for _ in range(4)]
    calls = []
    descend = lparam._dominance_descent
    monkeypatch.setattr(lparam, "_dominance_descent", lambda *a: calls.append(a) or descend(*a))
    for p in params:
        calls.clear()
        assert all(ok for _, ok, _ in verify_contragredient(p))
        assert len(calls) == 2


def test_rad_dual_matches_torus_picture():
    g = make_param(GL2, (1, 0), (0, 0), [1])
    lhs = rad_char(contragredient_param(g))
    rhs = param_to_char(torus_contragredient(rad_param(g)))
    from lparams.torus import char_equal

    assert char_equal(lhs, rhs)


def test_twisted_involutions_a2():
    tw = twisted_involutions(A2S)
    assert len(tw) == 4
    d = A2S.dual_datum
    assert weyl_identity(d) in tw and longest_element(d) in tw
    # brute-force the defining condition for the compact class too
    from lparams.weyl import apply_aut_to_weyl, weyl_enumerate

    for L in (A2S, A2C):
        want = [w for w in weyl_enumerate(L.dual_datum)
                if weyl_mul(w, apply_aut_to_weyl(L.theta0, w)) == weyl_identity(d)]
        assert twisted_involutions(L) == want


def test_random_param_revalidates():
    rng = Random(19)
    for L in (SL2, A2S, A2C, GL2):
        for _ in range(30):
            p = random_param(L, rng)
            q = make_param(L, p.lam, p.mu, p.w)
            assert q.theta == p.theta


def test_dict_round_trip_named_classes():
    rng = Random(23)
    for L in (SL2, A2S, A2C, GL2, GL3):
        for _ in range(10):
            p = random_param(L, rng)
            q = param_from_dict(param_to_dict(p))
            assert q.L == p.L and q.lam == p.lam and q.mu == p.mu and q.w == p.w


def test_dict_round_trip_matrix_class():
    # swap of two A1 factors: neither the split nor the compact named class
    d = build_datum("A1 sc x A1 sc")
    L = build_lgroup(d, based_aut(d, ((0, 1), (1, 0))))
    rng = Random(29)
    for _ in range(10):
        p = random_param(L, rng)
        doc = param_to_dict(p)
        assert isinstance(doc["inner_class"], (list, tuple))
        q = param_from_dict(doc)
        assert q.L == p.L and q.lam == p.lam and q.mu == p.mu and q.w == p.w


def test_param_document_is_read_without_a_gaussq(monkeypatch):
    # lambda strings are parsed straight to integer numerators, ints read as rationals
    docs = [json.loads((Path(__file__).parent / "data" / "sl2r_ds.param").read_text()),
            {"group": "A2 sc", "inner_class": "split", "lambda": [3, "-1/2+2/3i"],
             "mu": ["1/2", 0], "w": []}]
    want = [param_from_dict(doc).lam for doc in docs]
    assert want == [ScaledVec.of([1]), ScaledVec([18, -3], [0, 4], 6)]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a GaussQ was built while reading a parameter document")

    monkeypatch.setattr(GaussQ, "__init__", refuse)
    assert [param_from_dict(doc).lam for doc in docs] == want


def test_param_document_mu_is_read_without_a_fraction(monkeypatch):
    # mu numerals go straight to a TorusPart's numerators, as lambda's do to a ScaledVec's
    docs = [json.loads((Path(__file__).parent / "data" / "sl2r_ds.param").read_text()),
            {"group": "A2 sc", "inner_class": "split", "lambda": [3, "-1/2+2/3i"],
             "mu": ["1/2", 0], "w": []}]
    want = [param_from_dict(doc).mu for doc in docs]
    assert want == [torus_part([0]), torus_part([Q(1, 2), 0])]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built while reading a parameter document")

    monkeypatch.setattr(Q, "__new__", refuse)
    assert [param_from_dict(doc).mu for doc in docs] == want


def test_packet_descriptor_fields():
    p = make_param(GL2, (1, 0), (0, 0), [1])
    desc = packet_descriptor(p)
    assert tuple(sorted(desc.levi.subset)) == (1,)
    assert desc.inf == ScaledVec.of([1, 0])
    assert desc.rad.kappa == ScaledVec.of([0])
    assert standard_levis(GL2)[-1].subset == desc.levi.subset


# ---------------------------------------------------------------------------
# oracles: the GaussQ/Fraction validity rows and central character

FLEET = [
    ("A2 sc", "compact"),
    ("B3 sc", "split"),
    ("C3 ad", "split"),
    ("G2 sc", "split"),
    ("D4 sc", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    ("GL(4)", "split"),
    ("GL(3)", "compact"),
    ("A1 sc x A1 sc", [[0, 1], [1, 0]]),
]


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _oracle_validity(L, lam, mu, w):
    """(name, verdict) rows of the validity check, in GaussQ and Fraction arithmetic."""
    d = L.dual_datum
    c_ok = weyl_mul(w, apply_aut_to_weyl(L.theta0, w)) == weyl_identity(d)
    theta = mat_mul(w.matrix, coaction(L.theta0))
    inv_ok = mat_mul(theta, theta) == ident(d.rank)
    rows = [("twisted-involution", c_ok), ("theta-involution", inv_ok)]
    if not (c_ok and inv_ok):
        return rows
    dif = tuple(a - b for a, b in zip(lam, mat_vec(theta, lam)))
    int_ok = all(v.im == 0 and v.re.denominator == 1 for v in dif)
    rows.append(("integrality", int_ok))
    if not int_ok:
        return rows
    rc = tuple(Q(x, 2) for x in _root_system(d).two_rho_check)
    lhs = vadd(tuple(2 * x for x in vadd(mu, mat_vec(theta, mu))), _vsub(rc, weyl_act(w, rc)))
    gap = _vsub(lhs, tuple(v.re for v in dif))
    rows.append(("parity", all((x / 2).denominator == 1 for x in gap)))
    return rows


def _oracle_central_char(p):
    """(1/2)(1-theta)lambda - (1+theta)mu + rho_i, in GaussQ and Fraction arithmetic, as a ScaledVec."""
    n = p.L.dual_datum.rank
    imag = [c for c in sorted(all_coroots(p.L.dual_datum))
            if tuple(mat_vec(p.theta, c)) == tuple(-x for x in c)]
    t = 2
    while not all(vdot(tuple(Q(t) ** k for k in range(n)), r) != 0 for r in imag):
        t += 1
    rho_i = (Q(0),) * n
    for r in imag:
        if vdot(tuple(Q(t) ** k for k in range(n)), r) > 0:
            rho_i = vadd(rho_i, tuple(Q(x, 2) for x in r))
    lam = gauss_entries(p.lam)
    dif = tuple(a - b for a, b in zip(lam, mat_vec(p.theta, lam)))
    mu = torus_entries(p.mu)
    return ScaledVec.of(
        vadd(_vsub(tuple((x * Q(1, 2)).re for x in dif), vadd(mu, mat_vec(p.theta, mu))), rho_i))


def _perturbations(p, rng, elems):
    """(lambda, mu, w) triples: p itself and moves of one entry on or off its lattice."""
    lam, mu = list(gauss_entries(p.lam)), list(torus_entries(p.mu))
    yield lam, mu, p.w
    for shift in (Q(1, 3), Q(1, 2), GaussQ(0, Q(1, 2)), Q(1), Q(-2)):
        k = rng.randrange(len(lam))
        yield lam[:k] + [lam[k] + shift] + lam[k + 1:], mu, p.w
    for shift in (Q(1, 2), Q(1, 4), Q(1, 3), Q(-3, 2)):
        k = rng.randrange(len(mu))
        yield lam, mu[:k] + [mu[k] + shift] + mu[k + 1:], p.w
    for _ in range(3):
        yield lam, mu, rng.choice(elems)


@pytest.mark.parametrize("group, inner", FLEET, ids=[g for g, _ in FLEET])
def test_integer_validity_and_central_char_match_oracles(group, inner):
    L = parse_inner_class(build_datum(group), inner)
    elems = weyl_enumerate(L.dual_datum)
    rng = Random(f"validity:{group}")
    verdicts = set()
    for _ in range(12):
        p = random_param(L, rng)
        assert central_char(p) == _oracle_central_char(p)
        for lam, mu, w in _perturbations(p, rng, elems):
            want = _oracle_validity(L, lam, torus_entries(TorusPart(mu)), w)
            got = [(name, ok) for name, ok, _, _ in validity_rows(L, lam, mu, w)]
            assert got == want, (lam, mu, w)
            verdicts.add(tuple(got))
    # the perturbations make each clause that can fail on its own fail somewhere
    assert {name for rows in verdicts for name, ok in rows if not ok} >= {
        "twisted-involution", "integrality", "parity"}
