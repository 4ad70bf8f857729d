"""E-groups of real tori and the two pictures of their genuine characters."""

from fractions import Fraction as Q
from random import Random

import pytest

from lparams.errors import ContextMismatch, InputError, InvalidParam, NotInvolution
from lparams.gaussian import ScaledVec, parse_gauss, read_gauss
from lparams.tits import torus_part
from lparams.torus import (
    TorusParam,
    char_equal,
    param_to_char,
    random_torus_param,
    torus_contragredient,
    torus_egroup,
    torus_param,
    torus_params_equivalent,
)
from oracle_matrices import torus_char_data, torus_entries

# the four rank-relevant real tori: S^1, R^x, C^x, S^1 x R^x
CIRCLE = ((-1,),)
SPLIT = ((1,),)
CPLX = ((0, 1), (1, 0))
MIXED = ((-1, 0), (0, 1))


def test_egroup_validation():
    with pytest.raises(NotInvolution):
        torus_egroup(((2,),), (0,))
    with pytest.raises(InputError):
        torus_egroup(CIRCLE, (Q(1, 3),))
    with pytest.raises(InputError):
        torus_egroup(CIRCLE, (0, 0))
    eg = torus_egroup(CIRCLE, (Q(1, 2),))
    assert eg.rank == 1


@pytest.mark.parametrize("rows", [
    ((True,),), ((1.0,),), ((-1.0,),), ((Q(-1),),), (("-1",),), (((0, 1.0), (1, 0))),
])
def test_integer_matrices_are_not_coerced(rows):
    with pytest.raises(InputError, match="matrix entries must be integers"):
        torus_egroup(rows, (0,) * len(rows))


@pytest.mark.parametrize("bad", ["0.5", "1_0/4", "\u0663", "5e-1", 0.5, 0.0, True])
def test_library_entries_are_read_strictly(bad):
    # Fraction(str) and Fraction(float) used to accept each of these
    with pytest.raises(InputError):
        torus_part([bad])
    with pytest.raises(InputError):
        torus_egroup(SPLIT, [bad])
    with pytest.raises(InputError):
        torus_char_data(SPLIT, [0], [0], [bad])
    with pytest.raises(InputError):
        torus_param(torus_egroup(SPLIT, [0]), [bad], [0])
    with pytest.raises(InputError):
        torus_param(torus_egroup(SPLIT, [0]), [0], [bad])


def test_library_entries_keep_ints_fractions_and_numerals():
    assert torus_part(["1/2", Q(3, 4), 1]) == torus_part((Q(1, 2), Q(3, 4), 0))
    assert torus_egroup(CIRCLE, ["1/2"]).gamma == (Q(1, 2),)
    assert torus_egroup(CIRCLE, [Q(1, 2)]).gamma == (Q(1, 2),)


def test_char_side_involution_is_minus_theta_check():
    eg = torus_egroup(MIXED, (0, 0))
    assert param_to_char(torus_param(eg, (0, 0), (0, 0))).theta == ((1, 0), (0, -1))


def test_kappa_circle_weight():
    # S^1 dual side: theta-check = -1, lambda = 3, mu = 0 -> kappa = 3
    eg = torus_egroup(CIRCLE, (0,))
    assert param_to_char(torus_param(eg, tuple(map(read_gauss, (3,))), torus_part((0,)))).kappa \
        == ScaledVec.of([3])


def test_kappa_split_sign():
    # R^x: theta-check = +1, lambda free, kappa = -2mu mod the identification
    eg = torus_egroup(SPLIT, (0,))
    p = torus_param(eg, (parse_gauss("1/2+3/4i"),), (Q(1, 2),))
    assert param_to_char(p).kappa == ScaledVec.of([-1])
    # kappa = -1 and kappa = 1 name the same character: (1-theta)=0 but the
    # kappa ambiguity for split coordinates is 2Z via (1+theta)mu mod 2Z
    c1 = param_to_char(p)
    c2 = torus_char_data(c1.theta, c1.lam, (Q(1),), c1.gamma)
    assert char_equal(c1, c2)


def test_param_validation_errors():
    eg = torus_egroup(CIRCLE, (0,))
    # lambda - theta-check lambda = 2 lambda must be integral
    with pytest.raises(InvalidParam):
        torus_param(eg, (Q(1, 4),), (0,))
    # kappa must land in gamma + Z^n
    eg_half = torus_egroup(SPLIT, (Q(1, 2),))
    with pytest.raises(InvalidParam):
        torus_param(eg_half, (0,), (0,))
    assert torus_param(eg_half, (0,), (Q(1, 4),)) is not None
    # complex lambda on a split coordinate violates reality unless paired
    with pytest.raises(InvalidParam):
        torus_param(torus_egroup(CIRCLE, (0,)), (parse_gauss("i"),), (0,))


@pytest.mark.parametrize("lam", ["1/4", "i"])
def test_param_to_char_checks_a_param_built_directly(lam):
    # (1-theta-check)lambda = 2 lambda is not integral, or not real: both are
    # refused with torus_param's message
    p = TorusParam(torus_egroup(CIRCLE, (0,)), ScaledVec.of([parse_gauss(lam)]), torus_part([0]))
    with pytest.raises(InvalidParam, match=r"^lambda - theta-check\(lambda\) is not in Z\^n$"):
        param_to_char(p)


def test_cplx_factor_pairs_conjugates():
    # C^x: the swap involution forces lambda = (z, w) with z - w integral
    eg = torus_egroup(CPLX, (0, 0))
    p = torus_param(eg, (parse_gauss("1/2+3/4i"), parse_gauss("-1/2+3/4i")),
                    (Q(1, 4), Q(1, 4)))
    assert param_to_char(p).kappa == ScaledVec.of([0, -1])
    with pytest.raises(InvalidParam):
        torus_param(eg, (Q(1, 2), Q(1, 4)), (0, 0))


def test_char_equal_contract_matches_equivalence():
    rng = Random(303)
    for theta in (CIRCLE, SPLIT, CPLX, MIXED):
        eg = torus_egroup(theta, (0,) * len(theta))
        for _ in range(60):
            p = random_torus_param(eg, rng)
            q = random_torus_param(eg, rng)
            same = torus_params_equivalent(p, q)
            assert same == char_equal(param_to_char(p), param_to_char(q))


def test_contragredient_negates_char_data():
    rng = Random(404)
    for theta in (CIRCLE, SPLIT, CPLX, MIXED):
        eg = torus_egroup(theta, (0,) * len(theta))
        for _ in range(40):
            p = random_torus_param(eg, rng)
            c = param_to_char(p)
            cc = param_to_char(torus_contragredient(p))
            neg = torus_char_data(c.theta, -c.lam, -c.kappa, c.gamma)
            assert char_equal(cc, neg)


def test_random_params_are_valid_and_varied():
    rng = Random(55)
    eg = torus_egroup(MIXED, (0, Q(1, 2)))
    seen = set()
    for _ in range(50):
        p = random_torus_param(eg, rng)
        # revalidate through the public constructor
        torus_param(eg, p.lam, p.mu)
        seen.add((p.lam, torus_entries(p.mu)))
    assert len(seen) > 10


def test_equivalence_requires_same_egroup():
    p = random_torus_param(torus_egroup(CIRCLE, (0,)), Random(1))
    q = random_torus_param(torus_egroup(SPLIT, (0,)), Random(1))
    with pytest.raises(ContextMismatch):
        torus_params_equivalent(p, q)
