"""The record types: immutable, compared by value, hashed as the tuple of their compared fields.

Eleven records are namedtuple subclasses and five (GaussQ, RootDatum, WeylElem, TorusPart,
LGroup) are slotted classes with their own equality. RootDatum.label and
LGroup.g_datum are not compared. Each hash is the hash of the tuple of the
compared fields, so set and dict orders do not depend on how a record is built.
"""

from fractions import Fraction as Q
from random import Random

import pytest

from lparams.gaussian import GaussQ, parse_gauss
from lparams.lgroup import LGroup, lgroup_split, standard_levis
from lparams.lparam import make_param, packet_descriptor, random_param
from lparams.rootdata import RootDatum, build_datum
from lparams.tits import TorusPart, sigma, tits_context, torus_part
from lparams.torus import param_to_char, random_torus_param, torus_egroup
from lparams.weilrep import WeilIrr, parse_weil_rep, weil_chi
from lparams.weyl import WeylElem, _inversion_masks, _step, neg_w0_aut, weyl_from_word, weyl_inv

A2 = build_datum("A2 sc")
L = lgroup_split(A2)
GL2 = lgroup_split(build_datum("GL(2)"))
CTX = tits_context(L.dual_datum, L.theta0)
EG = torus_egroup(((0, 1), (1, 0)), (0, 0))
TP = random_torus_param(EG, Random(5))
P = make_param(GL2, (1, 0), (0, 0), [1])
S2 = weyl_from_word(L.dual_datum, [2])


def _rebuilt(r):
    """A second record of the same type, built from r's fields."""
    if isinstance(r, tuple):
        return type(r)(*r)
    assert type(r) is WeylElem
    return WeylElem(r.datum, r.key, r.word)


# (record, an equal record built another way, the names of the compared fields)
RECORDS = [
    (GaussQ(Q(1, 2), 3), parse_gauss("2/4+3i"), ("re", "im")),
    (A2, RootDatum(A2.rank, A2.simple_roots, A2.simple_coroots, "relabelled"),
     ("rank", "simple_roots", "simple_coroots")),
    (neg_w0_aut(A2), _rebuilt(neg_w0_aut(A2)), ("datum", "matrix", "perm")),
    (weyl_from_word(A2, [1, 2]), _rebuilt(weyl_from_word(A2, [1, 2])), ("datum", "key")),
    (CTX, tits_context(L.dual_datum), ("datum", "theta0")),
    (sigma(CTX, S2), _rebuilt(sigma(CTX, S2)), ("ctx", "t", "w", "eps")),
    (torus_part(["1/2", 0]), TorusPart.scaled([3, 4], 2), ("num", "den")),
    (EG, torus_egroup([[0, 1], [1, 0]], ["0", "0"]), ("theta_check", "gamma")),
    (param_to_char(TP), _rebuilt(param_to_char(TP)), ("theta", "lam", "kappa", "gamma")),
    (TP, _rebuilt(TP), ("egroup", "lam", "mu")),
    (L, LGroup(L.dual_datum, L.theta0, L.dual_datum), ("dual_datum", "theta0")),
    (standard_levis(L)[1], _rebuilt(standard_levis(L)[1]), ("subset",)),
    (random_param(L, Random(3)), _rebuilt(random_param(L, Random(3))), ("L", "lam", "mu", "w", "dif")),
    (packet_descriptor(P), packet_descriptor(make_param(GL2, ("2/2", 0), (0, 0), [1])),
     ("levi", "inf", "rad")),
    (weil_chi("1/2", 0), WeilIrr(t=GaussQ(Q(1, 2)), kind="chi"), ("kind", "t", "eps", "k")),
    (parse_weil_rep("chi(1/2,1)+I(2,i)"), parse_weil_rep("I(-2, 2/2i) + chi(2/4, 1)"),
     ("blocks", "t")),
]


@pytest.mark.parametrize("record, other, compared", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_contract(record, other, compared):
    # every field, compared or not, and any new attribute refuse assignment and deletion
    fields = record._fields if isinstance(record, tuple) else type(record).__slots__
    if type(record) is WeylElem:
        # the Cayley-graph slots, filled here, refuse assignment and deletion like the fields
        assert {"_left", "_inv", "_mat", "_masks"} <= set(fields)
        _step(record, 1)
        weyl_inv(record)
        _inversion_masks(record)
        assert None not in (record._left, record._inv, record._mat, record._masks)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert other is not record
    assert record == other and not record != other
    assert hash(record) == hash(other) == hash(tuple(getattr(record, f) for f in compared))


def test_uncompared_fields_differ_in_the_contract_cases():
    # the RootDatum and LGroup cases above differ in label and g_datum, which are not compared
    cases = {type(r): (r, other) for r, other, _ in RECORDS}
    assert cases[RootDatum][0].label != cases[RootDatum][1].label
    assert cases[LGroup][0].g_datum != cases[LGroup][1].g_datum


def test_weil_irr_defaults_and_keywords():
    t = GaussQ(Q(1, 2))
    assert WeilIrr("chi", t) == WeilIrr("chi", t, 0, 0) == WeilIrr(kind="chi", t=t, eps=0)
    assert WeilIrr("ind", t, k=2).eps == 0 and WeilIrr("ind", t, 0, 2).k == 2


def test_real_gauss_hash_is_the_rational_hash():
    assert hash(GaussQ(Q(1, 2))) == hash(Q(1, 2)) and GaussQ(3) == 3
