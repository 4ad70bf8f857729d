"""Independent cross-checks tying the parameter layer to Weil-group multisets.

Two oracles computed by different routes than the library's equivalence test:

* GL(2): a parameter is a multiset of Weil irreducibles, so equivalence must
  imply equal multisets, and equal multisets force equivalence except when a
  swap block carries equal exponents (the multiset picture splits it).
* PGL(2,R): composing with the adjoint representation of the dual SL(2)
  gives a three-dimensional Weil rep by explicit weight bookkeeping. The
  adjoint map kills the center, so this oracle is one-directional.
"""

from fractions import Fraction as Q
from random import Random

from lparams.lgroup import lgroup_split
from lparams.lparam import make_param, params_equivalent, random_param
from lparams.rootdata import build_datum
from lparams.weilrep import (
    lparam_to_weilrep,
    weil_chi,
    weil_ind,
    weil_rep,
)

from gauss_entries import gauss_entries
from oracle_matrices import torus_entries

GL2 = lgroup_split(build_datum("GL(2)"))
PGL2 = lgroup_split(build_datum("A1 ad"))


def _has_equal_swap_block(p):
    lam = gauss_entries(p.lam)
    return len(p.w.word) == 1 and lam[0] == lam[1]


def test_gl2_equivalence_implies_equal_multisets():
    rng = Random(111)
    params = [random_param(GL2, rng) for _ in range(60)]
    checked = 0
    for p in params:
        for q in params:
            if params_equivalent(p, q):
                checked += 1
                assert lparam_to_weilrep(p) == lparam_to_weilrep(q)
    assert checked >= len(params)  # at least the diagonal


def test_gl2_equal_multisets_imply_equivalence_off_split_locus():
    rng = Random(112)
    params = [random_param(GL2, rng) for _ in range(60)]
    hits = 0
    for p in params:
        for q in params:
            if _has_equal_swap_block(p) or _has_equal_swap_block(q):
                continue
            if lparam_to_weilrep(p) == lparam_to_weilrep(q):
                hits += 1
                assert params_equivalent(p, q)
    assert hits >= len(params) - 2


def test_gl2_split_locus_discrepancy():
    # I(0,t) in block position vs the two characters: same multiset, finer
    # G-hat conjugacy keeps them apart
    t = Q(1, 4)
    blocked = make_param(GL2, (t, t), (Q(1, 2), 0), [1])
    split = make_param(GL2, (t, t), (0, Q(1, 2)), [])
    assert lparam_to_weilrep(blocked) == lparam_to_weilrep(split)
    assert lparam_to_weilrep(blocked) == weil_rep(
        [weil_chi(t, 0), weil_chi(t, 1)])
    assert not params_equivalent(blocked, split)


# ---------------------------------------------------------------------------
# the adjoint oracle for PGL(2,R)

def _adjoint_weil_rep(p):
    """Compose with Ad of the dual SL(2): weights alpha, 0, -alpha."""
    alpha = p.L.dual_datum.simple_roots[0]
    m = sum(a * x for a, x in zip(alpha, gauss_entries(p.lam)))
    if not p.w.word:
        eps = int(2 * sum(Q(a) * x for a, x in zip(alpha, torus_entries(p.mu)))) % 2
        return weil_rep([weil_chi(m, eps), weil_chi(-m, eps), weil_chi(0, 0)])
    k = int(2 * m.re)
    if k:
        return weil_rep([weil_ind(k, 0), weil_chi(0, 1)])
    return weil_rep([weil_chi(0, 0), weil_chi(0, 1), weil_chi(0, 1)])


def test_adjoint_values_discrete_series():
    # discrete series of PGL(2,R) at the edge of the positive chamber
    p = make_param(PGL2, (Q(1, 2),), (0,), [1])
    assert _adjoint_weil_rep(p) == weil_rep([weil_ind(2, 0), weil_chi(0, 1)])
    q = make_param(PGL2, (Q(3, 2),), (0,), [1])
    assert _adjoint_weil_rep(q) == weil_rep([weil_ind(6, 0), weil_chi(0, 1)])


def test_adjoint_values_principal_series():
    p = make_param(PGL2, (1,), (0,), [])
    assert _adjoint_weil_rep(p) == weil_rep(
        [weil_chi(2, 0), weil_chi(-2, 0), weil_chi(0, 0)])
    sph = make_param(PGL2, (0,), (0,), [])
    assert _adjoint_weil_rep(sph) == weil_rep([weil_chi(0, 0)] * 3)


def test_adjoint_oracle_one_directional():
    rng = Random(117)
    params = [random_param(PGL2, rng) for _ in range(80)]
    agreements = 0
    for p in params:
        for q in params:
            if params_equivalent(p, q):
                agreements += 1
                assert _adjoint_weil_rep(p) == _adjoint_weil_rep(q)
    assert agreements >= len(params)


def test_adjoint_oracle_misses_central_twist():
    # mu-shift by the nontrivial central element of SL(2) changes the
    # parameter but not its adjoint composition
    p = make_param(PGL2, (0,), (0,), [])
    q = make_param(PGL2, (0,), (Q(1, 2),), [])
    assert _adjoint_weil_rep(p) == _adjoint_weil_rep(q)
    assert not params_equivalent(p, q)
