"""The cached cocycle table and the one-pass torus-part normalisation.

`_sigma_cocycle` reads each exchange step from the `_cocycle_step` table and
sums the transported coroots as integers. The letter-by-letter reduction over
Fractions it replaced, and the old three-Fraction normalisation of a torus
entry, are kept here as test-only oracles.
"""

from fractions import Fraction as Q
from random import Random

import pytest

from lparams.intlinalg import vadd, vscale
from lparams.rootdata import build_datum
from lparams.tits import TorusPart, _sigma_cocycle
from lparams.weyl import descent, simple_reflection, weyl_act, weyl_enumerate, weyl_mul


def _oracle_cocycle(u, v):
    """sigma_u * sigma_v = exp(2*pi*i*c) * sigma_{uv}, one Fraction vector step per letter."""
    d = u.datum
    c = (Q(0),) * d.rank
    acc = u
    for a in v.word:
        if descent(acc, a):
            y = weyl_mul(acc, simple_reflection(d, a))
            c = vadd(c, weyl_act(y, vscale(Q(1, 2), d.simple_coroots[a - 1])))
            acc = y
        else:
            acc = weyl_mul(acc, simple_reflection(d, a))
    return TorusPart(c), acc


def _oracle_mod_one(x):
    return Q(x) - (Q(x).numerator // Q(x).denominator)


def _same(got, want):
    assert got == want
    assert got[0].entries == want[0].entries
    assert all(type(x) is Q for x in got[0].entries)


@pytest.mark.parametrize("group", ["A3 sc", "B3 sc", "G2 sc", "GL(3)", "A1 sc x A1 sc"])
def test_cocycle_matches_oracle_on_every_pair(group):
    elems = weyl_enumerate(build_datum(group))
    for u in elems:
        for v in elems:
            _same(_sigma_cocycle(u, v), _oracle_cocycle(u, v))


@pytest.mark.parametrize("group", ["F4 sc", "B4 sc", "D4 sc", "GL(5)"])
def test_cocycle_matches_oracle_on_seeded_pairs(group):
    elems = weyl_enumerate(build_datum(group))
    rng = Random(f"cocycle:{group}")
    for _ in range(2000):
        u, v = rng.choice(elems), rng.choice(elems)
        _same(_sigma_cocycle(u, v), _oracle_cocycle(u, v))


def test_torus_part_normalisation_matches_oracle():
    rng = Random(4)
    values = [0, 1, -1, 7, -7, Q(0), Q(1, 2), Q(3, 4), Q(-1, 2), Q(-9, 4), Q(5, 3), Q(-6, 3)]
    for _ in range(500):
        den = rng.choice([1, 2, 3, 4, 6, 12])
        values.append(Q(rng.randrange(-5 * den, 5 * den + 1), den))
    values += [str(x) for x in values] + ["-0", "10/4", "-10/4"]
    for x in values:
        (got,) = TorusPart((x,)).entries
        assert type(got) is Q
        assert got == _oracle_mod_one(x) and 0 <= got < 1, x


def test_torus_part_keeps_reduced_fractions():
    x = Q(3, 4)
    assert TorusPart((x,)).entries[0] is x
