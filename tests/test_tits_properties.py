"""Property tests of the extended Tits group over non-trivial inner classes.

Elements are drawn by hypothesis: a torus part with denominators 1, 2 or 4,
any Weyl element and either coset of delta. Each context has a distinguished
involution that moves the diagram: the D4 diagram swap, the factor swap on
A1 sc x A1 sc (complex SL(2)) and -w0 on GL(3).
"""

from fractions import Fraction as Q

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lparams.rootdata import based_aut, build_datum  # noqa: E402
from lparams.tits import (  # noqa: E402
    ExtTitsElem,
    chevalley,
    tits_context,
    tits_identity,
    tits_inverse,
    tits_mul,
    torus_part,
)
from lparams.weyl import neg_w0_aut, weyl_enumerate  # noqa: E402

D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def _ctx(group, theta0):
    d = build_datum(group)
    return tits_context(d, theta0(d))


CONTEXTS = {
    "D4 swap": _ctx("D4 sc", lambda d: based_aut(d, D4_SWAP)),
    "A1xA1 factor swap": _ctx("A1 sc x A1 sc", lambda d: based_aut(d, [[0, 1], [1, 0]])),
    "GL(3) -w0": _ctx("GL(3)", neg_w0_aut),
}
NAMES = sorted(CONTEXTS)


@st.composite
def _elem(draw, ctx):
    elems = weyl_enumerate(ctx.datum)
    den = draw(st.sampled_from([1, 2, 4]))
    t = [Q(draw(st.integers(0, den - 1)), den) for _ in range(ctx.datum.rank)]
    w = elems[draw(st.integers(0, len(elems) - 1))]
    return ExtTitsElem(ctx, torus_part(t), w, draw(st.integers(0, 1)))


def _draw(data, name, k):
    ctx = CONTEXTS[name]
    return tuple(data.draw(_elem(ctx)) for _ in range(k))


SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_mul_is_associative(name, data):
    g, h, k = _draw(data, name, 3)
    assert tits_mul(tits_mul(g, h), k) == tits_mul(g, tits_mul(h, k))


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_inverse_is_two_sided(name, data):
    (g,) = _draw(data, name, 1)
    one = tits_identity(g.ctx)
    assert tits_mul(g, tits_inverse(g)) == one
    assert tits_mul(tits_inverse(g), g) == one


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_chevalley_is_a_homomorphism(name, data):
    g, h = _draw(data, name, 2)
    assert chevalley(tits_mul(g, h)) == tits_mul(chevalley(g), chevalley(h))


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_chevalley_is_an_involution(name, data):
    (g,) = _draw(data, name, 1)
    assert chevalley(chevalley(g)) == g
