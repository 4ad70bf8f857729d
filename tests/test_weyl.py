"""Weyl group elements: words, products, actions, the longest element."""

import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

from lparams.errors import InputError
from lparams.lgroup import lgroup_split
from lparams.lparam import make_param
from lparams.rootdata import _root_system, build_datum
from lparams.weyl import (
    _elem_from_matrix,
    _four_z,
    _step,
    apply_aut_to_weyl,
    longest_element,
    neg_w0_aut,
    parabolic_subgroup,
    simple_reflection,
    weyl_act,
    weyl_enumerate,
    weyl_from_word,
    weyl_identity,
    weyl_inv,
    weyl_mul,
    weyl_order,
)
from cold_caches import clear_all_caches
from oracle_matrices import descent


def test_a2_products_and_canonical_words():
    d = build_datum("A2 sc")
    s1 = simple_reflection(d, 1)
    s2 = simple_reflection(d, 2)
    lhs = weyl_mul(weyl_mul(s1, s2), s1)
    rhs = weyl_mul(weyl_mul(s2, s1), s2)
    assert lhs == rhs
    assert lhs.word == (1, 2, 1)  # lex-smallest of the two braid words
    assert weyl_from_word(d, [1, 2]) == weyl_mul(s1, s2)
    assert weyl_from_word(d, [1, 1]) == weyl_identity(d)


# a letter is a plain int: a float, a bool or a numeral string is refused, never coerced
@pytest.mark.parametrize("make", [
    lambda: weyl_from_word(build_datum("A2 sc"), [1.9]),
    lambda: weyl_from_word(build_datum("A2 sc"), [True]),
    lambda: weyl_from_word(build_datum("A2 sc"), ["2"]),
    lambda: simple_reflection(build_datum("A2 sc"), True),
    lambda: make_param(lgroup_split(build_datum("A1 sc")), ["1"], ["0"], [1.0]),
], ids=["word-float", "word-bool", "word-string", "reflection-bool", "make-param-float"])
def test_letters_are_not_coerced(make):
    with pytest.raises(InputError, match="simple index must be an integer"):
        make()


def test_b2_rotation_order_four():
    d = build_datum("B2 sc")
    r = weyl_from_word(d, [1, 2])
    p = weyl_identity(d)
    for _ in range(4):
        p = weyl_mul(p, r)
    assert p == weyl_identity(d)
    for k in range(1, 4):
        q = weyl_identity(d)
        for _ in range(k):
            q = weyl_mul(q, r)
        assert q != weyl_identity(d)


def test_longest_elements():
    assert longest_element(build_datum("A1 sc")).word == (1,)
    assert longest_element(build_datum("A2 sc")).word == (1, 2, 1)
    assert len(longest_element(build_datum("B2 sc")).word) == 4
    assert len(longest_element(build_datum("G2 sc")).word) == 6
    assert len(longest_element(build_datum("A3 sc")).word) == 6
    # w0 sends every positive root to a negative one
    d = build_datum("B2 sc")
    w0 = longest_element(d)
    for a in _root_system(d).roots:
        img = weyl_act(w0, a, side="X^*")
        assert tuple(-x for x in img) in _root_system(d).roots


def test_length_matches_word_and_inversions():
    d = build_datum("G2 sc")
    for u in weyl_enumerate(d):
        inv = sum(
            1 for a in _root_system(d).roots
            if tuple(-x for x in weyl_act(u, a, side="X^*")) in _root_system(d).roots)
        assert inv == len(u.word)
        assert weyl_from_word(d, u.word) == u


def test_enumerate_orders():
    assert weyl_order(build_datum("A1 sc")) == 2
    assert weyl_order(build_datum("A2 sc")) == 6
    assert weyl_order(build_datum("B2 sc")) == 8
    assert weyl_order(build_datum("G2 sc")) == 12
    assert weyl_order(build_datum("A3 sc")) == 24
    assert weyl_order(build_datum("A1 sc x A1 sc")) == 4
    assert weyl_order(build_datum("T1")) == 1


ORDER_SPECS = ([f"{letter}{n} {lat}" for letter, ranks in
                (("A", range(1, 5)), ("B", range(2, 5)), ("C", range(2, 5)), ("D", range(2, 5)),
                 ("F", (4,)), ("G", (2,)))
                for n in ranks for lat in ("sc", "ad")]
               + [f"GL({n})" for n in range(1, 9)]
               + ["T1", "A2 sc x GL(2)", "B2 ad x G2 sc", "C3 sc x A1 ad x T1"])


@pytest.mark.parametrize("spec", ORDER_SPECS)
def test_weyl_order_from_exponents_matches_the_walk(spec):
    d = build_datum(spec)
    assert weyl_order(d) == len(tuple(parabolic_subgroup(d, range(1, d.nsimple + 1))))


FOUR_Z_SPECS = ([f"{letter}{n} {lat}" for letter, ranks in
                 (("A", range(1, 5)), ("B", range(2, 5)), ("C", range(3, 5)), ("D", (4,)),
                  ("F", (4,)), ("G", (2,)))
                 for n in ranks for lat in ("sc", "ad")]
                + [f"GL({n})" for n in range(1, 7)] + ["B2 ad x G2 sc"])


@pytest.mark.parametrize("spec", FOUR_Z_SPECS)
def test_four_z_matches_the_parent_recurrence(spec):
    """4 z(w) = 2 rho_check - w 2 rho_check, read off w's matrix, against a route that
    reads no matrix: 4 z(e) = 0 and, for u = s_i v with v u's parent,
    4 z(u) = 4 z(v) - 2 key(u)_i alpha-check_i, as s_i moves v 2 rho_check by
    -<alpha_i, v 2 rho_check> alpha-check_i and key(u)_i = -key(v)_i."""
    d = build_datum(spec)
    expected = {}
    for w in weyl_enumerate(d):
        if not w.word:
            z4 = (0,) * d.rank
        else:
            i = w.word[0]
            k = w.key[i - 1]
            z4 = tuple(a - 2 * k * c for a, c in
                       zip(expected[_step(w, i)], d.simple_coroots[i - 1]))
        expected[w] = z4
        assert _four_z(w) == z4, w


def test_weyl_order_interns_no_element():
    clear_all_caches()
    d = build_datum("F4 sc")
    before = _elem_from_matrix.cache_info().currsize
    assert weyl_order(d) == 1152
    assert _elem_from_matrix.cache_info().currsize == before
    # |W(A8)|^2: 131,681,894,400 elements, far more than fit in memory
    assert weyl_order(build_datum("GL(9) x GL(9)")) == 362880 ** 2
    assert _elem_from_matrix.cache_info().currsize == before


def test_descents():
    d = build_datum("A2 sc")
    u = weyl_from_word(d, [1, 2])
    assert descent(u, 2) and not descent(u, 1)
    w0 = longest_element(d)
    assert descent(w0, 1) and descent(w0, 2)
    assert not descent(weyl_identity(d), 1)


def test_weyl_act_sides():
    d = build_datum("A1 sc")
    s = simple_reflection(d, 1)
    # on X^*: s(alpha) = -alpha with alpha = (2)
    assert weyl_act(s, (Q(3),), side="X^*") == (Q(-3),)
    # on X_* the matrix is the same in rank one
    assert weyl_act(s, (Q(5),)) == (Q(-5),)
    assert weyl_act(s, (Q(5),), side="X_*") == (Q(-5),)
    # exactly the two lattice names: the old aliases are refused
    for side in ("left", "char", "cochar"):
        with pytest.raises(InputError):
            weyl_act(s, (Q(1),), side=side)


def test_weyl_act_refuses_a_vector_of_the_wrong_length():
    # the matrix is zipped against the vector, so a short or long one was cut silently
    d = build_datum("A2 sc")
    s1 = simple_reflection(d, 1)
    assert weyl_act(s1, (1, 0)) == (-1, 0)
    assert weyl_act(s1, (1, 0), side="X^*") == (-1, 1)
    for side in ("X_*", "X^*"):
        for x in ((1, 2, 3), (1,), ()):
            with pytest.raises(InputError):
                weyl_act(s1, x, side=side)


def test_act_respects_pairing():
    # <u x, u y> = <x, y> with x in X^*, y in X_*
    rng = Random(11)
    d = build_datum("B2 sc")
    for u in weyl_enumerate(d):
        for _ in range(5):
            x = tuple(Q(rng.randrange(-4, 5)) for _ in range(2))
            y = tuple(Q(rng.randrange(-4, 5)) for _ in range(2))
            ux = weyl_act(u, x, side="X^*")
            uy = weyl_act(u, y)
            assert sum(a * b for a, b in zip(ux, uy)) == sum(
                a * b for a, b in zip(x, y))


def test_inverse_and_mul_consistency():
    d = build_datum("A3 sc")
    rng = Random(5)
    elems = weyl_enumerate(d)
    for _ in range(40):
        u = rng.choice(elems)
        v = rng.choice(elems)
        assert weyl_mul(u, weyl_inv(u)) == weyl_identity(d)
        assert weyl_inv(weyl_mul(u, v)) == weyl_mul(weyl_inv(v), weyl_inv(u))
        assert len(weyl_inv(u).word) == len(u.word)


def test_apply_aut_to_weyl():
    d = build_datum("A2 sc")
    flip = neg_w0_aut(d)
    s1 = simple_reflection(d, 1)
    assert apply_aut_to_weyl(flip, s1) == simple_reflection(d, 2)
    u = weyl_from_word(d, [1, 2])
    assert apply_aut_to_weyl(flip, u).word == (2, 1)
    # w0 is central under any diagram symmetry
    w0 = longest_element(d)
    assert apply_aut_to_weyl(flip, w0) == w0


def test_an_index_past_the_digit_limit_is_refused_with_its_size():
    # repr raises ValueError on an int past the interpreter's digit limit (4,300 digits
    # since 3.10.7); the refusal echoes such an index by its size in bits instead
    with pytest.raises(InputError) as exc:
        weyl_from_word(build_datum("A1 sc"), [10 ** 5000])
    assert len(str(exc.value)) < 250
    if hasattr(sys, "get_int_max_str_digits"):
        assert str(exc.value) == "simple index <int of 16610 bits> out of range 1..1"


def test_weyl_enumerate_is_not_cached():
    # W is walked afresh on each call, and no cache keeps it
    d = build_datum("B3 sc")
    assert not hasattr(weyl_enumerate, "cache_clear")
    first, again = weyl_enumerate(d), weyl_enumerate(d)
    assert first == again and first is not again and len(first) == weyl_order(d) == 48


# each call through a walk on keys; the child prints the name of each that raises InvalidCartan
INFINITE_TYPE_CHILD = """
import sys
import lparams.weyl as w
from lparams.errors import InvalidCartan
from lparams.rootdata import RootDatum
d = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
calls = {
    "weyl_enumerate": lambda: w.weyl_enumerate(d),
    "neg_w0_aut": lambda: w.neg_w0_aut(d),
    "longest_element": lambda: w.longest_element(d),
    "weyl_identity": lambda: w.weyl_identity(d),
    "weyl_from_word": lambda: w.weyl_from_word(d, [1, 2]),
    "parabolic_subgroup": lambda: list(w.parabolic_subgroup(d, [1, 2])),
}
for name, call in calls.items():
    try:
        call()
    except InvalidCartan:
        print(name)
"""


def test_weyl_entry_points_refuse_a_datum_of_infinite_type():
    # RootDatum validates nothing, and the walks read keys, not the root table: on the
    # affine A1 matrix they ran without end, so the child runs under a timeout
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", INFINITE_TYPE_CHILD], capture_output=True,
                          text=True, timeout=10, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["weyl_enumerate", "neg_w0_aut", "longest_element",
                                   "weyl_identity", "weyl_from_word", "parabolic_subgroup"]
