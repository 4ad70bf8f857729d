"""Weyl elements as interned pairing keys, against the matrix canonicalization.

A WeylElem is its key (<alpha_j, w rho_check>)_j, its word is the dominance
descent on the key, and its matrices are built from the word on demand. The
representation it replaced, an X_* matrix canonicalized by peeling left
descents, is kept here as a test-only oracle, with a breadth-first
enumeration of W keyed by matrices. Hypothesis laws of the group close the
file.
"""

from functools import cache, reduce
from random import Random

import pytest

import lparams.intlinalg as intlinalg
import lparams.weyl as weyl
from lparams.errors import InvariantViolated
from lparams.intlinalg import ident, mat_mul, mat_neg, mat_vec, transpose, vneg
from lparams.lgroup import has_compact_cartan, lgroup_compact, lgroup_split
from lparams.rootdata import build_datum, coaction, positive_roots
from lparams.weyl import (
    apply_aut_to_weyl,
    descent,
    neg_w0_aut,
    simple_reflection,
    weyl_enumerate,
    weyl_from_word,
    weyl_identity,
    weyl_inv,
    weyl_mul,
)
from oracle_matrices import xcostar_reflections, xstar_reflections

# every type of rank <= 4, both lattices where they differ, and GL(n) with |W| <= 1152
GROUPS = (["T1", "A1 sc", "A1 ad", "A2 sc", "A3 sc", "A3 ad", "A4 sc", "B2 sc", "B2 ad",
           "B3 sc", "B3 ad", "B4 sc", "C2 sc", "C3 sc", "C3 ad", "C4 sc", "D2 sc", "D3 sc",
           "D4 sc", "D4 ad", "F4 sc", "G2 sc", "G2 ad", "A1 sc x A1 sc",
           "A2 sc x GL(2)"]
          + [f"GL({n})" for n in range(1, 7)])


# ---------------------------------------------------------------------------
# oracles: the matrix canonicalization and a matrix-keyed enumeration

def _word_matrix(d, word, reflections=xcostar_reflections):
    return reduce(mat_mul, (reflections(d)[i - 1] for i in word), ident(d.rank))


@cache
def ref_canon(d, matrix):
    """(word, xstar) of the element acting on X_* by matrix, by peeling left descents."""
    pos = frozenset(positive_roots(d))
    refl = xcostar_reflections(d)
    word, m = [], matrix
    for _ in range(len(pos) + 1):
        if m == ident(d.rank):
            word = tuple(word)
            return word, _word_matrix(d, word, xstar_reflections)
        mt = transpose(m)
        # left descent: w^{-1}(alpha_i) < 0, and w^{-1} acts on X^* by m^T
        i = next(i for i, alpha in enumerate(d.simple_roots)
                 if vneg(mat_vec(mt, alpha)) in pos)
        word.append(i + 1)
        m = mat_mul(refl[i], m)
    raise RuntimeError("matrix is not a Weyl group element")


@cache
def ref_enumerate(d):
    """All of W as (word, matrix, xstar), by length then word, from a BFS on matrices."""
    refl = xcostar_reflections(d)
    layer = [ident(d.rank)]
    seen = set(layer)
    out = list(layer)
    while layer:
        nxt = []
        for m in layer:
            for r in refl:
                v = mat_mul(m, r)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        nxt.sort(key=lambda m: ref_canon(d, m)[0])
        out.extend(nxt)
        layer = nxt
    return tuple((ref_canon(d, m)[0], m, ref_canon(d, m)[1]) for m in out)


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", GROUPS)
def test_all_of_w_matches_matrix_oracle(group):
    d = build_datum(group)
    ref = ref_enumerate(d)
    got = weyl_enumerate(d)
    assert [u.word for u in got] == [word for word, _, _ in ref]
    assert [u.matrix for u in got] == [m for _, m, _ in ref]
    assert [u.xstar for u in got] == [x for _, _, x in ref]
    assert len(set(got)) == len(got)
    for u, (word, _, _) in zip(got, ref):
        assert all(k != 0 for k in u.key)
        # another word for the same element gives the same interned object
        v = weyl_from_word(d, word + (1, 1) if d.nsimple else word)
        assert v is u and v == u and hash(v) == hash(u)


@pytest.mark.parametrize("group", ["GL(7)", "GL(8)", "GL(9)"])
def test_seeded_products_match_matrix_oracle(group):
    d = build_datum(group)
    rng = Random(int(group[3]))
    flip = neg_w0_aut(d)
    n, n_inv = coaction(flip), transpose(flip.matrix)
    for _ in range(6):
        words = [[rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(48))]
                 for _ in range(2)]
        (u, mu), (v, mv) = ((weyl_from_word(d, w), _word_matrix(d, w)) for w in words)
        assert u.word == ref_canon(d, mu)[0] and u.matrix == mu
        uv = weyl_mul(u, v)
        assert uv.word == ref_canon(d, mat_mul(mu, mv))[0]
        assert uv.matrix == mat_mul(mu, mv)
        assert weyl_inv(u).word == ref_canon(d, _word_matrix(d, words[0][::-1]))[0]
        conj = mat_mul(mat_mul(n, mu), n_inv)
        assert apply_aut_to_weyl(flip, u).word == ref_canon(d, conj)[0]
        assert apply_aut_to_weyl(flip, u).matrix == conj


COMPACT_GROUPS = (["A1 sc", "A2 sc", "A3 sc", "A4 sc", "B2 sc", "B3 sc", "B4 sc", "C3 sc",
                   "D4 sc", "G2 sc", "F4 sc"] + [f"GL({n})" for n in range(2, 7)])


def scan_has_compact_cartan(L):
    """Some w in W with w . coaction(theta0) = -1, over the oracle's matrices."""
    d = L.dual_datum
    nmat = coaction(L.theta0)
    return any(mat_mul(m, nmat) == mat_neg(ident(d.rank)) for _, m, _ in ref_enumerate(d))


@pytest.mark.parametrize("group", COMPACT_GROUPS)
@pytest.mark.parametrize("make", [lgroup_split, lgroup_compact], ids=["split", "compact"])
def test_has_compact_cartan_matches_scan(group, make):
    L = make(build_datum(group))
    assert has_compact_cartan(L) == scan_has_compact_cartan(L)


def test_descent_guard_raises_invariant_violated(monkeypatch):
    d = build_datum("A2 sc")
    # allow a single step: the key of w0 needs three
    monkeypatch.setattr(weyl, "positive_roots", lambda d: ((1, 0),))
    with pytest.raises(InvariantViolated):
        weyl._descend(d, [-1, -1], [0, 0])


def test_group_operations_do_no_matrix_arithmetic(monkeypatch):
    d = build_datum("GL(9)")
    flip = neg_w0_aut(d)

    def refuse(*args):
        raise AssertionError("matrix arithmetic in a Weyl group operation")

    # weyl no longer imports mat_mul; the name is patched anyway, so that a
    # matrix product that comes back into weyl is refused here too
    for name in ("ident", "mat_mul", "mat_neg", "mat_vec"):
        monkeypatch.setattr(weyl, name, refuse, raising=False)
    u = weyl_from_word(d, [3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 8, 7])
    v = weyl_mul(u, simple_reflection(d, 2))
    assert weyl_mul(v, weyl_inv(v)) == weyl_identity(d)
    assert apply_aut_to_weyl(flip, u) == weyl_from_word(d, [9 - i for i in u.word])
    assert descent(u, u.word[-1])


def test_matrix_is_built_without_mat_mul(monkeypatch):
    """Each letter of the word is a rank-one row update, not a rank^3 product."""
    d = build_datum("GL(9)")
    u = weyl_mul(weyl.longest_element(d), simple_reflection(d, 4))
    want = _word_matrix(d, u.word), _word_matrix(d, u.word, xstar_reflections)
    calls = []

    def counting(*args):
        calls.append(args)
        return mat_mul(*args)

    monkeypatch.setattr(intlinalg, "mat_mul", counting)
    monkeypatch.setattr(weyl, "mat_mul", counting, raising=False)
    weyl._matrix.cache_clear()
    assert (u.matrix, u.xstar) == want
    assert len(u.word) == 35 and calls == []


# ---------------------------------------------------------------------------
# canonical words from the parent, against the descent of the whole key

# every type of rank <= 4 in both lattices, GL(n) for n <= 6 and two products
WORD_GROUPS = ([f"{t}{n} {lat}" for t, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)),
                                                  ("C", (2, 3, 4)), ("D", (2, 3, 4)),
                                                  ("F", (4,)), ("G", (2,)))
                for n in ranks for lat in ("sc", "ad")]
               + [f"GL({n})" for n in range(1, 7)] + ["A1 sc x A1 sc", "B3 sc x G2 sc"])


def descent_word(d, key):
    """The word the dominance descent of the whole key gives, the canonicalizer replaced."""
    return tuple(i for i, _, _ in weyl._descend(d, list(key), [0] * len(key)))


@pytest.mark.parametrize("group", WORD_GROUPS)
def test_enumeration_words_match_descent(group, cold, monkeypatch):
    d = build_datum(group)
    with monkeypatch.context() as m:
        # a cold enumeration interns each element after its parent: no full descent
        m.setattr(weyl, "_descend", lambda *args: pytest.fail("full descent"))
        elems = weyl_enumerate(d)
    assert weyl._elem_from_matrix.cache_info().currsize == len(elems)
    for u in elems:
        assert u.word == descent_word(d, u.key)


@pytest.mark.parametrize("group", ["F4 sc", "B4 ad", "D4 sc", "GL(6)", "B3 sc x G2 sc"])
def test_random_words_match_descent(group, cold):
    d = build_datum(group)
    rng = Random(f"parent-words:{group}")
    top = 3 * len(positive_roots(d))
    for _ in range(200):
        u = weyl_from_word(d, [rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(top))])
        assert u.word == descent_word(d, u.key)


def _nested(depth, f):
    return f() if depth == 0 else _nested(depth - 1, f)


@pytest.mark.parametrize("copies", [7, 14])
def test_deep_product_longest_element(copies, cold):
    """7 copies (252 positive roots) recurse on parents, 14 (504) keep the full descent."""
    d = build_datum(" x ".join(["GL(9)"] * copies))
    w0 = weyl.longest_element(build_datum("GL(9)")).word
    # the canonical word of a product is its factors' words, one after the other
    want = tuple(i + 8 * k for k in range(copies) for i in w0)
    # called under 200 extra frames, as from a deep caller
    assert _nested(200, lambda: weyl.longest_element(d)).word == want
    assert descent_word(d, (-1,) * d.nsimple) == want


# ---------------------------------------------------------------------------
# laws

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

LAW_GROUPS = ["B3 sc", "G2 sc", "D4 sc", "F4 ad", "GL(5)", "A1 sc x A1 sc"]
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _draw(data, group, k):
    d = build_datum(group)
    letters = st.lists(st.integers(1, d.nsimple), max_size=2 * len(positive_roots(d)))
    return d, [data.draw(letters) for _ in range(k)]


@pytest.mark.parametrize("group", LAW_GROUPS)
@SETTINGS
@given(data=st.data())
def test_mul_is_associative(group, data):
    d, words = _draw(data, group, 3)
    u, v, w = (weyl_from_word(d, x) for x in words)
    assert weyl_mul(weyl_mul(u, v), w) == weyl_mul(u, weyl_mul(v, w))


@pytest.mark.parametrize("group", LAW_GROUPS)
@SETTINGS
@given(data=st.data())
def test_inverse_is_two_sided(group, data):
    d, (word,) = _draw(data, group, 1)
    u = weyl_from_word(d, word)
    assert weyl_mul(u, weyl_inv(u)) == weyl_identity(d)
    assert weyl_mul(weyl_inv(u), u) == weyl_identity(d)


@pytest.mark.parametrize("group", LAW_GROUPS)
@SETTINGS
@given(data=st.data())
def test_descent_is_a_length_drop(group, data):
    d, (word,) = _draw(data, group, 1)
    u = weyl_from_word(d, word)
    for i in range(1, d.nsimple + 1):
        assert descent(u, i) == (len(weyl_mul(u, simple_reflection(d, i)).word) < len(u.word))


@pytest.mark.parametrize("group", LAW_GROUPS)
@SETTINGS
@given(data=st.data())
def test_matrices_are_products_of_reflections(group, data):
    d, (word,) = _draw(data, group, 1)
    u = weyl_from_word(d, word)
    assert u.matrix == _word_matrix(d, word)
    assert u.xstar == _word_matrix(d, word, xstar_reflections)
    assert u.matrix == _word_matrix(d, u.word)
