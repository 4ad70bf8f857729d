"""Weyl elements as interned pairing keys, against the matrix canonicalization.

A WeylElem is its key (<alpha_j, w rho_check>)_j, its word is the dominance
descent on the key, and its matrices are built from the word on demand. The
representation it replaced, an X_* matrix canonicalized by peeling left
descents, is kept here as a test-only oracle, with a breadth-first
enumeration of W keyed by matrices. The Cayley graph the interned elements
carry (left neighbours, inverses) is checked against one-letter replays and
the matrix oracle, cold and warm, and so are the inversion masks filled from
the parent against the old per-coroot fill. Hypothesis laws of the group
close the file.
"""

from functools import cache, reduce
from random import Random

import pytest

import lparams.intlinalg as intlinalg
import lparams.weyl as weyl
from lparams.errors import DatumMismatch, InvariantViolated
from lparams.intlinalg import ident, mat_mul, mat_neg, mat_vec, transpose, vneg
from lparams.lgroup import has_compact_cartan, lgroup_compact, lgroup_split, parse_inner_class
from lparams.rootdata import RootDatum, _root_system, based_aut, build_datum, coaction
from lparams.weyl import (
    apply_aut_to_weyl,
    neg_w0_aut,
    simple_reflection,
    weyl_enumerate,
    weyl_from_word,
    weyl_identity,
    weyl_inv,
    weyl_mul,
)
from cold_caches import clear_all_caches
from oracle_matrices import descent, inversion_masks, xcostar_reflections, xstar_reflections

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
    pos = frozenset(_root_system(d).roots)
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


# based automorphisms: the D4 diagram swap and triality (perm (3, 2, 4, 1), of order 3, so
# the only one here that tells perm from its inverse), -w0 (None) and a factor swap
AUTS = [("D4 sc", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        ("D4 sc", [[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]),
        ("A3 sc", None), ("GL(5)", None), ("GL(3) x GL(3)", None),
        ("A1 sc x A1 sc", [[0, 1], [1, 0]])]


@pytest.mark.parametrize("group,matrix", AUTS, ids=["D4 swap", "D4 triality", "A3 -w0",
                                                    "GL(5) -w0", "GL(3)xGL(3) -w0",
                                                    "A1xA1 swap"])
def test_aut_on_weyl_is_the_letter_by_letter_replay(group, matrix, cold):
    d = build_datum(group)
    a = neg_w0_aut(d) if matrix is None else based_aut(d, matrix)
    for u in weyl_enumerate(d):
        assert apply_aut_to_weyl(a, u) is weyl_from_word(d, [a.perm[i - 1] for i in u.word])


COMPACT_GROUPS = (["A1 sc", "A2 sc", "A3 sc", "A4 sc", "B2 sc", "B3 sc", "B4 sc", "C3 sc",
                   "D4 sc", "G2 sc", "F4 sc"] + [f"GL({n})" for n in range(2, 7)]
                  + ["A1 ad", "A2 ad", "A3 ad", "A4 ad", "B2 ad", "B3 ad", "B4 ad", "C3 ad",
                     "D4 ad", "G2 ad", "F4 ad", "B3 sc x G2 sc", "GL(3) x GL(3)", "A1 sc x T1",
                     "T1"])
SWAPS = [("D4 sc", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
         ("A1 sc x A1 sc", [[0, 1], [1, 0]])]


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


@pytest.mark.parametrize("group,gamma", SWAPS, ids=[g for g, _ in SWAPS])
def test_has_compact_cartan_matches_scan_on_swaps(group, gamma):
    L = parse_inner_class(build_datum(group), gamma)
    assert has_compact_cartan(L) == scan_has_compact_cartan(L)


def test_descent_guard_raises_invariant_violated(monkeypatch):
    d = build_datum("A2 sc")
    # allow a single step: the key of w0 needs three
    root_system = weyl._root_system
    monkeypatch.setattr(weyl, "_root_system", lambda d: root_system(d)._replace(roots=((1, 0),)))
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
    calls = []

    def counting(*args):
        calls.append(args)
        return mat_mul(*args)

    monkeypatch.setattr(intlinalg, "mat_mul", counting)
    monkeypatch.setattr(weyl, "mat_mul", counting, raising=False)
    # an empty intern table: u and its parents are new elements with no matrix filled
    clear_all_caches()
    u = weyl_mul(weyl.longest_element(d), simple_reflection(d, 4))
    assert u._mat is None
    want = _word_matrix(d, u.word), _word_matrix(d, u.word, xstar_reflections)
    assert (u.matrix, u.xstar) == want
    assert len(u.word) == 35 and calls == []


# ---------------------------------------------------------------------------
# the Cayley graph on the interned elements: neighbours, products and inverses

GRAPH_GROUPS = ["A3 sc", "B3 sc", "G2 sc", "D4 sc", "A1 sc x A1 sc"]


@pytest.mark.parametrize("group", GRAPH_GROUPS)
def test_every_neighbour_is_the_one_letter_replay(group, cold):
    d = build_datum(group)
    elems = weyl_enumerate(d)
    rng = Random(f"graph:{group}")
    # fill some lists by products, as a workload does, then step every element
    for _ in range(50):
        weyl_mul(rng.choice(elems), rng.choice(elems))
    for w in elems:
        for i in range(1, d.nsimple + 1):
            weyl._step(w, i)
    for w in elems:
        assert len(w._left) == d.nsimple + 1 and w._left[0] is None
        for i in range(1, d.nsimple + 1):
            # the replay reads the intern table, so a filled neighbour is the interned element
            assert w._left[i] is weyl._replay(d, (i,), w.key)
            assert w._left[i]._left[i] is w


def _oracle_pairs(d, pairs):
    """(u, v) as words, with the oracle's canonical word and matrix of u v."""
    for wu, wv in pairs:
        m = mat_mul(_word_matrix(d, wu), _word_matrix(d, wv))
        yield wu, wv, ref_canon(d, m)[0], m


def _check_products(d, pairs):
    cases = list(_oracle_pairs(d, pairs))
    for wu, wv, word, m in cases:
        # from empty tables: the product fills one neighbour and replays the rest of the word
        clear_all_caches()
        u, v = weyl_from_word(d, wu), weyl_from_word(d, wv)
        assert v._left is None and u._inv is None
        uv = weyl_mul(u, v)
        assert (uv.word, uv.matrix) == (word, m)
    elems = {}
    for wu, wv, word, m in cases:
        # warm: repeated, a product fills the rest of its walk and then only hops
        u = elems.setdefault(wu, weyl_from_word(d, wu))
        v = elems.setdefault(wv, weyl_from_word(d, wv))
        for _ in range(len(wu) + 1):
            uv = weyl_mul(u, v)
            assert (uv.word, uv.matrix) == (word, m)
            assert uv is weyl_from_word(d, word)


@pytest.mark.parametrize("group", ["G2 sc", "A3 sc"])
def test_products_on_the_graph_match_matrix_oracle(group, cold):
    d = build_datum(group)
    words = [word for word, _, _ in ref_enumerate(d)]
    _check_products(d, [(a, b) for a in words for b in words])


def test_seeded_f4_products_on_the_graph_match_matrix_oracle(cold):
    d = build_datum("F4 sc")
    rng = Random("graph:F4 sc")
    top = 2 * len(_root_system(d).roots)
    pairs = [tuple(tuple(rng.randrange(1, 5) for _ in range(rng.randrange(top))) for _ in range(2))
             for _ in range(60)]
    _check_products(d, pairs)


def test_a_repeated_product_fills_its_path_and_then_only_hops(cold, monkeypatch):
    d = build_datum("F4 sc")
    u, v = weyl.longest_element(d), weyl_from_word(d, [2, 3, 2, 1])
    want = weyl_mul(u, v)
    # each call fills one more neighbour on the walk from v along u's word
    for _ in range(len(u.word) - 1):
        assert weyl_mul(u, v) is want
    monkeypatch.setattr(weyl, "_replay", lambda *args: pytest.fail("replay on a filled path"))
    assert weyl_mul(u, v) is want
    x = v
    for i in reversed(u.word):
        x = x._left[i]
    assert x is want


@pytest.mark.parametrize("group", GRAPH_GROUPS + ["F4 sc", "GL(5)"])
def test_inverse_is_linked_both_ways(group, cold):
    d = build_datum(group)
    for u in weyl_enumerate(d):
        v = weyl_inv(u)
        assert weyl_inv(v) is u and u._inv is v and v._inv is u
        assert v is weyl_from_word(d, u.word[::-1])


def test_products_over_different_data_raise():
    a2, b2 = build_datum("A2 sc"), build_datum("B2 sc")
    with pytest.raises(DatumMismatch):
        weyl_mul(simple_reflection(a2, 1), simple_reflection(b2, 1))
    # an equal datum built separately is the same datum
    twin = RootDatum(a2.rank, a2.simple_roots, a2.simple_coroots, "twin")
    assert twin is not a2
    s1, s2 = simple_reflection(twin, 1), simple_reflection(a2, 2)
    assert weyl_mul(s1, s2) == weyl_from_word(a2, [1, 2])


def test_the_intern_table_keeps_cache_statistics():
    """hits, misses and currsize as a functools cache reports them; every miss interns one
    element, and clearing the package's caches empties the table."""
    d = build_datum("B3 sc")
    weyl_enumerate(d)
    clear_all_caches()
    info = weyl._elem_from_matrix.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    elems = weyl_enumerate(d)
    # a cold walk interns each element once, from the one that reached it
    assert weyl._elem_from_matrix.cache_info()[:2] == (0, len(elems))
    w0 = weyl.longest_element(d)
    assert w0 is elems[-1] and weyl_from_word(d, w0.word) is w0
    info = weyl._elem_from_matrix.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, len(elems), len(elems))
    clear_all_caches()
    assert weyl._elem_from_matrix.cache_info().currsize == 0


def test_clearing_the_caches_leaves_fresh_elements_unfilled():
    d = build_datum("GL(5)")
    old = weyl_enumerate(d)
    for u in old:
        weyl_mul(u, weyl_inv(u)).matrix
        u.matrix
    assert all(u._left is not None and u._inv is not None for u in old[1:])
    clear_all_caches()
    fresh = weyl_enumerate(d)
    assert fresh == old and not any(u is v for u, v in zip(fresh, old))
    assert all(u._left is None and u._inv is None and u._mat is None and u._masks is None
               for u in fresh)


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


NEIGHBOUR_GROUPS = ["A3 sc", "B3 sc", "G2 sc", "D4 sc", "F4 sc", "A1 sc x A1 sc"]


@pytest.mark.parametrize("shuffled", [False, True], ids=["walk", "shuffled"])
@pytest.mark.parametrize("group", NEIGHBOUR_GROUPS)
def test_every_neighbour_gets_the_descent_word(group, shuffled, cold, monkeypatch):
    """A neighbour missing from the table is interned by the miss walk from its key: up the
    canonical parents to the nearest interned one, then i followed by the parent's word."""
    d = build_datum(group)
    with monkeypatch.context() as m:
        # the walk updates each key in place from a Cartan column
        m.setattr(weyl, "_replay_key", lambda *args: pytest.fail("key replayed"))
        elems = list(weyl_enumerate(d))
    if shuffled:
        Random(f"neighbours:{group}").shuffle(elems)
    # the elements outlive the table, so the first step to each neighbour interns it
    clear_all_caches()
    for u in elems:
        for i in range(1, d.nsimple + 1):
            v = weyl._step(u, i)
            assert v.word == descent_word(d, v.key)
            assert v is weyl._elem_from_matrix(d, v.key)
    assert weyl._elem_from_matrix.cache_info().currsize == len(elems)


@pytest.mark.parametrize("group", ["F4 sc", "B4 ad", "D4 sc", "GL(6)", "B3 sc x G2 sc"])
def test_random_words_match_descent(group, cold):
    d = build_datum(group)
    rng = Random(f"parent-words:{group}")
    top = 3 * len(_root_system(d).roots)
    for _ in range(200):
        u = weyl_from_word(d, [rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(top))])
        assert u.word == descent_word(d, u.key)


def _nested(depth, f):
    return f() if depth == 0 else _nested(depth - 1, f)


@pytest.mark.parametrize("copies", [7, 14])
def test_deep_product_longest_element(copies, cold):
    """7 copies (252 positive roots) and 14 (504): w0 is interned by one walk up its parents.

    -w0 reverses each factor's Dynkin diagram; its X^* matrix is read off the
    inverse's X_* matrix, with no recursion over the word.
    """
    d = build_datum(" x ".join(["GL(9)"] * copies))
    w0 = weyl.longest_element(build_datum("GL(9)")).word
    # the canonical word of a product is its factors' words, one after the other
    want = tuple(i + 8 * k for k in range(copies) for i in w0)
    # called under 200 extra frames, as from a deep caller
    assert _nested(200, lambda: weyl.longest_element(d)).word == want
    assert descent_word(d, (-1,) * d.nsimple) == want
    perm = tuple(8 * k + 9 - i for k in range(copies) for i in range(1, 9))
    assert _nested(200, lambda: neg_w0_aut(d)).perm == perm


# ---------------------------------------------------------------------------
# inversion masks from the parent, against the per-coroot fill

MASK_GROUPS = ["A1 sc", "A2 sc", "A3 ad", "B3 sc", "B3 ad", "C3 sc", "C3 ad", "G2 sc", "D4 sc",
               "D4 ad", "F4 sc", "B4 ad", "C4 ad", "GL(3)", "GL(5)", "A1 sc x A1 sc",
               "B2 ad x G2 sc"]


@pytest.mark.parametrize("shuffled", [False, True], ids=["walk", "shuffled"])
@pytest.mark.parametrize("group", MASK_GROUPS)
def test_masks_from_the_parent_match_the_per_coroot_fill(group, shuffled, cold):
    d = build_datum(group)
    elems = list(weyl_enumerate(d))
    if shuffled:
        # most elements then fill a chain of unfilled parents first
        Random(f"masks:{group}").shuffle(elems)
    got = [weyl._inversion_masks(u) for u in elems]
    assert got == [inversion_masks(u) for u in elems]


@pytest.mark.parametrize("group", ["GL(8)", "F4 sc x F4 sc"])
def test_masks_of_seeded_elements_match_the_per_coroot_fill(group, cold):
    d = build_datum(group)
    rng = Random(f"masks:{group}")
    top = 2 * len(_root_system(d).roots)
    for _ in range(500):
        u = weyl_from_word(d, [rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(top))])
        assert weyl._inversion_masks(u) == inversion_masks(u)


def test_one_fill_fills_every_canonical_ancestor(cold):
    d = build_datum("GL(6)")
    w0 = weyl.longest_element(d)
    weyl._inversion_masks(w0)
    # the canonical parent of an element drops the first letter of its word
    chain = [weyl_from_word(d, w0.word[k:]) for k in range(len(w0.word) + 1)]
    assert all(u._masks is not None for u in chain)
    assert chain[-1] is weyl_identity(d) and chain[-1]._masks == (0, (0,) * d.rank)


def _alone(group, count):
    """(datum, keys): w0, or count seeded deep words' keys, each to be interned alone."""
    d = build_datum(group)
    if not count:
        return d, [(-1,) * d.nsimple]
    rng = Random(f"alone:{group}")
    words = ([rng.randrange(1, d.nsimple + 1) for _ in range(rng.randrange(60, 120))]
             for _ in range(count))
    return d, [tuple(weyl._replay_key(d, w, (1,) * d.nsimple)) for w in words]


@pytest.mark.parametrize("group,count", [("F4 sc", 0), ("GL(9)", 0), ("GL(5) x GL(5)", 20)])
def test_fill_of_an_element_interned_alone_interns_its_parents(group, count, cold, monkeypatch):
    """A miss interns the element asked for and none of its parents; filling its matrix and
    masks then climbs by the parent step, which interns each parent with no miss walk."""
    d, keys = _alone(group, count)
    intern, info = weyl._elem_from_matrix, weyl._elem_from_matrix.cache_info

    def no_walk(d, key, word=None):
        assert word is not None or key in weyl._interned[d], "miss walk"
        return intern(d, key, word)

    for k, key in enumerate(keys):
        clear_all_caches()
        u = intern(d, key)
        assert info().currsize == 1 and u.word == descent_word(d, key) and len(u.word) > 5
        with monkeypatch.context() as m:
            m.setattr(weyl, "_elem_from_matrix", no_walk)
            if k % 2:  # the masks first, which fill the matrices on the way
                weyl._inversion_masks(u)
            mat, masks = u.matrix, weyl._inversion_masks(u)
        assert info().currsize == len(u.word) + 1
        assert mat == _word_matrix(d, u.word)
        assert masks == inversion_masks(u)


def test_a_root_missing_from_the_step_table_raises_invariant_violated(cold, monkeypatch):
    d = build_datum("A2 sc")
    root_system = weyl._root_system
    monkeypatch.setattr(weyl, "_root_system", lambda d: root_system(d)._replace(steps={}))
    with pytest.raises(InvariantViolated):
        weyl._inversion_masks(simple_reflection(d, 1))


# ---------------------------------------------------------------------------
# laws

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

LAW_GROUPS = ["B3 sc", "G2 sc", "D4 sc", "F4 ad", "GL(5)", "A1 sc x A1 sc"]
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _draw(data, group, k):
    d = build_datum(group)
    letters = st.lists(st.integers(1, d.nsimple), max_size=2 * len(_root_system(d).roots))
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
