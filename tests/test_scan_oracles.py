"""The W-free theorem pipeline against brute-force scans of the whole Weyl group.

`twisted_involutions`, the dominance descent `_dominance_descent`,
`params_equivalent` and `levi_of` no longer scan a materialised W: the first
walks the twisted-involution graph, the second descends by simple pairings
updated through the Cartan matrix, the third only tries the stabilizer of
the dominant point, and the fourth walks W lazily and reads its test off
u's own matrix. The scans they replaced are kept here, verbatim in
substance, as test-only oracles, and the lazy walks are checked to intern
only what they reach.

The theorem op takes shortcuts that are checked here too, on every
theorem_fleet and big_weyl configuration, at seeded lambda, lambda = 0,
lambda on a wall and complex lambda: row 1's dominant(-inf) is -w0 inf(p)
in closed form, `_params_equivalent` reuses a descent it is handed, the
radical E-group is cached per L, and the descent moves v once by the
summed coefficients. The per-step update it replaced is kept as an oracle.
"""

from fractions import Fraction as Q
from itertools import islice, product
from random import Random

import pytest

from lparams import lparam, weyl
from lparams.errors import NormalizationRequired
from lparams.gaussian import GaussQ, ScaledVec, read_gauss
from lparams.intlinalg import (
    descend_map,
    mat_mul,
    mat_vec,
    saturation_projection,
    solve_congruence_scaled,
    vdot,
)
from lparams.lgroup import StandardLevi, parse_inner_class
from lparams.lparam import (
    _dominance_descent,
    _levi_roots,
    _params_equivalent,
    _radical,
    _s_hat_roots,
    conjugate_param,
    contragredient_param,
    levi_of,
    make_param,
    params_equivalent,
    random_param,
    tau_twist_param,
    twisted_involutions,
    validity_rows,
    verify_contragredient,
)
from lparams.rootdata import _root_system, build_datum, coaction
from lparams.tits import TorusPart, torus_part
from lparams.torus import torus_egroup
from lparams.weyl import (
    _replay_key,
    apply_aut_to_weyl,
    longest_element,
    parabolic_subgroup,
    weyl_act,
    weyl_enumerate,
    weyl_identity,
    weyl_mul,
    weyl_order,
)
from cold_caches import clear_all_caches
from gauss_entries import gauss_entries
from oracle_matrices import levi_subsystem, xcostar_reflections

D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]

# |W| <= 192, covering a diagram swap, a factor swap and compact classes.
SMALL = [
    ("A2 sc", "compact"),
    ("B3 sc", "split"),
    ("C3 ad", "split"),
    ("G2 sc", "split"),
    ("D4 sc", D4_SWAP),
    ("GL(4)", "split"),
    ("GL(3)", "compact"),
    ("A1 sc x A1 sc", [[0, 1], [1, 0]]),
]
BIG = [("B4 sc", "split"), ("F4 sc", "split"), ("GL(6)", "split"), ("GL(5)", "compact")]


def _L(group, inner):
    return parse_inner_class(build_datum(group), inner)


def _ids(configs):
    return [f"{g}|{ic if isinstance(ic, str) else 'matrix'}" for g, ic in configs]


# ---------------------------------------------------------------------------
# oracles: scans over the whole of W

def scan_twisted_involutions(L):
    d = L.dual_datum
    return [w for w in weyl_enumerate(d)
            if weyl_mul(w, apply_aut_to_weyl(L.theta0, w)) == weyl_identity(d)]


def _lex_nonneg(val):
    return val.re > 0 or (val.re == 0 and val.im >= 0)


def scan_dominant_rep(d, vec):
    """Greedy ascent recomputing every simple pairing in GaussQ after each reflection."""
    v = tuple(map(read_gauss, vec))
    refls = xcostar_reflections(d)
    for _ in range(len(_root_system(d).all_roots) + 1):
        i = next((k for k in range(d.nsimple)
                  if not _lex_nonneg(sum((a * x for a, x in zip(d.simple_roots[k], v)),
                                         start=GaussQ(0)))), None)
        if i is None:
            return v
        v = tuple(mat_vec(refls[i], v))
    raise RuntimeError("ascent did not terminate")


def dominant(d, vec):
    """The dominant point of vec's W-orbit, by the library's dominance descent."""
    return _dominance_descent(d, ScaledVec.of(vec))[0]


def scan_params_equivalent(p, q):
    n = p.L.dual_datum.rank
    one_minus = tuple(tuple((1 if r == c else 0) - q.theta[r][c] for c in range(n))
                      for r in range(n))
    for u in weyl_enumerate(p.L.dual_datum):
        if p.lam.apply(u.matrix) != q.lam:
            continue
        pc = conjugate_param(p, u)
        diff = q.mu - pc.mu
        if pc.w == q.w and solve_congruence_scaled(one_minus, diff.num, diff.den) is not None:
            return True
    return False


def scan_levi_of(p):
    """levi_of over the materialised W: the X^* image of M under each u against Phi_J."""
    d = p.L.dual_datum
    mset = _levi_roots(d, p.theta)
    for alpha in _s_hat_roots(p):
        if alpha in mset:
            raise NormalizationRequired("centralizer root is negated by theta", witness=alpha)
    perm = p.L.theta0.perm
    for u in weyl_enumerate(d):
        image = frozenset(tuple(weyl_act(u, alpha, side="X^*")) for alpha in mset)
        subset = frozenset(i + 1 for i in range(d.nsimple) if d.simple_roots[i] in image)
        if any(perm[i - 1] not in subset for i in subset):
            continue
        if levi_subsystem(d, subset) == image:
            return StandardLevi(subset), conjugate_param(p, u)
    raise AssertionError("no Weyl element standardizes the Levi")


# ---------------------------------------------------------------------------

def _swap(n):
    """The factor swap of a product of two rank-n factors."""
    return [[int(c == (r + n) % (2 * n)) for c in range(2 * n)] for r in range(2 * n)]


COMPACT = [(g, "compact") for g in ("A1 sc", "A3 ad", "A4 sc", "B2 ad", "B4 sc", "C3 sc",
                                    "D4 ad", "F4 sc", "G2 sc", "GL(2)", "GL(4)", "GL(6)",
                                    "B3 sc x G2 sc")]
SWAPS = [("A2 sc x A2 sc", _swap(2)), ("B2 sc x B2 sc", _swap(2)), ("GL(3) x GL(3)", _swap(3)),
         ("A3 sc x A3 sc", _swap(3))]
WALKS = SMALL + BIG + COMPACT + SWAPS


@pytest.mark.parametrize("group,inner", WALKS, ids=_ids(WALKS))
def test_twisted_involutions_match_scan(group, inner, cold):
    L = _L(group, inner)
    got = twisted_involutions(L)
    assert isinstance(got, list)
    assert [w.word for w in got] == [w.word for w in scan_twisted_involutions(L)]
    got.clear()  # a fresh list each call: the cached set is untouched
    assert twisted_involutions(L)


# too large to scan: 5,776 twisted involutions, which have 17,711 canonical suffixes
WALKS_UNSCANNED = [("GL(6) x GL(6)", "split")]


@pytest.mark.parametrize("group,inner", WALKS + WALKS_UNSCANNED, ids=_ids(WALKS + WALKS_UNSCANNED))
def test_cold_walk_interns_only_twisted_involutions_and_suffixes(group, inner, cold,
                                                                  monkeypatch):
    """The walk asks the intern table only for twisted involutions and their canonical
    suffixes, never for an s_i w in between, and the table then holds exactly the
    twisted involutions: a miss interns only the element asked for."""
    L = _L(group, inner)
    d = L.dual_datum
    clear_all_caches()  # count only what the walk interns, not the inner class's parsing
    asked, real = [], weyl._elem_from_matrix

    def recording(datum, key):
        asked.append(key)
        return real(datum, key)

    for mod in (weyl, lparam):
        monkeypatch.setattr(mod, "_elem_from_matrix", recording)
    found = twisted_involutions(L)
    ones = (1,) * d.nsimple
    suffixes = {tuple(_replay_key(d, w.word[k:], ones))
                for w in found for k in range(len(w.word) + 1)}
    assert {w.key for w in found} <= set(asked) <= suffixes
    assert real.cache_info().currsize == len(found)


@pytest.mark.parametrize("group,inner", SMALL + BIG, ids=_ids(SMALL + BIG))
def test_dominant_rep_matches_scan(group, inner):
    L = _L(group, inner)
    d = L.dual_datum
    rng = Random(f"dominant:{group}")
    for _ in range(4):
        lam = random_param(L, rng).lam
        for vec in (lam, -lam):
            want = ScaledVec.of(scan_dominant_rep(d, gauss_entries(vec)))
            assert dominant(d, vec) == want
            assert dominant(d, want) == want


def test_dominant_rep_singular_and_complex():
    d = build_datum("B3 sc")
    for vec in [(0, 0, 0), (1, 1, 0), (GaussQ(0, -1), 0, GaussQ(0, 1)),
                (GaussQ(1, 2), GaussQ(1, -2), GaussQ("1/3", 0))]:
        assert dominant(d, vec) == ScaledVec.of(scan_dominant_rep(d, vec))


def test_parabolic_subgroup_orders():
    d = build_datum("B3 sc")
    assert len(tuple(parabolic_subgroup(d, []))) == 1
    assert len(tuple(parabolic_subgroup(d, [1, 2]))) == 6
    assert len(tuple(parabolic_subgroup(d, [1, 3]))) == 4
    assert len(tuple(parabolic_subgroup(d, [1, 2, 3]))) == weyl_order(d)


@pytest.mark.parametrize("group,inner", SMALL, ids=_ids(SMALL))
def test_params_equivalent_matches_scan(group, inner):
    L = _L(group, inner)
    d = L.dual_datum
    elems = weyl_enumerate(d)
    rng = Random(f"equivalent:{group}")
    for _ in range(3):
        p = random_param(L, rng)
        den = rng.choice([2, 3, 4])
        t = torus_part([Q(rng.randrange(-den, den + 1), den) for _ in range(d.rank)])
        pairs = [
            (p, conjugate_param(p, t)),
            (p, conjugate_param(p, rng.choice(elems))),
            (contragredient_param(p), tau_twist_param(p)),
            (p, contragredient_param(p)),
        ]
        for k, (a, b) in enumerate(pairs):
            want = scan_params_equivalent(a, b)
            assert params_equivalent(a, b) == want, (a, b)
            assert want or k == 3  # the first three pairs are conjugate by construction


@pytest.mark.parametrize("group,inner", [("G2 sc", "split"), ("B2 sc", "split"),
                                         ("A2 sc", "compact")])
def test_params_equivalent_matches_scan_at_lambda_zero(group, inner):
    # lambda = 0: the stabilizer is all of W, and only w and mu decide
    L = _L(group, inner)
    n = L.dual_datum.rank
    zero = (0,) * n
    params = []
    for w in twisted_involutions(L):
        for bits in product((0, Q(1, 2)), repeat=n):
            if all(ok for _, ok, _, _ in validity_rows(L, zero, bits, w)):
                params.append(make_param(L, zero, bits, w))
    params = params[::max(1, len(params) // 8)][:8]
    verdicts = set()
    for p in params:
        for q in params:
            want = scan_params_equivalent(p, q)
            assert params_equivalent(p, q) == want, (p, q)
            verdicts.add(want)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the theorem op's shortcuts

def stepwise_descent(d, v):
    """The dominance descent moving both numerator rows at every step, as it once did."""
    re, im = list(v.re), list(v.im)
    cols = [[vdot(a, re) for a in d.simple_roots], [vdot(a, im) for a in d.simple_roots]]
    steps = []
    for _ in range(len(_root_system(d).all_roots) + 1):
        i = next((k for k in range(d.nsimple) if (cols[0][k], cols[1][k]) < (0, 0)), None)
        if i is None:
            return ScaledVec(re, im, v.den), steps, list(zip(*cols))
        ri, ii = cols[0][i], cols[1][i]
        steps.append(i + 1)
        cv = d.simple_coroots[i]
        re = [x - ri * c for x, c in zip(re, cv)]
        im = [x - ii * c for x, c in zip(im, cv)]
        cols = [[vdot(a, re) for a in d.simple_roots], [vdot(a, im) for a in d.simple_roots]]
    raise RuntimeError("descent did not terminate")


def _on_wall(d, v, i, f):
    """v - (<alpha_i, v> / <alpha_i, f>) f, on the wall of alpha_i, for an integer f."""
    a = vdot(d.simple_roots[i], f)
    if a < 0:
        a, f = -a, [-x for x in f]
    pr, pi = vdot(d.simple_roots[i], v.re), vdot(d.simple_roots[i], v.im)
    return ScaledVec([x * a - pr * c for x, c in zip(v.re, f)],
                     [x * a - pi * c for x, c in zip(v.im, f)], v.den * a)


def descent_points(L, rng):
    """Seeded lambdas and their negatives, 0, points on walls, and complex points."""
    d = L.dual_datum
    n = d.rank
    pts = [ScaledVec([0] * n, [0] * n, 1)]
    for _ in range(3):
        lam = random_param(L, rng).lam
        r = [rng.randrange(-6, 7) for _ in range(n)]
        s = [rng.randrange(-6, 7) for _ in range(n)]
        i = rng.randrange(d.nsimple)
        wall = _on_wall(d, lam, i, r if vdot(d.simple_roots[i], r) else d.simple_coroots[i])
        pts += [lam, -lam, wall, -wall, ScaledVec(r, s, rng.choice([1, 2, 3])),
                _on_wall(d, ScaledVec(r, s, 6), 0, d.simple_coroots[0])]
    return pts


@pytest.mark.parametrize("group,inner", SMALL + BIG, ids=_ids(SMALL + BIG))
def test_descent_moves_once_like_stepwise(group, inner):
    L = _L(group, inner)
    d = L.dual_datum
    pts = descent_points(L, Random(f"once:{group}"))
    assert any(any(v.im) for v in pts) and any(not any(v.re) for v in pts)
    for v in pts:
        assert _dominance_descent(d, v) == stepwise_descent(d, v), v


@pytest.mark.parametrize("group,inner", SMALL + BIG, ids=_ids(SMALL + BIG))
def test_neg_w0_is_dominant_point_of_negation(group, inner):
    # row 1 of verify_contragredient: dominant(-inf) = -w0 inf, with no descent
    L = _L(group, inner)
    d = L.dual_datum
    w0 = longest_element(d).matrix
    walls = 0
    for v in descent_points(L, Random(f"w0:{group}")):
        dom, _, pairings = _dominance_descent(d, v)
        walls += any(p == (0, 0) for p in pairings)
        want = -dom.apply(w0)
        assert want == _dominance_descent(d, -dom)[0], v
        assert want == ScaledVec.of(scan_dominant_rep(d, gauss_entries(-v))), v
    assert walls


def _zero_params(L, count):
    """`count` valid parameters at lambda = 0, spread over w and mu in {0, 1/2}^n."""
    n = L.dual_datum.rank
    zero = (0,) * n
    found = [(w, bits) for w in twisted_involutions(L)
             for bits in product((0, Q(1, 2)), repeat=n)
             if all(ok for _, ok, _, _ in validity_rows(L, zero, bits, w))]
    return [make_param(L, zero, bits, w) for w, bits in found[::max(1, len(found) // count)]]


def _wall_param(L, p):
    """p with lambda moved along a theta-fixed direction onto a wall, when one exists."""
    d = L.dual_datum
    for i in range(d.nsimple):
        for k in range(d.rank):
            f = [int(r == k) + t for r, t in enumerate(row[k] for row in p.theta)]
            if vdot(d.simple_roots[i], f):
                return make_param(L, _on_wall(d, p.lam, i, f), p.mu, p.w)
    return None


def _shifted(p):
    """p with mu moved by a nonzero delta in {0, 1/2}^n, when that stays valid; lambda kept."""
    n = p.L.dual_datum.rank
    for bits in product((0, 1), repeat=n):
        mu = p.mu + TorusPart.scaled(bits, 2)
        if any(bits) and all(ok for _, ok, _, _ in validity_rows(p.L, p.lam, mu, p.w)):
            return make_param(p.L, p.lam, mu, p.w)
    return None


@pytest.mark.parametrize("group,inner", SMALL + BIG, ids=_ids(SMALL + BIG))
def test_shared_descent_equivalence_matches_scan(group, inner):
    L = _L(group, inner)
    d = L.dual_datum
    rng = Random(f"shared:{group}")
    big = (group, inner) in BIG
    params = [random_param(L, rng) for _ in range(2 if big else 3)]
    params += [q for q in map(lambda p: _wall_param(L, p), params) if q is not None]
    params += _zero_params(L, 1 if big else 2)
    assert any(any(p.lam.im) for p in params)
    verdicts = set()
    for p in params:
        cp, tp = contragredient_param(p), tau_twist_param(p)
        shared = _dominance_descent(d, cp.lam)
        assert _params_equivalent(cp, tp, shared) is params_equivalent(cp, tp) is True
        assert scan_params_equivalent(cp, tp)
        t = torus_part([Q(rng.randrange(-4, 5), 4) for _ in range(d.rank)])
        for q in (conjugate_param(p, t), _shifted(p), cp, _wall_param(L, p)):
            if q is None:
                continue
            want = scan_params_equivalent(p, q)
            assert _params_equivalent(p, q, _dominance_descent(d, p.lam)) == want, (p, q)
            assert params_equivalent(p, q) == want
            verdicts.add(want)
    assert verdicts == {True, False}


# groups with a radical torus, on which theta0 acts by 1, -1 and a swap
RADICAL = [("GL(3) x GL(3)", _swap(3)), ("GL(3) x GL(3)", "compact"), ("A1 sc x T1", "split"),
           ("A1 sc x T1", "compact"), ("B2 sc x GL(2)", "split"), ("B2 sc x GL(2)", "compact")]


@pytest.mark.parametrize("group,inner", SMALL + BIG + RADICAL, ids=_ids(SMALL + BIG + RADICAL))
def test_radical_egroup_matches_fresh(group, inner):
    """The radical E-group is cached per L: every w theta0 descends to the same map."""
    L = _L(group, inner)
    d = L.dual_datum
    proj, uinv, rank = saturation_projection(d.simple_coroots, d.rank)
    for w in twisted_involutions(L):
        theta = mat_mul(w.matrix, coaction(L.theta0))
        fresh = torus_egroup(descend_map(proj, uinv, rank, theta), (0,) * len(proj))
        assert _radical(L)[:2] == (proj, fresh)


# ---------------------------------------------------------------------------
# levi_of and the lazy walk of W

# the theorem_fleet and big_weyl configurations of the benchmark
BENCH = SMALL + BIG[:3]


def _levi_outcome(fn, p):
    """(sorted J, reduced parameter), or ("cayley", witness root) when fn asks for a Cayley move."""
    try:
        levi, reduced = fn(p)
    except NormalizationRequired as exc:
        return "cayley", exc.witness
    return sorted(levi.subset), reduced


@pytest.mark.parametrize("group,inner", BENCH, ids=_ids(BENCH))
def test_levi_of_matches_scan(group, inner):
    L = _L(group, inner)
    d = L.dual_datum
    rng = Random(f"levi-scan:{group}")
    params = [random_param(L, rng) for _ in range(6)]
    params.append(make_param(L, (0,) * d.rank, (0,) * d.rank, []))
    if d.rank <= 3:
        params.append(next(q for q in (_wall_param(L, p) for p in params) if q is not None))
    for p in params:
        assert _levi_outcome(levi_of, p) == _levi_outcome(scan_levi_of, p), p


def _interned():
    return weyl._elem_from_matrix.cache_info().currsize


def test_levi_of_interns_only_the_walk_it_reads(cold):
    # a materialised W(GL(5) x GL(5)) would intern all 14,400 elements
    L = _L("GL(5) x GL(5)", "split")
    p = random_param(L, Random(3))
    clear_all_caches()  # count only what levi_of interns, not the sampling's walk
    levi_of(p)
    assert _interned() < 100


def test_theorem_at_lambda_zero_walks_only_to_the_first_conjugator(cold):
    # at lambda = 0 the stabilizer W_J is all of W(GL(8)), 40,320 elements
    L = _L("GL(8)", "split")
    p = make_param(L, (0,) * 8, (0,) * 8, [])
    before = _interned()
    assert all(ok for _, ok, _ in verify_contragredient(p))
    assert _interned() - before < 100


def test_walk_of_w_is_lazy(cold):
    d = build_datum("GL(9) x GL(9) x GL(9)")
    first = list(islice(parabolic_subgroup(d, range(1, d.nsimple + 1)), 10))
    assert [u.word for u in first] == [()] + [(i,) for i in range(1, 10)]
    assert _interned() < 200
