"""The W-free theorem pipeline against brute-force scans of the whole Weyl group.

`twisted_involutions`, the dominance descent `_dominance_descent` and
`params_equivalent` no longer scan W: the first walks the twisted-involution
graph, the second descends by simple pairings updated through the Cartan
matrix, and the third only tries the stabilizer of the dominant point. The
scans they replaced are kept here, verbatim in substance, as test-only
oracles.
"""

from fractions import Fraction as Q
from itertools import product
from random import Random

import pytest

from lparams.gaussian import GaussQ, ScaledVec, read_gauss
from lparams.intlinalg import mat_vec, solve_congruence_scaled
from lparams.lgroup import parse_inner_class
from lparams.lparam import (
    _dominance_descent,
    conjugate_param,
    contragredient_param,
    make_param,
    params_equivalent,
    random_param,
    tau_twist_param,
    twisted_involutions,
    validity_rows,
)
from lparams.rootdata import all_roots, build_datum
from lparams.tits import torus_part
from lparams.weyl import (
    apply_aut_to_weyl,
    parabolic_subgroup,
    weyl_enumerate,
    weyl_identity,
    weyl_mul,
    weyl_order,
)
from oracle_matrices import xcostar_reflections

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
    for _ in range(len(all_roots(d)) + 1):
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
        if tuple(mat_vec(u.matrix, p.lam)) != tuple(q.lam):
            continue
        pc = conjugate_param(p, u)
        diff = q.mu - pc.mu
        if pc.w == q.w and solve_congruence_scaled(one_minus, diff.num, diff.den) is not None:
            return True
    return False


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group,inner", SMALL + BIG, ids=_ids(SMALL + BIG))
def test_twisted_involutions_match_scan(group, inner):
    L = _L(group, inner)
    got = twisted_involutions(L)
    assert isinstance(got, list)
    assert [w.word for w in got] == [w.word for w in scan_twisted_involutions(L)]
    got.clear()  # a fresh list each call: the cached set is untouched
    assert twisted_involutions(L)


@pytest.mark.parametrize("group,inner", SMALL + BIG, ids=_ids(SMALL + BIG))
def test_dominant_rep_matches_scan(group, inner):
    L = _L(group, inner)
    d = L.dual_datum
    rng = Random(f"dominant:{group}")
    for _ in range(4):
        lam = random_param(L, rng).lam
        for vec in (lam, tuple(-x for x in lam)):
            want = ScaledVec.of(scan_dominant_rep(d, vec))
            assert dominant(d, vec) == want
            assert dominant(d, want) == want


def test_dominant_rep_singular_and_complex():
    d = build_datum("B3 sc")
    for vec in [(0, 0, 0), (1, 1, 0), (GaussQ(0, -1), 0, GaussQ(0, 1)),
                (GaussQ(1, 2), GaussQ(1, -2), GaussQ("1/3", 0))]:
        assert dominant(d, vec) == ScaledVec.of(scan_dominant_rep(d, vec))


def test_parabolic_subgroup_orders():
    d = build_datum("B3 sc")
    assert len(parabolic_subgroup(d, [])) == 1
    assert len(parabolic_subgroup(d, [1, 2])) == 6
    assert len(parabolic_subgroup(d, [1, 3])) == 4
    assert len(parabolic_subgroup(d, [1, 2, 3])) == weyl_order(d)


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
