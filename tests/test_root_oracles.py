"""The integer root table and the Levi root set against the routes they replaced.

`rootdata.positive_root_table` finds the positive roots as coefficient
vectors by a closure through the Cartan matrix. The route it replaced, kept
here as a test-only oracle, took the orbit of the simple roots under the
reflection matrices and expanded each root in the simple roots by a Fraction
Gauss-Jordan solve to read its sign and height. `lparam._levi_roots` reads
the Levi roots M as the roots negated by theta transpose; the oracle is the
annihilator of sympy's kernel of 1 - theta, as levi_of used to compute it.
"""

import json
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

from lparams.errors import NormalizationRequired, NotInvolution
from lparams.intlinalg import mat_vec, one_minus
from lparams.lgroup import parse_inner_class
from lparams.lparam import (
    _involution,
    _levi_roots,
    _levi_subsystem,
    levi_of,
    make_param,
    param_to_dict,
    random_param,
    twisted_involutions,
)
from lparams.rootdata import (
    all_coroots,
    all_roots,
    build_datum,
    dual_datum,
    is_positive_root,
    positive_coroots,
    positive_root_table,
    positive_roots,
    rho_check,
    xcostar_reflections,
    xstar_reflections,
)
from lparams.tits import torus_part
from lparams.weyl import weyl_from_word

DATA = Path(__file__).resolve().parent / "data"

TYPES = [f"{letter}{n}" for letter, ranks in
         (("A", range(1, 5)), ("B", range(2, 5)), ("C", range(2, 5)), ("D", range(2, 5)),
          ("F", (4,)), ("G", (2,)))
         for n in ranks]
PRODUCTS = ["A1 sc x A1 sc", "A2 sc x GL(2)", "B2 ad x G2 sc", "GL(2) x T1", "C3 sc x A1 ad"]
DATA_SPECS = ([f"{t} {lat}" for t in TYPES for lat in ("sc", "ad")]
              + [f"GL({n})" for n in range(1, 10)] + ["T1"] + PRODUCTS)

D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
# the 8 theorem_fleet and 3 big_weyl configurations of the benchmark, and GL(5) compact
LEVI_FLEET = [
    ("A2 sc", "compact"),
    ("B3 sc", "split"),
    ("C3 ad", "split"),
    ("G2 sc", "split"),
    ("D4 sc", D4_SWAP),
    ("GL(4)", "split"),
    ("GL(3)", "compact"),
    ("A1 sc x A1 sc", [[0, 1], [1, 0]]),
    ("B4 sc", "split"),
    ("F4 sc", "split"),
    ("GL(6)", "split"),
    ("GL(5)", "compact"),
]


def _orbit(seeds, mats):
    """The reflection orbit of the seeds, as rootdata found the roots before."""
    seen = set(seeds)
    queue = list(seeds)
    while queue:
        v = queue.pop()
        for m in mats:
            w = mat_vec(m, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _expand(basis, v):
    """Coefficients c with sum_j c_j basis[j] = v, by Fraction Gauss-Jordan; None if none."""
    m = len(basis)
    rows = [[Q(b[k]) for b in basis] + [Q(v[k])] for k in range(len(v))]
    r = 0
    pivots = []
    for c in range(m):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[m] for row in rows[r:]):
        return None
    coeffs = [Q(0)] * m
    for row, c in zip(rows, pivots):
        coeffs[c] = row[m]
    return tuple(coeffs)


def _oracle_table(d, coroots):
    basis = d.simple_coroots if coroots else d.simple_roots
    mats = xcostar_reflections(d) if coroots else xstar_reflections(d)
    orbit = _orbit(basis, mats)
    table = []
    for v in orbit:
        c = _expand(basis, v)
        assert c is not None and all(x.denominator == 1 for x in c)
        if all(x >= 0 for x in c):
            table.append((sum(c), v, tuple(int(x) for x in c)))
        else:
            assert all(x <= 0 for x in c)
    return tuple(sorted(table)), frozenset(orbit)


@pytest.mark.parametrize("spec", DATA_SPECS)
def test_root_table_matches_orbit_and_expansion(spec):
    d = build_datum(spec)
    # rho of d is rho-check of the dual datum, whose coroots are the roots of d
    for coroots, pos_fn, all_fn, rho_fn in (
            (False, positive_roots, all_roots, lambda d: rho_check(dual_datum(d))),
            (True, positive_coroots, all_coroots, rho_check)):
        want, orbit = _oracle_table(d, coroots)
        got = positive_root_table(d, coroots)
        assert got == want
        assert all(type(h) is int and all(type(x) is int for x in c) for h, _, c in got)
        assert pos_fn(d) == tuple(v for _, v, _ in want)
        assert all_fn(d) == orbit
        half = tuple(Q(sum(v[k] for _, v, _ in want), 2) for k in range(d.rank))
        assert rho_fn(d) == half
    pos = set(positive_roots(d))
    for v in all_roots(d):
        assert is_positive_root(d, v) == (v in pos)
        assert is_positive_root(d, list(v)) == (v in pos)
    assert not is_positive_root(d, (0,) * d.rank)


@pytest.mark.parametrize("spec", ["A4 sc", "B3 ad", "D4 sc", "F4 sc", "GL(5)", "B2 ad x G2 sc"])
def test_levi_subsystem_matches_expansion(spec):
    d = build_datum(spec)
    _, orbit = _oracle_table(d, False)
    m = d.nsimple
    for mask in range(1 << m):
        subset = frozenset(i + 1 for i in range(m) if mask >> i & 1)
        want = frozenset(v for v in orbit
                         if all(c == 0 or (i + 1) in subset
                                for i, c in enumerate(_expand(d.simple_roots, v))))
        assert _levi_subsystem(d, subset) == want


def test_levi_roots_match_sympy_kernel():
    sympy = pytest.importorskip("sympy")
    checked = nonempty = 0
    for group, inner in LEVI_FLEET:
        L = parse_inner_class(build_datum(group), inner)
        d = L.dual_datum
        for w in twisted_involutions(L):
            theta = _involution(L, w).theta
            kernel = sympy.Matrix(one_minus(theta)).nullspace()
            want = frozenset(a for a in all_roots(d)
                             if all(sum(x * y for x, y in zip(a, v)) == 0 for v in kernel))
            got = _levi_roots(d, theta)
            assert got == want, (group, w.word)
            checked += 1
            nonempty += bool(got)
    assert checked == 418 and nonempty >= 300


def _levi_dump(count=8):
    lines = []
    for group, inner in LEVI_FLEET:
        L = parse_inner_class(build_datum(group), inner)
        for k in range(count):
            p = random_param(L, Random(f"levi:{group}:{k}"))
            lines.append(json.dumps(param_to_dict(p), sort_keys=True))
            try:
                levi, reduced = levi_of(p)
            except NormalizationRequired as exc:
                lines.append(f"  cayley {list(exc.witness)}")
                continue
            lines.append(f"  levi {sorted(levi.subset)} "
                         f"{json.dumps(param_to_dict(reduced), sort_keys=True)}")
    return "\n".join(lines) + "\n"


def test_levi_of_dump_is_unchanged():
    # levi_dump.txt was written by this same function on the code that found M
    # as the annihilator of a rational kernel of 1 - theta and expanded every
    # root in the simple roots by a Fraction solve
    assert _levi_dump() == (DATA / "levi_dump.txt").read_text()


def test_levi_of_refuses_a_theta_that_is_not_an_involution():
    # an LParam built around make_param's validity rows: w = s1 on GL(3) compact
    # is not a twisted involution, and theta = s1 (-w0) does not square to 1
    L = parse_inner_class(build_datum("GL(3)"), "compact")
    p = make_param(L, ("1", "0", "-1"), torus_part((0, 0, 0)), weyl_from_word(L.dual_datum, []))
    bad = type(p)(L, p.lam_s, p.mu, weyl_from_word(L.dual_datum, [1]))
    assert not _involution(L, bad.w).involutive
    with pytest.raises(NotInvolution):
        levi_of(bad)
