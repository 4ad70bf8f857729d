"""The integer root tables and the Levi root set against the routes they replaced.

`rootdata._root_system` finds the positive roots and coroots as coefficient
vectors by one closure through the Cartan matrix. The route it replaced, kept
here as a test-only oracle, took the orbit of the simple roots under the
reflection matrices and expanded each root in the simple roots by a Fraction
Gauss-Jordan solve to read its sign and height. Each root's paired coroot is
checked against the reflection it defines. `lparam._levi_roots` reads
the Levi roots M as the roots negated by theta transpose; the oracle is the
annihilator of sympy's kernel of 1 - theta, as levi_of used to compute it.
The Levi subsystem levi_of once compared against, now the test-only
`oracle_matrices.levi_subsystem` of the scan oracle for levi_of, is checked
against the same expansion.
"""

import json
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

from lparams.errors import NormalizationRequired, NotInvolution
from lparams.intlinalg import mat_vec, one_minus, vdot
from lparams.lgroup import parse_inner_class
from lparams.lparam import (
    _involution,
    _levi_roots,
    levi_of,
    make_param,
    param_to_dict,
    random_param,
    twisted_involutions,
)
from lparams.rootdata import _root_system, build_datum, datum_from_vectors, dual_datum
from lparams.tits import torus_part
from lparams.weyl import weyl_from_word
from oracle_matrices import all_coroots, levi_subsystem, xcostar_reflections, xstar_reflections

DATA = Path(__file__).resolve().parent / "data"

TYPES = [f"{letter}{n}" for letter, ranks in
         (("A", range(1, 5)), ("B", range(2, 5)), ("C", range(2, 5)), ("D", range(2, 5)),
          ("F", (4,)), ("G", (2,)))
         for n in ranks]
PRODUCTS = ["A1 sc x A1 sc", "A2 sc x GL(2)", "B2 ad x G2 sc", "GL(2) x T1", "C3 sc x A1 ad",
            "GL(9) x GL(9)", "F4 sc x F4 sc x B4 ad", " x ".join(["A1 sc"] * 8)]
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
    # the root closure that decides finite type accepts every supported datum
    assert datum_from_vectors(d.simple_roots, d.simple_coroots, d.rank) == d
    rs = _root_system(d)
    # 2 rho of d is 2 rho-check of the dual datum, whose coroots are the roots of d
    for coroots, got, pos, every, two_rho in (
            (False, rs.table, rs.roots, rs.all_roots, _root_system(dual_datum(d)).two_rho_check),
            (True, rs.cotable, rs.coroots, all_coroots(d), rs.two_rho_check)):
        want, orbit = _oracle_table(d, coroots)
        assert got == want
        assert all(type(h) is int and all(type(x) is int for x in c) for h, _, c in got)
        assert pos == tuple(v for _, v, _ in want)
        assert every == orbit
        assert two_rho == tuple(sum(v[k] for _, v, _ in want) for k in range(d.rank))


@pytest.mark.parametrize("spec", DATA_SPECS)
def test_paired_coroots_reflect_the_roots(spec):
    # each positive root beta is paired with the coroot beta-check of its reflection:
    # <beta, beta-check> = 2 and x -> x - <x, beta-check> beta permutes the roots
    rs = _root_system(build_datum(spec))
    assert sorted(rs.steps) == sorted(rs.roots)
    assert sorted(j for j, _ in rs.steps.values()) == list(range(len(rs.coroots)))
    for beta, (j, odd) in rs.steps.items():
        check = rs.coroots[j]
        assert vdot(beta, check) == 2
        image = {tuple(x - vdot(v, check) * b for x, b in zip(v, beta)) for v in rs.all_roots}
        assert image == rs.all_roots
        assert odd == sum(1 << k for k, c in enumerate(rs.coroots) if vdot(beta, c) % 2)


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
        assert levi_subsystem(d, subset) == want


def test_levi_roots_match_sympy_kernel():
    sympy = pytest.importorskip("sympy")
    checked = nonempty = 0
    for group, inner in LEVI_FLEET:
        L = parse_inner_class(build_datum(group), inner)
        d = L.dual_datum
        for w in twisted_involutions(L):
            theta = _involution(L, w).theta
            kernel = sympy.Matrix(one_minus(theta)).nullspace()
            want = frozenset(a for a in _root_system(d).all_roots
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
    bad = type(p)(L, p.lam, p.mu, weyl_from_word(L.dual_datum, [1]), p.dif)
    assert not _involution(L, bad.w).twisted
    with pytest.raises(NotInvolution):
        levi_of(bad)
