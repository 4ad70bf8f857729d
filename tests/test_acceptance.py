"""Acceptance suite: one criterion per test, one printed verdict line each.

Each test prints "[C<n>] <name>: PASS/FAIL (<detail>)" on the real stdout so
the verdicts survive pytest capture, then asserts. Time budgets are part of
the criteria and are enforced, not just reported.
"""

import subprocess
import sys
import time
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from pathlib import Path
from random import Random

from lparams.errors import NormalizationRequired
from lparams.gaussian import GaussQ
from lparams.intlinalg import ident, mat_neg
from lparams.lgroup import has_compact_cartan, lgroup_compact, lgroup_split, standard_levis
from lparams.lparam import (
    conjugate_param,
    contragredient_param,
    is_discrete_series,
    levi_of,
    params_equivalent,
    random_param,
    verify_contragredient,
)
from lparams.rootdata import build_datum
from lparams.tits import run_tits_suite, sigma, tits_context, tits_mul, torus_elem, torus_part
from lparams.torus import (
    char_equal,
    param_to_char,
    random_torus_param,
    torus_contragredient,
    torus_egroup,
)
from lparams.weyl import simple_reflection, weyl_enumerate
from lparams.weilrep import (
    format_rep,
    lparam_to_weilrep,
    parse_weil_rep,
    weil_chi,
    weil_dual,
    weil_hermitian_dual,
    weil_ind,
    weil_inf_char,
    weil_is_hermitian,
    weil_is_unitary,
    weil_rep,
    weil_to_lparam,
)
from oracle_matrices import torus_char_data, torus_entries

DATA = Path(__file__).parent / "data"


def _report(capfd, crit, name, ok, detail):
    with capfd.disabled():
        print(f"[{crit}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# C1: exhaustive Tits identity suite over the whole fleet

def test_criterion_1_tits_suite_fleet(capfd):
    fleet = ["A1 sc", "A1 ad", "A2 sc", "B2 sc", "G2 sc", "A3 sc",
             "A1 sc x A1 sc", "GL(2)", "GL(3)"]
    t0 = time.perf_counter()
    failures = []
    for name in fleet:
        rows = run_tits_suite(tits_context(build_datum(name)))
        failures += [f"{name}: {r[0]} ({r[2]})" for r in rows if not r[1]]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10
    _report(capfd, "C1", "tits suite fleet", ok,
            f"{len(fleet)} groups, {elapsed:.2f}s" + ("" if not failures else f"; {failures}"))
    assert ok, failures


# ---------------------------------------------------------------------------
# C2: signed-matrix model of the Tits groups of SL(2) and SL(3)

_I4 = {0: 1, 1: 1j, 2: -1, 3: -1j}


def _unit(q):
    q = Q(q) % 1
    return _I4[int(q * 4) % 4]


def _mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _sl2_embed(g):
    c = _unit(torus_entries(g.t)[0])
    m = ((c, 0), (0, 1 / c))
    for _ in g.w.word:
        m = _mul(m, ((0, 1), (-1, 0)))
    return m


def _sl3_embed(g):
    c1, c2 = (_unit(x) for x in torus_entries(g.t))
    m = ((c1, 0, 0), (0, c2 / c1, 0), (0, 0, 1 / c2))
    blocks = {1: ((0, 1, 0), (-1, 0, 0), (0, 0, 1)),
              2: ((1, 0, 0), (0, 0, 1), (0, -1, 0))}
    for i in g.w.word:
        m = _mul(m, blocks[i])
    return m


def test_criterion_2_signed_matrix_oracle(capfd):
    failures = []
    total = 0
    for name, embed in (("A1 sc", _sl2_embed), ("A2 sc", _sl3_embed)):
        ctx = tits_context(build_datum(name))
        d = ctx.datum
        gens = []
        for i in range(d.rank):
            nu = [Q(0)] * d.rank
            nu[i] = Q(1, 2)
            gens.append(torus_elem(ctx, torus_part(nu)))
        for i in range(1, d.nsimple + 1):
            gens.append(sigma(ctx, simple_reflection(d, i)))
        # all products of at most four generators, extended one step at a time
        frontier = [(g, embed(g)) for g in gens]
        for _ in range(3):
            nxt = []
            for g, m in frontier:
                for h in gens:
                    gh = tits_mul(g, h)
                    mh = _mul(m, embed(h))
                    total += 1
                    if embed(gh) != mh:
                        failures.append(f"{name}: product embeds wrong")
                    nxt.append((gh, mh))
            frontier = nxt
    ok = not failures
    _report(capfd, "C2", "signed matrix oracle", ok,
            f"{total} products over SL(2), SL(3)")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# C3: torus duality, 500 parameters per torus

def test_criterion_3_torus_duality(capfd):
    tori = {"S^1": ((-1,),), "R^x": ((1,),),
            "C^x": ((0, 1), (1, 0)), "S^1 x R^x": ((-1, 0), (0, 1))}
    rng = Random(2024)
    t0 = time.perf_counter()
    failures = []
    for name, theta in tori.items():
        eg = torus_egroup(theta, (0,) * len(theta))
        for _ in range(500):
            p = random_torus_param(eg, rng)
            c = param_to_char(p)
            cc = param_to_char(torus_contragredient(p))
            neg = torus_char_data(c.theta, -c.lam, -c.kappa, c.gamma)
            if not char_equal(cc, neg):
                failures.append(name)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5
    _report(capfd, "C3", "torus contragredient duality", ok,
            f"4 tori x 500 params, {elapsed:.2f}s")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# C4: the theorem on a fleet of inner classes

def test_criterion_4_theorem_fleet(capfd):
    configs = [
        ("A1 sc", "split"), ("A1 ad", "split"), ("GL(2)", "split"),
        ("GL(3)", "split"), ("A2 sc", "split"), ("A2 sc", "compact"),
        ("B2 sc", "split"),
    ]
    rng = Random(4096)
    t0 = time.perf_counter()
    count = 0
    failures = []
    for name, cls in configs:
        d = build_datum(name)
        L = lgroup_split(d) if cls == "split" else lgroup_compact(d)
        for _ in range(20):
            p = random_param(L, rng)
            count += 1
            for row_name, row_ok, detail in verify_contragredient(p):
                if not row_ok:
                    failures.append(f"{name} {cls}: {row_name} ({detail})")
    elapsed = time.perf_counter() - t0
    ok = count >= 100 and not failures and elapsed < 120
    _report(capfd, "C4", "contragredient theorem fleet", ok,
            f"{count} params x 4 checks over 7 configs, {elapsed:.2f}s")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# C5: discrete series against a brute-force Levi containment oracle

def _factors_through_proper_levi(p):
    full = frozenset(range(1, p.L.dual_datum.nsimple + 1))
    for levi in standard_levis(p.L):
        if levi.subset == full:
            continue
        for u in weyl_enumerate(p.L.dual_datum):
            q = conjugate_param(p, u)
            if set(q.w.word) <= levi.subset:
                return True
    return False


def test_criterion_5_discrete_series_oracle(capfd):
    rng = Random(515)
    groups = [lgroup_split(build_datum("A1 sc")), lgroup_split(build_datum("GL(2)"))]
    checked = limits = 0
    failures = []
    for L in groups:
        for _ in range(150):
            p = random_param(L, rng)
            try:
                levi_of(p)
            except NormalizationRequired:
                # limit shapes: singular lambda pins an imaginary root, so
                # they are never discrete series; containment is undefined
                limits += 1
                if is_discrete_series(p):
                    failures.append("limit shape classified as discrete series")
                continue
            checked += 1
            # discrete iff NOT conjugate into a proper Levi, so equality of
            # the two booleans is the contradiction
            if is_discrete_series(p) == _factors_through_proper_levi(p):
                failures.append(
                    f"{L.dual_datum.label}: ds={is_discrete_series(p)} "
                    f"lam={p.lam} w={p.w.word}")
    ok = not failures and checked >= 100
    _report(capfd, "C5", "discrete series vs Levi oracle", ok,
            f"{checked} conclusive + {limits} limit shapes")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# C6: compact Cartan detection

def test_criterion_6_compact_cartan(capfd):
    expected = {"A1 sc": True, "A2 sc": False, "GL(2)": False, "B2 sc": True}
    failures = []
    for name, want in expected.items():
        L = lgroup_split(build_datum(name))
        got = has_compact_cartan(L)
        d = L.dual_datum
        brute = any(w.matrix == mat_neg(ident(d.rank)) for w in weyl_enumerate(d))
        if got != want or got != brute:
            failures.append(f"{name}: got={got} want={want} brute={brute}")
    ok = not failures
    _report(capfd, "C6", "compact Cartan table", ok, f"{len(expected)} groups")
    assert ok, failures


# ---------------------------------------------------------------------------
# C7: the Weil representation suite

def test_criterion_7_weil_suite(capfd):
    t0 = time.perf_counter()
    grid = [Q(n, 4) for n in range(-4, 5)]
    atoms = [weil_chi(t, e) for t in grid for e in (0, 1)]
    atoms += [weil_ind(k, t) for k in range(1, 5) for t in grid]
    reps = set()
    for size in range(1, 5):
        for combo in combinations_with_replacement(atoms, size):
            if sum(1 if a.kind == "chi" else 2 for a in combo) <= 4:
                reps.add(weil_rep(list(combo)))

    failures = []
    for r in reps:
        if weil_dual(weil_dual(r)) != r or weil_hermitian_dual(weil_hermitian_dual(r)) != r:
            failures.append(f"involution failure on {format_rep(r)}")
        if weil_is_unitary(r) and not weil_is_hermitian(r):
            failures.append(f"unitary but not hermitian: {format_rep(r)}")
        if len(weil_inf_char(r).re) != r.dim():
            failures.append(f"inf char arity: {format_rep(r)}")
        if parse_weil_rep(format_rep(r)) != r:
            failures.append(f"format round trip: {format_rep(r)}")
        if lparam_to_weilrep(weil_to_lparam(r)) != r:
            failures.append(f"bridge round trip: {format_rep(r)}")
        if failures:
            break

    # conjugation-sensitive functoriality on a seeded sample with complex t
    rng = Random(707)
    sample = 0
    while sample < 400 and not failures:
        items, dim = [], 0
        while dim < 4:
            t = GaussQ(Q(rng.randrange(-4, 5), 4), Q(rng.randrange(-4, 5), 4))
            if rng.randrange(2) and dim + 2 <= 4:
                items.append(weil_ind(rng.randrange(1, 5), t))
                dim += 2
            else:
                items.append(weil_chi(t, rng.randrange(2)))
                dim += 1
            if rng.randrange(3) == 0:
                break
        r = weil_rep(items)
        sample += 1
        p = weil_to_lparam(r)
        if not params_equivalent(contragredient_param(p), weil_to_lparam(weil_dual(r))):
            failures.append(f"dual/contragredient mismatch: {format_rep(r)}")
        conj = weil_rep([
            weil_chi(GaussQ(s.t.re, -s.t.im), s.eps) if s.kind == "chi"
            else weil_ind(s.k, GaussQ(s.t.re, -s.t.im)) for s in r.summands])
        if (weil_dual(r) == weil_hermitian_dual(r)) != (conj == r):
            failures.append(f"hermitian/conjugation criterion: {format_rep(r)}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30
    _report(capfd, "C7", "Weil representation suite", ok,
            f"{len(reps)} exhaustive reps + {sample} sampled, {elapsed:.1f}s")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# C8: golden CLI transcripts, byte for byte

def test_criterion_8_golden_cli(capfd):
    cases = [
        (["verify-theorem", "--param", str(DATA / "sl2r_ds.param")],
         DATA / "golden_verify_sl2r.txt", 0),
        (["validate-param", "--param", str(DATA / "bad_half.param")],
         DATA / "golden_validate_bad.txt", 1),
    ]
    failures = []
    for argv, golden, want_code in cases:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "lparams.cli"] + argv,
                                  capture_output=True)
            if proc.returncode != want_code:
                failures.append(f"{argv[0]}: exit {proc.returncode} != {want_code}")
            outs.append(proc.stdout)
        if outs[0] != outs[1]:
            failures.append(f"{argv[0]}: nondeterministic output")
        if outs[0] != golden.read_bytes():
            failures.append(f"{argv[0]}: differs from {golden.name}")
    ok = not failures
    _report(capfd, "C8", "golden CLI transcripts", ok,
            "2 commands x 2 runs, byte-compared")
    assert ok, failures
