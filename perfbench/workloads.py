"""The four benchmark workloads.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned. Op i draws its inputs from its own generator,
seeded with (workload, seed, i), so the inputs of op i do not depend on how
many ops ran before it, and the same seed gives the same inputs on every
machine. README.md says why each workload exists.

Library functions are always called through their module (`lparam.random_param`,
not an imported name), so that the tracing wrappers in spans.py see the calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from random import Random

from lparams import errors, gaussian, lgroup, lparam, rootdata, tits, weyl

import spans

D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
A1A1_SWAP = [[0, 1], [1, 0]]

# (group, inner class) pairs with |W| <= 192.
FLEET = [
    ("A2 sc", "compact"),
    ("B3 sc", "split"),
    ("C3 ad", "split"),
    ("G2 sc", "split"),
    ("D4 sc", D4_SWAP),
    ("GL(4)", "split"),
    ("GL(3)", "compact"),
    ("A1 sc x A1 sc", A1A1_SWAP),
]

# |W| = 384, 1152, 720. GL(7)-GL(9) are left out: see README.md.
BIG = [("B4 sc", "split"), ("F4 sc", "split"), ("GL(6)", "split")]


class Workload:
    """Interface the runner drives; subclasses fill in the four hooks.

    setup() returns its own duration in seconds and leaves the workload ready
    for ops. make_input(i) is untimed; run_op(x) is the timed op; check(x, r,
    canon) says whether the op was right and, when canon is true, returns the
    canonical text of its outputs for the digest.
    """

    name = ""
    cycle = 8          # ops i, i+1, ... i+cycle-1 cover every input kind once
    digest_ops = 8     # the digest covers ops 0 .. digest_ops-1
    trace_ops = 16     # ops per pass in the traced run
    setup_repeats = 5
    in_children = False  # ops run in child processes

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, i) -> Random:
        return Random(f"{self.name}:{self.seed}:{i}")

    def make_input(self, i):
        raise NotImplementedError

    def setup(self) -> float:
        raise NotImplementedError

    def run_op(self, x):
        raise NotImplementedError

    def check(self, x, result, canon: bool):
        raise NotImplementedError


class TheoremWorkload(Workload):
    """One op: random_param(L, rng), then verify_contragredient; all four rows PASS."""

    def __init__(self, seed: int, name: str, configs, trace_ops: int, setup_repeats: int):
        super().__init__(seed)
        self.name = name
        self.configs = configs
        self.cycle = self.digest_ops = len(configs)
        self.trace_ops = trace_ops
        self.setup_repeats = setup_repeats

    def setup(self) -> float:
        spans.clear_caches()
        t0 = time.perf_counter()
        self.groups = [lgroup.parse_inner_class(rootdata.build_datum(g), ic)
                       for g, ic in self.configs]
        for k, L in enumerate(self.groups):
            lgroup.lgroup_tits_context(L)
            self.run_op((L, self.rng(f"warm{k}")))
        return time.perf_counter() - t0

    def make_input(self, i):
        return self.groups[i % len(self.groups)], self.rng(i)

    def run_op(self, x):
        L, rng = x
        p = lparam.random_param(L, rng)
        return p, lparam.verify_contragredient(p)

    def check(self, x, result, canon: bool):
        p, rows = result
        ok = len(rows) == 4 and all(passed for _, passed, _ in rows)
        if not canon:
            return ok, ""
        doc = [lparam.param_to_dict(p), lparam.param_to_dict(lparam.contragredient_param(p)),
               [[name, passed, detail] for name, passed, detail in rows]]
        return ok, json.dumps(doc, sort_keys=True)


class TitsWorkload(Workload):
    """One op: three seeded extended Tits elements and four identities on them."""

    name = "tits_products"
    cycle = 4
    digest_ops = 8
    trace_ops = 24
    GROUPS = [("D4 sc", D4_SWAP), ("B4 sc", "split"), ("F4 sc", "split"), ("GL(5)", "compact")]

    def setup(self) -> float:
        spans.clear_caches()
        t0 = time.perf_counter()
        self.ctxs = []
        for g, inv in self.GROUPS:
            d = rootdata.build_datum(g)
            if inv == "split":
                theta0 = rootdata.identity_aut(d)
            elif inv == "compact":
                theta0 = weyl.neg_w0_aut(d)
            else:
                theta0 = rootdata.based_aut(d, inv)
            self.ctxs.append((tits.tits_context(d, theta0), weyl.weyl_enumerate(d)))
        for k in range(len(self.ctxs)):
            self.run_op(self.make_input(f"warm{k}", k))
        return time.perf_counter() - t0

    def make_input(self, i, k=None):
        k = i % len(self.ctxs) if k is None else k
        return self.ctxs[k], self.rng(i)

    @staticmethod
    def _draw(ctx, elems, rng):
        den = rng.choice([1, 2, 4])
        t = tits.torus_part([Q(rng.randrange(den), den) for _ in range(ctx.datum.rank)])
        return tits.ExtTitsElem(ctx, t, rng.choice(elems), rng.randrange(2))

    def run_op(self, x):
        (ctx, elems), rng = x
        g, h, k = (self._draw(ctx, elems, rng) for _ in range(3))
        mul, C = tits.tits_mul, tits.chevalley
        gh = mul(g, h)
        lhs, rhs = mul(gh, k), mul(g, mul(h, k))
        unit = mul(g, tits.tits_inverse(g))
        c_gh, cc = C(gh), mul(C(g), C(h))
        c_c = C(C(g))
        oks = [lhs == rhs, unit == tits.tits_identity(ctx), c_gh == cc, c_c == g]
        return (g, h, k, lhs, unit, c_gh, c_c), oks

    def check(self, x, result, canon: bool):
        elems, oks = result
        if not canon:
            return all(oks), ""
        doc = [[tits.elem_to_dict(e) for e in elems], oks]
        return all(oks), json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# cli_requests

CHECK_TITS = [("A1 sc", "split"), ("A2 sc", "split"), ("B2 sc", "split"), ("G2 sc", "split"),
              ("A3 sc", "split"), ("B3 ad", "split"), ("C3 sc", "split"), ("GL(3)", "split"),
              ("A2 sc", "compact"), ("A1 sc x A1 sc", json.dumps(A1A1_SWAP))]
FUZZ = [k for k, (_, ic) in enumerate(FLEET) if isinstance(ic, str)]  # --inner-class names only
WEIL_DIMS = [2, 3, 4, 5, 6]
SLOTS = ["verify-theorem", "invariants", "contragredient", "validate-param", "weilrep",
         "check-tits", "fuzz", "invalid-verify", "invalid-validate", "malformed"]
SUMMARY = {
    "verify-theorem": "4/4 PASS",
    "contragredient": "contragredient computed",
    "validate-param": "valid parameter",
    "fuzz": "3/3 instances verified",
}


def _gauss_literal(rng: Random) -> str:
    re = Q(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
    if rng.random() < 0.5:
        return str(re)
    im = Q(rng.randrange(1, 7), rng.choice([1, 2, 3]))
    return f"{re}{rng.choice('+-')}{im}i"


def _weil_literal(rng: Random, dim: int) -> str:
    terms, left = [], dim
    while left:
        if left >= 2 and rng.random() < 0.5:
            terms.append(f"I({rng.randrange(1, 4)},{_gauss_literal(rng)})")
            left -= 2
        else:
            terms.append(f"chi({_gauss_literal(rng)},{rng.randrange(2)})")
            left -= 1
    return "+".join(terms)


class CliWorkload(Workload):
    """One op: one `python -m lparams.cli` subprocess on a seeded command.

    Ops come in cycles of len(SLOTS) commands, one of each kind, in an order
    shuffled by the seed; the group, parameter or literal of each command is
    drawn from the seed too. The expected exit code and RESULT summary of
    every command is fixed when its input is made.
    """

    name = "cli_requests"
    cycle = digest_ops = len(SLOTS)
    trace_ops = 2 * len(SLOTS)
    setup_repeats = 9
    in_children = True
    TIMEOUT_S = 120

    def __init__(self, seed: int, root: str):
        super().__init__(seed)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.traced = False
        self.groups = [lgroup.parse_inner_class(rootdata.build_datum(g), ic) for g, ic in FLEET]
        # The speed probes (run.probe) run in this process while a child runs a
        # command. The vCPUs of a shared machine differ in speed, so keep the
        # children on this process's CPU, whose speed the probes measure.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def setup(self) -> float:
        code = ("import time; t = time.perf_counter(); import lparams.cli; "
                "print(repr(time.perf_counter() - t))")
        out = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                             capture_output=True, text=True, timeout=self.TIMEOUT_S, check=True)
        return float(out.stdout.strip())

    # -- inputs ---------------------------------------------------------------

    def _valid_param(self, rng: Random, cycle: int):
        L = self.groups[cycle % len(self.groups)]
        return lparam.random_param(L, rng)

    def _invalid_param(self, rng: Random, cycle: int) -> dict:
        """A valid parameter with one entry moved off its lattice; refused with exit 1."""
        p = self._valid_param(rng, cycle)
        for _ in range(50):
            data = lparam.param_to_dict(p)
            field = rng.choice(["lambda", "mu"])
            j = rng.randrange(len(data[field]))
            shift = Q(1, rng.choice([3, 5, 7]))
            if field == "lambda":
                data[field][j] = gaussian.format_gauss(gaussian.parse_gauss(data[field][j]) + shift)
            else:
                data[field][j] = str(Q(data[field][j]) + shift)
            try:
                lparam.param_from_dict(data)
            except errors.InvalidParam:
                return data
        raise RuntimeError("no invalid perturbation found")

    def _malformed(self, rng: Random, cycle: int):
        p = lparam.param_to_dict(self._valid_param(rng, cycle))
        kind = rng.randrange(6)
        if kind == 0:
            p["lambda"][0] = rng.choice(["1/0", "abc", "1//2", "i2"])
            return ["verify-theorem", "--param", json.dumps(p)]
        if kind == 1:
            p["group"] = rng.choice(["Q7 sc", "H3 sc", "GL(10)", "E9 ad"])
            return ["invariants", "--param", json.dumps(p)]
        if kind == 2:
            return ["contragredient", "--param", json.dumps(p)[:-rng.randrange(1, 8)]]
        if kind == 3:
            return ["weilrep", _weil_literal(rng, 3)[:-1]]
        if kind == 4:
            return ["check-tits", rng.choice(["Z2 sc", "E9 sc", "B3 qq"])]
        return ["fuzz", "--group", rng.choice(["Z2 sc", "A2 sc", "GL(3)"]),
                "--inner-class", rng.choice(["splitt", "compactt", "[[1,0"]), "--count", "3"]

    def make_input(self, i):
        """(argv, expected exit code, expected start of the RESULT summary)."""
        cycle, pos = divmod(i, len(SLOTS))
        order = list(SLOTS)
        Random(f"{self.name}:{self.seed}:order{cycle}").shuffle(order)
        kind = order[pos]
        rng = self.rng(i)
        if kind in ("verify-theorem", "invariants", "contragredient", "validate-param"):
            p = self._valid_param(rng, cycle)
            argv = [kind, "--param", json.dumps(lparam.param_to_dict(p))]
            if kind != "invariants":
                return argv, 0, SUMMARY[kind]
            try:
                lparam.levi_of(p)
            except errors.NormalizationRequired:
                return argv, 3, "Levi not standardizable in the normalizer"
            return argv, 0, "invariants computed"
        if kind == "weilrep":
            dim = WEIL_DIMS[cycle % len(WEIL_DIMS)]
            return ["weilrep", _weil_literal(rng, dim)], 0, f"dimension {dim} rep analyzed"
        if kind == "check-tits":
            g, ic = CHECK_TITS[cycle % len(CHECK_TITS)]
            order_w = len(weyl.weyl_enumerate(rootdata.build_datum(g)))
            return (["check-tits", g, "--inner-class", ic], 0,
                    f"{order_w} Weyl elements checked")
        if kind == "fuzz":
            g, ic = FLEET[FUZZ[cycle % len(FUZZ)]]
            argv = ["fuzz", "--group", g, "--inner-class", ic,
                    "--seed", str(rng.randrange(10 ** 6)), "--count", "3"]
            return argv, 0, SUMMARY[kind]
        if kind == "invalid-verify":
            return ["verify-theorem", "--param", json.dumps(self._invalid_param(rng, cycle))], 1, ""
        if kind == "invalid-validate":
            data = self._invalid_param(rng, cycle)
            return ["validate-param", "--param", json.dumps(data)], 1, "invalid parameter ("
        return self._malformed(rng, cycle), 2, ""

    # -- ops ------------------------------------------------------------------

    def run_op(self, x):
        argv = x[0]
        if self.traced:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_shim.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "lparams.cli", *argv]
        return subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=self.TIMEOUT_S)

    def check(self, x, result, canon: bool):
        _, want_code, want_summary = x
        lines = result.stdout.splitlines()
        last = lines[-1] if lines else ""
        ok = result.returncode == want_code and last.startswith(f"RESULT {want_code} {want_summary}")
        if want_code == 0:
            ok = ok and not any(line.startswith("CHECK") and ": FAIL" in line for line in lines)
        return ok, (result.stdout if canon else "")

    def trace_dump(self, result) -> dict:
        """The span dump cli_shim.py writes as the last line of stderr."""
        tail = result.stderr.rstrip("\n").rsplit("\n", 1)[-1]
        if not tail.startswith(spans.SHIM_MARK):
            raise RuntimeError(f"traced CLI run wrote no spans: {result.stderr[-500:]!r}")
        return json.loads(tail[len(spans.SHIM_MARK):])


def make(name: str, seed: int, root: str) -> Workload:
    if name == "theorem_fleet":
        return TheoremWorkload(seed, name, FLEET, trace_ops=48, setup_repeats=9)
    if name == "big_weyl":
        return TheoremWorkload(seed, name, BIG, trace_ops=6, setup_repeats=5)
    if name == "tits_products":
        return TitsWorkload(seed)
    if name == "cli_requests":
        return CliWorkload(seed, root)
    raise KeyError(name)


NAMES = ("theorem_fleet", "big_weyl", "tits_products", "cli_requests")
