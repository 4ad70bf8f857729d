"""Command-line front end: validators, invariants, the theorem report, fuzzing.

Reports are plain text with a fixed line grammar so they can be diffed as
golden files: CHECK lines for verdicts, INFO lines for computed values,
INSTANCE lines for fuzz cases, and always a final "RESULT <code> <summary>"
line. Exit codes: 0 success, 1 a mathematical check failed, 2 parse error or
out of memory, 3 the parameter needs a Cayley move the library does not model.
With --json the same content is emitted as one JSON object before the RESULT
line. Given identical inputs and seed, output is byte-identical.

Each command handler imports the library modules it runs, when it runs, so
`--help`, a usage error or `check-tits` compiles only what it needs; a
handler that reads --param reads its JSON first, so malformed input exits 2
before any library module is compiled, and `weilrep` parses its literal
before it imports `lparam`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    InputError,
    InvalidParam,
    InvariantViolated,
    LparamsError,
    NormalizationRequired,
    NotInvolution,
    clipped_repr,
    json_matrix,
)

OK, MATH_FAIL, PARSE_ERROR, NEEDS_NORMALIZATION = 0, 1, 2, 3


class Report:
    """Line buffer with a JSON mirror; emitted once at the end of a run."""

    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.lines: list[str] = []
        self.checks: list[dict] = []
        self.info: list[dict] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.lines.append(f"CHECK {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        self.checks.append({"name": name, "ok": ok, "detail": detail})

    def note(self, key: str, value) -> None:
        self.lines.append(f"INFO {key}: {value}")
        self.info.append({"key": key, "value": value})

    def instance(self, idx: int, ok: bool, detail: str) -> None:
        self.lines.append(f"INSTANCE {idx}: {'PASS' if ok else 'FAIL'} {detail}")
        self.checks.append({"name": f"instance {idx}", "ok": ok, "detail": detail})

    def finish(self, code: int, summary: str) -> int:
        if self.as_json:
            doc = {
                "command": self.command,
                "checks": self.checks,
                "info": self.info,
                "result": {"code": code, "summary": summary},
            }
            print(json.dumps(doc, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
        print(f"RESULT {code} {summary}")
        return code


def _load_param_data(text: str) -> dict:
    """A path to a JSON file, or an inline JSON object literal."""
    if text.lstrip().startswith("{"):
        raw = text
    else:
        try:
            with open(text, "r", encoding="utf-8") as f:
                raw = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            # an OSError's text repeats the path: both echoes are clipped
            reason = str(exc).replace(repr(text), clipped_repr(text))
            raise InputError(f"cannot read parameter file {clipped_repr(text)}: {reason}") from exc
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"parameter input is not valid JSON: {exc}") from exc
    except ValueError as exc:  # valid JSON, but int() refuses a literal past its digit limit
        raise InputError(f"parameter input holds an integer past the digit limit: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("parameter input must be a JSON object")
    return data


def _fmt_param(p) -> str:
    from .gaussian import format_tuple
    from .tits import format_torus_part

    return (f"lambda={format_tuple(p.lam)} "
            f"mu=({', '.join(format_torus_part(p.mu))}) "
            f"w={list(p.w.word)}")


def _build_group(args):
    from .lgroup import parse_inner_class
    from .rootdata import build_datum

    if not args.group:
        raise InputError("--group is required for this command")
    d = build_datum(args.group)
    inner = args.inner_class
    if inner.lstrip().startswith("["):
        try:
            inner = json.loads(inner)
        except (ValueError, RecursionError):
            pass  # parse_inner_class reports it as an unknown inner class
    return parse_inner_class(d, inner)


def _datum_involution(d, text):
    """Distinguished involution for the Tits suite, on the named datum itself."""
    from .lgroup import named_inner_class
    from .rootdata import based_aut

    named = named_inner_class(d, text)
    if named is not None:
        return named
    try:
        rows = json_matrix(json.loads(text) if isinstance(text, str) else text)
    except (ValueError, RecursionError, TypeError) as exc:
        raise InputError(f"bad inner class {clipped_repr(text)}") from exc
    return based_aut(d, rows)


def cmd_check_tits(args, rep: Report) -> int:
    from .rootdata import build_datum
    from .tits import run_tits_suite, tits_context
    from .weyl import weyl_order

    name = args.target or args.group
    if not name:
        raise InputError("check-tits needs a group (positional or --group)")
    if args.target and args.group and args.target != args.group:
        raise InputError("give the group positionally or with --group, not both")
    d = build_datum(name)
    ctx = tits_context(d, _datum_involution(d, args.inner_class))
    rep.note("datum", ctx.datum.label or "anonymous")
    rows = run_tits_suite(ctx)
    for rname, ok, detail in rows:
        rep.check(rname, ok, detail)
    nelem = weyl_order(ctx.datum)
    if all(ok for _, ok, _ in rows):
        return rep.finish(OK, f"{nelem} Weyl elements checked")
    return rep.finish(MATH_FAIL, "Tits suite failed")


def cmd_validate_param(args, rep: Report) -> int:
    data = _load_param_data(args.param)
    from .lparam import param_parts, validity_rows

    parts = param_parts(data)
    rep.note("group", data["group"])
    rep.note("inner_class", str(data["inner_class"]))
    rows = validity_rows(*parts)
    for name, ok, detail, _ in rows:
        rep.check(name, ok, detail)
    failing = [name for name, ok, _, _ in rows if not ok]
    if not failing:
        return rep.finish(OK, "valid parameter")
    return rep.finish(MATH_FAIL, f"invalid parameter ({failing[0]})")


def cmd_invariants(args, rep: Report) -> int:
    data = _load_param_data(args.param)
    from .gaussian import format_tuple
    from .lparam import (central_char, inf_char, is_discrete_series, levi_of, param_from_dict,
                         rad_char)

    p = param_from_dict(data)
    rep.note("parameter", _fmt_param(p))
    rep.note("inf_char", format_tuple(inf_char(p)))
    rc = rad_char(p)
    rep.note("rad_char_lambda", format_tuple(rc.lam))
    rep.note("rad_char_kappa", format_tuple(rc.kappa))
    rep.note("central_char", format_tuple(central_char(p)))
    rep.note("is_discrete_series", str(is_discrete_series(p)).lower())
    try:
        levi, reduced = levi_of(p)
        rep.note("levi", sorted(levi.subset))
        rep.note("levi_reduced", _fmt_param(reduced))
    except NormalizationRequired as exc:
        rep.note("levi", f"needs a Cayley move (witness root {list(exc.witness)})")
        return rep.finish(NEEDS_NORMALIZATION, "Levi not standardizable in the normalizer")
    return rep.finish(OK, "invariants computed")


def cmd_contragredient(args, rep: Report) -> int:
    data = _load_param_data(args.param)
    from .lparam import contragredient_param, param_from_dict, params_equivalent, tau_twist_param

    p = param_from_dict(data)
    rep.note("parameter", _fmt_param(p))
    cp = contragredient_param(p)
    tp = tau_twist_param(p)
    rep.note("chevalley_twist", _fmt_param(cp))
    rep.note("tau_twist", _fmt_param(tp))
    same = params_equivalent(cp, tp)
    rep.check("twists conjugate", same, "C(phi) ~ phi o tau")
    if same:
        return rep.finish(OK, "contragredient computed")
    return rep.finish(MATH_FAIL, "twists are not conjugate")


def cmd_verify_theorem(args, rep: Report) -> int:
    data = _load_param_data(args.param)
    from .lparam import param_from_dict, verify_contragredient

    p = param_from_dict(data)
    rep.note("parameter", _fmt_param(p))
    rows = verify_contragredient(p)
    for name, ok, detail in rows:
        rep.check(name, ok, detail)
    passed = sum(1 for _, ok, _ in rows if ok)
    if passed == len(rows):
        return rep.finish(OK, f"{passed}/{len(rows)} PASS")
    return rep.finish(MATH_FAIL, f"{passed}/{len(rows)} PASS")


def cmd_weilrep(args, rep: Report) -> int:
    from .gaussian import format_vec
    from .weilrep import (format_rep, parse_weil_rep, weil_dual, weil_hermitian_dual,
                          weil_inf_char, weil_is_hermitian, weil_is_unitary, weil_to_lparam)

    r = parse_weil_rep(args.rep)  # a malformed literal exits 2 before lparam is compiled
    from .lparam import contragredient_param, params_equivalent

    p = weil_to_lparam(r)  # refuses a rep too large for the bridge before any note
    rep.note("rep", format_rep(r))
    rep.note("dim", r.dim())
    rep.note("dual", format_rep(weil_dual(r)))
    rep.note("hermitian_dual", format_rep(weil_hermitian_dual(r)))
    rep.note("is_hermitian", str(weil_is_hermitian(r)).lower())
    rep.note("is_unitary", str(weil_is_unitary(r)).lower())
    rep.note("inf_char", "{" + ", ".join(format_vec(weil_inf_char(r))) + "}")
    rep.note("parameter", _fmt_param(p))
    ok = params_equivalent(weil_to_lparam(weil_dual(r)), contragredient_param(p))
    rep.check("dual matches contragredient", ok, "bridge functoriality")
    if ok:
        return rep.finish(OK, f"dimension {r.dim()} rep analyzed")
    return rep.finish(MATH_FAIL, "bridge functoriality failed")


def cmd_fuzz(args, rep: Report) -> int:
    from random import Random

    from .lparam import random_param, verify_contragredient

    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    L = _build_group(args)
    rep.note("group", args.group)
    rep.note("inner_class", args.inner_class)
    rep.note("seed", args.seed)
    rng = Random(args.seed)
    failures = 0
    for i in range(args.count):
        p = random_param(L, rng)
        rows = verify_contragredient(p)
        ok = all(r.passed for r in rows)
        rep.instance(i, ok, _fmt_param(p))
        if not ok:
            failures += 1
            for row in rows:
                if not row.passed:
                    rep.check(row.name, False, row.detail)
    if failures:
        return rep.finish(MATH_FAIL, f"{failures}/{args.count} instances failed")
    return rep.finish(OK, f"{args.count}/{args.count} instances verified")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lparams",
        description="Exact computations with based root data and real Weil group parameters.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=False, param=False):
        if group:
            p.add_argument("--group", help="group spec, e.g. 'A2 sc' or 'GL(3)'")
            p.add_argument("--inner-class", default="split",
                           help="'split', 'compact', or a JSON matrix (default split)")
        if param:
            p.add_argument("--param", required=True,
                           help="parameter: JSON file path or inline JSON object")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("check-tits", help="exhaustive Tits group identity suite")
    p.add_argument("target", nargs="?", help="group spec (same as --group)")
    common(p, group=True)
    p.set_defaults(func=cmd_check_tits)

    p = sub.add_parser("validate-param", help="per-clause validity verdicts")
    common(p, param=True)
    p.set_defaults(func=cmd_validate_param)

    p = sub.add_parser("invariants", help="inf/rad/central characters, Levi, discrete series")
    common(p, param=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("contragredient", help="Chevalley twist and tau twist in normal form")
    common(p, param=True)
    p.set_defaults(func=cmd_contragredient)

    p = sub.add_parser("verify-theorem", help="four-point contragredient report")
    common(p, param=True)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("weilrep", help="analyze a Weil group representation literal")
    p.add_argument("rep", help="literal like 'chi(1/2,0)+I(2,-1/3+i)'")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_weilrep)

    p = sub.add_parser("fuzz", help="random valid parameters through the theorem checks")
    common(p, group=True)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--count", type=int, default=20, help="number of instances (default 20)")
    p.set_defaults(func=cmd_fuzz)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rep = Report(args.command, args.json)
    try:
        return args.func(args, rep)
    except NormalizationRequired as exc:
        return rep.finish(NEEDS_NORMALIZATION, str(exc))
    except (InvalidParam, NotInvolution, InvariantViolated) as exc:
        return rep.finish(MATH_FAIL, str(exc))
    except LparamsError as exc:
        return rep.finish(PARSE_ERROR, str(exc))
    except MemoryError:
        return rep.finish(PARSE_ERROR, "out of memory")


if __name__ == "__main__":
    sys.exit(main())
