"""Command-line interface: golden outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lparams.cli import main

DATA = Path(__file__).parent / "data"


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_theorem_golden(capsys):
    code, out = _run(capsys, "verify-theorem", "--param", str(DATA / "sl2r_ds.param"))
    assert code == 0
    assert out == (DATA / "golden_verify_sl2r.txt").read_text()


def test_validate_param_golden_rejection(capsys):
    code, out = _run(capsys, "validate-param", "--param", str(DATA / "bad_half.param"))
    assert code == 1
    assert out == (DATA / "golden_validate_bad.txt").read_text()


def test_inline_json_matches_file(capsys):
    inline = (DATA / "sl2r_ds.param").read_text().strip()
    code_a, out_a = _run(capsys, "invariants", "--param", str(DATA / "sl2r_ds.param"))
    code_b, out_b = _run(capsys, "invariants", "--param", inline)
    assert (code_a, out_a) == (code_b, out_b)
    assert code_a == 0
    assert "INFO is_discrete_series: true" in out_a


def test_fuzz_deterministic(capsys):
    args = ("fuzz", "--group", "B2 sc", "--seed", "7", "--count", "5")
    code_a, out_a = _run(capsys, *args)
    code_b, out_b = _run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.count("INSTANCE") == 5


D4_SWAP = "[[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]]"

FUZZ_GOLDENS = {
    "fuzz_d4_swap": ("D4 sc", D4_SWAP),
    "fuzz_a1a1_swap": ("A1 sc x A1 sc", "[[0,1],[1,0]]"),
    "fuzz_gl3_compact": ("GL(3)", "compact"),
    "fuzz_b3_split": ("B3 sc", "split"),
    "fuzz_c3ad_split": ("C3 ad", "split"),
    "fuzz_g2_split": ("G2 sc", "split"),
}


@pytest.mark.parametrize("golden", sorted(FUZZ_GOLDENS))
def test_fuzz_stream_golden(capsys, golden):
    # the seeded theorem fuzz stream, including non-trivial inner classes, byte for byte
    group, inner_class = FUZZ_GOLDENS[golden]
    code, out = _run(capsys, "fuzz", "--group", group, "--inner-class", inner_class,
                     "--seed", "0", "--count", "10")
    assert code == 0
    assert out == (DATA / f"{golden}.txt").read_text()


def test_check_tits_positional_and_flag_agree(capsys):
    code_a, out_a = _run(capsys, "check-tits", "A2 sc")
    code_b, out_b = _run(capsys, "check-tits", "--group", "A2 sc")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.strip().endswith("6 Weyl elements checked")


def test_json_mode_shape(capsys):
    code, out = _run(capsys, "check-tits", "A1 sc", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    doc = json.loads(lines[0])
    assert doc["command"] == "check-tits"
    assert doc["result"]["code"] == 0
    assert all(c["ok"] for c in doc["checks"])
    assert lines[1].startswith("RESULT 0 ")


def test_exit_code_parse_errors(capsys):
    code, out = _run(capsys, "weilrep", "oops(1)")
    assert code == 2 and out.startswith("RESULT 2 ")
    code, _ = _run(capsys, "validate-param", "--param",
                   '{"group": "A9 sc", "inner_class": "split", '
                   '"lambda": ["0"], "mu": ["0"], "w": []}')
    assert code == 2
    code, _ = _run(capsys, "validate-param", "--param", "{not json")
    assert code == 2


@pytest.mark.parametrize("field, value", [
    ("w", "1"), ("w", [True]), ("w", [1.0]),
    ("lambda", "1"), ("lambda", [1.0]),
    ("mu", [True]), ("mu", [0.1]),
], ids=str)
@pytest.mark.parametrize("command", ["validate-param", "verify-theorem"])
def test_param_fields_are_not_coerced(capsys, command, field, value):
    doc = json.loads((DATA / "sl2r_ds.param").read_text())
    doc[field] = value
    code, out = _run(capsys, command, "--param", json.dumps(doc))
    assert code == 2
    assert out == f"RESULT 2 bad parameter data: {doc!r}\n"


# numerals outside the one grammar: a decimal point, an exponent, a digit
# separator and non-ASCII digits
NON_NUMERALS = ["0.5", "5e-1", "1_0/4", "\u0663", "\u0663/\u0664", "1/0"]


@pytest.mark.parametrize("text", NON_NUMERALS)
@pytest.mark.parametrize("command", ["validate-param", "invariants"])
def test_mu_and_lambda_refuse_the_same_numerals(capsys, command, text):
    doc = json.loads((DATA / "sl2r_ds.param").read_text())
    doc["mu"] = [text]
    code, out = _run(capsys, command, "--param", json.dumps(doc))
    assert (code, out) == (2, f"RESULT 2 bad parameter data: {doc!r}\n")
    doc = json.loads((DATA / "sl2r_ds.param").read_text())
    doc["lambda"] = [text]
    code, out = _run(capsys, command, "--param", json.dumps(doc))
    assert (code, out) == (2, f"RESULT 2 bad Gaussian rational: {text!r}\n")


@pytest.mark.parametrize("command", ["validate-param", "invariants"])
def test_mu_and_lambda_allow_the_same_surrounding_space(capsys, command):
    doc = json.loads((DATA / "sl2r_ds.param").read_text())
    plain = _run(capsys, command, "--param", json.dumps(doc))
    doc["mu"] = [" 0 "]
    doc["lambda"] = [" 1 "]
    assert _run(capsys, command, "--param", json.dumps(doc)) == plain
    doc["mu"] = [" 1/2 "]
    spaced = _run(capsys, command, "--param", json.dumps(doc))
    doc["mu"] = ["1/2"]
    doc["lambda"] = ["1"]
    assert spaced == _run(capsys, command, "--param", json.dumps(doc))


@pytest.mark.parametrize("literal, message", [
    ("I(1_0,1)", "bad k in 'I(1_0,1)'"),
    ("I(\u0663,1)", "bad k in 'I(\u0663,1)'"),
    ("I(2/2,1)", "bad k in 'I(2/2,1)'"),
    ("chi(0,0_1)", "bad eps in 'chi(0,0_1)'"),
    ("chi(0,\u0661)", "bad eps in 'chi(0,\u0661)'"),
    ("chi(\u0663/\u0664,0)", "bad exponent in 'chi(\u0663/\u0664,0)'"),
])
def test_weilrep_integers_use_the_numeral_grammar(capsys, literal, message):
    code, out = _run(capsys, "weilrep", literal)
    assert (code, out) == (2, f"RESULT 2 {message}\n")


def test_exit_code_normalization(capsys):
    code, out = _run(capsys, "invariants", "--param",
                     '{"group": "A1 sc", "inner_class": "split", '
                     '"lambda": ["0"], "mu": ["0"], "w": [1]}')
    assert code == 3
    assert "witness root [-1]" in out
    assert out.strip().splitlines()[-1].startswith("RESULT 3 ")


def test_contragredient_reports_both_twists(capsys):
    code, out = _run(capsys, "contragredient", "--param", str(DATA / "sl2r_ds.param"))
    assert code == 0
    assert "chevalley_twist:" in out and "tau_twist:" in out
    assert "lambda=(-1)" in out
    assert "CHECK twists conjugate: PASS" in out


def test_weilrep_bridge_line(capsys):
    code, out = _run(capsys, "weilrep", "chi(1/2,0)+I(2,-1/3+i)")
    assert code == 0
    assert "INFO dim: 3" in out
    assert "CHECK dual matches contragredient: PASS" in out


def test_weilrep_dimension_cap_before_any_note(capsys):
    code, out = _run(capsys, "weilrep", "+".join(["I(1,0)"] * 5))
    assert code == 2
    assert "INFO" not in out
    assert out == "RESULT 2 rep has dimension 10; the GL(n) bridge supports n <= 9\n"


def test_weilrep_json_round_trips_literal(capsys):
    code, out = _run(capsys, "weilrep", "I(0,1/4)", "--json")
    assert code == 0
    doc = json.loads(out.strip().splitlines()[0])
    info = {row["key"]: row["value"] for row in doc["info"]}
    # k = 0 splits on input normalization
    assert info["rep"] == "chi(1/4,0)+chi(1/4,1)"


def test_verify_theorem_compact_class(capsys):
    code, out = _run(capsys, "verify-theorem", "--param",
                     '{"group": "A2 sc", "inner_class": "compact", '
                     '"lambda": ["0", "0"], "mu": ["0", "0"], "w": []}')
    assert code == 0
    assert out.strip().endswith("RESULT 0 4/4 PASS")


def test_fuzz_accepts_json_inner_class(capsys):
    code, out = _run(capsys, "fuzz", "--group", "A1 sc x A1 sc",
                     "--inner-class", "[[0,1],[1,0]]", "--count", "3")
    assert code == 0
    assert out.count("INSTANCE") == 3
    assert out.strip().endswith("RESULT 0 3/3 instances verified")
    code, out = _run(capsys, "fuzz", "--group", "A2 sc", "--inner-class", "[[1,0", "--count", "3")
    assert code == 2 and out.startswith("RESULT 2 ")


@pytest.mark.parametrize("inner", [[[1.5, 0], [0, 1]], [[True, 0], [0, 1]], [[1.0, 0], [0, 1]],
                                   [1, 0], 5, None], ids=str)
def test_param_inner_class_matrix_is_not_coerced(capsys, inner):
    doc = {"group": "A2 sc", "inner_class": inner, "lambda": ["0", "0"], "mu": ["0", "0"],
           "w": []}
    code, out = _run(capsys, "verify-theorem", "--param", json.dumps(doc))
    assert code == 2
    assert out == f"RESULT 2 bad inner class matrix: {inner!r}\n"


@pytest.mark.parametrize("inner", ["[[1.5,0],[0,1]]", "[[true,0],[0,1]]", "[[1.0,0],[0,1]]"])
def test_fuzz_inner_class_matrix_is_not_coerced(capsys, inner):
    code, out = _run(capsys, "fuzz", "--group", "A2 sc", "--inner-class", inner, "--count", "1")
    assert code == 2
    assert out == f"RESULT 2 bad inner class matrix: {json.loads(inner)!r}\n"


def test_fuzz_malformed_inner_class_message_is_unchanged(capsys):
    code, out = _run(capsys, "fuzz", "--group", "A2 sc", "--inner-class", "[[1,0", "--count", "3")
    assert out == "RESULT 2 unknown inner class '[[1,0'\n"


@pytest.mark.parametrize("inner", ["5", "null", "[1,0]", "[[1.0,0],[0,1]]", "[[true,0],[0,1]]",
                                   "[[1.5,0],[0,1]]", "[[1,0]"])
def test_check_tits_inner_class_is_not_coerced(capsys, inner):
    code, out = _run(capsys, "check-tits", "A2 sc", "--inner-class", inner)
    assert code == 2
    assert out == f"RESULT 2 bad inner class {inner!r}\n"


@pytest.mark.parametrize("spec", ["A2 xx", "A2 sc x", "x A2 sc"])
def test_empty_product_factor_exits_2(capsys, spec):
    code, out = _run(capsys, "fuzz", "--group", spec, "--count", "1")
    assert code == 2
    assert out == f"RESULT 2 empty product factor in group spec: {spec!r}\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_fuzz_count_below_one_exits_2_before_output(capsys, count):
    code, out = _run(capsys, "fuzz", "--group", "A2 sc", "--count", count)
    assert code == 2
    assert out == f"RESULT 2 --count must be at least 1, got {count}\n"


def test_invariant_violation_exits_1(capsys, monkeypatch):
    import lparams.lparam as lparam
    from lparams.errors import InvariantViolated
    from lparams.tits import chevalley
    from lparams.weyl import weyl_identity

    def wrong_w(g):
        out = chevalley(g)
        return type(out)(out.ctx, out.t, weyl_identity(out.w.datum), out.eps)

    monkeypatch.setattr(lparam, "chevalley", wrong_w)
    p = lparam.param_from_dict(json.loads((DATA / "sl2r_ds.param").read_text()))
    with pytest.raises(InvariantViolated):
        lparam.contragredient_param(p)
    code, out = _run(capsys, "verify-theorem", "--param", str(DATA / "sl2r_ds.param"))
    assert code == 1
    assert out.splitlines()[-1] == "RESULT 1 C(phi(j)) does not lie over w delta (w=[1])"


def test_fuzz_under_python_O():
    # invariants are checked by raising, not by assert, so -O keeps them
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "lparams.cli", "fuzz", "--group", "D4 sc",
                           "--inner-class", D4_SWAP, "--seed", "3", "--count", "2"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("RESULT 0 2/2 instances verified")


WEILREP_GOLDEN_LITERALS = [
    "chi(1/2+i,1)+I(2,-1/4+3/2i)",                # complex exponents
    "chi(-1/3-2i,0)+chi(1/3-2i,1)+I(3,1/2+1/2i)",
    "chi(i,0)+chi(-i,1)+I(1,-3/2i)",              # unitary
    "I(0,1/4)",                                   # I(0,t) splits
    "I(0,-1/2+i)+chi(0,0)",
    "I(-3,1/2)",                                  # negative k folds
    "I(-1,i)+I(2,0)+I(1,i)",
    "I(4,-2)+chi(1/6,1)+chi(1/6,1)",
    "I(1,1/2)+I(2,-1/2)+I(3,i)+I(4,0)+chi(1,1)",  # dimension 9
    "I(1,0)+I(1,0)+I(1,0)+I(1,0)+I(1,0)",         # dimension 10 is refused
    "chi(1/2,0",                                  # unbalanced parenthesis
    "chi(0,2)",                                   # eps = 2
    "I(0.5,0)",                                   # k = 0.5
]


def _weilrep_transcript(capsys) -> str:
    blocks = []
    for literal in WEILREP_GOLDEN_LITERALS:
        for extra in ((), ("--json",)):
            code, out = _run(capsys, "weilrep", literal, *extra)
            blocks.append(f"$ weilrep {' '.join((repr(literal), *extra))}\nexit {code}\n{out}")
    return "".join(blocks)


def test_weilrep_golden(capsys):
    # text and --json stdout and exit codes of the weilrep subcommand, byte for byte
    assert _weilrep_transcript(capsys) == (DATA / "golden_weilrep.txt").read_text()
