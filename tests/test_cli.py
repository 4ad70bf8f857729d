"""Command-line interface: golden outputs, exit codes, determinism."""

import errno
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


@pytest.mark.parametrize("argv, golden", [
    # SL(2, R): its radical torus has rank 0, so rad_char is the one empty character
    (["invariants", "--param", str(DATA / "sl2r_ds.param")], "golden_invariants_sl2r.txt"),
    # split GL(4), random_param at Random(0): a radical torus of rank 1, kappa = (-1)
    (["verify-theorem", "--json", "--param", str(DATA / "gl4_split.param")],
     "golden_verify_gl4_split.json"),
], ids=["invariants-sl2r", "verify-gl4-json"])
def test_radical_character_goldens(capsys, argv, golden):
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_validate_param_golden_rejection(capsys):
    code, out = _run(capsys, "validate-param", "--param", str(DATA / "bad_half.param"))
    assert code == 1
    assert out == (DATA / "golden_validate_bad.txt").read_text()


@pytest.mark.parametrize("flags, golden", [([], "golden_validate_untwisted.txt"),
                                           (["--json"], "golden_validate_untwisted.json")])
def test_validate_param_golden_untwisted(capsys, flags, golden):
    # w = s1 on GL(3) compact is not a twisted involution, and theta^2 != 1 with it
    code, out = _run(capsys, "validate-param", "--param", str(DATA / "validate_untwisted.param"),
                     *flags)
    assert code == 1
    assert out == (DATA / golden).read_text()


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
    # big_weyl-sized groups: |W(F4)| = 1152, |W(A5)| = 720
    "fuzz_f4_split": ("F4 sc", "split"),
    "fuzz_gl6_split": ("GL(6)", "split"),
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


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_out_of_memory_exits_2_not_1(capsys, monkeypatch, flags):
    """Running out of memory is no failed check: the lines so far, then RESULT 2."""
    from lparams import lparam

    draw = lparam.random_param
    calls = []

    def starved(L, rng):
        calls.append(L)
        if len(calls) == 2:
            raise MemoryError
        return draw(L, rng)

    monkeypatch.setattr(lparam, "random_param", starved)
    code, out = _run(capsys, "fuzz", "--group", "B2 sc", "--count", "3", *flags)
    assert code == 2
    assert out.endswith("RESULT 2 out of memory\n")
    if flags:
        doc = json.loads(out.splitlines()[0])
        assert doc["result"] == {"code": 2, "summary": "out of memory"}
        assert [c["name"] for c in doc["checks"]] == ["instance 0"]
    else:
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("INSTANCE")] \
            == ["INSTANCE 0"]


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


NESTED = "[" * 100_000


def _undecodable_inputs(tmp_path):
    """(argv, RESULT line) per site that reads JSON: each input used to end in a traceback."""
    bad_utf8 = tmp_path / "bad_utf8.param"
    bad_utf8.write_bytes(b'\xff\xfe{"group": "A1 sc"}')
    nested_file = tmp_path / "nested.param"
    nested_file.write_text(NESTED)
    depth = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
    return [
        (["validate-param", "--param", str(bad_utf8)],
         f"RESULT 2 cannot read parameter file {str(bad_utf8)!r}: 'utf-8' codec can't decode "
         "byte 0xff in position 0: invalid start byte"),
        (["verify-theorem", "--param", str(nested_file)],
         f"RESULT 2 parameter input is not valid JSON: {depth}"),
        (["verify-theorem", "--param", '{"group": ' + NESTED],
         f"RESULT 2 parameter input is not valid JSON: {depth}"),
        # a refusal echoes the first 200 characters of its input's repr
        (["fuzz", "--group", "A1 sc", "--inner-class", NESTED, "--count", "1"],
         f"RESULT 2 unknown inner class {NESTED!r:.200}..."),
        (["check-tits", "A1 sc", "--inner-class", NESTED],
         f"RESULT 2 bad inner class {NESTED!r:.200}..."),
    ]


@pytest.mark.parametrize("site", range(5), ids=["param-not-utf8", "param-file-nested",
                                                 "param-inline-nested", "fuzz-inner-class-nested",
                                                 "check-tits-inner-class-nested"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_undecodable_json_input_exits_2(capsys, tmp_path, site, flags):
    argv, result = _undecodable_inputs(tmp_path)[site]
    code, out = _run(capsys, *argv, *flags)
    lines = out.splitlines()
    assert code == 2 and lines[-1] == result
    if flags:
        assert json.loads(lines[0])["result"] == {"code": 2, "summary": result[len("RESULT 2 "):]}
    else:
        assert len(lines) == 1


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_oversized_param_document_is_echoed_in_part(capsys, flags):
    data = {"group": "A1 sc", "inner_class": "split", "lambda": ["0"], "mu": [0.5] * 10_000,
            "w": []}
    code, out = _run(capsys, "verify-theorem", "--param", json.dumps(data), *flags)
    summary = f"bad parameter data: {data!r:.200}..."
    assert code == 2 and out.splitlines()[-1] == f"RESULT 2 {summary}"
    assert len(out) < 2 * len(summary) + 200
    if flags:
        assert json.loads(out.splitlines()[0])["result"] == {"code": 2, "summary": summary}


@pytest.mark.parametrize("argv,golden", [
    (["check-tits", "F4 sc", "--inner-class", "compact"], "check_tits_f4_compact.txt"),
    (["check-tits", "GL(7)", "--inner-class", "compact"], "check_tits_gl7_compact.txt"),
    (["check-tits", "D4 sc", "--inner-class", D4_SWAP, "--json"], "check_tits_d4_swap.json"),
], ids=["f4-compact", "gl7-compact", "d4-swap-json"])
def test_check_tits_golden(capsys, argv, golden):
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_check_tits_neither_stores_nor_counts_w_by_enumeration(capsys, monkeypatch):
    import lparams.tits as tits
    import lparams.weyl as weyl

    def stored(d):
        raise RuntimeError("check-tits stored W")

    monkeypatch.setattr(weyl, "weyl_enumerate", stored)
    monkeypatch.setattr(tits, "weyl_enumerate", stored, raising=False)
    code, out = _run(capsys, "check-tits", "B3 sc", "--inner-class", "compact")
    assert code == 0 and out.splitlines()[-1] == "RESULT 0 48 Weyl elements checked"


@pytest.mark.parametrize("name,spelling", [("split", "Split"), ("split", " split"),
                                           ("compact", "COMPACT"), ("compact", "compact\t")])
def test_check_tits_reads_inner_class_names_like_fuzz(capsys, name, spelling):
    # one --inner-class flag: every command reads a name in any case, white space around
    assert _run(capsys, "check-tits", "A2 sc", "--inner-class", spelling) == \
        _run(capsys, "check-tits", "A2 sc", "--inner-class", name)
    code, out = _run(capsys, "fuzz", "--group", "A2 sc", "--inner-class", spelling, "--count", "1")
    assert code == 0, out


@pytest.mark.parametrize("spec", ["A2 xx", "A2 sc x", "x A2 sc"])
def test_empty_product_factor_exits_2(capsys, spec):
    code, out = _run(capsys, "fuzz", "--group", spec, "--count", "1")
    assert code == 2
    assert out == f"RESULT 2 empty product factor in group spec: {spec!r}\n"


def _clipped(text):
    """repr(text) cut to 200 characters and "...", as a refusal echoes a long input."""
    return f"{text!r:.200}..."


_LONG = 100_000
_TOKEN, _BLANK, _LETTERS, _ZEROS = "Q" * _LONG, " " * _LONG, "y" * _LONG, "0" * _LONG
_SPEC = "x " + "A1 sc x " * (_LONG // 8) + "A1 sc"
# weilrep literals of over 100,000 characters, each refused by the term or text it echoes
_OPEN, _CLOSE = f"chi(1/2,0{_ZEROS}", f"chi(1/2,0)){_ZEROS}"
_HEAD = "p" * _LONG
_CHI, _I = f"chi(1{_ZEROS})", f"I(1{_ZEROS})"
_EPS, _K, _EXP = f"chi(0,{_LETTERS})", f"I({_LETTERS},1)", f"chi({_LETTERS},0)"
_NINES = "9" * 4000  # an eps of 4,000 digits is still one int for the numeral grammar


@pytest.mark.parametrize("argv, summary", [
    (["check-tits", f"A2 sc x {_TOKEN}"], f"bad group token: {_clipped(_TOKEN)}"),
    (["check-tits", _BLANK], f"bad group spec: {_clipped(_BLANK)}"),
    (["fuzz", "--group", _SPEC, "--count", "1"],
     f"empty product factor in group spec: {_clipped(_SPEC)}"),
    (["weilrep", _OPEN], f"unbalanced parentheses in {_clipped(_OPEN)}"),
    (["weilrep", _CLOSE], f"unbalanced parentheses in {_clipped(_CLOSE)}"),
    (["weilrep", _LETTERS], f"bad rep term: {_clipped(_LETTERS)}"),
    (["weilrep", _HEAD + "(1,0)"],
     f"unknown rep term {_clipped(_HEAD)} in {_clipped(_HEAD + '(1,0)')}"),
    (["weilrep", _CHI], f"chi needs (t,eps): {_clipped(_CHI)}"),
    (["weilrep", _I], f"I needs (k,t): {_clipped(_I)}"),
    (["weilrep", _EPS], f"bad eps in {_clipped(_EPS)}"),
    (["weilrep", _K], f"bad k in {_clipped(_K)}"),
    (["weilrep", _EXP], f"bad exponent in {_clipped(_EXP)}"),
    (["weilrep", f"chi(0,{_NINES})"], f"eps must be 0 or 1, got {_NINES:.200}..."),
    (["verify-theorem", "--param", _LETTERS],
     f"cannot read parameter file {_clipped(_LETTERS)}: [Errno {errno.ENAMETOOLONG}] "
     f"{os.strerror(errno.ENAMETOOLONG)}: {_clipped(_LETTERS)}"),
], ids=["group-token", "group-spec", "empty-factor", "weilrep-open", "weilrep-close",
        "weilrep-term", "weilrep-head", "weilrep-chi", "weilrep-I", "weilrep-eps",
        "weilrep-k", "weilrep-exponent", "weilrep-eps-value", "param-file"])
def test_refusal_of_a_long_input_echoes_it_in_part(capsys, argv, summary):
    code, out = _run(capsys, *argv)
    assert code == 2
    assert out == f"RESULT 2 {summary}\n"
    assert len(out) < 600


@pytest.mark.parametrize("argv, line", [
    (["check-tits", "Z2 sc"], "RESULT 2 bad group token: 'Z2 sc'"),
    (["weilrep", "chi(1/2,0"], "RESULT 2 unbalanced parentheses in 'chi(1/2,0'"),
    (["verify-theorem", "--param", "no-such.param"],
     "RESULT 2 cannot read parameter file 'no-such.param': "
     f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'no-such.param'"),
], ids=["group-token", "weilrep", "param-file"])
def test_refusal_of_a_short_input_echoes_it_whole(capsys, argv, line):
    assert _run(capsys, *argv) == (2, line + "\n")


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
