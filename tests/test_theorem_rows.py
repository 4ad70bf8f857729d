"""The theorem op's rows are records: verdicts decided, text written on first read.

`verify_contragredient` returns four `TheoremRow` records. Each decides its
verdict when it is built and writes its detail text from the two values it
compared only when the text is first read: through `.detail`, or by
unpacking, indexing, comparing or hashing the row. The text is then kept.
A row compares equal to the triple (name, passed, detail) that the op
returned when it wrote every text eagerly; `eager_rows` is that op, kept
here as an oracle. `fuzz` reads `.passed`, and the text of failing rows
only.
"""

from random import Random

import pytest

from lparams import cli, lparam
from lparams.gaussian import ScaledVec, format_tuple, format_vec
from lparams.lgroup import parse_inner_class
from lparams.lparam import (
    TheoremRow,
    _dominance_descent,
    central_char,
    central_chars_agree,
    contragredient_param,
    inf_char,
    make_param,
    params_equivalent,
    random_param,
    tau_twist_param,
    verify_contragredient,
)
from lparams.rootdata import build_datum
from lparams.tits import format_torus_part
from lparams.weyl import longest_element

from oracle_matrices import radical_route

D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]

# the theorem_fleet and big_weyl configurations of the benchmark
CONFIGS = [
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
]
IDS = [f"{g}|{ic if isinstance(ic, str) else 'matrix'}" for g, ic in CONFIGS]
NAMES = ["inf_char negation", "rad_char dual", "C-twist vs tau-twist conjugacy",
         "central_char flip"]


def _L(group, inner):
    return parse_inner_class(build_datum(group), inner)


def _params(L, count=10):
    """count seeded parameters of L, then lambda = 0 with mu = 0 and w = e."""
    rng = Random(f"theorem-rows:{L.g_datum.label}")
    n = L.dual_datum.rank
    return [random_param(L, rng) for _ in range(count)] + [make_param(L, (0,) * n, (0,) * n, [])]


def eager_rows(p):
    """verify_contragredient as it was before its rows became records: each text written at once."""
    d = p.L.dual_datum
    cp = contragredient_param(p)
    rows = []
    want = -inf_char(p).apply(longest_element(d).matrix)
    got = _dominance_descent(d, cp.lam)[0]
    ok, text = got == want, format_tuple(got)
    rows.append(("inf_char negation", ok,
                 f"inf(C)={text} dominant(-inf)={text if ok else format_tuple(want)}"))
    rows.append(radical_route(p, cp)[2])
    tp = tau_twist_param(p)
    rows.append(("C-twist vs tau-twist conjugacy", params_equivalent(cp, tp),
                 f"C: mu={format_torus_part(cp.mu)} tau: mu={format_torus_part(tp.mu)}"))
    tau_c, neg_tau_p = central_char(cp), -central_char(p)
    rows.append(("central_char flip", central_chars_agree(p, tau_c, neg_tau_p),
                 f"tau(C)={format_vec(tau_c)} -tau(p)={format_vec(neg_tau_p)}"))
    return rows


class TextWritten(Exception):
    pass


def _refuse(*args):
    raise TextWritten(args)


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_verdicts_are_decided_without_writing_text(monkeypatch, group, inner):
    L = _L(group, inner)
    params = _params(L, 4)
    lparam._radical.cache_clear()  # a rank-0 row 2 is one record per L: start it unwritten
    for name in ("format_vec", "format_tuple", "format_torus_part"):
        monkeypatch.setattr(lparam, name, _refuse)
    for p in params:
        rows = verify_contragredient(p)
        assert [row.name for row in rows] == NAMES
        assert all(row.passed for row in rows)
        for row in rows:
            with pytest.raises(TextWritten):
                row.detail
            with pytest.raises(TextWritten):
                name, passed, detail = row


@pytest.mark.parametrize("group,inner", CONFIGS, ids=IDS)
def test_rows_equal_the_eager_triples(group, inner):
    for p in _params(_L(group, inner)):
        rows = verify_contragredient(p)
        eager = eager_rows(p)
        assert rows == eager, p
        assert eager == rows
        assert [tuple(row) for row in rows] == eager
        for row, triple in zip(rows, eager):
            assert hash(row) == hash(triple)
            assert row[1] is triple[1] and row[-1] == triple[2]


def test_text_is_written_once_and_kept(monkeypatch):
    p = _params(_L("GL(4)", "split"), 1)[0]
    rows = verify_contragredient(p)
    texts = [row.detail for row in rows]
    for name in ("format_vec", "format_tuple", "format_torus_part"):
        monkeypatch.setattr(lparam, name, _refuse)
    assert [row.detail for row in rows] == texts
    assert all(row.detail is text for row, text in zip(rows, texts))


def test_a_row_equals_only_rows_and_tuples():
    values = (ScaledVec.of([1]), ScaledVec.of([-1]))
    row, same = (TheoremRow("central_char flip", True, values) for _ in range(2))
    triple = ("central_char flip", True, "tau(C)=['1'] -tau(p)=['-1']")
    assert row == triple == same
    assert row != list(triple)
    assert row != ("central_char flip", False, triple[2])
    assert (row == 3) is False
    assert repr(row) == f"TheoremRow{triple!r}"


def test_a_row_is_immutable():
    p = _params(_L("A2 sc", "compact"), 1)[0]
    shared = verify_contragredient(p)[1]  # a semisimple L's row 2, one record per L
    for name in ("name", "passed", "values", "_detail", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(shared, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(shared, name)
    assert verify_contragredient(p)[1] is shared


def _counted_details(monkeypatch):
    reads = []
    detail = TheoremRow.detail
    monkeypatch.setattr(TheoremRow, "detail",
                        property(lambda row: reads.append(row.name) or detail.fget(row)))
    return reads


def test_fuzz_writes_no_text_on_passing_instances(monkeypatch, capsys):
    reads = _counted_details(monkeypatch)
    assert cli.main(["fuzz", "--group", "A2 sc", "--inner-class", "compact",
                     "--count", "20", "--seed", "5"]) == 0
    assert "20/20 instances verified" in capsys.readouterr().out
    assert reads == []


def test_fuzz_writes_the_text_of_failing_rows_only(monkeypatch, capsys):
    reads = _counted_details(monkeypatch)
    monkeypatch.setattr(lparam, "_params_equivalent", lambda *args: False)
    assert cli.main(["fuzz", "--group", "GL(3)", "--count", "3", "--seed", "5"]) != 0
    out = capsys.readouterr().out
    assert out.count("CHECK C-twist vs tau-twist conjugacy: FAIL (C: mu=") == 3
    assert reads == ["C-twist vs tau-twist conjugacy"] * 3
