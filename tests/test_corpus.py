"""A fixed slice of the recorded CLI corpus replays byte for byte, exit codes included.

The corpus is written by tests/make_corpus.py; `python tests/make_corpus.py
--check` replays all of it.
"""

import pytest

import make_corpus

STEMS = make_corpus.stems()
STRIDE = 7  # every 7th entry of a parameter command: odd, so text and --json alternate


def _slice(stem):
    entries = make_corpus.load(stem)
    return entries if stem in ("check-tits", "fuzz") else entries[::STRIDE]


def test_corpus_files_are_present():
    assert STEMS == sorted([*make_corpus.PARAM_COMMANDS, "check-tits", "fuzz"])


@pytest.mark.parametrize("stem", STEMS)
def test_corpus_slice_replays_byte_for_byte(stem):
    entries = _slice(stem)
    assert entries
    bad = make_corpus.mismatches(entries)
    assert not bad, [(e["argv"], code, out) for e, code, out in bad[:3]]


def test_slice_covers_both_formats_and_every_exit_code():
    entries = [e for stem in STEMS for e in _slice(stem)]
    assert {"--json" in e["argv"] for e in entries} == {True, False}
    assert {e["code"] for e in entries} == {0, 3}
