"""Record, or replay, the CLI output corpus in tests/data/corpus.

    python tests/make_corpus.py           # write tests/data/corpus/*.jsonl
    python tests/make_corpus.py --check   # replay every entry; exit 1 on a difference

Each line of a corpus file is one JSON object: the argv given to
`lparams.cli.main`, the exit code it returned and the text it wrote to stdout.
The corpus covers `verify-theorem`, `contragredient`, `invariants` and
`validate-param`, as text and as `--json`, on 20 seeded parameters and on
lambda = 0 (w = e, mu = 0) for each benchmark configuration; `check-tits`, as
text and as `--json`, on ten small groups; and `fuzz --count 5` on each
configuration. A change that means to alter output regenerates the corpus
and shows the changed lines in its diff, like any golden file.

Not a test module (its name does not start with test_); tests/test_corpus.py
replays a fixed slice of it in tier-1.
"""

import argparse
import contextlib
import io
import json
import sys
from itertools import zip_longest
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "corpus"

# the benchmark's theorem_fleet and big_weyl configurations: (group, inner class)
D4_SWAP = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
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
CHECK_TITS = [("A1 sc", "split"), ("A2 sc", "split"), ("B2 sc", "split"), ("G2 sc", "split"),
              ("A3 sc", "split"), ("B3 ad", "split"), ("C3 sc", "split"), ("GL(3)", "split"),
              ("A2 sc", "compact"), ("A1 sc x A1 sc", [[0, 1], [1, 0]])]
PARAM_COMMANDS = ["verify-theorem", "contragredient", "invariants", "validate-param"]
SEEDED = 20  # seeded parameters per configuration, besides lambda = 0


def _inner_arg(inner) -> str:
    return inner if isinstance(inner, str) else json.dumps(inner)


def _param_docs(group, inner):
    """lambda = 0, w = e, mu = 0, then SEEDED random parameters, as inline JSON."""
    from lparams.lgroup import parse_inner_class
    from lparams.lparam import param_to_dict, random_param
    from lparams.rootdata import build_datum

    L = parse_inner_class(build_datum(group), inner)
    zero = ["0"] * L.dual_datum.rank
    yield json.dumps({"group": group, "inner_class": inner, "lambda": zero, "mu": zero, "w": []})
    for k in range(SEEDED):
        p = random_param(L, Random(f"corpus:{group}:{_inner_arg(inner)}:{k}"))
        yield json.dumps(param_to_dict(p))


def invocations():
    """{file stem: [argv, ...]}, in a fixed order."""
    calls = {name: [] for name in PARAM_COMMANDS}
    for group, inner in CONFIGS:
        for doc in _param_docs(group, inner):
            for name in PARAM_COMMANDS:
                calls[name] += [[name, "--param", doc], [name, "--param", doc, "--json"]]
    calls["check-tits"] = [["check-tits", group, "--inner-class", _inner_arg(inner), *flag]
                           for group, inner in CHECK_TITS for flag in ([], ["--json"])]
    calls["fuzz"] = [["fuzz", "--group", group, "--inner-class", _inner_arg(inner),
                      "--seed", "0", "--count", "5"] for group, inner in CONFIGS]
    return calls


def run(argv):
    """(exit code, stdout) of lparams.cli.main on argv, in this process."""
    from lparams.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def load(stem):
    """The entries of one corpus file."""
    with open(CORPUS / f"{stem}.jsonl", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def stems():
    return sorted(p.stem for p in CORPUS.glob("*.jsonl"))


def mismatches(entries):
    """The entries whose replay differs from the record: (entry, code, stdout) each."""
    bad = []
    for e in entries:
        code, out = run(e["argv"])
        if code != e["code"] or out != e["stdout"]:
            bad.append((e, code, out))
    return bad


def write():
    CORPUS.mkdir(parents=True, exist_ok=True)
    total = 0
    for stem, calls in invocations().items():
        with open(CORPUS / f"{stem}.jsonl", "w", encoding="utf-8") as f:
            for argv in calls:
                code, out = run(argv)
                f.write(json.dumps({"argv": argv, "code": code, "stdout": out},
                                   sort_keys=True) + "\n")
        total += len(calls)
    print(f"{total} entries written to {CORPUS}")


def check() -> int:
    total, failed = 0, 0
    for stem in stems():
        entries = load(stem)
        total += len(entries)
        for e, code, out in mismatches(entries):
            failed += 1
            print(f"{stem}: {e['argv']!r}: exit {code} (recorded {e['code']})")
            for g, w in zip_longest(out.splitlines(), e["stdout"].splitlines(), fillvalue=""):
                if g != w:
                    print(f"  recorded: {w[:300]}\n  replayed: {g[:300]}")
                    break
    print(f"{total - failed}/{total} corpus entries replayed byte for byte")
    return 1 if failed or not total else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="replay every entry instead of writing")
    sys.exit(check() if ap.parse_args().check else write())
