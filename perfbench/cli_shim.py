"""Traced stand-in for `python -m lparams.cli`, used by the traced cli_requests run.

Installs the span wrappers of spans.py, runs lparams.cli.main on the given
arguments, and writes the spans as one JSON line, prefixed with
spans.SHIM_MARK, as the last line of stderr. Stdout and the exit code are
those of the CLI.
"""

import sys
import time

t0 = time.perf_counter()
import lparams.cli  # noqa: E402  (the import is what is being timed)
import_s = time.perf_counter() - t0

import json  # noqa: E402

import spans  # noqa: E402

tracer = spans.Tracer()
spans.install(tracer)
code = 1
try:
    code = lparams.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse rejects the command line
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    sys.stdout.flush()
    dump = tracer.dump()
    dump["import_s"] = import_s
    sys.stderr.write("\n" + spans.SHIM_MARK + json.dumps(dump) + "\n")
sys.exit(code)
