"""Empty every functools cache held by a module-level name of lparams.

The benchmark's set-up does the same, so a test that starts here sees the
library as a fresh process does. Not a test module: pytest does not collect it.
"""

import importlib


def clear_all_caches():
    for name in ("gaussian", "intlinalg", "rootdata", "weyl", "tits", "torus", "lgroup",
                 "lparam", "weilrep", "cli"):
        for obj in list(vars(importlib.import_module(f"lparams.{name}")).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
