"""The command line, as ``python -m molbridge`` and as the ``molbridge``
script.

Before numpy loads, each BLAS thread variable that is unset or empty is
set to 1: numpy's BLAS then starts no threads of its own, so the run
uses the forked helper processes (see parallel.py) and writes the same
bytes as an explicitly pinned one. A value the caller set wins.
"""

import os
import sys

from . import BLAS_THREAD_VARIABLES


def entry() -> None:
    for name in BLAS_THREAD_VARIABLES:
        if not os.environ.get(name):
            os.environ[name] = "1"
    from .cli import main
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
