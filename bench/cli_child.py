"""Run the popest command line the way the installed ``popest`` script does,
and record how long the import and the command itself took.

Usage: python3 bench/cli_child.py TIMING_JSON <popest arguments...>
"""

import sys
import time

t0 = time.perf_counter()
from popest.cli import main  # noqa: E402

t1 = time.perf_counter()
rc = main(sys.argv[2:])
t2 = time.perf_counter()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(f'{{"import_s": {t1 - t0!r}, "run_s": {t2 - t1!r}}}\n')
sys.exit(rc)
