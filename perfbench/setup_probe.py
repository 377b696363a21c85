"""Time the set-up a first command pays, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG

Prints the seconds taken by importing pairgrating from SRC_DIR, parsing
CONFIG and running one forward evaluation at its grid.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from pairgrating.scenario import parse_config, profiles_for  # noqa: E402

profiles_for(parse_config(sys.argv[2]))
print(time.perf_counter() - start)
