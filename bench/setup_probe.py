"""Time one fresh interpreter's set-up for a workload.

Usage: python3 setup_probe.py SRC_DIR SPEC...

The clock starts before ``import propsemiring`` and stops once every
named algebra (``free:N`` or a table JSON file) has been built through
``free_boolean_algebra`` or ``table_semiring``.  Prints the seconds
measured and the same rescaled to the nominal speed (see speed.py),
using kernel runs just before and just after.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402

speed.kernel_time(3)
before = speed.kernel_time(10)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import json  # noqa: E402

from propsemiring import free_boolean_algebra, table_semiring  # noqa: E402

for spec in sys.argv[2:]:
    if spec.startswith("free:"):
        free_boolean_algebra(int(spec[5:]))
    else:
        with open(spec, encoding="utf-8") as handle:
            table_semiring(json.load(handle))
elapsed = time.perf_counter() - start
after = speed.kernel_time(10)
print(elapsed, elapsed * speed.NOMINAL_KERNEL_S * 2 / (before + after))
