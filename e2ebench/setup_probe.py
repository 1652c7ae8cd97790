"""Child process timed by the benchmark's ``setup_s`` metric.

Does what every in-process workload does before its first pass --
import the CLI module, load the POWER7 definition, build the machine --
and prints one JSON line with the time each step took.  The parent
times the whole process from launch to that line.
"""

import json
import time

started = time.perf_counter()
import repro.__main__  # noqa: E402,F401

imported = time.perf_counter()
from repro.march import get_architecture  # noqa: E402
from repro.sim import Machine  # noqa: E402

arch = get_architecture("POWER7")
loaded = time.perf_counter()
Machine(arch)
built = time.perf_counter()
print(
    json.dumps(
        {
            "import_s": imported - started,
            "arch_s": loaded - imported,
            "machine_s": built - loaded,
        }
    ),
    flush=True,
)
