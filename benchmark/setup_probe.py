"""Time the toolkit's set-up once, in a fresh process, and print it in seconds.

    python3 benchmark/setup_probe.py <preset>

Set-up is what a process pays before its first result: importing the package
and its CLI, loading a preset and making the first numeric-engine call, which
also fills the prefix and transfer caches for that preset.
"""

import sys
import time

start = time.perf_counter()
from program import import_program  # noqa: E402 - the import is part of what is timed

lab = import_program()
preset = lab.load_preset(sys.argv[1])
lab.detector_field_numeric(preset.scenario, preset.tilts)
print(time.perf_counter() - start)
