"""Time one set-up in a fresh interpreter: import, chain build, tube check.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py PRESET
Prints, as its last line, the wall seconds from before the import to the
end of the tube check, read at nominal host speed (see hostspeed.py).
"""

import sys
import time

start = time.perf_counter()

from orbitfold import build_chain, preset_group, validate_tubes  # noqa: E402

validate_tubes(build_chain(preset_group(sys.argv[1])))
elapsed = time.perf_counter() - start

import hostspeed  # noqa: E402

print(elapsed * hostspeed.scale_now())
