"""Time one set-up of a run and print it in seconds.

Set-up is importing myobridge and building the per-performer state a run
needs: trackers, oscillator banks, serial streams and the loopback sockets.
The caller puts `src` and this directory on PYTHONPATH.

    python3 perfbench/setup_probe.py <performers>
"""

import sys
import time

t0 = time.perf_counter()
import glue  # noqa: E402  (the import is part of what is timed)
import spans  # noqa: E402

render, stream = glue.build_state(int(sys.argv[1]), spans.Tracer(False))
elapsed = time.perf_counter() - t0
stream.close()
print(repr(elapsed))
