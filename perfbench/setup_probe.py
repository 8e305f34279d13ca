"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports numrad from the checkout's src/ and runs the workload's warm-up
operation, as run.py does before timing. The last line of stdout holds the
time taken and then the yardstick's time in the same process, in seconds.
run.py calls this with its BLAS thread settings.
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402

(HERE / "_work").mkdir(exist_ok=True)
with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
    run.setup(sys.argv[1], int(sys.argv[2]), Path(tmp))
    seconds = time.perf_counter() - t0

from yardstick import Yardstick  # noqa: E402

stick = Yardstick()
print(seconds, statistics.median(stick.seconds() for _ in range(3)))
