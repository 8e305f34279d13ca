#!/usr/bin/env python3
"""Time numrad's end-to-end commands in fresh processes.

    python tools/end_to_end.py [--runs N]

runs each command below N times (default 3), one fresh `python -m numrad`
process per run, taking the commands in turn so that a drift in the
machine's speed reaches each of them alike. It prints JSON: per command,
every run's wall time and peak RSS, and their medians. The package is
imported from the src directory next to this script, so a copy of the
script in another checkout times that checkout. Set OPENBLAS_NUM_THREADS
in the environment to pin the BLAS threads; the value is echoed.

The commands are the search and sweep sizes that name the package's
end-to-end targets: a 100,000-iteration search and three 10,000-trial
sweeps, at n = 4: disk and ginibre draws, which take the radius's level-set
test, and Hermitian segment draws, which its probe certifies. Standard library only; peak RSS is the child's ru_maxrss (Linux
reports it in KiB).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = {
    "search --problem n=4 iters=100000": ["search", "--problem", "--n", "4", "--iters", "100000", "--seed", "7"],
    "sweep disk n=4 trials=10000": ["sweep", "--ensemble", "disk", "--n", "4", "--trials", "10000", "--seed", "7",
                                    "--lambda", "1,0.5", "--r", "0.4"],
    "sweep ginibre n=4 trials=10000": ["sweep", "--ensemble", "ginibre", "--n", "4", "--trials", "10000",
                                       "--seed", "7", "--lambda", "0.5,0", "--r", "1.2"],
    "sweep segment n=4 trials=10000": ["sweep", "--ensemble", "segment", "--n", "4", "--trials", "10000",
                                       "--seed", "7", "--m", "1", "--M", "3"],
}


def run_once(args: list, env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh `python -m numrad` process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "numrad", *args], stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"numrad {' '.join(args)} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs of each command (default 3)")
    runs = parser.parse_args(argv).runs
    if runs < 1:
        parser.error("need --runs >= 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    walls = {name: [] for name in COMMANDS}
    rss = {name: [] for name in COMMANDS}
    for _ in range(runs):
        for name, args in COMMANDS.items():
            wall, peak = run_once(args, env)
            walls[name].append(round(wall, 4))
            rss[name].append(round(peak, 1))
    out = {
        "runs": runs,
        "python": sys.version.split()[0],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commands": {
            name: {
                "argv": ["numrad", *COMMANDS[name]],
                "wall_s": walls[name],
                "wall_s_median": statistics.median(walls[name]),
                "peak_rss_mb": rss[name],
                "peak_rss_mb_median": statistics.median(rss[name]),
            }
            for name in COMMANDS
        },
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
