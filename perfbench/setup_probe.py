"""Time, in a fresh process, importing the cocain CLI and building a
workload's inputs.

Usage: python3 setup_probe.py ROOT WORKLOAD SEED

ROOT is the checkout whose `src/` holds the package.  Prints the CPU
seconds and the wall seconds spent, then the median CPU seconds of
CHUNKS calibration chunks timed right after.  The clocks start before the
first import of numpy or cocain, so the figures are what every CLI call
pays before its first iteration (without the interpreter's own start-up).
"""

import os
import statistics
import sys
import time

import workloads

CHUNKS = 100  # about half as much CPU time as the set-up itself


def main(argv):
    root, name, seed = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, os.path.join(root, "src"))
    start, cpu_start = time.perf_counter(), time.process_time()
    from cocain import cli

    workloads.build_inputs(cli, name, seed)
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
    import calibration

    chunk = statistics.median(calibration.sample() for _ in range(CHUNKS))
    print(repr(cpu), repr(wall), repr(chunk))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
