"""One set-up sample: import dtldesign and read a workload's inputs in a
fresh interpreter, then print the CLOCK_MONOTONIC reading at which the
first operation could begin.  run.py starts this file and subtracts its
own reading taken just before the start.

Usage: python3 benchmark/probe.py <workload> <seed>
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workloads.import_program()
    workloads.set_up(sys.argv[1], int(sys.argv[2]))
    print(repr(time.monotonic()))
