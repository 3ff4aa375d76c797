#!/usr/bin/env python3
"""raredis-toolkit benchmark.

    python3 perfbench/run.py --workload raredis-like --seed 1 --seconds 20 --trace 0

Run from the repository root; see harness.py for what one run does.
"""

import sys

import harness

if __name__ == "__main__":
    sys.exit(harness.main())
