"""Set-up time of one workload, measured in a fresh process.

    python3 benchmarks/setup_probe.py <workload> <seed> <workdir>

Prints the seconds from before ``import dcl`` until the manifest is
parsed and the initial curve is built, that is, until the point where
the first call into ``dcl.flow`` would start.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    import workloads

    name, seed, workdir = argv
    workloads.WORKLOADS[name].probe_setup(int(seed), Path(workdir))
    print(f"{time.perf_counter() - START:.9f}")


if __name__ == "__main__":
    main(sys.argv[1:])
