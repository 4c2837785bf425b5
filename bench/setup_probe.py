"""Print the set-up time of a fresh process: library import plus input generation.

    python3 bench/setup_probe.py <workload> <seed> <seconds> <full|tiny>

``run.py`` starts a few of these and reports the median as ``setup_s``.
"""
import time

_start = time.perf_counter()

import sys

import bootstrap


def main(argv) -> int:
    workload, seed, seconds, size = argv
    q = bootstrap.import_library()
    import workloads

    workloads.build(workload, q, int(seed), int(seconds), size == "tiny")
    print(time.perf_counter() - _start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
