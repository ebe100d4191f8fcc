"""Set-up time of one workload in a fresh interpreter.

Times importing numpy and driftbandit and building the workload's config,
instance and argument parser, i.e. everything before the first round runs,
and prints the seconds.  Run from the repository root:

    python3 benchmarks/setup_probe.py <workload> <seed> <full|tiny>
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, "src")

import numpy  # noqa: E402,F401
from driftbandit.cli import build_parser  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    config = workloads.workload_config(Path.cwd(), name, size, seed)
    config.instance()
    parser = build_parser()
    policy = config.policies[0]
    parser.parse_args(workloads.cli_args(config, policy, config.l_values[0], seed, Path("out")))
    print(repr(time.perf_counter() - _start))


if __name__ == "__main__":
    main()
