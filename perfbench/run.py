"""The repository's benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload profile-cold --seed 1 \
        --seconds 20 --trace 0

Workloads: profile-cold, service-threads, service-fleet, plan-exec.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it
from the repository root: it imports the program from ``src/``.
"""
import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print READY <monotonic time>, exit "
                             "(used to time setup_s in a fresh process)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    from harness import runner
    if args.workload not in runner.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(runner.WORKLOADS)}")
    return runner.main(args)


if __name__ == "__main__":
    sys.exit(main())
