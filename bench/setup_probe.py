"""One timed set-up of a workload in a fresh interpreter.

Prints the seconds from the first statement of this script to the end of
the workload's input generation: importing hotring (and the benchmark's
own modules), building the corpus and generating the inputs.  run.py
starts several of these and reports the median as setup_s.

    python3 bench/setup_probe.py --workload kv1 --seed 1 --scratch DIR
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402

from workloads import WORKLOADS, load_hotring  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    hotring = load_hotring(root)
    workload = WORKLOADS[args.workload](hotring, args.seed, args.scratch)
    try:
        workload.setup()
        elapsed = time.perf_counter() - _T0
    finally:
        workload.cleanup()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
