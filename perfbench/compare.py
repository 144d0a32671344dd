"""Name the layers that got slower between two traced benchmark results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse-cycle --seed 1 --seconds 30 --trace 1 > base.txt
    # ... change the program ...
    python3 perfbench/run.py --workload dse-cycle --seed 1 --seconds 30 --trace 1 > new.txt
    python3 perfbench/compare.py base.txt new.txt

Each file holds the output of one ``--trace 1`` run; its last line is
the result.  Prints one flagged layer per line (none when nothing grew
beyond host-speed noise) and exits 1 when any layer is flagged.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402


def self_times(path: str) -> dict:
    with open(path) as fh:
        result = json.loads(fh.read().strip().splitlines()[-1])
    metrics = result["metrics"]
    return {m: metrics[m]["value"] for m in bench.SELF_METRICS if m in metrics}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    flagged = bench.flag_layers(self_times(argv[0]), self_times(argv[1]))
    for layer in flagged:
        print(layer)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
