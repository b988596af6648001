"""End-to-end and per-layer benchmark of `pan4d run` and `pan4d evaluate`.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload kitti-importance --seed 1 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones (see README.md in this directory). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Without the program's sources (``src/pan4d``)
the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def check_checkout():
    """Put the checkout's src/ first on sys.path, or fail if it is missing."""
    if not (SRC / "pan4d" / "cli.py").is_file():
        print(f"perfbench: no pan4d sources under {SRC}; run it from a checkout of the "
              "repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_checkout()
    import bench
    import scenes

    if args.workload not in scenes.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(scenes.WORKLOADS)}")
    try:
        result = bench.run_workload(scenes.WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace))
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
