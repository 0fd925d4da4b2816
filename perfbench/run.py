"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_dense --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the traced per-layer breakdown instead.  A human-readable report
goes to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every metric
name, unit and direction comes from ``metrics.py``.  Exits 2 without a
result when the program's sources (``src/repro``) are not beside it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet_dense", "fleet_churn", "service_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import fleetbench
    import servicebench
    from metrics import result_line
    from workloads import SIZES

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    trace = bool(args.trace)
    if args.workload == "service_mixed":
        if trace:
            values, report = servicebench.traced_run(args.seed, args.seconds, size)
        else:
            values, report = servicebench.e2e(args.seed, args.seconds, size)
    elif trace:
        values, report = fleetbench.traced_run(args.workload, args.seed, size)
    else:
        values, report = fleetbench.e2e(args.workload, args.seed, args.seconds, size)

    for key, value in sorted(report.items()):
        if key != "problems":
            print(f"# {key}: {value}")
    for problem in report["problems"]:
        print(f"# PROBLEM: {problem}")
    for name, value in values.items():
        print(f"# {name} = {value:.6g}")
    print(result_line(
        correct=not report["problems"],
        attempted=report["attempted"],
        failed=report.get("failed", 0),
        values=values,
        trace=trace,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
