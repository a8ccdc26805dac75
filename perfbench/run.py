"""Run one benchmark workload on the mpbelyi sources of this checkout.

    python3 perfbench/run.py --workload {eliminate,certify,expand} \
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A report (and, traced, the spans) is
written under perfbench/out/.  Exits 2, printing no result, when the
checkout has no src/mpbelyi to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("eliminate", "certify", "expand")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "mpbelyi" / "__init__.py").is_file():
        print("error: no mpbelyi sources under %s" % SRC, file=sys.stderr)
        return 2
    # the repository root instead of this directory, so that perfbench is a
    # package and its module names shadow nothing
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(SRC))
    import mpbelyi

    if Path(mpbelyi.__file__).resolve().parent != (SRC / "mpbelyi").resolve():
        print("error: mpbelyi imported from %s, not %s" % (mpbelyi.__file__, SRC), file=sys.stderr)
        return 2

    from perfbench.bench import run

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT / "perfbench" / "out")
    for name, entry in sorted(report.get("per_op", {}).items()):
        print("%-28s raw %9.4f s   quiet %9.4f s" % (name, entry["raw_s"], entry["quiet_s"]))
    for name, note in report.get("failures", {}).items():
        print("FAILED %s: %s" % (name, note))
    print("rounds %d" % report["rounds"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
