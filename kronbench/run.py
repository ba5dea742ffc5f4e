"""kroncoef benchmark: one workload, one seed, one JSON result line.

    python3 kronbench/run.py --workload closed-queries --seed 1 --seconds 20 --trace 0

Run from the root of a kroncoef checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run is untraced and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
BENCHMARK.json, taken from traced passes (see tracing.py).  Every answer is
checked after timing.  The last line of standard output is the result
object; the lines before it are the same metrics for people plus a stamp of
the run's conditions.  See README.md in this directory for the workloads and
the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kroncoef" / "__init__.py").is_file():
        print(f"error: no kroncoef sources under {SRC}; run from a kroncoef checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, stamp = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{stamp['workload']} {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
