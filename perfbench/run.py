#!/usr/bin/env python3
"""gsdpg benchmark: one seeded workload per process, single-threaded.

    python3 perfbench/run.py --workload rect-amr-k2 --seed 3 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/`` of that
checkout and nowhere else.  The seed picks the input mesh.  After one
untimed warm-up operation the workload repeats its operation for
``--seconds`` seconds and checks every result.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  The line before it holds outputs that are checked but
not gated: the failure fraction, the errors, the AMR history.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    """Import gsdpg from this checkout's src/, or exit without a result."""
    if not (SRC / "gsdpg" / "__init__.py").is_file():
        sys.exit(f"error: no gsdpg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gsdpg
    if Path(gsdpg.__file__).resolve().parent != (SRC / "gsdpg").resolve():
        sys.exit(f"error: gsdpg imported from {gsdpg.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy loads: one thread
    _import_library()
    from bench import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, details = run_workload(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), ROOT)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
