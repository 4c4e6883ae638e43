#!/usr/bin/env python3
"""Record the references that the benchmark's output checks compare against.

    python3 perfbench/record_references.py

For every pool input it stores the L-infinity errors of ``manufactured``
(checked within a band) and the AMR history of ``rect-amr`` (checked for
equality) in ``perfbench/references.json``, for each workload and for its
small self-test variant.  Run it only at a commit whose outputs are
trusted: the checks exist to notice when a later change moves them.
The GMRES workload needs no file; its reference is a direct solve made
during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Recorder  # noqa: E402
from workloads import (POOL, REFERENCES, WORKLOADS, jittered_mesh,  # noqa: E402
                       run_operation, smoke)


def reference_of(w, index, outdir):
    with Recorder(traced=False) as rec:
        out = run_operation(w, jittered_mesh(w, index), outdir, rec)
    if not out["converged"]:
        raise RuntimeError(f"{w.name} input {index} did not converge")
    if w.amr_steps:
        return out["history"]
    return {"err_psi": out["err_psi"], "err_q": out["err_q"]}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    refs = {}
    variants = [v for w in WORKLOADS.values() if w.inner != "gmres"
                for v in (smoke(w), w)]
    with tempfile.TemporaryDirectory() as tmp:
        for w in variants:
            table = refs.setdefault(w.name, {})
            for index in range(POOL):
                table[str(index)] = reference_of(w, index, Path(tmp))
                print(w.name, index, table[str(index)], flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
