"""Measurement loop of one workload run and the metrics it reports."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gsdpg.mesh
import gsdpg.problems
import gsdpg.solvers
import gsdpg.system
from hostspeed import HostSpeed
from tracing import Recorder
from workloads import (JITTER, STALL_PROBE_JITTER, WORKLOADS, References,
                       Workload, check, jittered_mesh, pool_order,
                       run_operation)

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def with_units(values: dict, section: str) -> dict:
    """Attach the units declared in BENCHMARK.json; the names must match."""
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(values) != set(units):
        raise RuntimeError(f"{section} metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def import_seconds(root: Path) -> float:
    """Wall time of ``import gsdpg`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gsdpg; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout)


def _operation(w, mesh_input, reference, outdir, traced):
    """Run and check one operation; returns (summary, failures, layers).

    Heavy objects (the state and solution) die with this frame, so one
    operation's memory is freed before the next one starts.
    """
    gc.collect()
    with Recorder(traced=False) as rec:
        out = run_operation(w, mesh_input, outdir, rec)
    bad = check(w, out, reference)
    summary = {k: out[k] for k in ("wall_s", "energy_residual", "outer_iters",
                                   "fp_evals", "inner_iters")}
    summary["setup_s"] = rec.time["system.setup"]
    summary["solve_s"] = rec.time["solve"]
    summary["dofs_per_s"] = out["dofs_solved"] / out["wall_s"]
    summary["untimed_s"] = 0.0
    for key in ("err_psi", "err_q", "history"):
        if key in out:
            summary[key] = out[key]
    mesh, problem = out["state"].mesh, out["state"].problem
    del out, rec
    gc.collect()
    if not traced:
        if w.setup_repeats:
            _add_setup_samples(summary, w, mesh, problem)
        return summary, bad, None
    with Recorder(traced=True) as trec:
        tout = run_operation(w, mesh_input, outdir, trec)
    bad += check(w, tout, reference)
    bad += _count_mismatches(summary, tout, trec)
    layers = trec.layer_metrics(tout)
    layers["trace.overhead_s"] = tout["wall_s"] - summary["wall_s"]
    return summary, bad, (layers, tout["state"])


def _add_setup_samples(summary, w, mesh, problem):
    """Make setup_s the median of the operation's GlobalState construction
    and ``w.setup_repeats`` more on its final mesh, timed outside wall_s."""
    setups = [summary["setup_s"]]
    t_repeats = perf_counter()
    for _ in range(w.setup_repeats):
        t0 = perf_counter()
        gsdpg.system.GlobalState(mesh, problem, w.k)
        setups.append(perf_counter() - t0)
    summary["untimed_s"] = perf_counter() - t_repeats
    summary["setup_s"] = statistics.median(setups)


def _count_mismatches(untraced: dict, traced: dict, trec) -> list[str]:
    bad = []
    for key in ("outer_iters", "fp_evals", "inner_iters", "history"):
        if untraced.get(key) != traced.get(key):
            bad.append(f"traced {key} {traced.get(key)} != untraced "
                       f"{untraced.get(key)}")
    if trec.calls["solvers.fp_eval"] != traced["fp_evals"]:
        bad.append("traced map-evaluation count disagrees with the maps")
    if sum(trec.krylov_iters) != traced["inner_iters"]:
        bad.append("traced GMRES iterations disagree with the maps")
    return bad


def stall_probe() -> int:
    """1 if the first inner GMRES solve on the 15%-jitter rectangle (pool
    index 0) still stalls at the iteration cap, else 0."""
    w = WORKLOADS["rect-k1-gmres"]
    mesh = gsdpg.mesh.Mesh(*jittered_mesh(w, 0, STALL_PROBE_JITTER))
    state = gsdpg.system.GlobalState(
        mesh, gsdpg.problems.get_problem(w.problem), w.k)
    try:
        gsdpg.solvers.solve_nonlinear(state, inner=w.inner)
    except RuntimeError as exc:
        if "inner GMRES stalled" in str(exc):
            return 1
        raise
    return 0


def run_workload(w: Workload, seed: int, seconds: float, traced: bool,
                 root: Path, refs: References | None = None):
    """One benchmark run; returns (result line, details line) as dicts."""
    order = pool_order(seed)
    refs = refs or References(w)
    host = None if traced else HostSpeed()

    summaries, layer_rows, failures, used = [], [], [], []
    static_nnz = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        outdir = Path(tmp)
        mesh_input = jittered_mesh(w, order[0])
        try:  # warm-up; a failure here shows again in the timed operations
            _operation(w, mesh_input, refs(order[0], mesh_input), outdir,
                       traced=False)
        except Exception as exc:
            print(f"warm-up failed: {exc!r}", file=sys.stderr)
        deadline = perf_counter() + seconds
        while not used or perf_counter() < deadline:
            index = order[len(used) % len(order)]
            used.append(index)
            try:
                t_ref = perf_counter()
                mesh_input = jittered_mesh(w, index)
                ref = refs(index, mesh_input)
                if not traced:
                    # one import per operation spreads the samples over the
                    # run, like the operations themselves
                    import_s = import_seconds(root)
                    before = host.sample()
                deadline += perf_counter() - t_ref  # not operation time
                summary, bad, layers = _operation(w, mesh_input, ref, outdir,
                                                  traced)
                if not traced:
                    t_after = perf_counter()
                    summary["speed"] = host.factor(before, host.sample())
                    summary["import_s"] = import_s
                    deadline += perf_counter() - t_after
                deadline += summary["untimed_s"]
            except Exception as exc:
                summary, bad, layers = None, [f"{type(exc).__name__}: {exc}"], None
            if bad:
                failures.append(bad)
                print(f"input {index} failed: {bad}", file=sys.stderr)
                continue
            summaries.append(summary)
            if layers is not None:
                row, state = layers
                if static_nnz is None:
                    # read after the solve: normal_matrix_static caches
                    static_nnz = state.normal_matrix_static().nnz
                row["system.static_nnz"] = static_nnz
                layer_rows.append(row)
                del state, layers
    if not summaries:
        sys.exit(f"error: all {len(failures)} operations failed")

    attempted = len(used)
    details = {
        "workload": w.name, "seed": seed, "jitter": JITTER, "inputs": used,
        "fail_frac": {"value": len(failures) / attempted, "unit": "1"},
    }
    # unscaled times per operation, the host speed factors, checked outputs
    for key in ("wall_s", "setup_s", "solve_s", "import_s", "speed",
                "outer_iters", "fp_evals", "inner_iters", "err_psi", "err_q",
                "history"):
        if key in summaries[0]:
            details[key] = [s[key] for s in summaries]

    if traced:
        # median_low keeps counts whole: it is always a measured value
        metrics = {name: statistics.median_low(r[name] for r in layer_rows)
                   for name in layer_rows[0]}
        metrics["probe.gmres_stalls"] = stall_probe()
        metrics = with_units(metrics, "per_layer")
    else:
        def scaled(key):  # a time at the reference host speed (hostspeed.py)
            return statistics.median(s[key] * s["speed"] for s in summaries)
        values = {
            "wall_s": scaled("wall_s"),
            "setup_s": scaled("setup_s"),
            "solve_s": scaled("solve_s"),
            "import_s": scaled("import_s"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "dofs_per_s": statistics.median(s["dofs_per_s"] / s["speed"]
                                            for s in summaries),
            "energy_residual":
                statistics.median(s["energy_residual"] for s in summaries),
        }
        metrics = with_units(values, "end_to_end")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, details
