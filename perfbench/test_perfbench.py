"""Self-test of the benchmark: small-mesh smoke runs and a stable schema.

    python3 -m pytest perfbench -q

The smoke variants run the same code paths as the workloads on meshes small
enough that every workload, traced and untraced, finishes in seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gsdpg.mesh  # noqa: E402
from bench import run_workload  # noqa: E402
from workloads import (JITTER, WORKLOADS, References, jittered_mesh,  # noqa: E402
                       pool_order, smoke)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def _check_result(result, expected_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected_units
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
        assert not isinstance(m["value"], bool) and math.isfinite(m["value"])
    json.loads(json.dumps(result))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_untraced(name):
    result, details = run_workload(smoke(WORKLOADS[name]), seed=0, seconds=0,
                                   traced=False, root=ROOT)
    _check_result(result, _units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["fail_frac"]["value"] == 0.0
    scaled = [t * f for t, f in zip(details["wall_s"], details["speed"])]
    assert result["metrics"]["wall_s"]["value"] == statistics.median(scaled)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_traced(name):
    result, _ = run_workload(smoke(WORKLOADS[name]), seed=0, seconds=0,
                             traced=True, root=ROOT)
    _check_result(result, _units("per_layer"))
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["solvers.fp_evals"] >= metrics["solvers.outer_iters"] > 0
    assert (metrics["amr.steps"] > 0) == bool(WORKLOADS[name].amr_steps)
    assert (metrics["solvers.inner_iters"] > 0) == (WORKLOADS[name].inner == "gmres")


class _WrongReferences(References):
    """References moved away from the true outputs."""

    def __call__(self, index, mesh_input):
        ref = super().__call__(index, mesh_input)
        if isinstance(ref, dict):
            return {k: 2.0 * v for k, v in ref.items()}
        if isinstance(ref, list):
            return ref[:-1]
        return ref * (1.0 + 1e-4)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_output_checks_catch_wrong_results(name):
    w = smoke(WORKLOADS[name])
    with pytest.raises(SystemExit, match="operations failed"):
        run_workload(w, seed=0, seconds=0, traced=True, root=ROOT,
                     refs=_WrongReferences(w))


def test_inputs_follow_the_seed():
    assert pool_order(3) == pool_order(3) != pool_order(4)
    w = WORKLOADS["rect-amr-k2"]
    V0, T0 = jittered_mesh(w, 0, fraction=0.0)
    V1, T1 = jittered_mesh(w, 5)
    V2, _ = jittered_mesh(w, 5)
    np.testing.assert_array_equal(V1, V2)
    np.testing.assert_array_equal(T0, T1)
    mesh = gsdpg.mesh.Mesh(V0, T0)
    boundary = np.zeros(len(V0), dtype=bool)
    boundary[mesh.edges[mesh.boundary_edge_flags].ravel()] = True
    shift = np.linalg.norm(V1 - V0, axis=1)
    assert np.all(shift[boundary] == 0.0)
    shortest = np.full(len(V0), np.inf)
    for (a, b), length in zip(mesh.edges, mesh.edge_lengths):
        shortest[a] = min(shortest[a], length)
        shortest[b] = min(shortest[b], length)
    np.testing.assert_allclose(shift[~boundary], JITTER * shortest[~boundary])


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "rect-k1-gmres",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
