import dataclasses
import os

import numpy as np
import pytest

import gsdpg.amr
import gsdpg.cli
import gsdpg.solvers
from gsdpg.cli import main
from gsdpg.problems import get_problem
from gsdpg.solvers import AndersonParams


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


class TestSolveCommand:
    def test_linear_solve_writes_vtk(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = solovev-iter\nk = 1\nresolution = 6,2\n")
        rc = run_in(tmp_path, monkeypatch, ["solve", "-c", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nonlinear iterations: 1" in out
        assert (tmp_path / "gsdpg_solution.vtk").exists()

    def test_option_overrides(self, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch, [
            "solve", "-o", "problem=solovev-iter", "-o", "k=1",
            "-o", "resolution=4,2", "-o", "output_prefix=x"])
        assert rc == 0
        assert (tmp_path / "x_solution.vtk").exists()

    def test_unknown_option_exits_1(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, ["solve", "-o", "omega=2"])
        assert rc == 1
        assert "unknown option" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ("k=abc", "error: -o k=abc: invalid value 'abc' for 'k'"),
        ("k:2", "error: -o k:2: expected 'key = value', got 'k:2'"),
    ])
    def test_bad_option_names_option(self, tmp_path, monkeypatch, capsys, option, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = rect-amr\nk = 1\n")
        rc = run_in(tmp_path, monkeypatch, ["solve", "-c", str(cfg), "-o", option])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"

    def test_unknown_problem_exits_1(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, ["solve", "-o", "problem=spheromak"])
        assert rc == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_mesh_file_input(self, tmp_path, monkeypatch):
        msh = tmp_path / "square.msh"
        msh.write_text("""$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0.5 0.0 0
2 1.5 0.0 0
3 1.5 1.0 0
4 0.5 1.0 0
$EndNodes
$Elements
2
1 2 2 0 1 1 2 3
2 2 2 0 1 1 3 4
$EndElements
""")
        rc = run_in(tmp_path, monkeypatch, [
            "solve", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", f"mesh_file={msh}"])
        assert rc == 0

    def test_malformed_mesh_reports_line(self, tmp_path, monkeypatch, capsys):
        msh = tmp_path / "bad.msh"
        msh.write_text("$MeshFormat\n9.9 0 8\n$EndMeshFormat\n")
        rc = run_in(tmp_path, monkeypatch, [
            "solve", "-o", "problem=rect-amr", "-o", f"mesh_file={msh}"])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_stalled_inner_gmres_exits_2(self, tmp_path, monkeypatch, capsys):
        def stalled(A, b, M=None, params=None):
            return np.zeros_like(b), {"iterations": 5000, "relres": 0.5,
                                      "converged": False}

        monkeypatch.setattr(gsdpg.solvers, "krylov_solve", stalled)
        rc = run_in(tmp_path, monkeypatch, [
            "solve", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=3,3", "-o", "inner_solver=gmres"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: inner GMRES stalled at relative residual 5.000e-01")
        assert "Traceback" not in err

    def test_non_finite_source_exits_2(self, tmp_path, monkeypatch, capsys):
        bad = dataclasses.replace(get_problem("rect-amr"),
                                  f_nl=lambda r, z, psi: np.nan * psi)
        monkeypatch.setattr(gsdpg.cli, "get_problem", lambda name: bad)
        rc = run_in(tmp_path, monkeypatch, [
            "solve", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=3,3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: F_N non-finite on element ")

    def test_negative_anderson_depth_exits_1(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, [
            "solve", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=3,3", "-o", "anderson_m=-1"])
        assert rc == 1
        assert "error: Anderson depth m must be >= 0, got -1" in capsys.readouterr().err


    def test_zero_nonlinear_iterations_exits_1(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, [
            "solve", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=3,3", "-o", "max_nonlinear_iters=0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: nonlinear iteration budget max_iters must be >= 1, got 0" in err
        assert not (tmp_path / "gsdpg_solution.vtk").exists()


class TestConvergeCommand:
    def test_writes_csv_with_orders(self, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch, [
            "converge", "-o", "problem=solovev-iter", "-o", "k=1",
            "-o", "resolution=4,2", "-o", "levels=2"])
        assert rc == 0
        csv = (tmp_path / "gsdpg_convergence.csv").read_text().strip().split("\n")
        assert csv[0] == ("level,h,n_elements,energy_residual,order_energy,"
                          "err_psi,order_psi,err_q,order_q,nonlinear_iters,converged")
        assert len(csv) == 3
        row = csv[2].split(",")
        assert 1.0 < float(row[6]) < 3.0
        assert row[-2:] == ["1", "True"]

    @pytest.mark.parametrize("levels", [0, -1])
    def test_nonpositive_levels_exits_1(self, tmp_path, monkeypatch, capsys, levels):
        rc = run_in(tmp_path, monkeypatch, [
            "converge", "-o", "problem=manufactured", "-o", "k=1",
            "-o", "resolution=3,2", "-o", f"levels={levels}"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert f"error: convergence study needs levels >= 1, got {levels}" in err
        assert "level" not in out
        assert not (tmp_path / "gsdpg_convergence.csv").exists()

    def test_problem_without_exact_solution_reports_energy_only(self, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch, [
            "converge", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=4,4", "-o", "levels=2"])
        assert rc == 0
        lines = (tmp_path / "gsdpg_convergence.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert np.isfinite(float(row["order_energy"]))
        assert all(row[key] == "nan" for key in ("err_psi", "order_psi", "err_q", "order_q"))

    def test_failed_level_is_written_and_exits_2(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, [
            "converge", "-o", "problem=manufactured", "-o", "k=1",
            "-o", "resolution=3,2", "-o", "levels=2", "-o", "max_nonlinear_iters=1"])
        assert rc == 2
        lines = (tmp_path / "gsdpg_convergence.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].endswith(",False")
        assert "level 0: nonlinear solve did not converge" in capsys.readouterr().err

    def test_completed_levels_kept_before_a_failed_one(self, tmp_path, monkeypatch, capsys):
        solve = gsdpg.amr.solve_nonlinear
        calls = []

        def fail_second(state, anderson=None, inner="direct"):
            calls.append(state)
            budget = AndersonParams(max_iters=1) if len(calls) == 2 else anderson
            return solve(state, budget, inner=inner)

        monkeypatch.setattr(gsdpg.amr, "solve_nonlinear", fail_second)
        rc = run_in(tmp_path, monkeypatch, [
            "converge", "-o", "problem=manufactured", "-o", "k=1",
            "-o", "resolution=3,2", "-o", "levels=3"])
        assert rc == 2
        lines = (tmp_path / "gsdpg_convergence.csv").read_text().splitlines()
        assert [ln.split(",")[-1] for ln in lines[1:]] == ["True", "False"]
        assert "level 1: nonlinear solve did not converge" in capsys.readouterr().err


class TestAmrCommand:
    def test_writes_history_and_solution(self, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch, [
            "amr", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=4,4", "-o", "max_amr_iters=2"])
        assert rc == 0
        hist = (tmp_path / "gsdpg_amr_history.csv").read_text().strip().split("\n")
        assert hist[0] == ("iteration,n_elements,energy_residual,n_marked,"
                           "nonlinear_iters,converged")
        assert len(hist) >= 2
        assert (tmp_path / "gsdpg_solution.vtk").exists()
        n0 = int(hist[1].split(",")[1])
        n1 = int(hist[2].split(",")[1])
        assert n1 > n0

    def test_inner_solver_reaches_every_map(self, tmp_path, monkeypatch):
        seen = []
        init = gsdpg.solvers.FixedPointMap.__init__

        def spy(self, state, inner="direct"):
            seen.append(inner)
            init(self, state, inner=inner)

        monkeypatch.setattr(gsdpg.solvers.FixedPointMap, "__init__", spy)
        rc = run_in(tmp_path, monkeypatch, [
            "amr", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=4,4", "-o", "max_amr_iters=2", "-o", "inner_solver=gmres"])
        assert rc == 0
        assert seen == ["gmres", "gmres"]

    def test_unknown_inner_solver_exits_1(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, [
            "amr", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=3,3", "-o", "inner_solver=bogus"])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown inner solver 'bogus'\n"
        assert not (tmp_path / "gsdpg_amr_history.csv").exists()

    def test_unconverged_step_exits_2(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, [
            "amr", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=4,4", "-o", "max_amr_iters=2",
            "-o", "max_nonlinear_iters=1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "(not converged)" in out
        assert "did not converge at AMR iteration(s) 0, 1" in err
        hist = (tmp_path / "gsdpg_amr_history.csv").read_text().splitlines()
        assert [ln.split(",")[-1] for ln in hist[1:]] == ["False", "False"]

    def test_zero_amr_iterations_exits_1(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, [
            "amr", "-o", "problem=rect-amr", "-o", "k=1",
            "-o", "resolution=3,3", "-o", "max_amr_iters=0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: AMR iteration budget max_iters must be >= 1, got 0" in err
        assert not (tmp_path / "gsdpg_amr_history.csv").exists()
