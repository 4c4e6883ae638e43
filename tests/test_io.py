import re
from dataclasses import asdict

import numpy as np
import pytest

from gsdpg.amr import AmrStep, _order
from gsdpg.io import (
    CONFIG_DEFAULTS,
    ConfigError,
    parse_config,
    vertex_averaged_fields,
    write_csv,
    write_vtk,
)
from gsdpg.mesh import Mesh, build_builtin_mesh, rectangle_curve
from gsdpg.problems import get_problem
from gsdpg.solvers import solve_nonlinear
from gsdpg.system import GlobalState


class TestConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg["anderson_m"] == 5
        assert cfg["rtol"] == 1e-8
        assert cfg["atol"] == 1e-10
        assert cfg["stol"] == 1e-12
        assert cfg["theta_max"] == 0.025
        assert cfg["theta_total"] == 0.025
        assert cfg["s"] == 2

    def test_parses_values_and_comments(self):
        cfg = parse_config("""
# solver options
problem = rect-amr
k = 3          # cubic
rtol = 1e-6
resolution = 8,4
line_search = false
""")
        assert cfg["problem"] == "rect-amr"
        assert cfg["k"] == 3
        assert cfg["rtol"] == 1e-6
        assert cfg["resolution"] == (8, 4)
        assert cfg["line_search"] is False

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown option 'omega'"):
            parse_config("k = 2\n\nomega = 0.5\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1: invalid value"):
            parse_config("k = two\n")

    @pytest.mark.parametrize("key, val", [("theta_max", "nan"), ("rtol", "inf")])
    def test_non_finite_float_reports_line(self, key, val):
        with pytest.raises(ConfigError, match=f"line 2: invalid value '{val}' for '{key}'"):
            parse_config(f"k = 2\n{key} = {val}\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("k = 2\nrtol 1e-8\n")

    def test_overrides_win_over_file(self):
        cfg = parse_config("k = 3\nrtol = 1e-6\n", ["k=1", "resolution = 4,2"])
        assert cfg["k"] == 1 and cfg["rtol"] == 1e-6 and cfg["resolution"] == (4, 2)

    @pytest.mark.parametrize("option, match", [
        ("k=abc", "-o k=abc: invalid value 'abc' for 'k'"),
        ("omega=1", "-o omega=1: unknown option 'omega'"),
        ("k:2", "-o k:2: expected 'key = value'"),
        ("", "-o : expected 'key = value'"),
        ("output_prefix", "-o output_prefix: expected 'key = value'"),
    ])
    def test_bad_override_names_option(self, option, match):
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}"):
            parse_config("k = 2\n", [option])

    def test_override_value_keeps_hash(self):
        assert parse_config("", ["output_prefix=run#2"])["output_prefix"] == "run#2"

    def test_defaults_not_mutated(self):
        before = dict(CONFIG_DEFAULTS)
        parse_config("k = 3\n")
        assert CONFIG_DEFAULTS == before


class TestConvergenceCsv:
    """The study's order function, and the CSV writer every table uses."""

    LEVELS = [{"level": 0, "h": 0.4, "n_elements": 24, "err_psi": 1e-2},
              {"level": 1, "h": 0.2, "n_elements": 96, "err_psi": 1.25e-3}]

    def test_header_and_order(self, tmp_path):
        # factor 8 error drop at mesh ratio 2 -> order 3
        order = _order(*self.LEVELS, "err_psi")
        assert order == pytest.approx(3.0, rel=1e-12)
        text = write_csv(tmp_path / "t.csv", ["level", "n_elements", "order_psi"],
                         [dict(self.LEVELS[1], order_psi=order)])
        assert text == f"level,n_elements,order_psi\n1,96,{order:.17e}\n"

    def test_first_level_order_is_nan(self):
        assert np.isnan(_order(None, self.LEVELS[0], "err_psi"))

    def test_degenerate_error_gives_nan(self):
        # a zero error, and the nan error of a problem without an exact solution
        for err in (0.0, float("nan")):
            assert np.isnan(_order(self.LEVELS[0], dict(self.LEVELS[1], err_psi=err), "err_psi"))

    def test_seventeen_significant_digits(self, tmp_path):
        lines = write_csv(tmp_path / "t.csv", ["h"], self.LEVELS).splitlines()
        assert lines[1:] == ["4.00000000000000022e-01", "2.00000000000000011e-01"]

    def test_nan_and_integers_as_they_are(self, tmp_path):
        rows = [{"n": np.int64(7), "x": float("nan"), "ok": False}]
        assert write_csv(tmp_path / "t.csv", ["ok", "n", "x"], rows) == "ok,n,x\nFalse,7,nan\n"

    def test_returned_text_equals_file(self, tmp_path):
        text = write_csv(tmp_path / "t.csv", list(self.LEVELS[0]), self.LEVELS)
        assert (tmp_path / "t.csv").read_bytes() == text.encode()


class TestAmrHistoryCsv:
    def test_format(self, tmp_path):
        steps = [AmrStep(0, 100, 1.5e-2, 12, 7, True), AmrStep(1, 140, 9.0e-3, 8, 3, False)]
        rows = [asdict(st) for st in steps]
        lines = write_csv(tmp_path / "h.csv", list(rows[0]), rows).splitlines()
        assert lines[0] == ("iteration,n_elements,energy_residual,n_marked,"
                            "nonlinear_iters,converged")
        f0 = lines[1].split(",")
        assert f0[0] == "0" and f0[1] == "100"
        assert float(f0[2]) == 1.5e-2
        assert lines[2].endswith(",8,3,False")


class TestVtk:
    def make_solution(self):
        prob = get_problem("solovev-iter")
        mesh = build_builtin_mesh(prob.boundary, (6, 2))
        st = GlobalState(mesh, prob, k=1)
        res = solve_nonlinear(st)
        return st, res.U

    def test_structure_roundtrip(self, tmp_path):
        st, U = self.make_solution()
        mesh = st.mesh
        fields = vertex_averaged_fields(st, U)
        total, ind = st.energy_residual(U)
        path = tmp_path / "out.vtk"
        write_vtk(path, mesh, point_data=fields, cell_data={"eta": ind})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "ASCII" in lines[2]
        ip = lines.index(f"POINTS {mesh.n_vertices} double")
        pts = np.array([[float(x) for x in ln.split()]
                        for ln in lines[ip + 1: ip + 1 + mesh.n_vertices]])
        assert np.abs(pts[:, :2] - mesh.vertices).max() < 1e-14
        ic = lines.index(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
        first = [int(x) for x in lines[ic + 1].split()]
        assert first[0] == 3 and first[1:] == list(mesh.triangles[0])
        assert lines.count("5") >= mesh.n_triangles
        assert f"POINT_DATA {mesh.n_vertices}" in lines
        assert "SCALARS psi double 1" in lines
        assert f"CELL_DATA {mesh.n_triangles}" in lines

    def test_byte_stable(self, tmp_path):
        st, U = self.make_solution()
        fields = vertex_averaged_fields(st, U)
        a = write_vtk(tmp_path / "a.vtk", st.mesh, point_data=fields)
        b = write_vtk(tmp_path / "b.vtk", st.mesh, point_data=fields)
        assert a == b
        assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()

    def test_vertex_averages_match_exact_solution(self):
        st, U = self.make_solution()
        prob = st.problem
        fields = vertex_averaged_fields(st, U)
        exact = np.array([prob.exact_psi(r, z) for r, z in st.mesh.vertices])
        assert np.abs(fields["psi"] - exact).max() < 5e-2

    def test_shape_mismatch_rejected(self, tmp_path):
        st, U = self.make_solution()
        with pytest.raises(ValueError, match="point data"):
            write_vtk(tmp_path / "bad.vtk", st.mesh,
                      point_data={"psi": np.zeros(3)})

    def test_cell_shape_mismatch_rejected(self, tmp_path):
        mesh = Mesh(*self.SQUARE)
        with pytest.raises(ValueError, match=r"cell data 'eta' has shape \(3,\), want \(2,\)"):
            write_vtk(tmp_path / "bad.vtk", mesh, point_data={"psi": np.zeros(4)},
                      cell_data={"eta": np.zeros(3)})
        assert not (tmp_path / "bad.vtk").exists()

    SQUARE = (np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]]),
              np.array([[0, 1, 2], [0, 2, 3]]))
    GEOMETRY = """# vtk DataFile Version 3.0
gsdpg output
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
1.00000000000000000e+00 0.00000000000000000e+00 0.00000000000000000e+00
2.00000000000000000e+00 0.00000000000000000e+00 0.00000000000000000e+00
2.00000000000000000e+00 1.00000000000000000e+00 0.00000000000000000e+00
1.00000000000000000e+00 1.00000000000000000e+00 0.00000000000000000e+00
CELLS 2 8
3 0 1 2
3 0 2 3
CELL_TYPES 2
5
5
"""
    POINT_BLOCK = """POINT_DATA 4
SCALARS psi double 1
LOOKUP_TABLE default
0.00000000000000000e+00
1.42857142857142849e-01
2.85714285714285698e-01
4.28571428571428548e-01
SCALARS q_r double 1
LOOKUP_TABLE default
0.00000000000000000e+00
-3.33333333333333315e-01
-6.66666666666666630e-01
-1.00000000000000000e+00
"""
    CELL_BLOCK = """CELL_DATA 2
SCALARS eta double 1
LOOKUP_TABLE default
1.00000000000000006e-01
2.50000000000000005e-09
"""

    @pytest.mark.parametrize("points, cells", [(True, True), (True, False),
                                               (False, True), (False, False)])
    def test_exact_bytes(self, tmp_path, points, cells):
        # the text the writer has always produced for these inputs
        kw = {}
        want = self.GEOMETRY
        if points:
            kw["point_data"] = {"psi": np.arange(4) / 7.0, "q_r": -np.arange(4) / 3.0}
            want += self.POINT_BLOCK
        if cells:
            kw["cell_data"] = {"eta": np.array([0.1, 2.5e-9])}
            want += self.CELL_BLOCK
        text = write_vtk(tmp_path / "out.vtk", Mesh(*self.SQUARE), **kw)
        assert text == want
        assert (tmp_path / "out.vtk").read_bytes() == want.encode()
