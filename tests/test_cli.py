import json

import numpy as np
import pytest

from polarflow.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    config_hash,
    load_config,
    main,
    run_cell,
    run_evolve,
    run_verify,
)
from polarflow.errors import ConfigError

ELLIPSE_CFG = """\
grid.m = 1
grid.lengths = 1.0
grid.resolution = 64
flux.kind = burgers
solver.dt = 5e-4
solver.t_end = 0.2
initial.preset = ellipse
initial.params = 2.0, 1.0
output.dir = {out}
output.record_every = 100
output.svg = true
seed = 42
"""

CELL_CFG = """\
grid.m = 1
grid.lengths = 1.0
grid.resolution = 64
flux.kind = constant
flux.coeffs = 1.0
flux.mod_const = 0.0
flux.mod_sin = 1.0
cell.p = 1.0
cell.pairs = 3
seed = 7
output.dir = {out}
"""


def write_cfg(tmp_path, template, name="run.cfg"):
    out = tmp_path / "artifacts"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return path, out


class TestConfigParsing:
    def test_parse_values_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\na.b = 1.5  # trailing\nc.d = x, y\n")
        cfg = load_config(p)
        assert cfg == {"a.b": "1.5", "c.d": "x, y"}

    def test_missing_equals_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a.b = 1\nnonsense\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(p)

    def test_duplicate_key_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a.b = 1\na.b = 2\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(p)

    def test_hash_stable_under_reordering(self):
        assert config_hash({"a": "1", "b": "2"}) == config_hash({"b": "2", "a": "1"})


class TestRunEvolve:
    def test_artifacts_and_convergence(self, tmp_path):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG)
        assert run_evolve(cfg_path) == EXIT_OK
        for name in ("diagnostics.csv", "trajectory.csv", "snapshot_final.csv"):
            text = (out / name).read_text()
            assert text.startswith("#")
            assert "config_hash=" in text
        assert (out / "frames" / "frame_00000.svg").exists()
        last = (out / "diagnostics.csv").read_text().strip().splitlines()[-1]
        sphere_dev = float(last.split(",")[5])
        assert sphere_dev < 1e-6

    def test_malformed_config_no_partial_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"grid.m = 1\ngrid.lengths = 1.0\nbroken line\noutput.dir = {out}\n")
        assert run_evolve(bad) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_preset_is_config_error(self, tmp_path):
        cfg_path, out = write_cfg(
            tmp_path, ELLIPSE_CFG.replace("ellipse", "hexagon"), name="bad_preset.cfg"
        )
        assert run_evolve(cfg_path) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_key_is_config_error(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.m = 1\n")
        assert run_evolve(p) == EXIT_CONFIG

    def test_infinite_t_end_is_config_error(self, tmp_path, capsys):
        cfg_path, out = write_cfg(
            tmp_path, ELLIPSE_CFG.replace("solver.t_end = 0.2", "solver.t_end = inf")
        )
        assert main(["evolve", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG)
        assert run_evolve(cfg_path) == EXIT_OK
        first = {n: (out / n).read_bytes() for n in ("diagnostics.csv", "trajectory.csv", "snapshot_final.csv")}
        first["frame"] = (out / "frames" / "frame_00000.svg").read_bytes()
        assert run_evolve(cfg_path) == EXIT_OK
        assert (out / "diagnostics.csv").read_bytes() == first["diagnostics.csv"]
        assert (out / "trajectory.csv").read_bytes() == first["trajectory.csv"]
        assert (out / "snapshot_final.csv").read_bytes() == first["snapshot_final.csv"]
        assert (out / "frames" / "frame_00000.svg").read_bytes() == first["frame"]

    def test_snapshot_schema(self, tmp_path):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG)
        run_evolve(cfg_path)
        lines = (out / "snapshot_final.csv").read_text().strip().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",") == ["theta0", "r", "p0", "p1", "x0", "x1"]
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 64
        cells = [float(c) for c in rows[0].split(",")]
        assert cells[4] == pytest.approx(cells[1] * cells[2])  # x0 = r * p0


class TestRunVerify:
    def test_heat_suite_passes(self, tmp_path, capsys):
        assert run_verify("heat", tmp_path) == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS" in captured and "FAIL" not in captured
        summary = json.loads((tmp_path / "verify_heat.json").read_text())
        assert summary["passed"] is True
        assert all(c["passed"] for c in summary["checks"])

    def test_unknown_suite_usage_error(self, tmp_path):
        assert run_verify("bogus", tmp_path) == EXIT_CONFIG

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        from polarflow import verify as V
        from polarflow.verify import CheckResult

        monkeypatch.setitem(V.SUITES, "heat", lambda: [CheckResult("x", False, "boom")])
        assert run_verify("heat", tmp_path) == EXIT_VERIFY

    def test_summary_round_trips_numpy_checks(self, tmp_path, monkeypatch):
        from polarflow import verify as V

        # _check on numpy scalars, as the real suites call it
        results = [V._check("a", np.float64(1e-9), 1e-8), V._check("b", np.float64(2.0), 1.0)]
        monkeypatch.setitem(V.SUITES, "heat", lambda: results)
        assert run_verify("heat", tmp_path) == EXIT_VERIFY
        summary = json.loads((tmp_path / "verify_heat.json").read_text())
        assert summary["passed"] is False
        assert [(c["name"], c["passed"]) for c in summary["checks"]] == [("a", True), ("b", False)]


class TestRunCell:
    def test_artifacts(self, tmp_path):
        cfg_path, out = write_cfg(tmp_path, CELL_CFG, name="cell.cfg")
        assert run_cell(cfg_path) == EXIT_OK
        sol_lines = (out / "cell_solution.csv").read_text().strip().splitlines()
        assert sol_lines[0].startswith("#")
        data = [l for l in sol_lines if not l.startswith("#")][1:]
        assert len(data) == 64
        vals = np.array([float(r.split(",")[1]) for r in data])
        assert abs(vals.mean() - 1.0) < 1e-12
        mono = (out / "monotonicity.csv").read_text().strip().splitlines()
        rows = [l for l in mono if not l.startswith("#")][1:]
        assert len(rows) == 3
        assert all(r.split(",")[2] == "1" for r in rows)

    def test_missing_p_is_config_error(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.m = 1\ngrid.lengths = 1.0\ngrid.resolution = 64\noutput.dir = x\n")
        assert run_cell(p) == EXIT_CONFIG


class TestMain:
    def test_evolve_subcommand(self, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, ELLIPSE_CFG)
        assert main(["evolve", str(cfg_path)]) == EXIT_OK

    def test_verify_subcommand(self, tmp_path):
        assert main(["verify", "heat", "--out", str(tmp_path)]) == EXIT_OK

    def test_cell_subcommand(self, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, CELL_CFG, name="cell.cfg")
        assert main(["cell", str(cfg_path)]) == EXIT_OK
