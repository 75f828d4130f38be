import errno
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from polarflow import (
    CellSolution,
    DirectionField,
    Modulation,
    ScalarField,
    SolveConfig,
    Trajectory,
    burgers_flux,
    constant_flux,
    evolve_coupled,
    make_grid,
    make_initial,
    solve_cell,
    with_modulation,
    zero_flux,
)
from polarflow import cli
from polarflow.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VERIFY,
    _header,
    _tracked_modes,
    _write_cell,
    _write_diagnostics,
    _write_snapshot,
    _write_svg_frames,
    _write_trajectory,
    config_hash,
    load_config,
    main,
    run_cell,
    run_evolve,
    run_verify,
)
from polarflow.errors import ConfigError, ConvergenceError, SolverError
from polarflow.verify import _COST_ORDER, SUITES, CheckResult, run_suite
from polarflow.geometry import reconstruct

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


# ---------------------------------------------------------------------------
# reference writers: one cell at a time, each through repr(float(x))
# ---------------------------------------------------------------------------


def _fmt(x):
    return repr(float(x))


def reference_write_diagnostics(out, traj, cfg):
    modes = _tracked_modes(traj.grid)
    columns = ["t", "mean", "sup", "min", "l1", "sphere_dev"] + [
        "amp_" + "_".join(map(str, m)) for m in modes
    ]
    rows = []
    mean0 = traj.radii[0].mean()
    axes = tuple(range(1, traj.grid.m + 1))
    spectra = np.fft.rfftn(traj.radii, axes=axes) / traj.grid.num_nodes
    for t, r, amps in zip(traj.times, traj.radii, spectra):
        cells = [t, r.mean(), np.abs(r).max(), r.min(), np.abs(r).mean() * traj.grid.volume]
        cells += [np.abs(r - mean0).max()] + [abs(amps[m]) for m in modes]
        rows.append(",".join(_fmt(c) for c in cells))
    text = _header(["diagnostics time series"], columns, cfg) + "\n".join(rows) + "\n"
    (out / "diagnostics.csv").write_text(text)


def reference_write_trajectory(out, traj, cfg):
    grid = traj.grid
    columns = ["t"] + [f"theta{i}" for i in range(grid.m)] + ["r"]
    coords = [c.ravel() for c in grid.coords()]
    rows = []
    for t, r in zip(traj.times, traj.radii):
        vals = r.ravel()
        for node in range(grid.num_nodes):
            cells = [t] + [c[node] for c in coords] + [vals[node]]
            rows.append(",".join(_fmt(c) for c in cells))
    text = _header(["radius field history"], columns, cfg) + "\n".join(rows) + "\n"
    (out / "trajectory.csv").write_text(text)


def reference_write_snapshot(out, traj, cfg):
    grid = traj.grid
    r = traj.final
    p = DirectionField(grid=grid, vectors=traj.directions[-1])
    x = reconstruct(r, p)
    d = p.d
    columns = (
        [f"theta{i}" for i in range(grid.m)]
        + ["r"]
        + [f"p{j}" for j in range(d)]
        + [f"x{j}" for j in range(d)]
    )
    coords = [c.ravel() for c in grid.coords()]
    rvals = r.values.ravel()
    pvals = p.vectors.reshape(-1, d)
    xvals = x.reshape(-1, d)
    rows = []
    for node in range(grid.num_nodes):
        cells = [c[node] for c in coords] + [rvals[node]]
        cells += list(pvals[node]) + list(xvals[node])
        rows.append(",".join(_fmt(c) for c in cells))
    text = _header(["final state snapshot"], columns, cfg) + "\n".join(rows) + "\n"
    (out / "snapshot_final.csv").write_text(text)


def reference_write_svg_frames(out, traj, cfg):
    frames = out / "frames"
    frames.mkdir(exist_ok=True)
    span = max(float(np.abs(r).max()) for r in traj.radii) * 1.1
    for i, (r, p) in enumerate(zip(traj.radii, traj.directions)):
        r, p = ScalarField(grid=traj.grid, values=r), DirectionField(grid=traj.grid, vectors=p)
        pts = reconstruct(r, p).reshape(-1, 2)
        path = " ".join(
            f"{'M' if j == 0 else 'L'} {_fmt(xy[0])} {_fmt(xy[1])}" for j, xy in enumerate(pts)
        )
        svg = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f"<!-- frame t={_fmt(traj.times[i])} config_hash={config_hash(cfg)} -->\n"
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(-span)} {_fmt(-span)} {_fmt(2 * span)} {_fmt(2 * span)}">\n'
            f'  <path d="{path} Z" fill="none" stroke="black" '
            f'stroke-width="{_fmt(span / 200)}"/>\n'
            "</svg>\n"
        )
        (frames / f"frame_{i:05d}.svg").write_text(svg)


def reference_write_cell(out, sol, pairs, cfg):
    grid = sol.v.grid
    coords = [c.ravel() for c in grid.coords()]
    columns = [f"theta{i}" for i in range(grid.m)] + ["v"]
    rows = []
    for node in range(grid.num_nodes):
        cells = [c[node] for c in coords] + [sol.v.values.ravel()[node]]
        rows.append(",".join(_fmt(c) for c in cells))
    text = _header(
        [
            "stationary state with prescribed mean",
            f"p={_fmt(sol.p)} residual={sol.residual:.3e} newton_iters={sol.newton_iters}",
        ],
        columns,
        cfg,
    ) + "\n".join(rows) + "\n"
    (out / "cell_solution.csv").write_text(text)

    rows = [",".join([_fmt(a), _fmt(b), str(int(ok))]) for a, b, ok in pairs]
    text = _header(["monotonicity of the stationary branch"], ["p", "q", "holds"], cfg)
    (out / "monotonicity.csv").write_text(text + "\n".join(rows) + "\n")


EVOLVE_WRITERS = [
    (_write_diagnostics, reference_write_diagnostics),
    (_write_trajectory, reference_write_trajectory),
    (_write_snapshot, reference_write_snapshot),
]
SVG_WRITERS = [(_write_svg_frames, reference_write_svg_frames)]


def read_artifacts(root):
    """Every file under ``root`` by relative path, as bytes."""
    root = Path(root)
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in files}


def write_both(tmp_path, writers, *args):
    """Run each (writer, reference) pair into its own directory; return both artifact sets."""
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    for writer, reference in writers:
        writer(new, *args)
        reference(ref, *args)
    return read_artifacts(new), read_artifacts(ref)


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

    @pytest.mark.parametrize("d", ["1", "3"])
    def test_non_planar_ellipse_is_config_error(self, tmp_path, capsys, d):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG + f"initial.d = {d}\n")
        assert main(["evolve", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "d must be 2" in err and "Traceback" not in err
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

    # the record arrays of 1e300 steps ended in a ValueError traceback
    def test_tiny_dt_is_a_runtime_error(self, tmp_path, capsys):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG.replace("solver.dt = 5e-4", "solver.dt = 1e-300"))
        assert main(["evolve", str(cfg_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("run failed: cannot allocate") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flux_lines",
        [
            "flux.kind = poly\nflux.coeffs = nan",
            "flux.kind = poly\nflux.coeffs = 0.5, inf",
            "flux.kind = constant\nflux.coeffs = -inf",
            "flux.kind = burgers\nflux.mod_const = nan",
            "flux.kind = burgers\nflux.mod_sin = 1.0, inf",
        ],
    )
    def test_non_finite_flux_is_config_error(self, tmp_path, capsys, flux_lines):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG.replace("flux.kind = burgers", flux_lines))
        assert main(["evolve", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    # np.roots raised LinAlgError on the companion matrix of both fluxes
    def test_overflowing_flux_bound_is_a_runtime_error(self, tmp_path, capsys):
        flux = "flux.kind = poly\nflux.coeffs = 1e308, 1e308, 1e308"
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG.replace("flux.kind = burgers", flux))
        assert main(["evolve", str(cfg_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("run failed:")
        assert "violates advective stability bound 0.000e+00" in err[0]
        assert not out.exists()

    def test_negligible_leading_coefficient_runs_as_without_it(self, tmp_path):
        flux = "flux.kind = poly\nflux.coeffs = 0.0, 0.5, 1e-320"
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG.replace("flux.kind = burgers", flux))
        assert main(["evolve", str(cfg_path)]) == EXIT_OK
        (tmp_path / "ref").mkdir()
        burgers_path, burgers_out = write_cfg(tmp_path / "ref", ELLIPSE_CFG)
        assert main(["evolve", str(burgers_path)]) == EXIT_OK
        for name in ("diagnostics.csv", "trajectory.csv", "snapshot_final.csv"):
            rows = [
                [l for l in (d / name).read_text().splitlines() if not l.startswith("#")]
                for d in (out, burgers_out)
            ]
            assert rows[0] == rows[1]

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

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG.replace("t_end = 0.2", "t_end = 0.01"))
        out.write_text("a file, not a directory\n")
        assert main(["evolve", str(cfg_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "cannot write artifacts" in err and "Traceback" not in err

    # inf ended in an OverflowError traceback with exit 1; 1.5 ran as mode 1;
    # max_mode 1e6 did not finish
    @pytest.mark.parametrize(
        "params, name",
        [
            ("perturbed_sphere\ninitial.params = 1.0, 0.1, inf", "mode"),
            ("perturbed_sphere\ninitial.params = 1.0, 0.1, 1.5", "mode"),
            ("trig_random\ninitial.params = 1.5, 3, 0.3", "seed"),
            ("trig_random\ninitial.params = 1, 1e6, 0.3", "max_mode"),
            ("ellipse\ninitial.params = nan, 1.0", "ellipse semi-axes"),
            ("perturbed_sphere\ninitial.params = 1.0, 0.1, 40", "mode"),
        ],
        ids=["mode_inf", "mode_fraction", "seed_fraction", "max_mode_huge", "ellipse_nan",
             "mode_aliases"],
    )
    def test_bad_preset_parameter_is_config_error(self, tmp_path, capsys, params, name):
        text = ELLIPSE_CFG.replace("ellipse\ninitial.params = 2.0, 1.0", params)
        cfg_path, out = write_cfg(tmp_path, text.replace("output.svg = true\n", ""))
        assert main(["evolve", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{name} must " in err and "Traceback" not in err
        assert not out.exists()

    # both used to run silently, the first without any effect
    @pytest.mark.parametrize("line", ["solver.dealias = false", "output.record_evry = 10"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, line):
        cfg_path, out = write_cfg(tmp_path, ELLIPSE_CFG + line + "\n")
        assert main(["evolve", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unknown config key {line.split(' ')[0]!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_one_file_serves_evolve_and_cell(self, tmp_path):
        shared = ELLIPSE_CFG.replace("t_end = 0.2", "t_end = 0.01")
        shared += "cell.p = 1.0\ncell.pairs = 1\n"
        cfg_path, out = write_cfg(tmp_path, shared)
        assert main(["evolve", str(cfg_path)]) == EXIT_OK
        assert main(["cell", str(cfg_path)]) == EXIT_OK
        assert (out / "trajectory.csv").exists() and (out / "monotonicity.csv").exists()

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


def frame_hashes(out):
    """``{frame file name: config_hash}`` of every SVG frame under ``out/frames``."""
    return {
        path.name: path.read_text().split("config_hash=", 1)[1].split(" ", 1)[0]
        for path in (out / "frames").glob("*.svg")
    }


EVERY_STEP_CFG = ELLIPSE_CFG.replace("output.record_every = 100", "output.record_every = 1")
SHORT_FRAMES_CFG = EVERY_STEP_CFG.replace("solver.dt = 5e-4", "solver.dt = 1e-3").replace(
    "t_end = 0.2", "t_end = 0.02"
)  # 21 frames


class TestEvolveWriters:
    """``evolve`` hands its writers to the fork pool when it writes SVG frames."""

    def test_shorter_rerun_leaves_only_its_own_frames(self, tmp_path):
        text = EVERY_STEP_CFG.replace("solver.dt = 5e-4", "solver.dt = 1e-3")
        cfg_path, out = write_cfg(tmp_path, text.replace("t_end = 0.2", "t_end = 0.02"))
        assert run_evolve(cfg_path) == EXIT_OK
        assert len(frame_hashes(out)) == 21
        (out / "frames" / "notes.txt").write_text("not a frame\n")
        cfg_path, _ = write_cfg(tmp_path, text.replace("t_end = 0.2", "t_end = 0.005"))
        assert run_evolve(cfg_path) == EXIT_OK
        hashes = frame_hashes(out)
        assert sorted(hashes) == [f"frame_{i:05d}.svg" for i in range(6)]
        assert set(hashes.values()) == {config_hash(load_config(cfg_path))}
        assert (out / "frames" / "notes.txt").exists()

    @pytest.mark.parametrize("rerun", [
        SHORT_FRAMES_CFG.replace("output.svg = true", "output.svg = false"),
        SHORT_FRAMES_CFG.replace("grid.m = 1", "grid.m = 2")
        .replace("grid.lengths = 1.0", "grid.lengths = 1.0, 1.0")
        .replace("grid.resolution = 64", "grid.resolution = 16, 16")
        .replace("initial.preset = ellipse", "initial.preset = trig_random")
        .replace("initial.params = 2.0, 1.0", "initial.params = 3, 2, 0.1"),
    ], ids=["svg_false", "two_axes"])
    def test_rerun_without_frames_leaves_none(self, tmp_path, rerun):
        cfg_path, out = write_cfg(tmp_path, SHORT_FRAMES_CFG)
        assert run_evolve(cfg_path) == EXIT_OK
        assert len(frame_hashes(out)) == 21
        (out / "frames" / "notes.txt").write_text("not a frame\n")
        cfg_path, _ = write_cfg(tmp_path, rerun)
        assert run_evolve(cfg_path) == EXIT_OK
        assert frame_hashes(out) == {}
        assert (out / "frames" / "notes.txt").exists()

    def test_pooled_and_in_process_write_the_same_bytes(self, tmp_path, monkeypatch):
        if not hasattr(os, "fork"):
            pytest.skip("the pool needs the fork start method")
        cfg_path, out = write_cfg(tmp_path, EVERY_STEP_CFG.replace("t_end = 0.2", "t_end = 0.01"))
        artifacts = []
        for cores in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: c, raising=False)
            assert run_evolve(cfg_path) == EXIT_OK
            artifacts.append(read_artifacts(out))
            shutil.rmtree(out)
        assert sum(name.startswith("frames/") for name in artifacts[0]) == 21
        assert artifacts[0] == artifacts[1]

    def test_writer_error_in_a_worker_is_one_line(self, tmp_path, monkeypatch, capsys, two_cores):
        def full(out, traj, cfg):
            raise OSError(errno.ENOSPC, f"No space left on device (pid {os.getpid()})")

        monkeypatch.setattr(cli, "_write_diagnostics", full)
        cfg_path, _ = write_cfg(tmp_path, ELLIPSE_CFG.replace("t_end = 0.2", "t_end = 0.01"))
        assert main(["evolve", str(cfg_path)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write artifacts: [Errno 28] No space left on device")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert f"(pid {os.getpid()})" not in captured.err  # it was raised in a worker

    @pytest.mark.parametrize("command, fails", [
        ("evolve", False), ("evolve", True), ("verify", False), ("verify", True),
    ])
    def test_no_child_process_is_left(self, tmp_path, monkeypatch, two_cores, command, fails):
        if command == "evolve":
            cfg_path, _ = write_cfg(tmp_path, ELLIPSE_CFG.replace("t_end = 0.2", "t_end = 0.01"))
            if fails:
                monkeypatch.setattr(cli, "_write_snapshot", lambda *args: os._exit(1))
            code = main(["evolve", str(cfg_path)])
        else:
            def boom():
                raise SolverError("state went non-finite")

            patch_suites(monkeypatch, **({"heat": boom} if fails else {}))
            code = main(["verify", "all", "--out", str(tmp_path)])
        assert code == (EXIT_RUNTIME if fails else EXIT_OK)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_piped_stdout_holds_each_line_once(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("the pool needs the fork start method")
        cfg_path, _ = write_cfg(tmp_path, ELLIPSE_CFG.replace("t_end = 0.2", "t_end = 0.01"))
        # the line printed before the run sits in the pipe's buffer when the pool forks
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from polarflow.cli import main\n"
            "print('before the run')\n"
            f"sys.exit(main(['evolve', {str(cfg_path)!r}]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.count("before the run\n") == 1
        assert done.stdout.count("wrote artifacts") == 1


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

    def test_unwritable_output_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        from polarflow import verify as V
        from polarflow.verify import CheckResult

        monkeypatch.setitem(V.SUITES, "heat", lambda: [CheckResult("x", True, "ok")])
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        assert main(["verify", "heat", "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "cannot write artifacts" in err and "Traceback" not in err

    def test_summary_round_trips_numpy_checks(self, tmp_path, monkeypatch):
        from polarflow import verify as V

        # _check on numpy scalars, as the real suites call it
        results = [V._check("a", np.float64(1e-9), 1e-8), V._check("b", np.float64(2.0), 1.0)]
        monkeypatch.setitem(V.SUITES, "heat", lambda: results)
        assert run_verify("heat", tmp_path) == EXIT_VERIFY
        summary = json.loads((tmp_path / "verify_heat.json").read_text())
        assert summary["passed"] is False
        assert [(c["name"], c["passed"]) for c in summary["checks"]] == [("a", True), ("b", False)]

    def test_summary_carries_value_and_bound(self, tmp_path, monkeypatch):
        from polarflow import verify as V

        results = [V._check("a", np.float64(1e-9), 1e-8), CheckResult("b", True, "min 0.5 > 0")]
        monkeypatch.setitem(V.SUITES, "heat", lambda: results)
        assert run_verify("heat", tmp_path) == EXIT_OK
        checks = json.loads((tmp_path / "verify_heat.json").read_text())["checks"]
        assert checks == [
            {"name": "a", "passed": True, "detail": "1.000e-09 <= 1.000e-08", "value": 1e-9,
             "bound": 1e-8},
            {"name": "b", "passed": True, "detail": "min 0.5 > 0", "value": None, "bound": None},
        ]
        assert [list(c) for c in checks] == [["name", "passed", "detail", "value", "bound"]] * 2


@pytest.fixture
def two_cores(monkeypatch):
    """Make ``verify all`` pool its suites, as it does where two cores are usable."""
    if not hasattr(os, "fork"):
        pytest.skip("the pool needs the fork start method")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def patch_suites(monkeypatch, **suites):
    """Replace every suite; those not named return one passing row named after the suite.

    The patch reaches pool workers because they are forked after it.
    """
    for name in SUITES:
        default = lambda name=name: [CheckResult(f"{name}.ok", True, "ok")]  # noqa: E731
        monkeypatch.setitem(SUITES, name, suites.get(name, default))


def table_rows(out):
    """``(name, mark, detail)`` of each check row the verify table printed."""
    return [tuple(line.split(None, 2)) for line in out.splitlines()[:-1]]


class TestVerifyAll:
    def test_pooled_battery_matches_in_process(self, tmp_path, capsys, two_cores):
        assert main(["verify", "all", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        rows = table_rows(out)
        assert out.splitlines()[-1] == "35/35 checks passed"
        assert len(rows) == 35 and all(mark == "PASS" for _, mark, _ in rows)
        suite_of = [name.split(".")[0] for name, _, _ in rows]
        assert suite_of == sorted(suite_of, key=list(SUITES).index)
        checks = json.loads((tmp_path / "verify_all.json").read_text())["checks"]
        assert [(c["name"], "PASS" if c["passed"] else "FAIL", c["detail"]) for c in checks] == rows
        in_process = [r for fn in SUITES.values() for r in fn()]
        assert [CheckResult(**c) for c in checks] == in_process
        by_hand = [c["name"] for c in checks if c["value"] is None]
        assert by_hand == [f"conservation.positivity_{f}" for f in ("zero", "constant", "burgers")] + [
            "cell.monotonicity_random_pairs"
        ]
        numeric = [c for c in checks if c["value"] is not None]
        assert all(c["passed"] == (c["value"] <= c["bound"]) for c in numeric)

    def test_worker_abort_is_one_line_and_skips_queued_suites(
        self, tmp_path, monkeypatch, capsys, two_cores
    ):
        def boom():
            raise SolverError("state went non-finite")

        def slow(name):
            def suite():
                (tmp_path / f"ran_{name}").touch()
                time.sleep(0.5)
                return [CheckResult(f"{name}.ok", True, "ok")]

            return suite

        first, second = _COST_ORDER[:2]
        patch_suites(monkeypatch, **{n: slow(n) for n in _COST_ORDER[1:]}, **{first: boom})
        assert run_verify("all", tmp_path) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "suite aborted: state went non-finite\n"
        # the second suite had the other worker; no later suite started
        assert sorted(f.name for f in tmp_path.glob("ran_*")) == [f"ran_{second}"]

    def test_cost_order_covers_every_suite_once(self):
        assert sorted(_COST_ORDER) == sorted(SUITES)

    def test_worker_fail_row_exits_3_in_order(self, tmp_path, monkeypatch, capsys, two_cores):
        patch_suites(monkeypatch, cell=lambda: [CheckResult("cell.bad", False, "1 > 0")])
        assert run_verify("all", tmp_path) == EXIT_VERIFY
        rows = table_rows(capsys.readouterr().out)
        want = [f"{n}.ok" if n != "cell" else "cell.bad" for n in SUITES]
        assert [name for name, _, _ in rows] == want
        assert [mark for _, mark, _ in rows] == ["FAIL" if n == "cell" else "PASS" for n in SUITES]

    def test_dead_worker_is_a_runtime_error(self, tmp_path, monkeypatch, capsys, two_cores):
        patch_suites(monkeypatch, conservation=lambda: os._exit(1))
        assert main(["verify", "all", "--out", str(tmp_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("suite aborted: a worker process died")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cores, suite, pooled", [
        ({0}, "all", False), ({0, 1}, "all", True), ({0, 1}, "heat", False),
    ])
    def test_where_suites_run(self, monkeypatch, cores, suite, pooled):
        if pooled and not hasattr(os, "fork"):
            pytest.skip("the pool needs the fork start method")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        patch_suites(monkeypatch, **{
            n: lambda n=n: [CheckResult(n, True, str(os.getpid()))] for n in SUITES
        })
        rows = run_suite(suite)
        assert [r.name for r in rows] == (list(SUITES) if suite == "all" else [suite])
        assert all((r.detail != str(os.getpid())) == pooled for r in rows)


class TestErrorsPickle:
    """Pool workers send a suite's exception to the parent by pickle."""

    def test_convergence_error_keeps_history(self):
        exc = pickle.loads(pickle.dumps(ConvergenceError("no convergence", history=[1.0, 0.5])))
        assert type(exc) is ConvergenceError
        assert (str(exc), exc.history) == ("no convergence", [1.0, 0.5])

    def test_config_error_keeps_line(self):
        exc = pickle.loads(pickle.dumps(ConfigError("bad value", line=3)))
        assert type(exc) is ConfigError
        assert (str(exc), exc.line) == ("line 3: bad value", 3)


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

    def test_diverging_solve_is_one_error_line(self, tmp_path, capsys):
        # a strong modulation makes the inner Richardson iteration overflow
        diverging = CELL_CFG.replace("resolution = 64", "resolution = 32")
        cfg_path, _ = write_cfg(tmp_path, diverging.replace("mod_sin = 1.0", "mod_sin = 100"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cell", str(cfg_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "inner linear solve diverged" in err[0]

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        cfg_path, out = write_cfg(tmp_path, CELL_CFG, name="cell.cfg")
        out.write_text("a file, not a directory\n")
        assert main(["cell", str(cfg_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "cannot write artifacts" in err and "Traceback" not in err

    # nan and inf ended in a ValueError about the field, 1e308 in one about p > q
    @pytest.mark.parametrize(
        "p, code, message",
        [
            ("nan", EXIT_CONFIG, "cell.p must be finite"),
            ("inf", EXIT_CONFIG, "cell.p must be finite"),
            ("1e308", EXIT_RUNTIME, "not finite"),
        ],
    )
    def test_unusable_p_exits_without_traceback(self, tmp_path, capsys, p, code, message):
        cfg_path, out = write_cfg(
            tmp_path, CELL_CFG.replace("cell.p = 1.0", f"cell.p = {p}"), name="cell.cfg"
        )
        with np.errstate(all="ignore"):
            assert main(["cell", str(cfg_path)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flux, p",
        [("", "1e308"), ("flux.kind = burgers\n", "1e200")],
        ids=["modulated_constant", "burgers"],
    )
    def test_overflowing_flux_prints_only_the_error(self, tmp_path, capsys, flux, p):
        # numpy overflow warnings in the FFT, the flux and the residual preceded the error
        text = CELL_CFG.replace("cell.p = 1.0", f"cell.p = {p}")
        if flux:
            text = "\n".join(l for l in text.splitlines() if not l.startswith("flux.")) + "\n"
            text += flux
        cfg_path, out = write_cfg(tmp_path, text, name="cell.cfg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cell", str(cfg_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solve failed:") and "not finite" in err[0]
        assert not out.exists()

    def test_pairs_stay_ordered_at_large_p(self, tmp_path):
        # at 1e16 the 1e-3 gap of a close pair rounded away and monotonicity_check raised
        cfg_path, out = write_cfg(
            tmp_path, CELL_CFG.replace("cell.p = 1.0", "cell.p = 1e16"), name="cell.cfg"
        )
        assert main(["cell", str(cfg_path)]) == EXIT_OK
        mono = (out / "monotonicity.csv").read_text().splitlines()
        rows = [l for l in mono if not l.startswith("#")][1:]
        pairs = [[float(c) for c in r.split(",")[:2]] for r in rows]
        assert len(pairs) == 3 and all(p > q for p, q in pairs)

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg_path, out = write_cfg(tmp_path, CELL_CFG + "cell.tol = 1e-12\n", name="cell.cfg")
        assert main(["cell", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown config key 'cell.tol'" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_pairs_is_config_error(self, tmp_path, capsys):
        # wrote an empty monotonicity.csv and exited 0
        cfg_path, out = write_cfg(
            tmp_path, CELL_CFG.replace("cell.pairs = 3", "cell.pairs = -1"), name="cell.cfg"
        )
        assert main(["cell", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cell.pairs must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        # the generator raised numpy's "expected non-negative integer" after the solve
        cfg_path, out = write_cfg(tmp_path, CELL_CFG.replace("seed = 7", "seed = -1"), name="cell.cfg")
        assert main(["cell", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: seed must be >= 0, got -1"]
        assert not out.exists()

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


class TestWriterOracles:
    """The column writers reproduce the per-cell reference writers byte for byte."""

    CFG = {"grid.m": "1", "seed": "3"}

    def test_curve_with_svg_and_tail_step(self, tmp_path):
        grid = make_grid(1, [1.0], [32])
        r0, p0 = make_initial(grid, "ellipse", [2.0, 1.0])
        traj = evolve_coupled(r0, p0, burgers_flux(1), SolveConfig(dt=1e-3, t_end=0.0105))
        assert traj.times[-2:].tolist() == [0.01, 0.0105]
        got, want = write_both(tmp_path, EVOLVE_WRITERS + SVG_WRITERS, traj, self.CFG)
        assert sum(name.startswith("frames/") for name in want) == len(traj.times) == 12
        assert got == want

    def test_surface_with_record_stride(self, tmp_path):
        grid = make_grid(2, [1.0, 2.0], [16, 8])
        r0, p0 = make_initial(grid, "trig_random", [5, 2, 0.2])
        cfg = SolveConfig(dt=1e-3, t_end=0.007, record_every=3)
        traj = evolve_coupled(r0, p0, burgers_flux(2), cfg)
        assert len(traj.times) == 4  # t = 0, 3, 6 steps and the final 7th
        got, want = write_both(tmp_path, EVOLVE_WRITERS, traj, self.CFG)
        assert got == want

    def test_exponent_notation_and_negative_zero(self, tmp_path):
        grid = make_grid(1, [1e-5], [8])
        values = np.array([1e-05, 1e16, -0.0, 0.1, 2.5e-300, 3.0, 1.0 / 3.0, 7e22])
        vectors = np.array(
            [[1.0, -0.0], [-0.0, 1.0], [-1.0, 0.0], [0.6, -0.8], [-0.0, -1.0], [0.8, 0.6],
             [1.0, 0.0], [-0.6, 0.8]]
        )
        traj = Trajectory(
            grid=grid,
            spec=zero_flux(1),
            times=np.array([0.0, 1e-05]),
            radii=np.stack([values, -values]),
            directions=np.stack([vectors, vectors]),
        )
        got, want = write_both(tmp_path, EVOLVE_WRITERS + SVG_WRITERS, traj, self.CFG)
        assert got == want
        text = got["trajectory.csv"].decode() + got["frames/frame_00001.svg"].decode()
        for token in ("1.25e-06", "e-05", "e+16", "-0.0", "e-300"):
            assert token in text

    @pytest.mark.parametrize("case", ["solved", "hand_built"])
    def test_cell(self, tmp_path, case):
        grid = make_grid(1, [1.0], [32])
        if case == "solved":
            spec = with_modulation(constant_flux([1.0]), 0, Modulation(const=0.0, sin_amps=(1.0,)))
            sol = solve_cell(spec, grid, 1.0)
        else:
            values = np.array([1e-05, 1e16, -0.0, 0.25] * 8)
            sol = CellSolution(p=1e-05, v=ScalarField(grid=grid, values=values), residual=1e-16,
                               newton_iters=3)
        pairs = [(1.5, 0.5, True), (1e-05, -0.0, False)]
        writers = [(_write_cell, reference_write_cell)]
        got, want = write_both(tmp_path, writers, sol, pairs, self.CFG)
        assert got == want
