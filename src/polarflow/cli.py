"""Batch command-line interface.

Three subcommands::

    polarflow evolve CONFIG     # surface evolution run, CSV/SVG artifacts
    polarflow verify SUITE      # named verification battery
    polarflow cell CONFIG       # stationary solve + monotonicity report

Configuration is a flat ``section.key = value`` text file ('#' comments,
blank lines ignored); see the README for the key reference.  Every artifact
begins with '#'-prefixed header lines naming its columns and carrying a hash
of the normalized configuration, and identical configurations produce
byte-identical artifacts (no timestamps, shortest-roundtrip float formatting).

Exit codes: 0 success, 1 runtime failure, 2 configuration error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .cell import monotonicity_check, solve_cell
from .errors import ConfigError, PolarflowError
from .flux import FluxSpec, Modulation, burgers_flux, constant_flux, polynomial_flux, with_modulation, zero_flux
from .geometry import make_initial, reconstruct
from .grid import PeriodicGrid, make_grid
from .spectral import SolveConfig, Trajectory
from .transport import evolve_coupled
from .verify import SUITES, run_suite

__all__ = ["main", "run_evolve", "run_verify", "run_cell", "load_config"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key-value configuration file.

    Raises :class:`ConfigError` with the offending line number on malformed
    lines or duplicate keys.
    """
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        out[key] = value
    return out


def config_hash(cfg: dict[str, str]) -> str:
    canon = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _get(cfg: dict[str, str], key: str, default: str | None = None) -> str:
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad int list {text!r}") from exc


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _build_grid(cfg: dict[str, str]) -> PeriodicGrid:
    m = int(_get(cfg, "grid.m"))
    lengths = _floats(_get(cfg, "grid.lengths"))
    resolution = _ints(_get(cfg, "grid.resolution"))
    try:
        return make_grid(m, lengths, resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_flux(cfg: dict[str, str], m: int) -> FluxSpec:
    kind = _get(cfg, "flux.kind", "zero").lower()
    coeffs = _floats(cfg["flux.coeffs"]) if "flux.coeffs" in cfg else []
    try:
        if kind == "zero":
            spec = zero_flux(m)
        elif kind == "constant":
            if len(coeffs) == 1:
                coeffs = coeffs * m
            if len(coeffs) != m:
                raise ConfigError(f"constant flux needs {m} coefficients")
            spec = constant_flux(coeffs)
        elif kind == "burgers":
            spec = burgers_flux(m)
        elif kind == "poly":
            if not coeffs:
                raise ConfigError("poly flux needs flux.coeffs")
            spec = polynomial_flux(coeffs, m)
        else:
            raise ConfigError(f"unknown flux.kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if any(k.startswith("flux.mod_") for k in cfg):
        axis = int(_get(cfg, "flux.mod_axis", "0"))
        if not 0 <= axis < m:
            raise ConfigError(f"flux.mod_axis {axis} out of range")
        mod = Modulation(
            const=float(_get(cfg, "flux.mod_const", "0.0")),
            cos_amps=tuple(_floats(_get(cfg, "flux.mod_cos", ""))),
            sin_amps=tuple(_floats(_get(cfg, "flux.mod_sin", ""))),
        )
        spec = with_modulation(spec, axis, mod)
    return spec


def _header(lines: list[str], columns: list[str], cfg: dict[str, str]) -> str:
    head = [f"# {line}" for line in lines]
    head.append(f"# config_hash={config_hash(cfg)}")
    for k in sorted(cfg):
        head.append(f"# config: {k} = {cfg[k]}")
    head.append(",".join(columns))
    return "\n".join(head) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def _tracked_modes(grid: PeriodicGrid) -> list[tuple[int, ...]]:
    modes = []
    for ax in range(grid.m):
        for k in range(1, min(4, grid.resolution[ax] // 2 - 1) + 1):
            idx = [0] * grid.m
            idx[ax] = k
            modes.append(tuple(idx))
    return modes


def _write_diagnostics(out: Path, traj: Trajectory, cfg: dict[str, str]) -> None:
    modes = _tracked_modes(traj.grid)
    columns = ["t", "mean", "sup", "min", "l1", "sphere_dev"] + [
        "amp_" + "_".join(map(str, m)) for m in modes
    ]
    rows = []
    for snap, row in zip(traj.snapshots, traj.diagnostics):
        amps = np.fft.fftn(snap.values) / traj.grid.num_nodes
        cells = [row.t, row.mean, row.sup, row.min, row.l1, row.sphere_dev]
        cells += [abs(amps[m]) for m in modes]
        rows.append(",".join(_fmt(c) for c in cells))
    text = _header(["diagnostics time series"], columns, cfg) + "\n".join(rows) + "\n"
    (out / "diagnostics.csv").write_text(text)


def _write_trajectory(out: Path, traj: Trajectory, cfg: dict[str, str]) -> None:
    grid = traj.grid
    columns = ["t"] + [f"theta{i}" for i in range(grid.m)] + ["r"]
    coords = [c.ravel() for c in grid.coords()]
    rows = []
    for t, snap in zip(traj.times, traj.snapshots):
        vals = snap.values.ravel()
        for node in range(grid.num_nodes):
            cells = [t] + [c[node] for c in coords] + [vals[node]]
            rows.append(",".join(_fmt(c) for c in cells))
    text = _header(["radius field history"], columns, cfg) + "\n".join(rows) + "\n"
    (out / "trajectory.csv").write_text(text)


def _write_snapshot(out: Path, traj: Trajectory, cfg: dict[str, str]) -> None:
    grid = traj.grid
    r = traj.final
    p = traj.directions[-1]
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


def _write_svg_frames(out: Path, traj: Trajectory, cfg: dict[str, str]) -> None:
    frames = out / "frames"
    frames.mkdir(exist_ok=True)
    span = max(row.sup for row in traj.diagnostics) * 1.1
    for i, (r, p) in enumerate(zip(traj.snapshots, traj.directions)):
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


def run_evolve(config_path: str | Path) -> int:
    """Surface evolution run driven by a configuration file."""
    try:
        cfg = load_config(config_path)
        grid = _build_grid(cfg)
        spec = _build_flux(cfg, grid.m)
        preset = _get(cfg, "initial.preset")
        params = _floats(_get(cfg, "initial.params", ""))
        d = int(cfg["initial.d"]) if "initial.d" in cfg else None
        solve_cfg = SolveConfig(
            dt=float(_get(cfg, "solver.dt")),
            t_end=float(_get(cfg, "solver.t_end")),
            dealias=_bool(_get(cfg, "solver.dealias", "true")),
            record_every=int(_get(cfg, "output.record_every", "1")),
        )
        out_dir = Path(_get(cfg, "output.dir"))
        want_svg = _bool(_get(cfg, "output.svg", "false"))
        try:
            r0, p0 = make_initial(grid, preset, params, d=d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        traj = evolve_coupled(r0, p0, spec, solve_cfg)
    except PolarflowError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_diagnostics(out_dir, traj, cfg)
    _write_trajectory(out_dir, traj, cfg)
    _write_snapshot(out_dir, traj, cfg)
    if want_svg and grid.m == 1 and p0.d == 2:
        _write_svg_frames(out_dir, traj, cfg)
    for flag in traj.flags:
        print(f"flag: {flag}")
    print(f"wrote artifacts to {out_dir} (final sup deviation from mean: "
          f"{traj.diagnostics[-1].sphere_dev:.3e})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify(suite: str, out_dir: str | Path = "out") -> int:
    """Run a named verification suite, print the table, write a JSON summary."""
    if suite != "all" and suite not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        print(f"unknown suite {suite!r}; choose one of: {known}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        results = run_suite(suite)
    except PolarflowError as exc:
        print(f"suite aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "suite": suite,
        "passed": n_fail == 0,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    (out / f"verify_{suite}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# cell
# ---------------------------------------------------------------------------


def run_cell(config_path: str | Path) -> int:
    """Stationary solve with prescribed mean plus a monotonicity report."""
    try:
        cfg = load_config(config_path)
        grid = _build_grid(cfg)
        spec = _build_flux(cfg, grid.m)
        p = float(_get(cfg, "cell.p"))
        n_pairs = int(_get(cfg, "cell.pairs", "5"))
        seed = int(_get(cfg, "seed", "0"))
        out_dir = Path(_get(cfg, "output.dir"))
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        sol = solve_cell(spec, grid, p)
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n_pairs):
            lo, hi = np.sort(rng.uniform(p - 1.0, p + 1.0, size=2))
            if hi - lo < 1e-3:
                hi = lo + 1e-3
            pairs.append((float(hi), float(lo), monotonicity_check(spec, grid, float(hi), float(lo))))
    except PolarflowError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    out_dir.mkdir(parents=True, exist_ok=True)
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
    (out_dir / "cell_solution.csv").write_text(text)

    rows = [",".join([_fmt(a), _fmt(b), str(int(ok))]) for a, b, ok in pairs]
    text = _header(["monotonicity of the stationary branch"], ["p", "q", "holds"], cfg)
    (out_dir / "monotonicity.csv").write_text(text + "\n".join(rows) + "\n")
    print(
        f"wrote cell solution (residual {sol.residual:.3e}, "
        f"{sol.newton_iters} Newton iterations) and monotonicity report to {out_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarflow",
        description="Simulate and verify radially split surface evolution on flat tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="run a surface evolution from a config file")
    p_evolve.add_argument("config", help="path to the run configuration")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help="heat | duhamel | conservation | contraction | cell | geometry | all")
    p_verify.add_argument("--out", default="out", help="directory for the JSON summary")

    p_cell = sub.add_parser("cell", help="solve the stationary mean-constrained problem")
    p_cell.add_argument("config", help="path to the cell configuration")

    args = parser.parse_args(argv)
    if args.command == "evolve":
        return run_evolve(args.config)
    if args.command == "verify":
        return run_verify(args.suite, args.out)
    return run_cell(args.config)


if __name__ == "__main__":
    sys.exit(main())
