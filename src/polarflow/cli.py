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
import math
import sys
from pathlib import Path

import numpy as np

from .cell import CellSolution, monotonicity_check, solve_cell
from .diagnostics import _record_moduli
from ._pool import run_jobs, usable_workers
from .errors import ConfigError, PolarflowError
from .flux import FluxSpec, Modulation, burgers_flux, constant_flux, polynomial_flux, with_modulation, zero_flux
from .geometry import make_initial
from .grid import PeriodicGrid, _flat_coords, make_grid
from .spectral import SolveConfig, Trajectory
from .transport import evolve_coupled
from .verify import SUITES, run_suite

__all__ = ["main", "run_evolve", "run_verify", "run_cell", "load_config"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

# every key the README documents; `evolve` and `cell` may share one file
KNOWN_KEYS = frozenset(
    "grid.m grid.lengths grid.resolution flux.kind flux.coeffs flux.mod_axis flux.mod_const"
    " flux.mod_sin flux.mod_cos solver.dt solver.t_end initial.preset initial.params initial.d"
    " output.dir output.record_every output.svg seed cell.p cell.pairs".split()
)

_FRAME = "frame_{:05d}.svg"


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


def _check_keys(cfg: dict[str, str]) -> None:
    unknown = sorted(set(cfg) - KNOWN_KEYS)
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(map(repr, unknown)))


def config_hash(cfg: dict[str, str]) -> str:
    canon = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _get(cfg: dict[str, str], key: str, default: str | None = None) -> str:
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _numbers(text: str, kind: type = float) -> list:
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {kind.__name__} list {text!r}") from exc


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _build_grid(cfg: dict[str, str]) -> PeriodicGrid:
    m = int(_get(cfg, "grid.m"))
    lengths = _numbers(_get(cfg, "grid.lengths"))
    resolution = _numbers(_get(cfg, "grid.resolution"), int)
    try:
        return make_grid(m, lengths, resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_flux(cfg: dict[str, str], m: int) -> FluxSpec:
    kind = _get(cfg, "flux.kind", "zero").lower()
    coeffs = _numbers(cfg["flux.coeffs"]) if "flux.coeffs" in cfg else []
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
            cos_amps=tuple(_numbers(_get(cfg, "flux.mod_cos", ""))),
            sin_amps=tuple(_numbers(_get(cfg, "flux.mod_sin", ""))),
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


def _csv_rows(table) -> list[str]:
    """CSV rows of a 2-d float table, every cell exactly as :func:`_fmt` writes it.

    One ``tolist`` per column yields Python floats, whose ``repr`` is
    ``_fmt``'s shortest round-trip form; no cell passes through a numpy scalar.
    """
    columns = np.asarray(table, dtype=np.float64).T.tolist()
    return list(map(",".join, zip(*(map(repr, col) for col in columns))))


def _write_csv(path: Path, head: str, rows: list[str]) -> None:
    path.write_text(head + "\n".join(rows) + "\n")


def _write_failed(exc: Exception) -> int:
    print(f"cannot write artifacts: {exc}", file=sys.stderr)
    return EXIT_RUNTIME


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
    moduli = _record_moduli(traj.grid, traj.radii)
    table = np.column_stack(
        [traj.times, traj.mean, traj.sup, traj.min, traj.l1, traj.sphere_dev]
        + [moduli[(..., *mode)] for mode in modes]
    )
    head = _header(["diagnostics time series"], columns, cfg)
    _write_csv(out / "diagnostics.csv", head, _csv_rows(table))


def _write_trajectory(out: Path, traj: Trajectory, cfg: dict[str, str]) -> None:
    grid = traj.grid
    columns = ["t"] + [f"theta{i}" for i in range(grid.m)] + ["r"]
    thetas = _csv_rows(np.stack(_flat_coords(grid), axis=1))
    # stream one block of rows per record, so the whole text is never held in memory
    with open(out / "trajectory.csv", "w") as fh:
        fh.write(_header(["radius field history"], columns, cfg))
        for t, record in zip(traj.times, traj.radii):
            lead = _fmt(t) + ","
            radii = _csv_rows(record.reshape(-1, 1))
            fh.write("".join([f"{lead}{theta},{r}\n" for theta, r in zip(thetas, radii)]))


def _write_snapshot(out: Path, traj: Trajectory, cfg: dict[str, str]) -> None:
    grid = traj.grid
    r, p = traj.radii[-1], traj.directions[-1]
    d = p.shape[-1]
    x = r[..., None] * p  # the embedding x = r P
    columns = (
        [f"theta{i}" for i in range(grid.m)]
        + ["r"]
        + [f"p{j}" for j in range(d)]
        + [f"x{j}" for j in range(d)]
    )
    table = np.column_stack(
        [*_flat_coords(grid), r.ravel(), p.reshape(-1, d), x.reshape(-1, d)]
    )
    head = _header(["final state snapshot"], columns, cfg)
    _write_csv(out / "snapshot_final.csv", head, _csv_rows(table))


def _write_svg_frames(
    out: Path, traj: Trajectory, cfg: dict[str, str], frames: range | None = None
) -> None:
    """One SVG file per record in ``out/frames``; ``frames`` picks the record indices (all by default)."""
    folder = out / "frames"
    folder.mkdir(exist_ok=True)
    span = float(traj.sup.max()) * 1.1
    before_path = (
        f" config_hash={config_hash(cfg)} -->\n"
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(-span)} {_fmt(-span)} {_fmt(2 * span)} {_fmt(2 * span)}">\n'
        '  <path d="M '
    )
    after_path = (
        f' Z" fill="none" stroke="black" stroke-width="{_fmt(span / 200)}"/>\n'
        "</svg>\n"
    )
    for i in range(len(traj.times)) if frames is None else frames:
        xy = (traj.radii[i][..., None] * traj.directions[i]).reshape(-1, 2).tolist()
        path = " L ".join([f"{x!r} {y!r}" for x, y in xy])
        svg = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f"<!-- frame t={_fmt(traj.times[i])}{before_path}{path}{after_path}"
        )
        (folder / _FRAME.format(i)).write_text(svg)


def _remove_stale_frames(out: Path, count: int) -> None:
    """Delete the frame files in ``out/frames`` that a run of ``count`` frames does not write."""
    keep = {_FRAME.format(i) for i in range(count)}
    for path in (out / "frames").glob("frame_*.svg"):
        if path.name not in keep:
            path.unlink()


def _write_evolve(out: Path, traj: Trajectory, cfg: dict[str, str], svg: bool) -> None:
    """Write every artifact of an ``evolve`` run into ``out``.

    A run with SVG frames hands its writers to :func:`run_jobs`, with the
    frames split into one interleaved shard per usable worker; each job
    looks its writer up by name when it runs.  Without frames the files are
    few and small, and the pool would cost more than it saves, so the
    writers run here.  Either way the frames of an earlier run that this
    run does not write are deleted first.
    """
    n = len(traj.times) if svg else 0
    _remove_stale_frames(out, n)
    if not svg:
        _write_diagnostics(out, traj, cfg)
        _write_trajectory(out, traj, cfg)
        _write_snapshot(out, traj, cfg)
        return
    shards = max(1, usable_workers())
    run_jobs(
        [
            *(
                lambda k=k: _write_svg_frames(out, traj, cfg, frames=range(k, n, shards))
                for k in range(shards)
            ),
            lambda: _write_trajectory(out, traj, cfg),
            lambda: _write_diagnostics(out, traj, cfg),
            lambda: _write_snapshot(out, traj, cfg),
        ]
    )


def run_evolve(config_path: str | Path) -> int:
    """Surface evolution run driven by a configuration file."""
    try:
        cfg = load_config(config_path)
        _check_keys(cfg)
        grid = _build_grid(cfg)
        spec = _build_flux(cfg, grid.m)
        preset = _get(cfg, "initial.preset")
        params = _numbers(_get(cfg, "initial.params", ""))
        d = int(cfg["initial.d"]) if "initial.d" in cfg else None
        solve_cfg = SolveConfig(
            dt=float(_get(cfg, "solver.dt")),
            t_end=float(_get(cfg, "solver.t_end")),
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

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_evolve(out_dir, traj, cfg, want_svg and grid.m == 1 and p0.d == 2)
    except (OSError, PolarflowError) as exc:  # PolarflowError: a writer process died
        return _write_failed(exc)
    for flag in traj.flags:
        print(f"flag: {flag}")
    print(f"wrote artifacts to {out_dir} (final sup deviation from mean: "
          f"{traj.sphere_dev[-1]:.3e})")
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
    summary = {
        "suite": suite,
        "passed": n_fail == 0,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "value": r.value,
             "bound": r.bound}
            for r in results
        ],
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"verify_{suite}.json").write_text(json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        return _write_failed(exc)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# cell
# ---------------------------------------------------------------------------


def _write_cell(out: Path, sol: CellSolution, pairs: list, cfg: dict[str, str]) -> None:
    grid = sol.v.grid
    head = _header(
        [
            "stationary state with prescribed mean",
            f"p={_fmt(sol.p)} residual={sol.residual:.3e} newton_iters={sol.newton_iters}",
        ],
        [f"theta{i}" for i in range(grid.m)] + ["v"],
        cfg,
    )
    table = np.column_stack([*_flat_coords(grid), sol.v.values.ravel()])
    _write_csv(out / "cell_solution.csv", head, _csv_rows(table))

    head = _header(["monotonicity of the stationary branch"], ["p", "q", "holds"], cfg)
    rows = [",".join([_fmt(a), _fmt(b), str(int(ok))]) for a, b, ok in pairs]
    _write_csv(out / "monotonicity.csv", head, rows)


def run_cell(config_path: str | Path) -> int:
    """Stationary solve with prescribed mean plus a monotonicity report."""
    try:
        cfg = load_config(config_path)
        _check_keys(cfg)
        grid = _build_grid(cfg)
        spec = _build_flux(cfg, grid.m)
        p = float(_get(cfg, "cell.p"))
        if not math.isfinite(p):
            raise ConfigError(f"cell.p must be finite, got {p!r}")
        n_pairs = int(_get(cfg, "cell.pairs", "5"))
        if n_pairs < 0:
            raise ConfigError(f"cell.pairs must be >= 0, got {n_pairs}")
        seed = int(_get(cfg, "seed", "0"))
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
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
                # beyond |p| ~ 2e13 the 1e-3 gap rounds away; one float up keeps hi > lo
                hi = max(lo + 1e-3, np.nextafter(lo, np.inf))
            pairs.append((float(hi), float(lo), monotonicity_check(spec, grid, float(hi), float(lo))))
    except PolarflowError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_cell(out_dir, sol, pairs, cfg)
    except OSError as exc:
        return _write_failed(exc)
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
