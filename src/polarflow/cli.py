"""Batch command-line interface.

Three subcommands::

    polarflow evolve CONFIG     # surface evolution run, CSV/SVG artifacts
    polarflow verify SUITE      # named verification battery
    polarflow cell CONFIG       # stationary solve + monotonicity report

Configuration is a flat ``section.key = value`` text file ('#' comments,
blank lines ignored); see the README for the key reference.  Every CSV
artifact begins with '#'-prefixed header lines naming its columns and
carrying a hash of the normalized configuration, and writes its floats in
shortest round-trip form; an SVG frame carries the hash in a comment and
draws its curve in integers on a fixed viewBox.  Identical configurations
produce byte-identical artifacts (no timestamps).

``evolve`` with SVG frames, where two cores are usable, forks a child that
creates the empty frame files while its time loop runs, then writes its
three CSVs and fills the frames in-process.  Nothing waits on the child's
outcome: the frame writer creates any frame it did not.  A run that fails
removes every file and directory it created, so its output directory is
left as it was found.

Each subcommand imports only the modules it runs: ``verify``, and with it
the reference solvers and ``cell``, loads on the first call of
:func:`run_suite`, and ``cell`` alone in :func:`run_cell`.  :func:`run_verify`
checks suite names against ``_SUITE_NAMES`` and looks :func:`run_suite` up
when it runs, so a rebound ``run_suite`` is the one called.

Exit codes: 0 success, 1 runtime failure, 2 configuration error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._pool import usable_workers
from .errors import ConfigError, PolarflowError, SolverError
from .flux import FluxSpec, Modulation, burgers_flux, constant_flux, polynomial_flux, with_modulation, zero_flux
from .geometry import make_initial
from .grid import PeriodicGrid, ScalarField, _flat_coords, make_grid
from .spectral import SolveConfig, Trajectory, _record_count, _record_moduli, _schedule
from .transport import evolve_coupled

if TYPE_CHECKING:
    from .cell import CellSolution
    from .verify import CheckResult

__all__ = ["main", "run_evolve", "run_verify", "run_cell", "load_config"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

# every key the README documents; `evolve` and `cell` may share one file
KNOWN_KEYS = frozenset(
    "grid.m grid.lengths grid.resolution flux.kind flux.coeffs flux.mod_axis flux.mod_const"
    " flux.mod_sin flux.mod_cos solver.dt solver.t_end initial.preset initial.params"
    " output.dir output.record_every output.svg seed cell.p cell.pairs".split()
)

_FRAME = "frame_{:05d}.svg"
_VIEW = 5000  # half the side of every frame's viewBox, in drawing units
_MODULI_BLOCK = 64  # records whose spectrum diagnostics.csv transforms at once

# the keys of `verify.SUITES`, for the help text and the name check without loading `verify`
_SUITE_NAMES = ("heat", "duhamel", "conservation", "contraction", "cell", "geometry")


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


def _too_large(grid: PeriodicGrid, exc: MemoryError) -> str:
    return f"grid {'x'.join(map(str, grid.resolution))} does not fit in memory ({exc})"


def _build_flux(cfg: dict[str, str], m: int) -> FluxSpec:
    kind = _get(cfg, "flux.kind", "zero").lower()
    coeffs = _numbers(cfg["flux.coeffs"]) if "flux.coeffs" in cfg else []
    if "flux.coeffs" in cfg and kind in ("zero", "burgers"):  # f is fixed; the key would go unused
        raise ConfigError(f"flux.coeffs does not apply to flux.kind {kind!r}")
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
    mod_keys = sorted(k for k in cfg if k.startswith("flux.mod_"))
    if mod_keys:
        axis = int(_get(cfg, "flux.mod_axis", "0"))
        if not 0 <= axis < m:
            raise ConfigError(f"flux.mod_axis {axis} out of range")
        mod = Modulation(
            const=float(_get(cfg, "flux.mod_const", "0.0")),
            cos_amps=tuple(_numbers(_get(cfg, "flux.mod_cos", ""))),
            sin_amps=tuple(_numbers(_get(cfg, "flux.mod_sin", ""))),
        )
        spec = with_modulation(spec, axis, mod)
        # an identically zero term would still take the general Strang step
        if spec.components[axis].coeffs == (0.0,) or mod.sup_bound() == 0.0:
            raise ConfigError(f"{mod_keys[0]} makes the flux on axis {axis} identically zero")
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
    # transform the records a block at a time: the whole run's spectrum is never held
    amps = np.empty((len(traj.times), len(modes)))
    for i in range(0, len(amps), _MODULI_BLOCK):
        moduli = _record_moduli(traj.grid, traj.radii[i : i + _MODULI_BLOCK])
        for j, mode in enumerate(modes):
            amps[i : i + _MODULI_BLOCK, j] = moduli[(..., *mode)]
    table = np.column_stack([traj.times, traj.mean, traj.sup, traj.min, traj.l1, traj.sphere_dev, amps])
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
            # a radius near its mean repeats: format each distinct value once, keyed by its
            # bits, which keep -0.0 apart from 0.0
            bits = record.reshape(-1).view(np.int64).tolist()
            distinct = list(dict.fromkeys(bits))
            values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
            text = dict(zip(distinct, map(repr, values)))
            radii = list(map(text.__getitem__, bits))
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


def _write_svg_frames(out: Path, traj: Trajectory, cfg: dict[str, str]) -> None:
    """One SVG file per record in ``out/frames``, drawn in integers on a fixed viewBox.

    Every frame maps the square of half side ``span``, 1.1 times the largest
    sup of the run, onto ``[-_VIEW, _VIEW]^2``: a point ``x = r P`` is drawn
    at ``rint(x / span * _VIEW)``.  One ``%`` template per run holds every
    point's ``%d %d``, and each frame fills it once, its points converted
    from one record at a time.  Each file is written through ``os.open``
    and ``os.write``, without the file objects of ``Path.write_text``: the
    kernel's creation of the files is most of the cost, and the rest is
    per file.
    """
    folder = out / "frames"
    folder.mkdir(exist_ok=True)
    span = float(traj.sup.max()) * 1.1 or 1.0  # all radii 0: any span draws every point at 0
    template = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"<!-- frame t=%s config_hash={config_hash(cfg)} -->\n"
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{-_VIEW} {-_VIEW} {2 * _VIEW} {2 * _VIEW}">\n'
        '  <path d="M ' + " L ".join(["%d %d"] * traj.grid.num_nodes)
        + f' Z" fill="none" stroke="black" stroke-width="{_VIEW // 200}"/>\n'
        "</svg>\n"
    )
    for i, t in enumerate(traj.times.tolist()):
        xy = traj.radii[i][..., None] * traj.directions[i]
        points = np.rint(xy / span * _VIEW).astype(np.int64).ravel().tolist()
        fd = os.open(folder / _FRAME.format(i), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            data = memoryview((template % (repr(t), *points)).encode())
            while data:  # a write may take less than all of it
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


def _remove_stale_frames(out: Path, count: int) -> None:
    """Delete the frame files in ``out/frames`` that a run of ``count`` frames does not write."""
    keep = {_FRAME.format(i) for i in range(count)}
    for path in (out / "frames").glob("frame_*.svg"):
        if path.name not in keep:
            path.unlink()


def _write_evolve(out: Path, traj: Trajectory, cfg: dict[str, str], svg: bool) -> None:
    """Write every artifact of an ``evolve`` run into ``out``, in this process.

    The frames of an earlier run that this run does not write are deleted
    first.  The CSVs are written before the frames: a child may be creating
    the frame files (see :func:`_run_creating_frames`), and the kernel's
    creation of a file costs more than writing it, so the CSVs give the
    child that much longer to get ahead.  Each writer is looked up by name
    when it runs.
    """
    _remove_stale_frames(out, len(traj.times) if svg else 0)
    _write_trajectory(out, traj, cfg)
    _write_diagnostics(out, traj, cfg)
    _write_snapshot(out, traj, cfg)
    if svg:
        _write_svg_frames(out, traj, cfg)


def _create_frames(out: Path, count: int) -> None:
    """Create ``out/frames`` and the run's ``count`` frame files in it, empty.

    A file that exists keeps its bytes: it is opened without ``O_TRUNC``.
    """
    out.mkdir(parents=True, exist_ok=True)
    folder = out / "frames"
    folder.mkdir(exist_ok=True)
    for i in range(count):
        os.close(os.open(folder / _FRAME.format(i), os.O_WRONLY | os.O_CREAT, 0o666))


def _frame_count(r0: ScalarField, spec: FluxSpec, cfg: SolveConfig) -> int:
    """The records of a run from ``r0``, or 0 for a run that stops before its first step.

    A run whose records no array can hold stops there too, at their allocation.
    """
    try:
        n_steps = _schedule(r0.grid, spec, cfg, float(np.abs(r0.values).max()))[0]
    except SolverError:  # the run raises it again, after its own checks
        return 0
    count = _record_count(n_steps, cfg.record_every)
    return count if count * r0.values.nbytes <= sys.maxsize else 0


def _run_creating_frames(out: Path, count: int, run, write) -> Trajectory:
    """``write(run())``, while a forked child creates ``out``'s ``count`` empty frames.

    The writers start without waiting for the child: both open every frame
    with ``O_CREAT``, and only the frame writer truncates, so neither order
    loses a byte, and a frame the child did not make, for whatever reason,
    the frame writer makes.  So nothing reads how the child ended; it is
    reaped once the writers are done.  If the run fails, the child is
    killed and reaped, and the frames and directories it made are removed,
    so ``out`` is left as it was found; a failed write leaves what it
    wrote, as it does without the child.  Where ``fork`` fails, the run
    goes on without the child.
    """
    folder = out / "frames"
    missing = []  # the directories the child may make, innermost first
    for path in (folder, out, *out.parents):
        if path.exists():
            break
        missing.append(path)
    kept = set(os.listdir(folder)) if folder.is_dir() else set()
    sys.stdout.flush()  # as run_jobs does: the child inherits no unwritten output to repeat
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        return write(run())
    if pid == 0:
        try:
            _create_frames(out, count)
        finally:
            os._exit(0)
    try:
        traj = run()
    except BaseException:
        from signal import SIGKILL  # loaded only here: the import costs about a millisecond

        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)
        if folder.is_dir():
            for path in folder.glob("frame_*.svg"):
                if path.name not in kept:
                    path.unlink()
        for path in missing:
            if path.is_dir():
                path.rmdir()
        raise
    try:
        return write(traj)
    finally:
        os.waitpid(pid, 0)


def run_evolve(config_path: str | Path) -> int:
    """Surface evolution run driven by a configuration file."""
    try:
        cfg = load_config(config_path)
        _check_keys(cfg)
        grid = _build_grid(cfg)
        spec = _build_flux(cfg, grid.m)
        preset = _get(cfg, "initial.preset")
        params = _numbers(_get(cfg, "initial.params", ""))
        solve_cfg = SolveConfig(
            dt=float(_get(cfg, "solver.dt")),
            t_end=float(_get(cfg, "solver.t_end")),
            record_every=int(_get(cfg, "output.record_every", "1")),
        )
        out_dir = Path(_get(cfg, "output.dir"))
        want_svg = _bool(_get(cfg, "output.svg", "false"))
        if want_svg and grid.m != 1:
            raise ConfigError(f"output.svg draws closed curves: it needs grid.m = 1, got {grid.m}")
        try:
            r0, p0 = make_initial(grid, preset, params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except MemoryError as exc:
            raise ConfigError(_too_large(grid, exc)) from exc
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def run() -> Trajectory:
        return evolve_coupled(r0, p0, spec, solve_cfg)

    def write(traj: Trajectory) -> Trajectory:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_evolve(out_dir, traj, cfg, want_svg)
        return traj

    count = _frame_count(r0, spec, solve_cfg) if want_svg and usable_workers() >= 2 else 0
    try:
        traj = _run_creating_frames(out_dir, count, run, write) if count else write(run())
    except SolverError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        return _write_failed(exc)
    for flag in traj.flags:
        print(f"flag: {flag}")
    print(f"wrote artifacts to {out_dir} (final sup deviation from mean: "
          f"{traj.sphere_dev[-1]:.3e})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_suite(name: str) -> list[CheckResult]:
    """:func:`polarflow.verify.run_suite`, importing :mod:`polarflow.verify` on the first call."""
    from .verify import run_suite as run

    return run(name)


def run_verify(suite: str, out_dir: str | Path = "out") -> int:
    """Run a named verification suite, print the table, write a JSON summary."""
    import json

    if suite != "all" and suite not in _SUITE_NAMES:
        known = ", ".join(sorted(_SUITE_NAMES) + ["all"])
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
            f"p={_fmt(sol.p)} residual={sol.residual:.3e} iterations={sol.iterations}",
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
    from .cell import _branch_pairs, solve_cell

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
        pairs = _branch_pairs(spec, grid, p - 1.0, p + 1.0, n_pairs, seed)
    except MemoryError as exc:
        print(f"config error: {_too_large(grid, exc)}", file=sys.stderr)
        return EXIT_CONFIG
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
        f"{sol.iterations} iterations) and monotonicity report to {out_dir}"
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
    p_verify.add_argument("suite", help=" | ".join([*_SUITE_NAMES, "all"]))
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
