"""The benchmark's workloads: inputs made from the seed, and output checks.

Each workload is one batch job a user runs.  Only ``make_inputs`` sees the
seed; the job receives the generated input file and nothing else.

* ``curve``: ``polarflow evolve`` on a 1-axis ellipse, N=128, burgers flux,
  coupled with the spectral interpolant for 1000 steps, every step recorded
  and drawn as an SVG frame.  Write-heavy: the gather and CLI writing share
  the time.  The seed picks the semi-axes inside a CFL-safe range.
* ``surface``: ``polarflow evolve`` on a 2-axis ``trig_random`` surface, 64^2,
  burgers flux, 30 coupled steps recorded every 10.  Gather-bound, small
  writes.  The seed goes into the preset.
* ``oracle``: ``picard_extend`` on a band-limited positive field, N=128,
  burgers flux, to t=0.1, cross-checked against ``evolve``.  The Duhamel
  sweep does nearly all the work; transport and CLI are absent.  The
  perturbation is scaled to a fixed maximum, so the sup bound, and with it
  the window count, does not depend on the seed.
* ``verify``: ``polarflow verify all``, the battery users run to check the
  paper's claims.  Radius-only spectral stepping dominates.  It has no input
  to seed.

One job is one operation, except ``verify``, where each check and the
summary write is one.  A job that exits non-zero fails its operations.  A
check that fails on output the program did produce fails its operation and
also marks the run incorrect (a wrong result rather than a missing one).
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("curve", "surface", "oracle", "verify")

# verify all ran 33 checks at the commit this benchmark was written against;
# checks that a crash keeps from printing still count as failed
VERIFY_CHECKS = 33

CURVE = {"m": 1, "N": 128, "flux": "burgers", "interp": "spectral", "dt": 5e-4,
         "t_end": 0.5, "record_every": 1, "svg": True}
SURFACE = {"m": 2, "N": 64, "flux": "burgers", "interp": "spectral", "dt": 1e-3,
           "t_end": 0.03, "record_every": 10, "svg": False, "max_mode": 4, "amplitude": 0.3}
ORACLE = {"m": 1, "N": 128, "flux": "burgers", "t_end": 0.1, "ref_steps": 2048,
          "modes": 8, "sup_amplitude": 0.2, "tolerance": 1e-4}
VERIFY = {"suite": "all"}

MEAN_DRIFT_TOL = 1e-12
SUP_EXCESS_TOL = 1e-8
UNIT_NORM_TOL = 1e-12


def input_name(name: str) -> str:
    return {"curve": "run.cfg", "surface": "run.cfg", "oracle": "oracle_input.npz",
            "verify": "-"}[name]


def _config(params: dict, preset: str, values: list) -> str:
    n, m = params["N"], params["m"]
    lines = [
        f"grid.m = {m}",
        "grid.lengths = " + ", ".join(["1.0"] * m),
        "grid.resolution = " + ", ".join([str(n)] * m),
        f"flux.kind = {params['flux']}",
        f"initial.preset = {preset}",
        "initial.params = " + ", ".join(repr(v) for v in values),
        f"solver.dt = {params['dt']!r}",
        f"solver.t_end = {params['t_end']!r}",
        f"output.record_every = {params['record_every']}",
        f"output.svg = {str(params['svg']).lower()}",
        "output.dir = out",
    ]
    return "\n".join(lines) + "\n"


def make_inputs(name: str, seed: int, dest: Path) -> dict:
    """Write the workload's input into ``dest``; return what it was made of."""
    rng = np.random.default_rng(seed)
    if name == "curve":
        # sup r = a bounds the burgers speed: dt_max = 0.5 h / (1 + a) > 1.1e-3
        a, b = float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.75, 1.25))
        (dest / input_name(name)).write_text(_config(CURVE, "ellipse", [a, b]))
        return {**CURVE, "preset": "ellipse", "semi_axes": [a, b]}
    if name == "surface":
        preset_seed = int(rng.integers(0, 2**31 - 1))
        values = [preset_seed, SURFACE["max_mode"], SURFACE["amplitude"]]
        (dest / input_name(name)).write_text(_config(SURFACE, "trig_random", values))
        return {**SURFACE, "preset": "trig_random", "preset_seed": preset_seed}
    if name == "oracle":
        n, modes = ORACLE["N"], ORACLE["modes"]
        hat = np.zeros(n, dtype=complex)
        for k in range(1, modes + 1):
            c = (rng.normal() + 1j * rng.normal()) / (1 + k * k)
            hat[k], hat[-k] = c, np.conj(c)
        pert = np.fft.ifft(hat * n).real
        r0 = 1.0 + ORACLE["sup_amplitude"] * pert / pert.max()
        np.savez(dest / input_name(name), r0=r0, t_end=ORACLE["t_end"],
                 ref_steps=ORACLE["ref_steps"])
        return {**ORACLE, "interp": None, "min_r0": float(r0.min())}
    if name == "verify":
        return {**VERIFY, "N": 128, "m": 1, "flux": "several", "interp": "spectral"}
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Outcome:
    """Operations one job attempted and failed, and why."""

    attempted: int
    failed: int = 0
    wrong: bool = False  # a check failed on output the program produced
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, wrong: bool = False, ops: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.wrong = self.wrong or wrong
        self.notes.append(note)


def last_error(stderr: str) -> str:
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    return lines[-1].strip() if lines else "no message"


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        rows = [row for row in csv.reader(ln for ln in fh if not ln.startswith("#"))]
    return rows[0], np.array(rows[1:], dtype=np.float64).reshape(len(rows) - 1, len(rows[0]))


def _expected_records(params: dict) -> int:
    steps = round(params["t_end"] / params["dt"])
    return steps // params["record_every"] + 1


def _check_evolve(params: dict, job: Path, stdout: str, out: Outcome) -> None:
    flags = [ln for ln in stdout.splitlines() if ln.startswith("flag:")]
    if flags:
        out.fail(f"{len(flags)} flag lines, first: {flags[0]}", wrong=True)
        return
    art = job / "out"
    try:
        cols, diag = _read_csv(art / "diagnostics.csv")
        scols, snap = _read_csv(art / "snapshot_final.csv")
        with (art / "trajectory.csv").open() as fh:
            traj_rows = sum(1 for ln in fh if not ln.startswith("#")) - 1
    except (OSError, ValueError, IndexError) as exc:
        out.fail(f"artifacts missing or malformed: {exc}", wrong=True)
        return
    records = _expected_records(params)
    nodes = params["N"] ** params["m"]
    mean, sup, mn = (diag[:, cols.index(c)] for c in ("mean", "sup", "min"))
    p = snap[:, [i for i, c in enumerate(scols) if re.fullmatch(r"p\d+", c)]]
    problems = []
    if diag.shape[0] != records:
        problems.append(f"{diag.shape[0]} diagnostics rows, expected {records}")
    if traj_rows != records * nodes:
        problems.append(f"{traj_rows} trajectory rows, expected {records * nodes}")
    if params["svg"]:
        frames = len(list((art / "frames").glob("frame_*.svg")))
        if frames != records:
            problems.append(f"{frames} SVG frames, expected {records}")
    drift = float(np.abs(mean - mean[0]).max())
    if not drift <= MEAN_DRIFT_TOL:
        problems.append(f"mean drift {drift:.3e} > {MEAN_DRIFT_TOL:.0e}")
    excess = float(sup.max() - sup[0])
    if not excess <= SUP_EXCESS_TOL:
        problems.append(f"sup excess {excess:.3e} > {SUP_EXCESS_TOL:.0e}")
    if not mn.min() > 0.0:
        problems.append(f"min radius {mn.min():.3e} <= 0")
    defect = float(np.abs(np.sqrt((p * p).sum(axis=1)) - 1.0).max()) if p.size else math.inf
    if not defect <= UNIT_NORM_TOL:
        problems.append(f"|P| - 1 = {defect:.3e} > {UNIT_NORM_TOL:.0e}")
    if problems:
        out.fail("; ".join(problems), wrong=True)


def _check_oracle(job: Path, out: Outcome) -> None:
    try:
        with np.load(job / "oracle_out.npz") as data:
            diff = float(np.abs(data["picard"] - data["spectral"]).max())
    except (OSError, KeyError, ValueError) as exc:
        out.fail(f"oracle output missing or malformed: {exc}", wrong=True)
        return
    if not diff <= ORACLE["tolerance"]:
        out.fail(f"picard vs evolve {diff:.3e} > {ORACLE['tolerance']:.0e}", wrong=True)


_VERIFY_ROW = re.compile(r"^(\S+)\s+(PASS|FAIL)\s+(.*)$")


def _check_verify(job: Path, exit_code: int, stdout: str, stderr: str) -> Outcome:
    rows = [m.groups() for m in map(_VERIFY_ROW.match, stdout.splitlines()) if m]
    out = Outcome(attempted=max(VERIFY_CHECKS, len(rows)) + 1)
    for name, mark, detail in rows:
        if mark != "PASS":
            out.fail(f"check {name} failed: {detail}", wrong=True)
    missing = out.attempted - 1 - len(rows)
    if missing:
        out.fail(f"{missing} checks not reported (exit {exit_code}: {last_error(stderr)})",
                 ops=missing)
    summary = job / "out" / "verify_all.json"
    if exit_code not in (0, 3):
        out.fail(f"summary write: exit {exit_code}: {last_error(stderr)}")
        return out
    try:
        written = json.loads(summary.read_text())
        listed = [(c["name"], "PASS" if c["passed"] else "FAIL") for c in written["checks"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.fail(f"summary write: {summary.name} missing or malformed: {exc}", wrong=True)
        return out
    if listed != [(name, mark) for name, mark, _ in rows]:
        out.fail("summary write: verify_all.json disagrees with the printed table", wrong=True)
    return out


def check(name: str, job: Path, exit_code: int, stdout: str, stderr: str,
          params: dict) -> Outcome:
    """Score one finished job from its exit code and artifacts."""
    if name == "verify":
        return _check_verify(job, exit_code, stdout, stderr)
    out = Outcome(attempted=1)
    if exit_code != 0:
        out.fail(f"exit {exit_code}: {last_error(stderr)}")
    elif name == "oracle":
        _check_oracle(job, out)
    else:
        _check_evolve(params, job, stdout, out)
    return out
