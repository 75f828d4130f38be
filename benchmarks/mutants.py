"""Mutation checks: edits to the package that the tests must catch.

    python benchmarks/mutants.py

Each entry of ``MUTANTS`` names a file under the source checkout, an exact
old text that occurs there once, the new text that replaces it, and the test
files that must fail with the edit in place.  For each mutant the
checkout's ``src/``, ``tests/``, ``benchmarks/``, ``perfbench/``,
``pyproject.toml`` and ``README.md`` (which a test reads) are copied to a
temporary directory, the edit is applied there, and ``pytest -x -q`` runs
the mutant's test files with ``PYTHONPATH=src``.  The checkout itself is
never written.

Each mutant is reported as one of:

* ``killed``: pytest found a failing test (exit status 1);
* ``survived``: every test passed, so the tests do not see the edit;
* ``stale``: its old text does not occur exactly once, so the table no
  longer matches the code and the entry must be updated;
* ``error``: pytest could not run the tests (any other exit status) or
  took longer than ``TIMEOUT_S`` seconds.

Each mutant of a file under ``src/`` is also run through ``polarflow verify
all`` in its tree, and its line ends with what the battery saw: the names of
the rows that fail, ``aborted`` and the last line of standard error when the
battery ends without its table, or ``blind`` when every row passes.  This
column is reported, not judged: the exit status is 0 when every mutant is
killed by its tests, else 1.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "benchmarks", "perfbench", "pyproject.toml", "README.md")
TIMEOUT_S = 600
_VERIFY_ROW = re.compile(r"^(\S+)\s+FAIL\s")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the flux
    Mutant(
        "flux-divergence-sign",
        "src/polarflow/spectral.py",
        "            np.multiply(deriv, out, out=out)\n",
        "            np.multiply(deriv, out, out=out)\n            np.negative(out, out=out)\n",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "duhamel-sweep-reads-f",
        "src/polarflow/duhamel.py",
        "term = _horner(comp.g, fields, mod)",
        "term = _horner(comp.coeffs, fields, mod)",
        ("tests/test_duhamel.py",),
    ),
    Mutant(
        "g-prime-drops-k-plus-one",
        "src/polarflow/flux.py",
        "tuple((k + 1) * c for k, c in enumerate(coeffs))",
        "tuple(k * c for k, c in enumerate(coeffs))",
        ("tests/test_flux.py",),
    ),
    Mutant(
        "stage-drops-modulation",
        "src/polarflow/spectral.py",
        "speeds = [_horner(c.coeffs, r_vals, a) for",
        "speeds = [_horner(c.coeffs, r_vals) for",
        ("tests/test_transport.py",),
    ),
    Mutant(
        "max-stable-dt-skips-axis-check",
        "src/polarflow/spectral.py",
        "    spec.resolve(grid)\n    h_min = min(grid.spacings)\n",
        "    h_min = min(grid.spacings)\n",
        ("tests/test_flux.py",),
    ),
    # the paper's claims; dropping the mean re-pin outright is not a mutant
    # the tests can see: the preconditioner has an exact zero mean mode, so
    # without it the mean stays within an ulp of p, and on the tests' solves
    # it lands on p
    Mutant(
        "cell-repins-mean-to-zero",
        "src/polarflow/cell.py",
        "v = v - v.mean() + p  # re-pin the mean, to an ulp of p",
        "v = v - v.mean()  # re-pin the mean, to an ulp of p",
        ("tests/test_cell.py",),
    ),
    Mutant(
        "carry-drops-renormalisation",
        "src/polarflow/spectral.py",
        "    out /= norms\n",
        "",
        ("tests/test_transport.py",),
    ),
    Mutant(
        "derivative-keeps-nyquist",
        "src/polarflow/spectral.py",
        "np.where(nyquist, 0.0, -1j * k)",
        "np.where(False, 0.0, -1j * k)",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "record-moduli-np-abs",
        "src/polarflow/spectral.py",
        "    return np.hypot(z.real, z.imag)\n",
        "    return np.abs(z)\n",
        ("tests/test_diagnostics.py", "tests/test_cli.py"),
    ),
    # guards that earlier changes added
    Mutant(
        "exact-tau-wrong-stage",
        "src/polarflow/spectral.py",
        "_EXACT_TAU = {0.0: 0, 0.5: 1, 1.0: 2}",
        "_EXACT_TAU = {0.0: 0, 0.5: 1, 1.0: 1}",
        ("tests/test_transport.py",),
    ),
    Mutant(
        "start-checks-finiteness-only",
        "src/polarflow/spectral.py",
        "if not (top <= _EXACT_STEP_LIMIT):",
        "if not np.isfinite(top):",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "cli-allows-zero-modulation",
        "src/polarflow/cli.py",
        "if spec.components[axis].coeffs == (0.0,) or mod.sup_bound() == 0.0:",
        "if spec.components[axis].coeffs == (0.0,):",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "trajectory-writer-keyed-on-floats",
        "src/polarflow/cli.py",
        "            bits = record.reshape(-1).view(np.int64).tolist()\n"
        "            distinct = list(dict.fromkeys(bits))\n"
        "            values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()\n",
        "            bits = record.reshape(-1).tolist()\n"
        "            distinct = list(dict.fromkeys(bits))\n"
        "            values = distinct\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "advance-returns-workspace",
        "src/polarflow/spectral.py",
        "        np.add(new, div, out=new)\n",
        "        new = np.add(new, div, out=div)\n",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "eager-r0-stage",
        "src/polarflow/spectral.py",
        "    n_steps, tail = _schedule(grid, spec, cfg, float(np.abs(vals).max()))\n",
        "    last = _stage(spec, grid, vals[0]) if p0 is not None else None\n"
        "    n_steps, tail = _schedule(grid, spec, cfg, float(np.abs(vals).max()))\n",
        ("tests/test_transport.py",),
    ),
    Mutant(
        "radius-only-r0-stage",
        "src/polarflow/spectral.py",
        "    last = _stage(spec, grid, vals[0]) if coupled else None  #",
        "    last = _stage(spec, grid, vals[0])  #",
        ("tests/test_transport.py",),
    ),
    Mutant(
        "branch-pairs-old-gap-rule",
        "src/polarflow/cell.py",
        "p = max(q + 1e-3, np.nextafter(q, np.inf))",
        "p = q + 1e-3",
        ("tests/test_cell.py",),
    ),
    Mutant(
        "svg-frame-flips-y",
        "src/polarflow/cli.py",
        "        xy = traj.radii[i][..., None] * traj.directions[i]\n",
        "        xy = traj.radii[i][..., None] * traj.directions[i] * [1.0, -1.0]\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "pool-results-in-completion-order",
        "src/polarflow/_pool.py",
        "    return [results[i] for i in range(len(jobs))]\n",
        "    return list(results.values())\n",
        ("tests/test_pool.py",),
    ),
    Mutant(
        "cli-allows-svg-on-two-axes",
        "src/polarflow/cli.py",
        "if want_svg and grid.m != 1:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    # the frame creator beside the time loop
    Mutant(
        "frame-creator-truncates",
        "src/polarflow/cli.py",
        "os.O_WRONLY | os.O_CREAT, 0o666)",
        "os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "failed-run-skips-cleanup",
        "src/polarflow/cli.py",
        "        os.waitpid(pid, 0)\n        if folder.is_dir():\n",
        "        os.waitpid(pid, 0)\n        if False:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "frame-creator-not-reaped",
        "src/polarflow/cli.py",
        "    finally:\n        os.waitpid(pid, 0)\n",
        "    finally:\n        pass\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "failed-run-waits-for-creator",
        "src/polarflow/cli.py",
        "        os.kill(pid, SIGKILL)\n",
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "frame-creator-one-frame-more",
        "src/polarflow/cli.py",
        "    for i in range(count):\n        os.close(",
        "    for i in range(count + 1):\n        os.close(",
        ("tests/test_cli.py",),
    ),
)


def verify_all(tree: Path, env: dict) -> str:
    """What ``polarflow verify all`` sees in ``tree``: its failing rows, ``aborted: ...`` or ``blind``."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "polarflow.cli", "verify", "all", "--out", "verify-out"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "aborted: timed out"
    if done.returncode not in (0, 3):
        lines = done.stderr.strip().splitlines() or ["no message"]
        return f"aborted: exit {done.returncode}: {lines[-1].strip()}"
    failed = [m.group(1) for m in map(_VERIFY_ROW.match, done.stdout.splitlines()) if m]
    return " ".join(failed) or "blind"


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply ``mutant`` to a copy of the checkout; return the tests' verdict and what verify saw."""
    source = ROOT / mutant.file
    if not source.is_file() or source.read_text().count(mutant.old) != 1:
        return "stale", "-"
    with tempfile.TemporaryDirectory(prefix="polarflow-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".perfbench-work")
                shutil.copytree(src, tree / name, ignore=ignore)
            else:
                shutil.copy2(src, tree / name)
        path = tree / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S,
            )
            verdict = {0: "survived", 1: "killed"}.get(done.returncode, "error")
        except subprocess.TimeoutExpired:
            verdict = "error"
        seen = verify_all(tree, env) if mutant.file.startswith("src/") else "-"
    return verdict, seen


def main() -> int:
    verdicts, sights = [], []
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict, seen = run(mutant)
        verdicts.append(verdict)
        sights.append(seen)
        print(f"{mutant.name:<34} {verdict:<8} {time.perf_counter() - start:6.1f}s  verify: {seen}",
              flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} mutants killed")
    checked = [seen for seen in sights if seen != "-"]
    print(f"verify all saw {len(checked) - checked.count('blind')} of {len(checked)} src/ mutants")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
