"""Write the standard artifact set of the ``polarflow`` found on ``PYTHONPATH``.

    PYTHONPATH=src python benchmarks/identity.py DEST

Each run below gets a directory of its own in ``DEST``: its input, what it
wrote, and the files ``stdout``, ``stderr`` and ``exit_code``.  Running
this script once per tree and comparing the two ``DEST`` directories with
``diff -r`` checks that the trees give the same bytes on every run, the
failures included.  The runs, one at a time, each in a fresh process with
its directory as the working directory:

* ``curve`` and ``surface``: ``polarflow evolve`` on the ``curve`` and
  ``surface`` inputs of ``perfbench/workloads.py``, made from seed ``SEED``;
* ``poly16``: ``polarflow evolve`` with a polynomial flux on a 16^3
  ``trig_random`` radius;
* ``constant_frames``: ``polarflow evolve`` with a constant flux on an
  ellipse, every record drawn as an SVG frame;
* ``cell_modulated`` and ``cell_burgers``: ``polarflow cell`` with a
  sine-modulated constant flux and with a cosine-modulated burgers flux;
* ``verify_blas1`` and ``verify_blas2``: ``polarflow verify all`` with
  ``OPENBLAS_NUM_THREADS`` set to 1 and to 2.

``DEST`` must not exist or be empty.  The exit status is 0 once every run
has been recorded, whatever the runs' own exit codes, and 2 on bad usage.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEED = 7

POLY16 = """\
grid.m = 3
grid.lengths = 1.0, 1.0, 1.0
grid.resolution = 16, 16, 16
flux.kind = poly
flux.coeffs = 0.2, 0.5, -0.1
initial.preset = trig_random
initial.params = 5, 2, 0.3
solver.dt = 2e-3
solver.t_end = 0.05
output.record_every = 5
output.svg = false
output.dir = out
"""

CONSTANT_FRAMES = """\
grid.m = 1
grid.lengths = 1.0
grid.resolution = 64
flux.kind = constant
flux.coeffs = 0.7
initial.preset = ellipse
initial.params = 2.0, 1.0
solver.dt = 1e-3
solver.t_end = 0.1
output.record_every = 2
output.svg = true
output.dir = out
"""

CELL_MODULATED = """\
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
output.dir = out
"""

CELL_BURGERS = """\
grid.m = 1
grid.lengths = 1.0
grid.resolution = 128
flux.kind = burgers
flux.mod_axis = 0
flux.mod_const = 0.5
flux.mod_cos = 0.5
cell.p = 2.0
cell.pairs = 2
seed = 3
output.dir = out
"""


def record(job: Path, args: list[str], env: dict | None = None) -> None:
    """Run ``python -m polarflow.cli *args`` in ``job``; keep its stdout, stderr and exit code.

    The entries of ``PYTHONPATH`` are made absolute, since ``job`` is the working directory.
    """
    path = [str(Path(p).resolve()) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), **(env or {})}
    done = subprocess.run([sys.executable, "-m", "polarflow.cli", *args], cwd=job, env=env,
                          capture_output=True)
    (job / "stdout").write_bytes(done.stdout)
    (job / "stderr").write_bytes(done.stderr)
    (job / "exit_code").write_text(f"{done.returncode}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    dest = Path(argv[0])
    if dest.exists() and any(dest.iterdir()):
        print(f"{dest} is not empty", file=sys.stderr)
        return 2
    configs = {"poly16": POLY16, "constant_frames": CONSTANT_FRAMES,
               "cell_modulated": CELL_MODULATED, "cell_burgers": CELL_BURGERS}
    for name in ("curve", "surface", *configs, "verify_blas1", "verify_blas2"):
        job = dest / name
        job.mkdir(parents=True)
        if name in ("curve", "surface"):
            workloads.make_inputs(name, SEED, job)
            record(job, ["evolve", workloads.input_name(name)])
        elif name.startswith("verify_blas"):
            record(job, ["verify", "all", "--out", "out"], {"OPENBLAS_NUM_THREADS": name[-1]})
        else:
            (job / "run.cfg").write_text(configs[name])
            record(job, ["cell" if name.startswith("cell") else "evolve", "run.cfg"])
        print(f"{name:<16} exit {(job / 'exit_code').read_text().strip()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
