"""Start-up cost of the ``polarflow`` subcommands, measured in fresh processes.

Every ``polarflow`` run is a new interpreter.  With
``PYTHONDONTWRITEBYTECODE=1`` no ``__pycache__`` is written, so each process
compiles the package's modules from source again.  For each import set below
this script starts ``--repeat`` fresh interpreters under that setting, with
the sets interleaved.  It prints the median start-to-exit time, its increase
over the set above it, the median time from the last import to the exit
(``perf_counter`` is one clock across processes), and the ``polarflow``
modules the set loads.  Each set holds the one above it:

- ``python``: the interpreter and ``site`` alone;
- ``polarflow``: ``import polarflow``, which loads no submodule;
- ``numpy``: adds ``import numpy``;
- ``evolve``: ``import polarflow.cli``, everything ``polarflow evolve`` loads;
- ``cell``: ``polarflow cell`` adds ``polarflow.cell``;
- ``verify``: ``polarflow verify`` adds ``json`` and ``polarflow.verify``,
  and with it ``cell``, ``diagnostics`` and the reference solvers.

A ``__pycache__`` left in ``src/polarflow`` by a run that wrote bytecode is
still read, and the times then come out low; the script says when one exists.

    python benchmarks/bench_startup.py [--repeat 20]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SETS = {
    "python": "pass",
    "polarflow": "import polarflow",
    "numpy": "import polarflow, numpy",
    "evolve": "import polarflow.cli",
    "cell": "import polarflow.cli, polarflow.cell",
    "verify": "import json, polarflow.cli, polarflow.verify",
}

_LIST_MODULES = (
    "\nimport sys\n"
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'polarflow')))"
)


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
    }


def _start_to_exit(code: str, env: dict[str, str]) -> tuple[float, float]:
    """Seconds from start to exit, and from the end of ``code`` to exit."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code + "\nimport time\nprint(time.perf_counter())"],
                          env=env, check=True, capture_output=True, text=True)
    t1 = time.perf_counter()
    return t1 - t0, t1 - float(done.stdout)


def loaded_modules(code: str, env: dict[str, str]) -> list[str]:
    done = subprocess.run([sys.executable, "-c", code + _LIST_MODULES], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.split()


def bench(repeat: int) -> None:
    env = _env()
    cached = SRC / "polarflow" / "__pycache__"
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, {repeat} processes per set, "
          f"PYTHONDONTWRITEBYTECODE=1")
    if cached.exists():
        print(f"warning: {cached} exists and is read, so the polarflow rows read low")
    times: dict[str, list[tuple[float, float]]] = {name: [] for name in SETS}
    for _ in range(repeat):
        for name, code in SETS.items():
            times[name].append(_start_to_exit(code, env))
    print(f"{'set':<10} {'median ms':>10} {'+ms':>7} {'exit ms':>8}  polarflow modules loaded")
    previous = None
    for name, code in SETS.items():
        median = statistics.median(total for total, _ in times[name]) * 1e3
        exit_ms = statistics.median(tail for _, tail in times[name]) * 1e3
        step = "" if previous is None else f"{median - previous:+7.1f}"
        modules = loaded_modules(code, env)
        print(f"{name:<10} {median:>10.1f} {step:>7} {exit_ms:>8.1f}  "
              f"{len(modules)}: {' '.join(modules)}")
        previous = median


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=20)
    bench(ap.parse_args().repeat)
