"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the span
that was open when this one began, or ``-1`` at top level.  Wrappers are
installed from the benchmark's own files around module-level entry points of
the polarflow layers; nothing under ``src/`` is edited.  Spans stay in memory
and are written out when the job ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> metric stem: "<layer>.<what>"
GATHER = "transport.gather"
STEP = "transport.step"
ADVANCE = "spectral.advance"
EVOLVE = "spectral.evolve"
RECORD = "spectral.record"
WINDOW_BUILD = "duhamel.window_build"
SWEEP = "duhamel.sweep"
FD_DERIVATIVE = "duhamel.fd_derivative"
BASE = "duhamel.base"
CIRCULANT = "kernels.circulant"
CELL_SOLVE = "cell.solve"
FDCELL_SOLVE = "fdcell.solve"
MAKE_INITIAL = "geometry.make_initial"
CLI_WRITERS = {
    "_write_trajectory": "cli.write_trajectory",
    "_write_svg_frames": "cli.write_svg",
    "_write_diagnostics": "cli.write_diagnostics",
    "_write_snapshot": "cli.write_snapshot",
}


class Tracer:
    """Records nested spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counts, args, result)`` adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._open.append(idx)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarise(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans only) and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total_s"] += end - start
    return out


# ---------------------------------------------------------------------------
# installation into the polarflow modules
# ---------------------------------------------------------------------------


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every polarflow module attribute that refers to ``original``.

    Layers import each other's entry points by name (``from .spectral import
    evolve``), so the defining module is not the only place to patch.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "polarflow" or mod_name.startswith("polarflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _count_trig(counts, args, result):
    amps, _, pts = args[:3]
    counts["transport.gather_points"] += len(pts[0])
    counts["transport.gather_flops_computed"] += len(pts[0]) * amps.size


def _count_cubic(counts, args, result):
    _, units = args[:2]
    counts["transport.gather_points"] += len(units[0])
    counts["transport.gather_flops_computed"] += len(units[0]) * 4 ** len(units)


def _count_circulant(counts, args, result):
    n = len(args[0])
    counts["kernels.circulant_bytes_computed"] += n * n * 8  # the N x N float64 gather


def _count_newton(counts, args, result):
    counts["cell.newton_iters"] += result.newton_iters


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported polarflow package."""
    import polarflow.cli as cli
    from polarflow import _fdcell, _kernels, cell, duhamel, geometry, spectral, transport, verify

    functions = [
        (GATHER, _kernels.trig_gather, _count_trig),
        (GATHER, _kernels.cubic_gather, _count_cubic),
        (STEP, transport.transport_step, None),
        (EVOLVE, spectral.evolve, None),
        (RECORD, spectral._append_record, None),
        (FD_DERIVATIVE, duhamel._fd_derivative, None),
        (BASE, duhamel.heat_kernel_convolve, None),
        (CIRCULANT, _kernels.circulant_apply, _count_circulant),
        (CELL_SOLVE, cell.solve_cell, _count_newton),
        (FDCELL_SOLVE, _fdcell.fd_cell_solve, None),
        (MAKE_INITIAL, geometry.make_initial, None),
    ]
    functions += [(span, getattr(cli, attr), None) for attr, span in CLI_WRITERS.items()]
    for name, fn, count in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn, count))

    for cls, attr, name in (
        (spectral._Stepper, "advance", ADVANCE),
        (duhamel._Window, "__init__", WINDOW_BUILD),
        (duhamel._Window, "sweep", SWEEP),
    ):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    # run_suite iterates this dict, which holds the suite functions directly
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = tracer.wrap(f"verify.{suite}", fn)
