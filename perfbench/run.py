"""polarflow benchmark: batch jobs timed end to end, and a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  One parent runs jobs one at a time, each
in its own child process (a closed loop with one client), until the next job
would overrun ``--seconds``.  At least one job runs (with ``--trace 1``, one
untraced and one traced).  BLAS threads are pinned to the cores available.

``--trace 0`` reports the end-to-end metrics, as medians over the jobs:

* ``wall_s``: launch of the job's process to its exit, artifacts on disk;
* ``setup_s``: launch until the job's inputs are ready (interpreter,
  ``import polarflow``, config parse, initial data);
* ``peak_rss_mb``: the job process's maximum resident set.

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones (see ``PER_LAYER``), with ``trace.overhead_s``
the median traced wall time minus the median untraced one.

Every job's output is checked (``workloads.check``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Working files go to ``.perfbench-work/`` in the
checkout and each job's directory is removed once checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

JOB_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPAN_TIMES = {
    "transport.gather_s": spans.GATHER,
    "spectral.advance_s": spans.ADVANCE,
    "spectral.evolve_s": spans.EVOLVE,
    "spectral.record_s": spans.RECORD,
    "duhamel.window_build_s": spans.WINDOW_BUILD,
    "duhamel.sweep_s": spans.SWEEP,
    "duhamel.fd_derivative_s": spans.FD_DERIVATIVE,
    "duhamel.base_s": spans.BASE,
    "kernels.circulant_s": spans.CIRCULANT,
    "cli.write_trajectory_s": "cli.write_trajectory",
    "cli.write_svg_s": "cli.write_svg",
    "cli.write_diagnostics_s": "cli.write_diagnostics",
    "cli.write_snapshot_s": "cli.write_snapshot",
    "cell.solve_s": spans.CELL_SOLVE,
    "fdcell.solve_s": spans.FDCELL_SOLVE,
    "geometry.make_initial_s": spans.MAKE_INITIAL,
    **{f"verify.{s}_s": f"verify.{s}" for s in
       ("heat", "duhamel", "conservation", "contraction", "cell", "geometry")},
}
_SPAN_CALLS = {
    "transport.gather_calls": spans.GATHER,
    "transport.steps": spans.STEP,
    "spectral.advance_calls": spans.ADVANCE,
    "duhamel.windows": spans.WINDOW_BUILD,
    "duhamel.sweeps": spans.SWEEP,
    "duhamel.fd_derivative_calls": spans.FD_DERIVATIVE,
    "kernels.circulant_calls": spans.CIRCULANT,
    "cell.solves": spans.CELL_SOLVE,
}
_COUNTERS = {
    "transport.gather_points": "count",
    "transport.gather_flops_computed": "flop",
    "kernels.circulant_bytes_computed": "B",
    "cell.newton_iters": "count",
}
PER_LAYER = {
    **{name: "s" for name in _SPAN_TIMES},
    **{name: "count" for name in _SPAN_CALLS},
    **_COUNTERS,
    "transport.step_self_s": "s",
    "duhamel.sweeps_per_window": "sweeps/window",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it, and its value.

    Nearest rank; ``None`` when there are fewer than twenty samples, so that
    not even the median has ten beyond it.
    """
    n = len(samples)
    fit = [p for p in PERCENTILE_LADDER if n * (100.0 - p) >= 1000.0 - 1e-6]
    if not fit:
        return None
    p = fit[-1]
    return p, sorted(samples)[math.ceil(p * n / 100.0 - 1e-9) - 1]


def layer_metrics(span_list, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job (timings and counts)."""
    summary = spans.summarise(span_list)
    row = lambda name: summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})  # noqa: E731
    out = {metric: row(name)["total_s"] for metric, name in _SPAN_TIMES.items()}
    out.update({metric: float(row(name)["calls"]) for metric, name in _SPAN_CALLS.items()})
    out.update({metric: float(counts.get(metric, 0.0)) for metric in _COUNTERS})
    out["transport.step_self_s"] = row(spans.STEP)["self_s"]
    windows = out["duhamel.windows"]
    out["duhamel.sweeps_per_window"] = out["duhamel.sweeps"] / windows if windows else 0.0
    out["cli.write_s"] = sum(out[m] for m in _SPAN_TIMES if m.startswith("cli.write_"))
    return out


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_job(workload: str, input_path: str, job: Path, trace: bool) -> dict:
    """Launch one job, wait for it, and time it from launch to exit."""
    job.mkdir(parents=True)
    result_path = job / "child_result.json"
    cmd = [sys.executable, str(HERE / "child.py"), workload, input_path, str(result_path)]
    if trace:
        cmd.append("--trace")
    with open(job / "stdout.txt", "wb") as out, open(job / "stderr.txt", "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=job, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.perf_counter()
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        child = json.loads(result_path.read_text())
    except (OSError, ValueError):
        child = {}
    done = child.get("setup_done")
    return {
        "exit_code": proc.returncode,
        "wall_s": exited - launched,
        # both ends read CLOCK_MONOTONIC, which all processes share
        "setup_s": done - launched if done is not None else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "child": child,
        "stdout": (job / "stdout.txt").read_text(errors="replace"),
        "stderr": (job / "stderr.txt").read_text(errors="replace"),
    }


def artifact_totals(job: Path) -> tuple[int, int]:
    files = [p for p in (job / "out").rglob("*") if p.is_file()] if (job / "out").exists() else []
    return len(files), sum(p.stat().st_size for p in files)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(work: Path) -> dict:
    job = work / "provenance"
    info = run_job("provenance", "-", job, trace=False)
    if info["exit_code"] != 0:
        raise RuntimeError(f"cannot import polarflow from {ROOT / 'src'}: "
                           f"{workloads.last_error(info['stderr'])}")
    shutil.rmtree(job)
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        **info["child"]["provenance"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": child_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    prov = provenance(work)
    params = workloads.make_inputs(workload, seed, work)
    name = workloads.input_name(workload)
    input_path = str(work / name) if name != "-" else "-"

    jobs: list[dict] = []
    outcomes: list[workloads.Outcome] = []
    started = time.perf_counter()
    cost: list[float] = []
    while True:
        traced = trace and len(jobs) % 2 == 1
        t0 = time.perf_counter()
        job_dir = work / f"job_{len(jobs):03d}"
        info = run_job(workload, input_path, job_dir, traced)
        info["traced"] = traced
        outcomes.append(workloads.check(workload, job_dir, info["exit_code"], info["stdout"],
                                        info["stderr"], params))
        if traced:
            info["files_written"], info["bytes_written"] = artifact_totals(job_dir)
        shutil.rmtree(job_dir)
        jobs.append(info)
        cost.append(time.perf_counter() - t0)
        if trace and len(jobs) % 2:
            continue  # untraced and traced jobs come in pairs
        upcoming = statistics.median(cost) * (2 if trace else 1)
        if time.perf_counter() - started + upcoming > seconds:
            break
    return {"params": params, "provenance": prov, "jobs": jobs, "outcomes": outcomes}


def end_to_end(jobs: list[dict]) -> dict[str, list[float]]:
    plain = [j for j in jobs if not j["traced"]]
    return {
        "wall_s": [j["wall_s"] for j in plain],
        "setup_s": [j["setup_s"] for j in plain if j["setup_s"] is not None],
        "peak_rss_mb": [j["peak_rss_mb"] for j in plain],
    }


def per_layer(jobs: list[dict]) -> dict[str, float]:
    traced = [j for j in jobs if j["traced"]]
    rows = []
    for j in traced:
        child = j["child"]
        row = layer_metrics(child.get("spans", []), child.get("counts", {}))
        row["cli.files_written"] = float(j["files_written"])
        row["cli.bytes_written"] = float(j["bytes_written"])
        row["setup.import_s"] = float(child.get("import_s", 0.0))
        rows.append(row)
    plain_wall = statistics.median(j["wall_s"] for j in jobs if not j["traced"])
    traced_wall = statistics.median(j["wall_s"] for j in traced)
    metrics = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


def share_table(jobs: list[dict]) -> list[str]:
    """Inclusive and self time per span name, as a share of the traced wall time."""
    traced = [j for j in jobs if j["traced"]]
    last = traced[-1]
    summary = spans.summarise(last["child"].get("spans", []))
    wall = last["wall_s"]
    lines = [f"traced job: wall {wall:.3f} s; span totals (share of wall):"]
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["total_s"]):
        lines.append(f"  {name:<26} calls {row['calls']:>7}  total {row['total_s']:9.4f} s "
                     f"({100 * row['total_s'] / wall:5.1f}%)  self {row['self_s']:9.4f} s "
                     f"({100 * row['self_s'] / wall:5.1f}%)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polarflow" / "__init__.py").is_file():
        print(f"error: no polarflow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # the seed stays out of every path a job sees
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there

    jobs, outcomes = result["jobs"], result["outcomes"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, one at a time "
          f"(closed loop, 1 client), trace={args.trace}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print("inputs: " + json.dumps(result["params"], sort_keys=True))
    for i, o in enumerate(outcomes):
        for note in o.notes:
            print(f"job {i}: failed operation: {note}")
    print(f"operations: {attempted} attempted, {failed} failed ({100.0 * failed / attempted:.1f}%)")

    if args.trace:
        metrics = per_layer(jobs)
        units = PER_LAYER
        for line in share_table(jobs):
            print(line)
    else:
        samples = end_to_end(jobs)
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = samples[name]
            if not vals:
                print(f"error: no {name} samples", file=sys.stderr)
                return 1
            metrics[name] = statistics.median(vals)
            hp = high_percentile(vals)
            tail = (f"p{hp[0]:g} {hp[1]:.6g} {unit}" if hp else
                    "no percentile has 10 samples beyond it")
            print(f"{name}: median {metrics[name]:.6g} {unit}, {tail} (n={len(vals)}; "
                  + " ".join(f"{v:.4g}" for v in vals) + ")")
        units = END_TO_END

    line = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
