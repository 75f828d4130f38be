"""Tests of the benchmark's own logic; none of them runs a polarflow job.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# percentile and sample-count rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_high_percentile_needs_ten_samples_beyond(n, expected):
    samples = [float(v) for v in np.random.default_rng(n).permutation(n)]
    got = run.high_percentile(samples)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(s > value for s in samples) >= 10  # ten samples beyond it
    assert value == sorted(samples)[int(np.ceil(p * n / 100)) - 1]  # nearest rank


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    span_list = [
        ["outer", 0.0, 10.0, -1],
        ["mid", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["mid", 5.0, 6.0, 0],
    ]
    assert spans.self_times(span_list) == [6.0, 2.0, 1.0, 1.0]
    summary = spans.summarise(span_list)
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["mid"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_same_name_nesting_is_counted_once_in_the_total():
    span_list = [["x", 0.0, 10.0, -1], ["x", 2.0, 5.0, 0]]
    summary = spans.summarise(span_list)
    assert summary["x"]["total_s"] == 10.0
    assert summary["x"]["self_s"] == 10.0
    assert summary["x"]["calls"] == 2


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    def count(counts, args, result):
        counts["leaf.args"] += args[0]

    leaf_w = tracer.wrap("leaf", leaf, count)
    outer_w = tracer.wrap("outer", lambda: leaf_w(1) + leaf_w(2))
    assert outer_w() == 5
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("leaf", 0), ("leaf", 0)]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]  # outer 0..5, leaves 1..2, 3..4
    assert tracer.counts["leaf.args"] == 3


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    (name, start, end, parent), = tracer.spans
    assert end >= start and parent == -1
    assert tracer._open == []


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------


def test_metric_names_match_the_pattern_and_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    names = list(e2e) + list(layer) + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("bad", ["", "has space", "a/b", "_lead", "x" * 65, "wall_s!"])
def test_metric_name_pattern_rejects(bad):
    assert not METRIC_NAME.fullmatch(bad)


def test_layer_metrics_cover_every_traced_name():
    added_by_parent = {"cli.files_written", "cli.bytes_written", "setup.import_s",
                       "trace.overhead_s"}
    got = run.layer_metrics([["transport.step", 0.0, 2.0, -1], ["transport.gather", 0.5, 1.5, 0]],
                            {"transport.gather_points": 7})
    assert set(got) | added_by_parent == set(run.PER_LAYER)
    assert got["transport.step_self_s"] == 1.0
    assert got["transport.gather_s"] == 1.0
    assert got["transport.gather_points"] == 7.0
    assert got["duhamel.sweeps_per_window"] == 0.0


# ---------------------------------------------------------------------------
# failed operations
# ---------------------------------------------------------------------------

SMALL = {**workloads.CURVE, "N": 8, "t_end": 2 * workloads.CURVE["dt"]}  # 3 records


def _write_curve_artifacts(job: Path, mean_drift: float = 0.0) -> None:
    art = job / "out"
    (art / "frames").mkdir(parents=True)
    rows = [f"{k * SMALL['dt']!r},{1.5 + (mean_drift if k == 2 else 0.0)!r},2.0,1.0,1.5,0.5"
            for k in range(3)]
    (art / "diagnostics.csv").write_text("# h\nt,mean,sup,min,l1,sphere_dev\n"
                                         + "\n".join(rows) + "\n")
    theta = np.arange(8) / 8
    snap = [f"{t},1.5,{np.cos(2 * np.pi * t)},{np.sin(2 * np.pi * t)},0.0,0.0"
            for t in theta.tolist()]
    (art / "snapshot_final.csv").write_text("# h\ntheta0,r,p0,p1,x0,x1\n" + "\n".join(snap) + "\n")
    (art / "trajectory.csv").write_text("# h\nt,theta0,r\n" + "0.0,0.0,1.0\n" * 24)
    for k in range(3):
        (art / "frames" / f"frame_{k:05d}.svg").write_text("<svg/>\n")


def test_clean_evolve_job_passes(tmp_path):
    _write_curve_artifacts(tmp_path)
    out = workloads.check("curve", tmp_path, 0, "wrote artifacts\n", "", SMALL)
    assert (out.attempted, out.failed, out.wrong) == (1, 0, False), out.notes


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    _write_curve_artifacts(tmp_path)
    out = workloads.check("curve", tmp_path, 1, "", "Traceback\nSolverError: boom\n", SMALL)
    assert (out.attempted, out.failed, out.wrong) == (1, 1, False)
    assert "SolverError: boom" in out.notes[0]


def test_failed_check_is_a_failed_operation_and_a_wrong_result(tmp_path):
    _write_curve_artifacts(tmp_path, mean_drift=1e-9)
    out = workloads.check("curve", tmp_path, 0, "", "", SMALL)
    assert (out.attempted, out.failed, out.wrong) == (1, 1, True)
    assert "mean drift" in out.notes[0]


def test_flag_line_fails_the_job(tmp_path):
    _write_curve_artifacts(tmp_path)
    out = workloads.check("curve", tmp_path, 0, "flag: positivity loss at t=1\n", "", SMALL)
    assert out.failed == 1 and out.wrong


def test_oracle_disagreement_fails(tmp_path):
    np.savez(tmp_path / "oracle_out.npz", picard=np.ones(4), spectral=np.ones(4) + 1e-3)
    out = workloads.check("oracle", tmp_path, 0, "", "", workloads.ORACLE)
    assert (out.failed, out.wrong) == (1, True)


def _verify_stdout(marks):
    return "".join(f"check.{i:02d}  {m}  1.0e-20 <= 1.0e-10\n" for i, m in enumerate(marks))


def test_verify_summary_crash_fails_one_of_34(tmp_path):
    stdout = _verify_stdout(["PASS"] * 33) + "33/33 checks passed\n"
    stderr = "Traceback\nTypeError: Object of type bool is not JSON serializable\n"
    out = workloads.check("verify", tmp_path, 1, stdout, stderr, workloads.VERIFY)
    assert (out.attempted, out.failed, out.wrong) == (34, 1, False)
    assert "TypeError" in out.notes[0]


def test_verify_crash_midway_fails_the_missing_checks_too(tmp_path):
    out = workloads.check("verify", tmp_path, 1, _verify_stdout(["PASS"] * 10),
                          "SolverError: x\n", workloads.VERIFY)
    assert (out.attempted, out.failed) == (34, 24)


def _write_summary(job: Path, marks):
    (job / "out").mkdir()
    checks = [{"name": f"check.{i:02d}", "passed": m == "PASS", "detail": ""}
              for i, m in enumerate(marks)]
    (job / "out" / "verify_all.json").write_text(json.dumps({"checks": checks}))


def test_verify_failed_check_counts_once_and_is_wrong(tmp_path):
    marks = ["PASS"] * 32 + ["FAIL"]
    _write_summary(tmp_path, marks)
    out = workloads.check("verify", tmp_path, 3, _verify_stdout(marks), "", workloads.VERIFY)
    assert (out.attempted, out.failed, out.wrong) == (34, 1, True)


def test_verify_clean_run_passes(tmp_path):
    marks = ["PASS"] * 33
    _write_summary(tmp_path, marks)
    out = workloads.check("verify", tmp_path, 0, _verify_stdout(marks), "", workloads.VERIFY)
    assert (out.attempted, out.failed, out.wrong) == (34, 0, False)


# ---------------------------------------------------------------------------
# the seed reaches the generated inputs, and only them
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["curve", "surface", "oracle"])
def test_seed_determines_the_inputs(tmp_path, name):
    def made(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.make_inputs(name, seed, d)
        return (d / workloads.input_name(name)).read_bytes()

    first = made(5, "a")
    assert first == made(5, "b")
    assert first != made(6, "c")


@pytest.mark.parametrize("name", ["curve", "surface"])
def test_seed_changes_only_the_initial_parameters(tmp_path, name):
    texts = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        d.mkdir()
        workloads.make_inputs(name, seed, d)
        texts.append((d / "run.cfg").read_text().splitlines())
    changed = [a.split("=")[0].strip() for a, b in zip(*texts) if a != b]
    assert changed == ["initial.params"]


def test_oracle_input_has_the_fixed_sup_bound(tmp_path):
    for seed in range(5):
        workloads.make_inputs("oracle", seed, tmp_path)
        r0 = np.load(tmp_path / "oracle_input.npz")["r0"]
        assert r0.max() == pytest.approx(1.0 + workloads.ORACLE["sup_amplitude"], abs=1e-15)
        assert r0.min() > 0.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_jobs_receive_no_seed(tmp_path, monkeypatch, name):
    calls = []

    def fake_run_job(workload, input_path, job, trace):
        job.mkdir(parents=True)
        data = Path(input_path).read_bytes() if input_path != "-" else b""
        calls.append(((workload, input_path, job.name, trace), data))
        return {"exit_code": 1, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 1.0,
                "child": {}, "stdout": "", "stderr": ""}

    monkeypatch.setattr(run, "run_job", fake_run_job)
    monkeypatch.setattr(run, "provenance", lambda work: {})
    for seed in (1, 2):
        work = tmp_path / "work"
        work.mkdir()
        run.measure(name, seed, 0.0, False, work)
        shutil.rmtree(work)
    (args1, data1), (args2, data2) = calls
    assert args1 == args2
    assert (data1 != data2) == (name != "verify")


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "curve", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
