"""The benchmarks stay runnable.

The kernel benchmark imports, its bitwise cases agree and its step rows run;
the benchmark harness's provenance job runs on this tree; the mutation table
matches the code it edits.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarflow

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    """The script ``benchmarks/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load("bench_kernels")


def test_bench_kernels_bitwise_cases_run(bench):
    bench.bitwise_cases(1)  # asserts each fast path equals its reference bitwise


def test_bench_kernels_step_rows_run(bench):
    bench.step_rows(1)


def test_perfbench_provenance_job_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "provenance", "-",
                           str(tmp_path / "r.json")], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    provenance = json.loads((tmp_path / "r.json").read_text())["provenance"]
    assert provenance["kernel_path"] == "numpy"
    assert provenance["public_api_size"] == len(polarflow.__all__)


def test_mutant_table_matches_the_tree():
    # runs no mutant: each entry's old text occurs once and its test files exist
    mutants = load("mutants").MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.old != m.new and m.tests, m.name
        assert (ROOT / m.file).read_text().count(m.old) == 1, f"{m.name} is stale"
        assert all((ROOT / t).is_file() for t in m.tests), m.name
