"""The kernel benchmark stays runnable: it imports, its bitwise cases agree, and its step rows run."""

import importlib.util
from pathlib import Path

import pytest

BENCH_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH_KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_bitwise_cases_run(bench):
    bench.bitwise_cases(1)  # asserts each fast path equals its reference bitwise


def test_bench_kernels_step_rows_run(bench):
    bench.step_rows(1)
