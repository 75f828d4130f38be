"""The kernel benchmark stays runnable: it imports, and its bitwise cases agree."""

import importlib.util
from pathlib import Path

BENCH_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_bitwise_cases_run():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH_KERNELS)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.bitwise_cases(1)  # asserts each fast path equals its reference bitwise
