"""One benchmark job, run in its own process.

    python3 child.py WORKLOAD INPUT RESULT [--trace]
    python3 child.py provenance - RESULT

The working directory receives the job's artifacts.  ``evolve`` and
``verify`` jobs call ``polarflow.cli.main`` exactly as the ``polarflow``
console script does; the ``oracle`` job runs ``picard_extend`` and its
``evolve`` cross-check.  The job writes RESULT (JSON) before it exits, even
when the program raises: the time its inputs were ready, the import time,
and with ``--trace`` the recorded spans and counters.  An exception from
the program is re-raised, so the exit code and traceback are those a user
would see.  The ``provenance`` form records the versions and kernel path
instead; run before the timed jobs, it also compiles the bytecode they load.
"""

from __future__ import annotations

import json
import sys
import time


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if there is one."""
    import ctypes
    from pathlib import Path

    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _provenance() -> dict:
    import numpy as np
    import polarflow
    from polarflow import _accel

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "kernel_path": "numba" if _accel.USE_NUMBA else "numpy",
        "public_api_size": len(polarflow.__all__),
    }


def _run_oracle(input_path: str, stamp) -> int:
    import numpy as np
    from polarflow import SolveConfig, burgers_flux, evolve, make_field, make_grid, picard_extend

    data = np.load(input_path)
    r0 = make_field(make_grid(1, [1.0], [data["r0"].shape[0]]), data["r0"])
    t_end = float(data["t_end"])
    stamp()
    spec = burgers_flux(1)
    oracle = picard_extend(r0, spec, t_end)
    ref = evolve(r0, spec, SolveConfig(dt=t_end / int(data["ref_steps"]), t_end=t_end,
                                       record_every=1 << 30))
    np.savez("oracle_out.npz", picard=oracle.values, spectral=ref.final.values)
    return 0


def main() -> int:
    workload, input_path, result_path = sys.argv[1:4]
    trace = "--trace" in sys.argv[4:]
    result: dict = {"setup_done": None}

    def stamp():
        if result["setup_done"] is None:
            result["setup_done"] = time.perf_counter()

    tracer = None
    try:
        t0 = time.perf_counter()
        import polarflow  # noqa: F401
        import polarflow.cli as cli

        result["import_s"] = time.perf_counter() - t0
        if workload == "provenance":
            result["provenance"] = _provenance()
            return 0
        if trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)

        if workload == "oracle":
            return _run_oracle(input_path, stamp)
        if workload == "verify":
            run_suite = cli.run_suite

            def stamped_suite(*args, **kwargs):
                stamp()
                return run_suite(*args, **kwargs)

            cli.run_suite = stamped_suite
            return cli.main(["verify", "all", "--out", "out"])

        make_initial = cli.make_initial

        def stamped_initial(*args, **kwargs):
            out = make_initial(*args, **kwargs)
            stamp()
            return out

        cli.make_initial = stamped_initial
        return cli.main(["evolve", input_path])
    finally:
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
        with open(result_path, "w") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
