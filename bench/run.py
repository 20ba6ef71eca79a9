"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-hybrid-16x4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics from a traced run with --trace 1. The lines before it
say the same for a reader. Full results, and with --trace 1 every span, are
written under `bench/results/`.

BLAS runs on one thread. On a 2-core host, numpy's default of two OpenBLAS
threads made train-hybrid at d_f = 32 slower (87-110 against 72-91
ms/iteration) while using about twice the CPU; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy bundle."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    # Must precede the first import of numpy in this process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import warnings

    import cgsur

    # Measure the checkout's program, never an installed copy of it.
    if not Path(cgsur.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cgsur imported from {cgsur.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    if opts.workload not in WORKLOADS:
        parser.error(f"unknown workload {opts.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[opts.workload]
    # infer_z warns when its 400-step ascent is still improving; that is
    # expected for a decoder trained for a few iterations and says nothing
    # about correctness.
    warnings.filterwarnings("ignore", category=RuntimeWarning, module="cgsur.predict")

    threads = _blas_threads()
    if any(n != BLAS_THREADS for n in threads.values()):
        print(f"BLAS thread count is {threads}, expected {BLAS_THREADS}", file=sys.stderr)
        return 2

    tracer = None
    if opts.trace:
        tracer = Tracer()
        harness.install(tracer, workload)
    try:
        raw = harness.measure(workload, opts.seed, opts.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    if not raw["op_s"]:
        print(f"all {raw['attempted']} operations failed", file=sys.stderr)
        return 1

    n_ops = len(raw["op_s"])
    if tracer is None:
        metrics = harness.end_to_end(raw)
    else:
        table = harness.layer_table(tracer, n_ops * workload.units)
        setup = harness.setup_table(tracer, workload)
        metrics = harness.per_layer(raw, table, setup, workload)

    print(f"workload {workload.name}  seed {opts.seed}  BLAS threads {threads}")
    print(f"{n_ops} operations of {workload.units} unit(s) each; {raw['failed']} failed")
    # op_ms is made of the median of each sample stream; a tail is given
    # only where at least ten samples lie beyond it.
    tails = {}
    for name, values in raw["samples"].items():
        tails[name] = harness.tail_ms(values)
        line = f"  {name}: {len(values)} samples, median {1e3 * statistics.median(values):.6f} ms"
        if tails[name] is not None:
            line += f", p{tails[name][0]} {tails[name][1]:.6f} ms"
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    if tracer is not None:
        print("every span, per operation (self ms, calls):")
        for name, row in table.items():
            print(f"  {name:40s} {row['self_ms']:14.6f} {row['calls']:12.4f}")
        print("every span, per set-up (median wall ms, calls):")
        for name, row in setup.items():
            print(f"  {name:40s} {row['ms']:14.6f} {row['calls']:12.4f}")
    for message in raw["failures"]:
        print(f"CHECK FAILED: {message}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "blas_threads": threads,
        "units_per_op": workload.units,
        "sample_tails_ms": tails,
        **raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["layers_per_op"] = table
        record["layers_per_setup"] = setup
        tracer.write(RESULTS / f"{workload.name}.spans.json")
    (RESULTS / f"{workload.name}.trace{opts.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(
        json.dumps(
            {
                "correct": not raw["failures"],
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
