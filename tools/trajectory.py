"""Record a fixed set of training and prediction results, or compare two records.

    python tools/trajectory.py OUT.npz [REF.npz]

Runs the set-ups of the benchmark workloads at seed 7 with one BLAS thread
and writes, to OUT.npz:

- train-hybrid-16x4 and train-energy-16x4, after one 50-iteration train()
  call: every array the optimizer updates (`adam_arrays()`), the q(y) means
  and variances, the Gamma posteriors, and the logged F, F_u, F_l and F_O;
- predict-16x4: the samples of one predictive_posterior call;
- uq-64x8: the surrogate QoI of one propagate_uq call.

Given REF.npz, it prints the max abs/rel difference of every array that is
not bit-identical to the reference's, and exits with status 1 unless every
array is bit-identical and both files hold the same arrays.

The program is imported from the `src/` next to this file and the workloads
from `bench/workloads.py`, which is only read. To record another commit,
run a copy of this file from a checkout of that commit.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def record() -> dict:
    import numpy as np

    from cgsur import inference
    from workloads import WORKLOADS

    out = {}
    for name in ("train-hybrid-16x4", "train-energy-16x4"):
        ctx = WORKLOADS[name].setup(SEED)
        state, log = inference.train(
            ctx.state.model, ctx.cfg, ctx.labeled, ctx.unlabeled, ctx.virtual, state=ctx.state
        )
        for key, arr in state.adam_arrays().items():
            out[f"{name}/{key}"] = arr
        out[f"{name}/qy_mean"] = np.array([q.mean for q in state.qy])
        out[f"{name}/qy_var"] = np.array([q.var_diag() for q in state.qy])
        for key, post in state.gamma_posteriors.items():
            out[f"{name}/gamma_{key}"] = np.array([post.alpha, post.beta])
        for col in ("F", "F_u", "F_l", "F_O"):
            out[f"{name}/log_{col}"] = log.column(col)

    for name, key in (("predict-16x4", "samples"), ("uq-64x8", "surrogate")):
        workload = WORKLOADS[name]
        ctx = workload.setup(SEED)
        result = workload.op(ctx, workload.prepare(ctx), None)
        out[f"{name}/{key}"] = result.samples if key == "samples" else result[key]
    return out


def compare(new: dict, ref: dict) -> bool:
    import numpy as np

    keys = sorted(new.keys() | ref.keys())
    identical = 0
    for key in keys:
        if key not in ref or key not in new:
            print(f"{key}: only in {'OUT' if key in new else 'REF'}")
            continue
        a, b = new[key], ref[key]
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            identical += 1
            continue
        if a.shape != b.shape:
            print(f"{key}: shape {a.shape} against {b.shape}")
            continue
        diff = np.abs(a - b)
        rel = diff / np.maximum(np.abs(b), np.finfo(float).tiny)
        print(f"{key}: max abs diff {diff.max():.3e}, max rel diff {rel.max():.3e}")
    print(f"{identical} of {len(keys)} arrays bit-identical")
    return identical == len(keys)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    # Must precede the first import of numpy: results depend on the BLAS
    # thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

    import warnings

    import numpy as np

    # infer_z warns when its ascent is still improving at the step budget,
    # as it is for a decoder trained for a few iterations.
    warnings.filterwarnings("ignore", category=RuntimeWarning, module="cgsur.predict")
    arrays = record()
    np.savez(argv[0], **arrays)
    print(f"wrote {len(arrays)} arrays to {argv[0]}")
    if len(argv) == 1:
        return 0
    with np.load(argv[1]) as ref:
        return 0 if compare(arrays, dict(ref)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
