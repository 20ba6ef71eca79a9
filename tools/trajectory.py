"""Record a fixed set of training and prediction results, or compare two records.

    python tools/trajectory.py OUT.npz [REF.npz [--rtol R]]

Runs the set-ups of the benchmark workloads at seed 7 with one BLAS thread
and writes, to OUT.npz:

- train-hybrid-16x4 and train-energy-16x4, after one 50-iteration train()
  call: every array the optimizer updates (`adam_arrays()`), the q(y) means
  and variances, the Gamma posteriors, and the logged F, F_u, F_l and F_O;
- train-hybrid-16x4/batch8: the same for train-hybrid-16x4 trained with
  unlabeled_batch = 8, so the unlabeled factors outside each minibatch are
  frozen; the workload's 32 unlabeled data fit in the default batch;
- predict-16x4: the samples of one predictive_posterior call, and the
  mean and variance of q(z) from infer_z at the workload's input, so the
  ascent is certified apart from the sampling that follows it;
- uq-64x8: the surrogate QoI of one propagate_uq call, and the reference
  QoI of its fine Monte Carlo run.

Given REF.npz, it prints the max abs/rel difference of every array that is
not bit-identical to the reference's, and exits with status 1 unless both
files hold the same arrays and every array is bit-identical. With --rtol R
an array also passes when its max abs difference is at most R times the max
abs of the reference array: a change that only reorders floating-point sums
passes at R = 1e-10, where a changed result does not.

The program is imported from the `src/` next to this file and the workloads
from `bench/workloads.py`, which is only read. To record another commit,
run a copy of this file from a checkout of that commit.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def record() -> dict:
    import dataclasses

    import numpy as np

    from cgsur import inference, predict
    from workloads import WORKLOADS

    out = {}
    for name, workload, batch in (
        ("train-hybrid-16x4", "train-hybrid-16x4", None),
        ("train-energy-16x4", "train-energy-16x4", None),
        ("train-hybrid-16x4/batch8", "train-hybrid-16x4", 8),
    ):
        ctx = WORKLOADS[workload].setup(SEED)
        cfg = ctx.cfg if batch is None else dataclasses.replace(ctx.cfg, unlabeled_batch=batch)
        state, log = inference.train(
            ctx.state.model, cfg, ctx.labeled, ctx.unlabeled, ctx.virtual, state=ctx.state
        )
        for key, arr in state.adam_arrays().items():
            out[f"{name}/{key}"] = arr
        out[f"{name}/qy_mean"] = np.array([q.mean for q in state.qy])
        out[f"{name}/qy_var"] = np.array([q.var_diag() for q in state.qy])
        for key, post in state.gamma_posteriors.items():
            out[f"{name}/gamma_{key}"] = np.array([post.alpha, post.beta])
        for col in ("F", "F_u", "F_l", "F_O"):
            out[f"{name}/log_{col}"] = log.column(col)

    workload = WORKLOADS["predict-16x4"]
    ctx = workload.setup(SEED)
    out["predict-16x4/samples"] = workload.op(ctx, workload.prepare(ctx), None).samples
    qz = predict.infer_z(ctx.x, ctx.state)
    out["predict-16x4/qz_mean"] = qz.mean
    out["predict-16x4/qz_var"] = qz.var

    workload = WORKLOADS["uq-64x8"]
    ctx = workload.setup(SEED)
    result = workload.op(ctx, workload.prepare(ctx), None)
    out["uq-64x8/surrogate"] = result["surrogate"]
    out["uq-64x8/reference"] = result["reference"]
    return out


def compare(new: dict, ref: dict, rtol: float = 0.0) -> bool:
    import numpy as np

    keys = sorted(new.keys() | ref.keys())
    identical = within = 0
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
        # without a tolerance only byte-equal arrays pass, so -0.0 fails 0.0
        close = rtol > 0 and bool(diff.max() <= rtol * np.abs(b).max())
        within += close
        print(
            f"{key}: max abs diff {diff.max():.3e}, max rel diff {rel.max():.3e}"
            + (f", within rtol {rtol:g}" if close else "")
        )
    print(f"{identical} of {len(keys)} arrays bit-identical")
    if rtol:
        print(f"{within} more within rtol {rtol:g}")
    return identical + within == len(keys)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(usage=__doc__.splitlines()[2].strip())
    parser.add_argument("out")
    parser.add_argument("ref", nargs="?")
    parser.add_argument("--rtol", type=float, default=0.0)
    opts = parser.parse_args(argv)
    if not opts.rtol >= 0.0:
        parser.error(f"--rtol must be >= 0, got {opts.rtol}")
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
    np.savez(opts.out, **arrays)
    print(f"wrote {len(arrays)} arrays to {opts.out}")
    if opts.ref is None:
        return 0
    with np.load(opts.ref) as ref:
        return 0 if compare(arrays, dict(ref), opts.rtol) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
