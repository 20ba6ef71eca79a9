"""Score labeled-only against semi-supervised training, and gate on the result.

    python tools/quality.py OUT.json [REF.json]

The protocol, with one BLAS thread:

- data seeds 1, 2 and 3 each draw the train-hybrid-16x4 set-up (8 labeled,
  32 unlabeled and 8 hybrid queries with m2 = 60) from
  `workloads.rng_for(seed, "gate", "data")`, and 16 fine-solved validation
  pairs per boundary scenario, UNIFORM (in distribution) and D, from a
  generator of their own; the model seed is 11;
- each set-up trains twice per training seed (`TrainConfig.seed` 7 and 8),
  for 1500 iterations with the plateau stop off: once on the labeled data
  only, once on labeled, unlabeled and virtual data;
- every model is scored by the R^2 and log-score of `predictive_posterior`
  (k = 64, a generator of its own per input) over each validation set,
  recording the `infer_z` step budget and how many inputs it warned on as
  not converged.

Writes every score to OUT.json and prints them as a table. The gate passes
when, in distribution, semi-supervised beats labeled-only in both R^2 and
log-score for every data seed and training seed, and, given REF.json (the
OUT.json of another commit), no in-distribution semi-supervised R^2 moved
from the reference's by more than R2_BOUND. Scenario D is reported, not
gated. Exits with status 1 unless the gate passes.

The program is imported from the `src/` next to this file and the set-up
helpers from `bench/workloads.py`, which is only read. To score another
commit, run a copy of this file from a checkout of that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA_SEEDS = (1, 2, 3)
TRAIN_SEEDS = (7, 8)
MODEL_SEED = 11
ITERATIONS = 1500
N_VALID = 16
K = 64
# the spread of in-distribution semi-supervised R^2 between training seeds 7
# and 8 was up to 0.019 when this gate was set
R2_BOUND = 0.02
MODELS = ("labeled", "semi")
SCENARIOS = ("uniform", "D")


def _setup(seed: int, n_valid: int):
    """Training data and validation sets of one data seed."""
    import numpy as np

    import workloads
    from cgsur import fem, field, inference, vobs
    from cgsur.field import BcScenario, GrfSampler, GrfSpec

    rng = workloads.rng_for(seed, "gate", "data")
    fine, coarse = fem.build_mesh(16), fem.build_mesh(4)
    sampler = GrfSampler(GrfSpec(grid_size=fine.d))
    labeled = workloads._labeled(sampler, fine, rng, workloads.N_LABELED)
    unlabeled = inference.UnlabeledData(workloads._draws(sampler, rng, workloads.N_UNLABELED))
    vlams, vbcs, observables = [], [], []
    for _ in range(workloads.N_VIRTUAL):
        s = sampler.sample(rng)
        bc = field.sample_bc(rng)
        vlams.append(s.lambda_vec)
        vbcs.append(bc.as_array())
        observables.append(
            vobs.build_hybrid(fine, coarse, s.kappa_vec, bc, rng, m2=workloads.M2_RANDOMIZED)
        )
    virtual = inference.VirtualData(np.array(vlams), np.array(vbcs), observables)

    rng = workloads.rng_for(seed, "gate", "validation")
    valid = {}
    for scenario in SCENARIOS:
        rows = []
        for _ in range(n_valid):
            s = sampler.sample(rng)
            bc = field.sample_bc(rng, BcScenario(scenario))
            rows.append((s.lambda_vec, bc, fem.solve(fem.assemble(fine, s.kappa_vec, bc)).y_vec))
        valid[scenario] = rows
    return labeled, unlabeled, virtual, valid


def _score(state, rows, seed: int, scenario: str, k: int) -> dict:
    import warnings

    import numpy as np

    import workloads
    from cgsur import predict

    means, variances = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", message="infer_z", category=RuntimeWarning)
        for i, (x, bc, _) in enumerate(rows):
            rng = workloads.rng_for(seed, "gate", "predict", scenario, str(i))
            ps = predict.predictive_posterior(x, bc, state, k=k, rng=rng)
            means.append(ps.mean)
            variances.append(ps.var)
    ys = np.array([y for _, _, y in rows])
    return {
        "r2": predict.r2_score(ys, np.array(means)),
        "logscore": predict.logscore(ys, np.array(means), np.array(variances)),
        "inputs": len(rows),
        "infer_z_warnings": sum(str(w.message).startswith("infer_z") for w in caught),
    }


def run(
    data_seeds=DATA_SEEDS,
    train_seeds=TRAIN_SEEDS,
    iterations: int = ITERATIONS,
    n_valid: int = N_VALID,
    k: int = K,
) -> dict:
    """Train and score every (data seed, training seed, model); returns the record."""
    import inspect
    from time import perf_counter

    from cgsur import inference, predict
    from cgsur.genmodel import GenerativeModel

    runs = []
    for data_seed in data_seeds:
        labeled, unlabeled, virtual, valid = _setup(data_seed, n_valid)
        for train_seed in train_seeds:
            cfg = inference.TrainConfig(
                iterations=iterations, plateau_window=iterations + 1, seed=train_seed
            )
            for model_kind in MODELS:
                data = (labeled,) if model_kind == "labeled" else (labeled, unlabeled, virtual)
                t0 = perf_counter()
                state, _ = inference.train(GenerativeModel(16, 4, seed=MODEL_SEED), cfg, *data)
                train_s = perf_counter() - t0
                for scenario in SCENARIOS:
                    runs.append({
                        "data_seed": data_seed,
                        "train_seed": train_seed,
                        "model": model_kind,
                        "scenario": scenario,
                        **_score(state, valid[scenario], data_seed, scenario, k),
                        "train_s": train_s,
                    })
    protocol = {
        "data_seeds": list(data_seeds),
        "train_seeds": list(train_seeds),
        "model_seed": MODEL_SEED,
        "iterations": iterations,
        "n_valid": n_valid,
        "k": k,
        "infer_z_steps": inspect.signature(predict.infer_z).parameters["steps"].default,
    }
    return {"protocol": protocol, "runs": runs}


def _by_key(record: dict) -> dict:
    return {
        (r["data_seed"], r["train_seed"], r["model"], r["scenario"]): r
        for r in record["runs"]
    }


def gate(record: dict, ref: dict | None = None) -> list[str]:
    """Every reason the gate fails; an empty list passes."""
    runs, failures = _by_key(record), []
    ref_runs = _by_key(ref) if ref is not None else None
    for (data_seed, train_seed, model_kind, scenario), semi in sorted(runs.items()):
        if model_kind != "semi" or scenario != "uniform":
            continue
        where = f"data seed {data_seed}, training seed {train_seed}"
        lab = runs[data_seed, train_seed, "labeled", scenario]
        for metric in ("r2", "logscore"):
            if not semi[metric] > lab[metric]:
                failures.append(
                    f"{where}: semi-supervised {metric} {semi[metric]:.4f} does not beat "
                    f"labeled-only {lab[metric]:.4f}"
                )
        if ref_runs is not None:
            old = ref_runs.get((data_seed, train_seed, model_kind, scenario))
            if old is None:
                failures.append(f"{where}: no semi-supervised score in the reference")
            elif abs(semi["r2"] - old["r2"]) > R2_BOUND:
                failures.append(
                    f"{where}: semi-supervised R^2 moved {semi['r2'] - old['r2']:+.4f} "
                    f"from the reference's {old['r2']:.4f} (bound {R2_BOUND})"
                )
    return failures


def table(record: dict) -> str:
    """One line per (scenario, training seed, data seed): both models side by side."""
    runs = _by_key(record)
    lines = [
        "scenario  train  data  R2 lab -> semi     log-score lab -> semi   "
        "infer_z warnings lab, semi (of inputs)"
    ]
    for scenario in SCENARIOS:
        for train_seed in record["protocol"]["train_seeds"]:
            for data_seed in record["protocol"]["data_seeds"]:
                lab, semi = (runs[data_seed, train_seed, m, scenario] for m in MODELS)
                lines.append(
                    f"{scenario:8}  {train_seed:5}  {data_seed:4}  "
                    f"{lab['r2']:.3f} -> {semi['r2']:.3f}     "
                    f"{lab['logscore']:8.1f} -> {semi['logscore']:8.1f}   "
                    f"{lab['infer_z_warnings']}, {semi['infer_z_warnings']} (of {lab['inputs']})"
                )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(usage=__doc__.splitlines()[2].strip())
    parser.add_argument("out")
    parser.add_argument("ref", nargs="?")
    opts = parser.parse_args(argv)
    # Must precede the first import of numpy: results depend on the BLAS
    # thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

    record = run()
    Path(opts.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"infer_z budget {record['protocol']['infer_z_steps']} steps")
    print(table(record))
    ref = json.loads(Path(opts.ref).read_text()) if opts.ref else None
    failures = gate(record, ref)
    for line in failures:
        print(f"FAIL {line}")
    print("gate " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
