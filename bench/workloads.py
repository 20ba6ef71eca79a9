"""The four benchmark workloads: set-up, one timed operation, and its checks.

Every input is generated here from the --seed argument; the program only
receives the generated arrays. Each operation replays the same work from the
same starting state (a fresh copy of the initial training state, a generator
re-seeded to the same value), so the spread between operations of one run
comes from the machine, not from the workload.
"""

from __future__ import annotations

import copy
import zlib
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checks
from cgsur import fem, field, inference, predict, vobs
from cgsur.field import GrfSampler, GrfSpec
from cgsur.genmodel import GenerativeModel

N_LABELED = 8
N_UNLABELED = 32
N_VIRTUAL = 8
M2_RANDOMIZED = 60
# One train() call runs one period of the trainer's default q(y) refresh
# cadence: 50 iterations and the refresh after the 50th. The refresh that
# train() makes at the start of every call is left out of the timed region.
# Each iteration and the in-loop refresh are timed apart, and op_ms is the
# median iteration plus the median refresh / cadence: per iteration, the
# refresh weighs as in a default run.
TRAIN_ITERATIONS = inference.TrainConfig().cadence
PREDICT_TRAIN_ITERATIONS = 20  # training in predict-16x4's set-up
PREDICT_K = 256  # predictive_posterior's default sample count
PREDICT_REFERENCE_DRAWS = 1024
ELBO_CHECK_DRAWS = 256
UQ_INPUTS = 32  # inputs per timed propagate_uq call; op_ms is the time per input
UQ_ENCODER_DATA = 8


def rng_for(seed: int, *labels: str) -> np.random.Generator:
    """A generator for one purpose, derived from the run seed and a label path."""
    words = [seed % 2**64] + [zlib.crc32(s.encode()) for s in labels]
    return np.random.default_rng(words)


def seed_for(seed: int, *labels: str) -> int:
    return int(rng_for(seed, *labels).integers(2**31))


def _draws(sampler, rng, n):
    return np.array([sampler.sample(rng).lambda_vec for _ in range(n)])


class _RecordingSampler:
    """Passes GRF draws through and keeps them for the moment check."""

    def __init__(self, sampler):
        self._sampler = sampler
        self.draws = []

    def sample(self, rng):
        s = self._sampler.sample(rng)
        self.draws.append(s.lambda_vec)
        return s


def _labeled(sampler, mesh, rng, n):
    """n fields with boundary data and their fine-grid labels."""
    lams, ys, bcs = [], [], []
    for _ in range(n):
        s = sampler.sample(rng)
        bc = field.sample_bc(rng)
        ys.append(fem.solve(fem.assemble(mesh, s.kappa_vec, bc)).y_vec)
        lams.append(s.lambda_vec)
        bcs.append(bc.as_array())
    return inference.LabeledData(np.array(lams), np.array(ys), np.array(bcs))


class Train:
    """One default-cadence period of train(), from a copy of one state.

    Both training workloads run at d_f = 16. At d_f = 32 the decoder's last
    layer is 2048 x 256, and its backward pass streams several 4 MB arrays
    per sample: on a shared 2-core host the hybrid iteration moved by
    20-40% with the host's load (62 against 75-80 ms within minutes, and
    +20% next to a memory-bound process on the other core), two sets of ten
    hybrid runs spread 11% and 28%, and five energy runs in a row drifted
    from 70 to 86 ms. At d_f = 16 (512 x 256) the same code paths held
    within 10% under the same conditions.
    """

    d_f, d_c = 16, 4
    units = TRAIN_ITERATIONS
    setups = 31  # a set-up takes 10-20 ms
    streams = {"iteration": 1.0, "refresh": 1.0 / TRAIN_ITERATIONS}

    def __init__(self, name: str, energy: bool):
        self.name = name
        self.energy = energy

    def setup(self, seed: int):
        rng = rng_for(seed, self.name, "data")
        sampler = GrfSampler(GrfSpec(grid_size=self.d_f))
        model = GenerativeModel(self.d_f, self.d_c, seed=seed_for(seed, self.name, "model"))
        cfg = inference.TrainConfig(
            iterations=TRAIN_ITERATIONS, log_every=1, seed=seed_for(seed, self.name, "train")
        )
        labeled = _labeled(sampler, model.fine_mesh, rng, N_LABELED)
        unlabeled = inference.UnlabeledData(_draws(sampler, rng, N_UNLABELED))

        vlams, vbcs, observables = [], [], []
        for _ in range(N_VIRTUAL):
            s = sampler.sample(rng)
            bc = field.sample_bc(rng)
            vlams.append(s.lambda_vec)
            vbcs.append(bc.as_array())
            if self.energy:
                obs = vobs.build_energy(model.fine_mesh, s.kappa_vec, bc, tau=cfg.tau_start)
            else:
                obs = vobs.build_hybrid(
                    model.fine_mesh, model.coarse_mesh, s.kappa_vec, bc, rng, m2=M2_RANDOMIZED
                )
            observables.append(obs)
        virtual = inference.VirtualData(np.array(vlams), np.array(vbcs), observables)

        state = inference.init_state(model, cfg, labeled, unlabeled, virtual)
        return SimpleNamespace(
            cfg=cfg, labeled=labeled, unlabeled=unlabeled, virtual=virtual, state=state
        )

    def check_setup(self, ctx):
        lab = ctx.labeled
        checks.labels_solve_system(ctx.state.model.fine_mesh, lab.lambdas, lab.bcs, lab.ys)

    def prepare(self, ctx):
        # train() mutates the state, and the energy refresh writes tau into the
        # observables: every call starts from its own copy of both.
        state, virtual = copy.deepcopy((ctx.state, ctx.virtual))
        return SimpleNamespace(state=state, virtual=virtual)

    def op(self, ctx, args, clock):
        refresh = inference.refresh_qy
        started = False
        refresh_s = []

        def refresh_qy(*a, **k):
            # train() looks refresh_qy up in its module on every call.
            nonlocal started
            if not started:
                started = True
                with clock.untimed():
                    return refresh(*a, **k)
            t0 = perf_counter()
            try:
                return refresh(*a, **k)
            finally:
                refresh_s.append(perf_counter() - t0)

        inference.refresh_qy = refresh_qy
        try:
            state, log = inference.train(
                args.state.model,
                ctx.cfg,
                ctx.labeled,
                ctx.unlabeled,
                args.virtual,
                state=args.state,
            )
        finally:
            inference.refresh_qy = refresh
        # The log's wall clock starts after the first refresh and is read at
        # the end of every iteration; a refresh runs inside the iteration
        # whose number is a multiple of the cadence.
        iteration_s = np.diff(log.column("wallclock"), prepend=0.0)
        refreshed = log.column("iter") % ctx.cfg.cadence == 0
        if refreshed.sum() != len(refresh_s):
            raise RuntimeError(f"{len(refresh_s)} timed refreshes in {refreshed.sum()} iterations")
        iteration_s[refreshed] -= refresh_s
        clock.sample("iteration", iteration_s)
        clock.sample("refresh", refresh_s)
        return state, log

    def check(self, ctx, args, out, solves):
        state, log = out
        checks.all_finite(log.column("F"), "logged F")
        if len(log.rows) != TRAIN_ITERATIONS:
            raise checks.CheckFailed(f"{len(log.rows)} logged iterations, expected {TRAIN_ITERATIONS}")
        obs = args.virtual.observables
        if self.energy:
            checks.all_finite(np.concatenate([q.mean for q in state.qy]), "q(y) means")
            checks.energy_variances(state.qy, obs, state.model.var_y(), ctx.cfg.tau_end)
        else:
            checks.exact_rows_satisfied(state.qy, obs)
            checks.flux_precision_alpha(
                state.gamma_posteriors["flux"], rows=self.d_c * self.d_c, queries=N_VIRTUAL
            )


class Predict:
    """One predictive_posterior call with its defaults (optimize mode, k = 256).

    Set-up is what a user pays before the first prediction: labeled and
    unlabeled data and a short semi-supervised training.

    At d_f = 32 the decoder's last layer is 2048 x 256, and each of the 400
    infer_z steps streams several 4 MB arrays through its backward pass; the
    median of that operation moved by 30% between two sets of runs on a
    shared 2-core host while the other workloads held within 13%. At
    d_f = 16 (512 x 256, 1 MB) the same code path held within 5%.
    """

    name = "predict-16x4"
    d_f, d_c = 16, 4
    units = 1
    setups = 5

    def setup(self, seed: int):
        rng = rng_for(seed, self.name, "data")
        sampler = GrfSampler(GrfSpec(grid_size=self.d_f))
        model = GenerativeModel(self.d_f, self.d_c, seed=seed_for(seed, self.name, "model"))
        cfg = inference.TrainConfig(
            iterations=PREDICT_TRAIN_ITERATIONS, seed=seed_for(seed, self.name, "train")
        )
        labeled = _labeled(sampler, model.fine_mesh, rng, N_LABELED)
        unlabeled = inference.UnlabeledData(_draws(sampler, rng, N_UNLABELED))
        state, _ = inference.train(model, cfg, labeled, unlabeled)
        return SimpleNamespace(
            state=state,
            x=sampler.sample(rng).lambda_vec,
            bc=field.sample_bc(rng),
            sample_seed=seed_for(seed, self.name, "samples"),
            reference=None,
        )

    def check_setup(self, ctx):
        # q(z) is a deterministic function of (x, state, infer_seed); recompute
        # it once here, outside the timed region, for the independent checks.
        model = ctx.state.model
        qz = predict.infer_z(ctx.x, ctx.state)
        rng = rng_for(ctx.sample_seed, "reference")
        ctx.reference = checks.independent_predictive(
            model, qz, ctx.bc, PREDICT_REFERENCE_DRAWS, rng
        )
        eps = rng.standard_normal((ELBO_CHECK_DRAWS, model.dim_z))
        checks.elbo_not_below_prior(model, ctx.x, qz, eps)

    def prepare(self, ctx):
        return SimpleNamespace(rng=np.random.default_rng(ctx.sample_seed))

    def op(self, ctx, args, clock):
        return predict.predictive_posterior(ctx.x, ctx.bc, ctx.state, rng=args.rng)

    def check(self, ctx, args, out, solves):
        checks.solve_count_rise(solves, self.d_f, 0, "fine")
        checks.solve_count_rise(solves, self.d_c, PREDICT_K, "coarse")
        checks.predictive_mean_agrees(out.samples, ctx.reference)


class Uq:
    """propagate_uq over UQ_INPUTS inputs, amortized, with the fine MC reference."""

    name = "uq-64x8"
    d_f, d_c = 64, 8
    units = UQ_INPUTS
    setups = 3

    def setup(self, seed: int):
        rng = rng_for(seed, self.name, "data")
        sampler = GrfSampler(GrfSpec(grid_size=self.d_f))
        model = GenerativeModel(self.d_f, self.d_c, seed=seed_for(seed, self.name, "model"))
        cfg = inference.TrainConfig(amortized=True, seed=seed_for(seed, self.name, "train"))
        unlabeled = inference.UnlabeledData(_draws(sampler, rng, UQ_ENCODER_DATA))
        state = inference.init_state(model, cfg, None, unlabeled, None)
        return SimpleNamespace(
            sampler=sampler,
            state=state,
            bc=field.sample_bc(rng),
            uq_seed=seed_for(seed, self.name, "inputs"),
        )

    def check_setup(self, ctx):
        pass

    def prepare(self, ctx):
        return SimpleNamespace(
            rng=np.random.default_rng(ctx.uq_seed),
            sampler=_RecordingSampler(ctx.sampler),
        )

    def op(self, ctx, args, clock):
        return predict.propagate_uq(args.sampler, ctx.bc, ctx.state, UQ_INPUTS, args.rng)

    def check(self, ctx, args, out, solves):
        checks.solve_count_rise(solves, self.d_f, UQ_INPUTS, "fine")
        checks.solve_count_rise(solves, self.d_c, UQ_INPUTS, "coarse")
        checks.all_finite(out["surrogate"], "surrogate QoI")
        checks.qoi_within_dirichlet_range(out["reference"], ctx.bc)
        checks.histograms_and_ks(out)
        checks.grf_moments(args.sampler.draws, ctx.sampler.spec)


WORKLOADS = {
    w.name: w
    for w in (
        Train("train-hybrid-16x4", energy=False),
        Train("train-energy-16x4", energy=True),
        Predict(),
        Uq(),
    )
}
