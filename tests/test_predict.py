import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cgsur import fem, field, genmodel, predict
from cgsur.errors import (
    DegenerateValidation,
    DimensionMismatch,
    InvalidInput,
    InvalidSize,
    NonPositiveVariance,
)
from cgsur.field import BoundaryCoeffs, GrfSampler, GrfSpec
from cgsur.genmodel import GenerativeModel
from cgsur.inference import (
    DiagGaussian,
    TrainConfig,
    UnlabeledData,
    VariationalState,
    init_state,
    train,
)
from cgsur.predict import INFER_Z_LEARNING_RATE
from cgsur.seeding import derive_rng
from test_inference import DictAdam

BC_A = BoundaryCoeffs(0.0, 0.0, 1.0, 1.0)


def plain_state(d_f=4, d_c=2, seed=0, hidden=(6,)):
    model = GenerativeModel(d_f, d_c, decoder_hidden=hidden, seed=seed)
    return VariationalState(model)


def encoder_state(seed=11):
    model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=seed)
    cfg = TrainConfig(amortized=True, encoder_hidden=(5,), seed=seed)
    return init_state(model, cfg, None, UnlabeledData(np.zeros((3, model.dim_x))), None)


def looped_infer_z(x, state, steps, seed):
    """infer_z's ascent drawn step by step, with the dict-per-key reference Adam
    over {mu, rho}."""
    model = state.model
    rng = derive_rng(seed, "infer_z")
    if state.enc_mu is not None:
        mu, rho = state.enc_mu(x), state.enc_logvar(x).copy()
    else:
        mu, rho = np.zeros(model.dim_z), np.full(model.dim_z, np.log(0.5))
    params = {"mu": mu, "rho": rho}
    adam = DictAdam(INFER_Z_LEARNING_RATE)
    for _ in range(steps):
        eps = rng.standard_normal(model.dim_z)
        std = np.exp(0.5 * rho)
        z = mu + std * eps
        _, gz, _ = model.logp_x_given_z_grads(x, z, weights=None)
        var = np.exp(rho)
        adam.step(params, {"mu": gz - mu, "rho": gz * (0.5 * std * eps) - 0.5 * var + 0.5})
    return mu, np.exp(rho)


def looped_predictive(x, bc, state, k, rng, qz):
    """predictive_posterior's samples drawn and mapped one sample at a time."""
    model = state.model
    samples = np.empty((k, model.dim_y))
    for j in range(k):
        z = qz.mean + np.sqrt(qz.var) * rng.standard_normal(model.dim_z)
        mean_X, var_X = model.coarse_map(z)
        X = mean_X + np.sqrt(var_X) * rng.standard_normal(model.dim_X)
        mean_y, var_y = model.output_map(model.cgm_forward(X[None], [bc])[0])
        samples[j] = mean_y + np.sqrt(var_y) * rng.standard_normal(model.dim_y)
    return samples


class TestInferZ:
    @pytest.mark.parametrize("encoder", [False, True])
    def test_bit_equal_to_per_step_dict_adam(self, encoder):
        state = encoder_state() if encoder else plain_state(seed=11)
        x = np.random.default_rng(12).normal(0.4, 0.8, state.model.dim_x)
        with warnings.catch_warnings():
            # 50 steps leave the objective improving, which infer_z reports
            warnings.simplefilter("ignore", RuntimeWarning)
            q = predict.infer_z(x, state, steps=50, seed=5)
        mu, var = looped_infer_z(x, state, steps=50, seed=5)
        assert np.array_equal(q.mean, mu)
        assert np.array_equal(q.var, var)
        assert q.mean.base is None and q.var.base is None

    def test_decoder_ignoring_z_recovers_prior(self):
        state = plain_state()
        model = state.model
        model.params.decoder.params[:] = 0.0
        bias = model.params.decoder.params[-2 * model.dim_x :]
        bias[model.dim_x :] = np.log(0.5)
        x = np.random.default_rng(0).normal(0.0, 0.5, model.dim_x)
        q = predict.infer_z(x, state, mode="optimize", steps=800)
        assert np.max(np.abs(q.mean)) < 0.05
        assert np.max(np.abs(q.var - 1.0)) < 0.1

    def test_deterministic_given_seed(self):
        state = plain_state(seed=1)
        x = np.random.default_rng(1).normal(0.4, 0.8, state.model.dim_x)
        a = predict.infer_z(x, state, steps=50, seed=3)
        b = predict.infer_z(x, state, steps=50, seed=3)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.var, b.var)

    def test_amortized_requires_encoder(self):
        state = plain_state(seed=2)
        with pytest.raises(ValueError):
            predict.infer_z(np.zeros(state.model.dim_x), state, mode="amortized")

    def test_amortized_and_optimized_agree_after_training(self):
        rng = np.random.default_rng(3)
        model = GenerativeModel(4, 2, decoder_hidden=(16,), seed=3)
        sampler = GrfSampler(GrfSpec(grid_size=4, length_scale=0.3))
        xs = np.array([sampler.sample(rng).lambda_vec for _ in range(16)])
        cfg = TrainConfig(
            iterations=600,
            amortized=True,
            encoder_hidden=(16,),
            seed=0,
            plateau_window=10**9,
            unlabeled_batch=16,
        )
        state, _ = train(model, cfg, unlabeled=UnlabeledData(xs))
        x = xs[0]

        def elbo_of(q):
            total = 0.0
            n = 64
            draws = q.mean + np.sqrt(q.var) * rng.standard_normal((n, model.dim_z))
            for z in draws:
                total += model.logp_x_given_z(x, z)
            from cgsur.gaussians import kl_diag_standard

            return total / n - kl_diag_standard(q.mean, q.var)

        q_am = predict.infer_z(x, state, mode="amortized")
        q_opt = predict.infer_z(x, state, mode="optimize", steps=600)
        e_am, e_opt = elbo_of(q_am), elbo_of(q_opt)
        # per-input optimization can only improve on the shared encoder
        assert e_opt >= e_am - 0.75
        assert abs(e_opt - e_am) < 0.25 * max(abs(e_opt), 1.0)


class TestInputChecks:
    """A bad input is rejected before any decoder call, by infer_z and by
    predictive_posterior, which calls it."""

    @staticmethod
    def call(name, x, state, monkeypatch):
        def decoder_called(*args):
            raise AssertionError("the decoder ran on a rejected input")

        monkeypatch.setattr(state.model.params.decoder, "forward", decoder_called)
        if name == "infer_z":
            return predict.infer_z(x, state, steps=5)
        return predict.predictive_posterior(x, BC_A, state, k=2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["infer_z", "predictive_posterior"])
    def test_a_nan_pixel_rejected(self, name, monkeypatch):
        state = plain_state(seed=16)
        x = np.random.default_rng(16).normal(0.4, 0.8, state.model.dim_x)
        x[3] = np.nan
        with pytest.raises(InvalidInput, match="non-finite"):
            self.call(name, x, state, monkeypatch)

    @pytest.mark.parametrize("name", ["infer_z", "predictive_posterior"])
    def test_a_short_input_rejected(self, name, monkeypatch):
        state = plain_state(seed=17)
        x = np.random.default_rng(17).normal(0.4, 0.8, state.model.dim_x - 1)
        with pytest.raises(DimensionMismatch, match="shape"):
            self.call(name, x, state, monkeypatch)


class TestPredictivePosterior:
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_per_sample_loop(self, k):
        state = plain_state(d_f=8, d_c=4, seed=13)
        model = state.model
        rng = np.random.default_rng(14)
        qz = DiagGaussian(
            mean=rng.standard_normal(model.dim_z), var=rng.uniform(0.5, 2.0, model.dim_z)
        )
        bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
        x = np.zeros(model.dim_x)
        rng_a, rng_b = np.random.default_rng(15), np.random.default_rng(15)
        fem.reset_solve_counts()
        ps = predict.predictive_posterior(x, bc, state, k=k, rng=rng_a, qz=qz)
        assert fem.solve_count(4) == k
        assert fem.solve_count(8) == 0
        ref = looped_predictive(x, bc, state, k, rng_b, qz)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        if k == 1:
            assert np.array_equal(ps.samples, ref)
        # the batched coarse map rounds as a matrix product, not per row
        assert np.max(np.abs(ps.samples - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_variance_deterministic(self):

        state = plain_state(seed=4)
        model = state.model
        model.params.log_S_X[:] = np.log(genmodel.VAR_MIN)
        model.params.log_S_y[:] = np.log(genmodel.VAR_MIN)
        x = np.random.default_rng(4).normal(0.4, 0.8, model.dim_x)
        qz = DiagGaussian(mean=np.zeros(model.dim_z), var=np.full(model.dim_z, 1e-16))
        ps = predict.predictive_posterior(
            x, BC_A, state, k=4, rng=np.random.default_rng(0), qz=qz
        )
        mean_X, _ = model.coarse_map(np.zeros(model.dim_z))
        Y = model.cgm_forward(mean_X[None], [BC_A])[0]
        mean_y, _ = model.output_map(Y)
        assert np.max(np.abs(ps.samples - mean_y)) < 1e-3

    def test_moments_are_sample_statistics(self):
        state = plain_state(seed=5)
        x = np.random.default_rng(5).normal(0.4, 0.8, state.model.dim_x)
        ps = predict.predictive_posterior(
            x, BC_A, state, k=32, rng=np.random.default_rng(1), mode="optimize"
        )
        assert np.allclose(ps.mean, ps.samples.mean(axis=0))
        assert np.allclose(ps.var, ps.samples.var(axis=0))
        assert np.all(ps.var > 0)

    def test_rng_stream_trace(self):
        state = plain_state(seed=6)

        model = state.model
        qz = DiagGaussian(mean=np.zeros(model.dim_z), var=np.ones(model.dim_z))
        x = np.zeros(model.dim_x)
        rng_a = np.random.default_rng(7)
        both = predict.predictive_posterior(x, BC_A, state, k=2, rng=rng_a, qz=qz)
        rng_b = np.random.default_rng(7)
        first = predict.predictive_posterior(x, BC_A, state, k=1, rng=rng_b, qz=qz)
        second = predict.predictive_posterior(x, BC_A, state, k=1, rng=rng_b, qz=qz)
        assert np.array_equal(both.samples[0], first.samples[0])
        assert np.array_equal(both.samples[1], second.samples[0])

    def test_no_fine_solves(self):
        state = plain_state(d_f=8, d_c=2, seed=7)
        x = np.random.default_rng(8).normal(0.4, 0.8, state.model.dim_x)
        fem.reset_solve_counts()
        predict.predictive_posterior(
            x, BC_A, state, k=8, rng=np.random.default_rng(2), mode="optimize"
        )
        assert fem.solve_count(8) == 0
        assert fem.solve_count(2) == 8


class TestMetrics:
    def test_r2_perfect(self):
        y = np.random.default_rng(0).standard_normal((5, 3))
        assert predict.r2_score(y, y) == pytest.approx(1.0)

    def test_r2_mean_predictor(self):
        y = np.random.default_rng(1).standard_normal((6, 2))
        mu = np.tile(y.mean(axis=0), (6, 1))
        assert predict.r2_score(y, mu) == pytest.approx(0.0, abs=1e-12)

    def test_r2_hand_example(self):
        y = np.array([[0.0], [2.0]])
        mu = np.array([[0.0], [1.0]])
        assert predict.r2_score(y, mu) == pytest.approx(0.5)

    def test_r2_degenerate(self):
        with pytest.raises(DegenerateValidation):
            predict.r2_score(np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(DegenerateValidation):
            predict.r2_score(np.ones((1, 2)), np.ones((1, 2)))

    def test_r2_ordering_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((8, 4))
        mu = y + 0.1 * rng.standard_normal((8, 4))
        perm = rng.permutation(8)
        assert predict.r2_score(y, mu) == pytest.approx(
            predict.r2_score(y[perm], mu[perm])
        )

    def test_r2_affine_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((8, 4))
        mu = y + 0.3 * rng.standard_normal((8, 4))
        a, b = 2.5, -0.7
        assert predict.r2_score(a * y + b, a * mu + b) == pytest.approx(
            predict.r2_score(y, mu)
        )

    def test_logscore_unit_variance(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((5, 3))
        var = np.ones((5, 3))
        ls = predict.logscore(y, y, var)
        assert ls == pytest.approx(-1.5 * np.log(2 * np.pi))

    def test_logscore_concentration(self):
        y = np.zeros((4, 2))
        mu = np.zeros((4, 2))
        ls_wide = predict.logscore(y, mu, np.full((4, 2), 1.0))
        ls_tight = predict.logscore(y, mu, np.full((4, 2), 0.01))
        assert ls_tight > ls_wide

    def test_logscore_hand_computation(self):
        y = np.array([[1.0, 2.0]])
        mu = np.array([[0.5, 2.5]])
        var = np.array([[0.25, 4.0]])
        expected = -0.5 * (
            0.25 / 0.25 + 0.25 / 4.0 + np.log(0.25) + np.log(4.0) + 2 * np.log(2 * np.pi)
        )
        assert predict.logscore(y, mu, var) == pytest.approx(expected)

    def test_logscore_rejects_bad_variance(self):
        with pytest.raises(NonPositiveVariance):
            predict.logscore(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))

    def test_ks_statistic_against_scipy(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(300)
        b = rng.standard_normal(400) + 0.3
        assert predict.ks_statistic(a, b) == pytest.approx(
            ks_2samp(a, b).statistic, abs=1e-12
        )
        assert predict.ks_statistic(a, a) == 0.0


class TestCenterNode:
    def test_even_grid(self):
        idx = predict.center_node_index(4)
        mesh = fem.build_mesh(4)
        assert np.allclose(mesh.nodes[idx], [0.5, 0.5])

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError):
            predict.center_node_index(5)


class TestPropagateUq:
    def test_outputs_and_ks_range(self):
        state = plain_state(d_f=4, d_c=2, seed=8)
        sampler = GrfSampler(GrfSpec(grid_size=4, length_scale=0.3))
        rng = np.random.default_rng(9)
        out = predict.propagate_uq(
            sampler, BC_A, state, n=64, rng=rng, mode="optimize", with_reference=True
        )
        assert out["surrogate"].shape == (64,)
        assert out["reference"].shape == (64,)
        assert 0.0 <= out["ks"] <= 1.0
        assert out["hist_surrogate"].shape == (64,)
        assert out["bin_edges"].shape == (65,)
        assert out["kde_surrogate"].shape == out["kde_grid"].shape

    def test_without_reference_no_fine_solve(self):
        # prediction never solves the fine system
        state = plain_state(d_f=4, d_c=2, seed=8)
        sampler = GrfSampler(GrfSpec(grid_size=4, length_scale=0.3))
        fem.reset_solve_counts()
        out = predict.propagate_uq(
            sampler, BC_A, state, n=4, rng=np.random.default_rng(9), mode="optimize",
            with_reference=False,
        )
        assert fem.solve_count(4) == 0
        assert fem.solve_count(2) == 4
        assert set(out) == {
            "surrogate", "bin_edges", "hist_surrogate", "kde_grid", "kde_surrogate"
        }
        with_ref = predict.propagate_uq(
            sampler, BC_A, state, n=4, rng=np.random.default_rng(9), mode="optimize"
        )
        assert np.array_equal(out["surrogate"], with_ref["surrogate"])

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_inputs_rejected_before_any_draw(self, n):
        state = plain_state(d_f=4, d_c=2, seed=8)
        sampler = GrfSampler(GrfSpec(grid_size=4, length_scale=0.3))
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(InvalidSize):
            predict.propagate_uq(sampler, BC_A, state, n=n, rng=rng, mode="optimize")
        assert rng.bit_generator.state == before

    def test_identical_generators_coincide(self):
        # when the two sample sets come from the same distribution the KS
        # distance is small; identical sets give exactly zero
        rng = np.random.default_rng(10)
        a = rng.standard_normal(500)
        assert predict.ks_statistic(a, a.copy()) == 0.0
