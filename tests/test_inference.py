import copy
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cgsur import approximators, fem, field, inference, vobs
from cgsur.approximators import Approximator
from cgsur.errors import DimensionMismatch, IllConditioned, NonFiniteLoss
from cgsur.field import BoundaryCoeffs, GrfSampler, GrfSpec
from cgsur.gaussians import LOG_2PI, diag_logpdf, kl_diag_standard
from cgsur.genmodel import GenerativeModel
from cgsur.inference import (
    Adam,
    DiagGaussian,
    LabeledData,
    LowRankGaussian,
    TrainConfig,
    UnlabeledData,
    VirtualData,
    elbo_labeled,
    elbo_unlabeled,
    elbo_virtual,
    expected_constraint_loglik,
    init_state,
    load_state,
    prior_logpdf_theta,
    refresh_qy,
    save_state,
    train,
    update_precision_gamma,
    update_qy_closedform,
    update_qy_energy,
)
from cgsur.seeding import derive_rng
from test_genmodel import logp_X_given_z, logp_y_given_X


def make_problem(d_f=4, d_c=2, n_l=3, n_o=2, seed=0, hidden=(8,), m2=5):
    """Small model + labeled + hybrid virtual data for gradient tests."""
    rng = np.random.default_rng(seed)
    model = GenerativeModel(d_f, d_c, decoder_hidden=hidden, seed=seed)
    cfg = TrainConfig(seed=seed)
    sampler = GrfSampler(GrfSpec(grid_size=d_f, length_scale=0.3))
    lams, ys, bcs = [], [], []
    for _ in range(n_l):
        s = sampler.sample(rng)
        bc = field.sample_bc(rng)
        sys = fem.assemble(model.fine_mesh, s.kappa_vec, bc)
        ys.append(fem.solve(sys).y_vec)
        lams.append(s.lambda_vec)
        bcs.append(bc.as_array())
    labeled = LabeledData(np.array(lams), np.array(ys), np.array(bcs))
    vlams, vbcs, obs = [], [], []
    for _ in range(n_o):
        s = sampler.sample(rng)
        bc = field.sample_bc(rng)
        vlams.append(s.lambda_vec)
        vbcs.append(bc.as_array())
        obs.append(
            vobs.build_hybrid(
                model.fine_mesh, model.coarse_mesh, s.kappa_vec, bc, rng, m2=m2
            )
        )
    virtual = VirtualData(np.array(vlams), np.array(vbcs), obs)
    state = init_state(model, cfg, labeled, None, virtual)
    refresh_qy(state, virtual, rng, 1.0)
    return model, cfg, labeled, virtual, state, rng


def crn(seed=99):
    """A fresh generator per call: every ELBO call draws in the same order
    whatever the parameter values, so equal seeds give common random numbers."""
    return np.random.default_rng(seed)


def run_block(block, state, *args, **kwargs):
    """An ELBO block's value and the named views of a zeroed theta-sized
    vector into which it added its gradients."""
    grads = state.views(np.zeros(state.theta.size))
    return block(state, *args, grads, **kwargs), grads


def learned_set(gamma, alpha, lam):
    """Flux-like rows with precision lam, held as the mean of a "flux"
    Gamma posterior; returns the set and the posteriors."""
    cs = vobs.LinearConstraintSet(
        gamma=gamma, alpha=alpha, precision=vobs.Learned(), kind="flux"
    )
    return cs, {"flux": vobs.GammaPosterior(alpha=lam, beta=1.0)}


def diagonal_qy(mean, var):
    """A q(y) with diagonal covariance (no conditioning rows); its callers
    read no entropy, so it carries no log-determinant."""
    return LowRankGaussian(mean, var, np.zeros((0, mean.size)), np.zeros((0, 0)), None)


def reference_qy_term(obs, qy, post):
    """A linear bundle's likelihood-plus-entropy term from its q(y): the
    entropy, or 0.0 when the bundle has exact rows, plus each learned set's
    expected log-likelihood under the flux posterior `post`, in bundle order."""
    exact = any(isinstance(cs.precision, vobs.Exact) for cs in obs)
    term = 0.0 if exact else qy.entropy()
    for cs in obs:
        if isinstance(cs.precision, vobs.Learned):
            moment = qy.second_moment(cs.gamma, cs.alpha)
            term += expected_constraint_loglik(cs, moment, post)
    return term


class TestClosedFormQy:
    def test_no_constraints_returns_prior(self):
        rng = np.random.default_rng(0)
        sbar = rng.uniform(0.5, 2.0, 6)
        h = rng.standard_normal(6)
        q = update_qy_closedform([], sbar, h)
        assert np.array_equal(q.mean, h)
        assert np.array_equal(q.var_diag(), sbar)

    def test_matches_dense_inversion(self):
        rng = np.random.default_rng(1)
        d_y, m = 6, 2
        sbar = rng.uniform(0.5, 2.0, d_y)
        gamma = rng.standard_normal((m, d_y))
        alpha = rng.standard_normal(m)
        lam = rng.uniform(0.5, 4.0)
        h = rng.standard_normal(d_y)
        cs, posts = learned_set(gamma, alpha, lam)
        q = update_qy_closedform([cs], sbar, h, posts)
        precision = lam * gamma.T @ gamma + np.diag(1.0 / sbar)
        sigma = np.linalg.inv(precision)
        mu = sigma @ (lam * gamma.T @ alpha + h / sbar)
        assert np.max(np.abs(q.mean - mu)) < 1e-10 * max(np.abs(mu).max(), 1.0)
        assert np.max(np.abs(q.var_diag() - np.diag(sigma))) < 1e-10

    def test_entropy_matches_dense_logdet(self):
        rng = np.random.default_rng(3)
        d_y, m = 7, 3
        sbar = rng.uniform(0.5, 2.0, d_y)
        gamma = rng.standard_normal((m, d_y))
        lam = rng.uniform(0.5, 4.0)
        cs, posts = learned_set(gamma, rng.standard_normal(m), lam)
        q = update_qy_closedform([cs], sbar, rng.standard_normal(d_y), posts)
        # Sigma = diag(sbar) - A^T A, formed densely from its precision
        sigma = np.linalg.inv(lam * gamma.T @ gamma + np.diag(1.0 / sbar))
        sign, logdet = np.linalg.slogdet(2 * np.pi * np.e * sigma)
        assert sign == 1.0
        assert q.entropy() == pytest.approx(0.5 * logdet, rel=1e-12)
        q.sample(rng.standard_normal(d_y))  # a draw leaves the factor it reads as it was
        assert q.entropy() == pytest.approx(0.5 * logdet, rel=1e-12)

    def test_exact_constraint_conditioning(self):
        rng = np.random.default_rng(2)
        d_y = 8
        sbar = rng.uniform(0.5, 2.0, d_y)
        g1 = rng.standard_normal(d_y)
        a1 = 0.4
        cs = vobs.LinearConstraintSet(
            gamma=g1[None, :], alpha=np.array([a1]), precision=vobs.Exact(), kind="cgr"
        )
        h = rng.standard_normal(d_y)
        q = update_qy_closedform([cs], sbar, h)
        assert g1 @ q.mean == pytest.approx(a1, abs=1e-9)
        # gamma Sigma gamma^T == 0: samples satisfy the constraint exactly
        assert q.second_moment(g1[None, :], np.array([g1 @ q.mean])) < 1e-9
        draws = np.array([q.sample(rng.standard_normal(d_y)) for _ in range(50)])
        assert np.max(np.abs(draws @ g1 - a1)) < 1e-7
        # the singular covariance has log-determinant -inf, reached without a log(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q.entropy() == -np.inf

    def test_draws_hold_exact_rows(self):
        # five (16, 4) hybrid bundles: exact coarse and randomized rows, learned flux rows
        rng = np.random.default_rng(22)
        mesh, coarse = fem.build_mesh(16), fem.build_mesh(4)
        sampler = GrfSampler(GrfSpec(grid_size=16))
        posts = {"flux": vobs.GammaPosterior(alpha=2.0, beta=1.0)}
        n = mesh.n_nodes
        for _ in range(5):
            kappa = sampler.sample(rng).kappa_vec
            sets = vobs.build_hybrid(mesh, coarse, kappa, field.sample_bc(rng), rng, m2=60)
            exact = [cs for cs in sets if isinstance(cs.precision, vobs.Exact)]
            assert exact and len(exact) < len(sets)
            q = update_qy_closedform(
                sets, rng.uniform(1e-3, 1e-2, n), 0.1 * rng.standard_normal(n), posts
            )
            for _ in range(10):
                y = q.sample(rng.standard_normal(n))
                for cs in exact:
                    scale = np.abs(cs.gamma) @ np.abs(y) + np.abs(cs.alpha)
                    assert np.max(np.abs(cs.gamma @ y - cs.alpha) / scale) < 1e-12

    @pytest.mark.parametrize("with_exact", [True, False])
    def test_draws_have_the_covariance(self, with_exact):
        # a draw is linear in eps: its images of the unit vectors give a root
        rng = np.random.default_rng(23)
        d_y = 9
        sbar = rng.uniform(0.5, 2.0, d_y)
        gamma = rng.standard_normal((3, d_y))
        cs, posts = learned_set(gamma, rng.standard_normal(3), 2.5)
        sets = [cs]
        if with_exact:
            gamma = np.vstack([rng.standard_normal((2, d_y)), gamma])
            sets.insert(0, vobs.LinearConstraintSet(
                gamma=gamma[:2], alpha=rng.standard_normal(2), precision=vobs.Exact(),
                kind="cgr",
            ))
        q = update_qy_closedform(sets, sbar, rng.standard_normal(d_y), posts)
        root = np.array([q.sample(e) - q.mean for e in np.eye(d_y)]).T
        if with_exact:
            # diag(sbar) - A^T A, formed densely from Xi
            lam_inv = np.r_[0.0, 0.0, np.full(3, 1 / 2.5)]
            xi = gamma @ np.diag(sbar) @ gamma.T + np.diag(lam_inv)
            gs = gamma * sbar
            sigma = np.diag(sbar) - gs.T @ np.linalg.solve(xi, gs)
        else:
            sigma = np.linalg.inv(2.5 * gamma.T @ gamma + np.diag(1.0 / sbar))
        assert np.max(np.abs(root @ root.T - sigma)) < 1e-12 * np.abs(sigma).max()

    def test_dependent_exact_rows_hold(self):
        # at (8, 4) the 25 coarse-residual and 60 randomized exact rows act on
        # 63 free nodes; build_hybrid keeps an independent subset of them
        rng = np.random.default_rng(21)
        mesh, coarse = fem.build_mesh(8), fem.build_mesh(4)
        kappa = GrfSampler(GrfSpec(grid_size=8)).sample(rng).kappa_vec
        bc = field.sample_bc(rng)
        before = rng.bit_generator.state
        sets = vobs.build_hybrid(mesh, coarse, kappa, bc, rng, m2=60)
        rng.bit_generator.state = before
        original = [
            vobs.build_cgr(mesh, coarse, kappa, bc),
            vobs.build_randomized(mesh, kappa, bc, count=60, rng=rng),
        ]
        exact = [cs for cs in sets if isinstance(cs.precision, vobs.Exact)]
        assert sum(cs.m for cs in exact) == mesh.free_nodes.size
        n = mesh.n_nodes
        h = 0.1 * rng.standard_normal(n)
        posts = {"flux": vobs.GammaPosterior(alpha=2.0, beta=1.0)}
        q = update_qy_closedform(sets, np.full(n, 0.01), h, posts)
        for cs in original:
            resid = cs.gamma @ q.mean - cs.alpha
            scale = np.abs(cs.gamma) @ np.abs(q.mean) + np.abs(cs.alpha)
            assert np.max(np.abs(resid) / scale) < 1e-12

    def test_duplicated_exact_row_raises(self):
        gamma = np.zeros((2, 4))
        gamma[:, 1] = 1.0
        cs = vobs.LinearConstraintSet(
            gamma=gamma, alpha=np.array([0.5, 0.5]), precision=vobs.Exact(), kind="cgr"
        )
        with pytest.raises(IllConditioned):
            update_qy_closedform([cs], np.ones(4), np.zeros(4))

    def test_sample_statistics(self):
        rng = np.random.default_rng(3)
        d_y, m = 5, 2
        sbar = rng.uniform(0.5, 1.5, d_y)
        gamma = rng.standard_normal((m, d_y))
        alpha = rng.standard_normal(m)
        cs, posts = learned_set(gamma, alpha, 3.0)
        h = rng.standard_normal(d_y)
        q = update_qy_closedform([cs], sbar, h, posts)
        draws = np.array([q.sample(rng.standard_normal(d_y)) for _ in range(60000)])
        assert np.max(np.abs(draws.mean(axis=0) - q.mean)) < 0.03
        assert np.max(np.abs(draws.var(axis=0) - q.var_diag())) < 0.03

    def test_row_cap(self):
        sbar = np.ones(4)
        gamma = np.ones((inference.QY_ROW_CAP + 1, 4))
        cs, posts = learned_set(gamma, np.zeros(gamma.shape[0]), 1.0)
        with pytest.raises(ValueError, match="cap"):
            update_qy_closedform([cs], sbar, np.zeros(4), posts)

    def test_closed_form_beats_best_diagonal(self):
        # The closed-form q(y) is the unrestricted Gaussian optimum of its
        # ELBO block; the block differs from that optimum by -KL(q || opt),
        # so the best diagonal q (the mean-field fixed point) cannot win.
        rng = np.random.default_rng(4)
        d_y, m = 7, 3
        sbar = rng.uniform(0.5, 2.0, d_y)
        gamma = rng.standard_normal((m, d_y))
        lam = rng.uniform(1.0, 5.0, m)
        precision = gamma.T @ np.diag(lam) @ gamma + np.diag(1.0 / sbar)
        sigma_opt = np.linalg.inv(precision)
        diag_var = 1.0 / np.diag(precision)
        # KL(diag || opt) with equal means
        sign, logdet_opt = np.linalg.slogdet(sigma_opt)
        kl = 0.5 * (
            float(np.trace(precision @ np.diag(diag_var)))
            - d_y
            + logdet_opt
            - float(np.sum(np.log(diag_var)))
        )
        assert kl >= -1e-12


class TestGammaUpdate:
    def test_formula_example(self):
        post = update_precision_gamma([0.5], m=2)
        assert post.alpha == pytest.approx(1.0 + inference.GAMMA_PRIOR)
        assert post.beta == pytest.approx(0.25 + inference.GAMMA_PRIOR)

    def test_defaults(self):
        post = update_precision_gamma([], m=4)
        assert post.alpha == inference.GAMMA_PRIOR == 1e-6
        assert post.beta == inference.GAMMA_PRIOR

    def test_rejects_negative_moments(self):
        with pytest.raises(ValueError):
            update_precision_gamma([-1.0], m=2)

    def test_analytic_moment_matches_mc(self):
        rng = np.random.default_rng(5)
        d_y, m = 6, 3
        sbar = rng.uniform(0.5, 2.0, d_y)
        gamma = rng.standard_normal((m, d_y))
        alpha = rng.standard_normal(m)
        cs, posts = learned_set(gamma, alpha, 2.0)
        q = update_qy_closedform([cs], sbar, rng.standard_normal(d_y), posts)
        analytic = q.second_moment(gamma, alpha)
        n = 40000
        draws = np.array([q.sample(rng.standard_normal(d_y)) for _ in range(n)])
        sq = np.sum((draws @ gamma.T - alpha) ** 2, axis=1)
        assert abs(analytic - sq.mean()) < 3 * sq.std() / np.sqrt(n)


class TestEnergyUpdate:
    @staticmethod
    def build(d, seed, tau):
        rng = np.random.default_rng(seed)
        mesh = fem.build_mesh(d)
        kappa = np.exp(rng.normal(0.4, 0.8, mesh.n_pixels))
        bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
        obs = vobs.build_energy(mesh, kappa, bc, tau=tau)
        sy_inv = rng.uniform(0.5, 3.0, mesh.n_nodes)
        h = rng.standard_normal(mesh.n_nodes)
        return obs, sy_inv, h, rng

    def test_tau_zero_limit(self):
        obs, sy_inv, h, _ = self.build(3, 6, tau=1e-14)
        q = update_qy_energy(obs, sy_inv, h)
        assert np.max(np.abs(q.mean - h)) < 1e-9
        assert np.max(np.abs(q.var - 1.0 / sy_inv)) < 1e-9

    # every grid's tau K + diag(s_y^-1) is factored through its band
    @pytest.mark.parametrize("d", [2, 22, 32], ids=["dense", "sparse", "sparse32"])
    @pytest.mark.parametrize("tau", [11.0, 1e4], ids=["tau11", "tau1e4"])
    def test_matches_dense_solve(self, d, tau):
        obs, sy_inv, h, _ = self.build(d, 7, tau=tau)
        q = update_qy_energy(obs, sy_inv, h)
        K = obs.system.K.toarray()
        a_mat = np.diag(sy_inv) + tau * K
        mu = np.linalg.solve(a_mat, sy_inv * h)
        assert np.max(np.abs(q.mean - mu)) <= 1e-12 * np.abs(mu).max()
        assert np.allclose(q.var, 1.0 / np.diag(a_mat))


class TestEnergyTempering:
    @staticmethod
    def problem():
        """A model and two energy queries whose observables hold tau = 2."""
        rng = np.random.default_rng(14)
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=5)
        sampler = GrfSampler(GrfSpec(grid_size=4, length_scale=0.3))
        lams, bcs, observables = [], [], []
        for _ in range(2):
            s = sampler.sample(rng)
            bc = field.sample_bc(rng)
            lams.append(s.lambda_vec)
            bcs.append(bc.as_array())
            obs = vobs.build_energy(model.fine_mesh, s.kappa_vec, bc, tau=2.0)
            observables.append(obs)
        return model, VirtualData(np.array(lams), np.array(bcs), observables)

    @staticmethod
    def record_taus(monkeypatch):
        """The list to which every energy q(y) update appends its tau."""
        seen = []
        update = inference.update_qy_energy

        def recording_update(obs, *args, **kwargs):
            seen.append(obs.tau)
            return update(obs, *args, **kwargs)

        monkeypatch.setattr(inference, "update_qy_energy", recording_update)
        return seen

    def test_train_keeps_observables_and_restarts_the_schedule(self, monkeypatch):
        model, virtual = self.problem()
        cfg = TrainConfig(
            iterations=4, cadence=2, tau_start=1.0, tau_end=16.0, plateau_window=10**9
        )
        seen = self.record_taus(monkeypatch)
        # refreshes after 0, 2 and 4 iterations of each call: tau 1, 4, 16 per query
        expected = [1.0, 1.0, 4.0, 4.0, 16.0, 16.0]
        state, _ = train(model, cfg, virtual=virtual)
        assert seen == pytest.approx(expected)
        assert state.tau == pytest.approx(16.0)
        seen.clear()
        state, _ = train(model, cfg, virtual=virtual, state=state)
        assert state.iteration == 8
        assert seen == pytest.approx(expected)
        assert [obs.tau for obs in virtual.observables] == [2.0, 2.0]

    def test_schedule_comes_from_the_call_not_the_state(self, monkeypatch):
        model, virtual = self.problem()
        # the state was made with a config whose schedule runs to tau_end = 1e4
        state = init_state(model, TrainConfig(), None, None, virtual)
        seen = self.record_taus(monkeypatch)
        cfg = TrainConfig(iterations=4, cadence=2, tau_end=16.0, plateau_window=10**9)
        train(model, cfg, virtual=virtual, state=state)
        assert seen == pytest.approx([1.0, 1.0, 4.0, 4.0, 16.0, 16.0])


class TestElboUnlabeled:
    def test_kl_zero_case(self):
        # decoder ignoring z and q(z) = prior: the ELBO is exactly the fixed
        # Gaussian log-likelihood of each x.
        model = GenerativeModel(2, 2, decoder_hidden=(4,), seed=0)
        model.params.decoder.params[:] = 0.0
        bias = model.params.decoder.params[-2 * model.dim_x :]
        bias[: model.dim_x] = 0.3
        bias[model.dim_x :] = np.log(0.7)
        cfg = TrainConfig(seed=0)
        state = init_state(
            model, cfg, None, UnlabeledData(np.zeros((2, model.dim_x))), None
        )
        state.factors["mu_z_u"][:] = 0.0
        state.factors["rho_z_u"][:] = 0.0  # variance one: exactly the prior
        rng = np.random.default_rng(0)
        xs = rng.normal(0.3, 0.5, size=(2, model.dim_x))
        value, _ = run_block(elbo_unlabeled, state, xs, rng)
        expected = sum(
            diag_logpdf(x, np.full(model.dim_x, 0.3), np.full(model.dim_x, 0.7))
            for x in xs
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_closed_form_kl_matches_mc(self):
        rng = np.random.default_rng(1)
        mu = rng.standard_normal(4)
        rho = rng.uniform(-1.0, 0.5, 4)
        var = np.exp(rho)
        kl = kl_diag_standard(mu, var)
        n = 200_000
        z = mu + np.sqrt(var) * rng.standard_normal((n, 4))
        log_q = -0.5 * np.sum((z - mu) ** 2 / var + np.log(var) + LOG_2PI, axis=1)
        log_p = -0.5 * np.sum(z**2 + LOG_2PI, axis=1)
        per_sample = log_q - log_p
        assert abs(kl - per_sample.mean()) < 3 * per_sample.std() / np.sqrt(n)

    def test_mu_gradient_common_random_numbers(self):
        state, d = semi_supervised_state(seed=0, amortized=False)
        rng = np.random.default_rng(0)
        xs = d.unlabeled.lambdas
        state.factors["mu_z_u"][:] = rng.standard_normal((len(xs), state.model.dim_z)) * 0.1
        state.factors["rho_z_u"][:] = np.log(0.2)
        _, grads = run_block(elbo_unlabeled, state, xs, crn())
        h = 1e-6
        for (i, j) in [(0, 0), (1, 1)]:
            arr = state.factors["mu_z_u"]
            old = arr[i, j]
            arr[i, j] = old + h
            vp, _ = run_block(elbo_unlabeled, state, xs, crn())
            arr[i, j] = old - h
            vm, _ = run_block(elbo_unlabeled, state, xs, crn())
            arr[i, j] = old
            fd = (vp - vm) / (2 * h)
            assert grads["mu_z_u"][i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_an_index_drawn_twice_gets_the_gradients_of_both_rows(self):
        state, d = semi_supervised_state(seed=5, amortized=False)
        xs = d.unlabeled.lambdas[[0, 0]]
        rng_a, rng_b = crn(), crn()
        value, grads = run_block(elbo_unlabeled, state, xs, rng_a, indices=[0, 0])
        # the same two rows' noise, one row per call, each into a zeroed vector of
        # its own: a call writes the decoder's gradient
        flats = [np.zeros(state.theta.size) for _ in range(2)]
        ref_value = sum(
            elbo_unlabeled(state, xs[:1], rng_b, state.views(f), indices=[0]) for f in flats
        )
        ref = state.views(sum(flats))
        assert value == pytest.approx(ref_value, rel=1e-12)
        for key in ("decoder", "mu_z_u", "rho_z_u"):
            assert np.max(np.abs(grads[key] - ref[key])) <= 1e-12 * np.max(np.abs(ref[key]))
        assert not grads["mu_z_u"][1:].any()

    def test_amortized_encoder_gradients(self):
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=1)
        cfg = TrainConfig(amortized=True, encoder_hidden=(7,), seed=0)
        unl = UnlabeledData(np.random.default_rng(2).normal(0.4, 0.8, (2, model.dim_x)))
        state = init_state(model, cfg, None, unl, None)
        rng = np.random.default_rng(3)
        _, grads = run_block(elbo_unlabeled, state, unl.lambdas, crn())
        h = 1e-6
        for key, net in (("enc_mu", state.enc_mu), ("enc_logvar", state.enc_logvar)):
            idx = rng.choice(net.n_params, size=5, replace=False)
            for i in idx:
                old = net.params[i]
                net.params[i] = old + h
                vp, _ = run_block(elbo_unlabeled, state, unl.lambdas, crn())
                net.params[i] = old - h
                vm, _ = run_block(elbo_unlabeled, state, unl.lambdas, crn())
                net.params[i] = old
                fd = (vp - vm) / (2 * h)
                assert grads[key][i] == pytest.approx(fd, rel=2e-5, abs=1e-7)


class TestElboLabeled:
    def test_plugin_oracle_tight_factors(self):
        # q collapsed to a near-delta at a known (z, X): the estimate equals
        # the plug-in joint log-density plus the entropies. The variance is
        # small enough that every draw rounds to the mean.
        model, cfg, labeled, virtual, state, rng = make_problem(seed=1, n_l=1)
        i = 0
        z0 = rng.standard_normal(model.dim_z)
        X0 = rng.standard_normal(model.dim_X) * 0.3
        tiny = np.log(1e-300)
        state.factors["mu_z_l"][i] = z0
        state.factors["rho_z_l"][i] = tiny
        state.factors["mu_X_l"][i] = X0
        state.factors["rho_X_l"][i] = tiny
        value, _ = run_block(elbo_labeled, state, labeled.lambdas, labeled.ys, labeled.bcs, rng)
        bc = BoundaryCoeffs.from_array(labeled.bcs[0])
        var_z = np.full(model.dim_z, np.exp(tiny))
        var_X = np.full(model.dim_X, np.exp(tiny))
        expected = (
            logp_y_given_X(model, labeled.ys[0], X0, bc)
            + model.logp_x_given_z(labeled.lambdas[0], z0)
            + logp_X_given_z(model, X0, z0)
            + (-0.5 * (model.dim_z * LOG_2PI + float(z0 @ z0 + var_z.sum())))
            + 0.5 * float(np.sum(np.log(var_z) + LOG_2PI + 1.0))
            + 0.5 * float(np.sum(np.log(var_X) + LOG_2PI + 1.0))
        )
        assert value == pytest.approx(expected, rel=1e-9)

    def test_dominated_by_quadratic_when_far(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=2)
        model.params.log_S_y[:] = np.log(0.5)
        bc = BoundaryCoeffs.from_array(labeled.bcs[0])
        X = state.factors["mu_X_l"][0]
        y_far = labeled.ys[0] + 100.0
        mean_y, var_y = model.output_map(model.cgm_forward(X[None], [bc])[0])
        lp = logp_y_given_X(model, y_far, X, bc)
        quad = -0.5 * float(np.sum((y_far - mean_y) ** 2 / var_y))
        assert lp == pytest.approx(quad, rel=1e-3)  # log-det term negligible

    def test_theta_gradient_through_cgm(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=3)

        def value():
            return run_block(elbo_labeled, state, labeled.lambdas, labeled.ys, labeled.bcs, crn())

        v0, th = value()
        h = 1e-6
        arrays = model.params.arrays()
        for key in ("W_g", "w_h", "log_S_y", "decoder", "b_g", "log_S_X", "b_h"):
            flat = arrays[key].ravel()
            i = int(rng.integers(flat.size))
            old = flat[i]
            flat[i] = old + h
            vp, _ = value()
            flat[i] = old - h
            vm, _ = value()
            flat[i] = old
            fd = (vp - vm) / (2 * h)
            # the X gradient path crosses the inner coarse solve: 1e-4
            assert np.asarray(th[key]).ravel()[i] == pytest.approx(
                fd, rel=1e-4, abs=1e-7
            )


class TestElboVirtual:
    def test_constraint_loglik_at_satisfied_mean(self):
        rng = np.random.default_rng(10)
        d_y, m = 6, 3
        gamma = rng.standard_normal((m, d_y))
        mu = rng.standard_normal(d_y)
        cs, posts = learned_set(gamma, gamma @ mu, rng.uniform(0.5, 3.0))
        qy = diagonal_qy(mu, np.zeros(d_y))
        value = expected_constraint_loglik(
            cs, qy.second_moment(cs.gamma, cs.alpha), posts["flux"]
        )
        elog = posts["flux"].expected_log()
        assert value == pytest.approx(0.5 * m * (elog - LOG_2PI))

    def test_doubling_lambda_on_violation(self):
        rng = np.random.default_rng(11)
        d_y, m = 5, 1
        gamma = rng.standard_normal((m, d_y))
        alpha = np.array([2.0])
        mu = rng.standard_normal(d_y)
        qy = diagonal_qy(mu, np.zeros(d_y))
        sq = float(np.sum((gamma @ mu - alpha) ** 2))
        cs = vobs.LinearConstraintSet(
            gamma=gamma, alpha=alpha, precision=vobs.Learned(), kind="flux"
        )
        # equal shapes, rates 2 and 1: E[lambda] doubles and E[log lambda]
        # grows by log 2
        lam1 = {"flux": vobs.GammaPosterior(alpha=3.0, beta=2.0)}
        lam2 = {"flux": vobs.GammaPosterior(alpha=3.0, beta=1.0)}
        moment = qy.second_moment(cs.gamma, cs.alpha)
        v1 = expected_constraint_loglik(cs, moment, lam1["flux"])
        v2 = expected_constraint_loglik(cs, moment, lam2["flux"])
        assert (v1 - v2) == pytest.approx(0.5 * 1.5 * sq - 0.5 * np.log(2.0))

    def test_analytic_term_matches_mc_2d(self):
        rng = np.random.default_rng(12)
        gamma = np.array([[1.0, -0.5]])
        alpha = np.array([0.3])
        cs, posts = learned_set(gamma, alpha, 2.2)
        post = posts["flux"]
        qy = diagonal_qy(np.array([0.4, -0.1]), np.array([0.5, 0.2]))
        analytic = expected_constraint_loglik(
            cs, qy.second_moment(cs.gamma, cs.alpha), post
        )
        n = 1_000_000
        draws = qy.mean + np.sqrt(qy.var_diag()) * rng.standard_normal((n, 2))
        o = draws @ gamma.T - alpha
        per = (
            -0.5 * post.mean() * o[:, 0] ** 2
            + 0.5 * post.expected_log()
            - 0.5 * LOG_2PI
        )
        assert abs(analytic - per.mean()) < 3 * per.std() / np.sqrt(n)

    def test_virtual_theta_gradients(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=4)

        def value():
            return run_block(elbo_virtual, state, virtual.lambdas, virtual.bcs, crn())

        v0, th = value()
        h = 1e-6
        arrays = model.params.arrays()
        for key in ("W_g", "w_h", "decoder"):
            flat = arrays[key].ravel()
            i = int(rng.integers(flat.size))
            old = flat[i]
            flat[i] = old + h
            vp, _ = value()
            flat[i] = old - h
            vm, _ = value()
            flat[i] = old
            fd = (vp - vm) / (2 * h)
            assert np.asarray(th[key]).ravel()[i] == pytest.approx(
                fd, rel=1e-4, abs=1e-7
            )

    def test_energy_virtual_value_finite(self):
        rng = np.random.default_rng(13)
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=5)
        cfg = TrainConfig(seed=0)
        sampler = GrfSampler(GrfSpec(grid_size=4, length_scale=0.3))
        s = sampler.sample(rng)
        bc = field.sample_bc(rng)
        virtual = VirtualData(
            s.lambda_vec[None, :],
            bc.as_array()[None, :],
            [vobs.build_energy(model.fine_mesh, s.kappa_vec, bc, tau=2.0)],
        )
        state = init_state(model, cfg, None, None, virtual)
        refresh_qy(state, virtual, rng, 1.0)
        v, _ = run_block(elbo_virtual, state, virtual.lambdas, virtual.bcs, rng)
        assert np.isfinite(v)
        assert isinstance(state.qy[0], DiagGaussian)

    def test_energy_term_matches_mc(self):
        # E_q[-tau V(y)] + H[q], scored once per refresh, against draws of q(y)
        rng = np.random.default_rng(14)
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=6)
        virtual = energy_virtual(model, rng, 2)
        state = init_state(model, TrainConfig(tau_start=3.0, seed=0), None, None, virtual)
        refresh_qy(state, virtual, rng, 3.0)
        n = 20_000
        for o, qy, term in zip(virtual.observables, state.qy, state.qy_terms):
            draws = qy.mean + np.sqrt(qy.var) * rng.standard_normal((n, qy.mean.size))
            per = np.array([-state.tau * 0.5 * (y @ (o.system.K @ y)) for y in draws])
            assert abs(term - (per.mean() + qy.entropy())) < 3 * per.std() / np.sqrt(n)


def energy_virtual(model, rng, n):
    """n queries on the model's fine grid, each with an energy observable."""
    sampler = GrfSampler(GrfSpec(grid_size=model.d_f, length_scale=0.3))
    lams, bcs, obs = [], [], []
    for _ in range(n):
        s = sampler.sample(rng)
        bc = field.sample_bc(rng)
        lams.append(s.lambda_vec)
        bcs.append(bc.as_array())
        obs.append(vobs.build_energy(model.fine_mesh, s.kappa_vec, bc, tau=1.0))
    return VirtualData(np.array(lams), np.array(bcs), obs)


def _add(grads, key, value):
    grads[key] = grads[key] + value if key in grads else np.array(value)


def _closed_z(mu, var):
    """E_q[log N(z | 0, I)] plus the entropy of q = N(mu, diag var)."""
    d = mu.size
    prior = -0.5 * (d * LOG_2PI + float(np.sum(mu * mu + var)))
    return prior + 0.5 * float(np.sum(np.log(var) + LOG_2PI + 1.0))


def looped_unlabeled(state, lambdas, rng, indices=None, scale=1.0):
    """Reference for elbo_unlabeled: one decoder (and encoder) call per datum,
    noise drawn datum by datum."""
    model = state.model
    n, dz = lambdas.shape[0], model.dim_z
    idx = np.arange(n) if indices is None else np.asarray(indices)
    amortized = state.enc_mu is not None
    value, theta = 0.0, {}
    factors = {"mu_z_u": np.zeros((n, dz)), "rho_z_u": np.zeros((n, dz))}
    for i, x in enumerate(lambdas):
        if amortized:
            mu, tape_mu = state.enc_mu.forward(x)
            rho, tape_rho = state.enc_logvar.forward(x)
        else:
            mu, rho = state.factors["mu_z_u"][idx[i]], state.factors["rho_z_u"][idx[i]]
        var, std = np.exp(rho), np.exp(0.5 * rho)
        eps = rng.standard_normal(dz)
        lp, gz, gdec = model.logp_x_given_z_grads(x, mu + std * eps)
        value += scale * lp
        _add(theta, "decoder", scale * gdec["decoder"])
        value += scale * _closed_z(mu, var)
        d_mu = gz - mu
        d_rho = 0.5 * std * gz * eps - 0.5 * var + 0.5
        if amortized:
            _add(theta, "enc_mu", scale * state.enc_mu.backward(tape_mu, d_mu)[0])
            _add(theta, "enc_logvar", scale * state.enc_logvar.backward(tape_rho, d_rho)[0])
        else:
            factors["mu_z_u"][i] = scale * d_mu
            factors["rho_z_u"][i] = scale * d_rho
    return value, theta, {} if amortized else factors


def looped_conditional(state, suffix, lambdas, bcs, y_draw, rng):
    """Reference for the labeled/virtual body: one decoder, coarse-map and
    coarse-solve call per datum, y drawn after each datum's (z, X) noise."""
    model = state.model
    n = lambdas.shape[0]
    names = ("mu_z", "rho_z", "mu_X", "rho_X")
    rows = [state.factors[f"{name}_{suffix}"] for name in names]
    factors = {f"{name}_{suffix}": np.zeros_like(r) for name, r in zip(names, rows)}
    values, theta = [], {}
    for i in range(n):
        bc = BoundaryCoeffs.from_array(bcs[i])
        mu_z, rho_z, mu_X, rho_X = (r[i] for r in rows)
        std_z, std_X = np.exp(0.5 * rho_z), np.exp(0.5 * rho_X)
        eps_z = rng.standard_normal(model.dim_z)
        eps_X = rng.standard_normal(model.dim_X)
        z, X = mu_z + std_z * eps_z, mu_X + std_X * eps_X
        lp_y, gX_y, gy = model.logp_y_given_X_grads(y_draw(i)[None], X[None], [bc])
        lp_y, gX_y = lp_y[0], gX_y[0]
        lp_x, gz_x, gdec = model.logp_x_given_z_grads(lambdas[i], z)
        lp_X, gX_X, gz_X, gcm = model.logp_X_given_z_grads(X, z)
        for key, val in (*gy.items(), *gdec.items(), *gcm.items()):
            _add(theta, key, val)
        gz, gX = gz_x + gz_X, gX_y + gX_X
        var_z, var_X = np.exp(rho_z), np.exp(rho_X)
        values.append(
            lp_y + lp_x + lp_X
            + _closed_z(mu_z, var_z) + 0.5 * np.sum(np.log(var_X) + LOG_2PI + 1)
        )
        grads = (
            gz - mu_z,
            0.5 * std_z * gz * eps_z - 0.5 * var_z + 0.5,
            gX,
            0.5 * std_X * gX * eps_X + 0.5,
        )
        for name, g in zip(names, grads):
            factors[f"{name}_{suffix}"][i] = g
    return values, theta, factors


def assert_blocks_agree(batched, looped, rows=slice(None), rtol=1e-12):
    """`batched` is (value, grads) from run_block, `looped` (value, theta
    gradients, factor gradients) from a loop, whose factor gradients are those
    of the factor rows `rows`. Every entry the loop has no gradient for must
    be zero in grads."""
    value, grads = batched
    ref_value, ref_theta, ref_factors = looped
    assert value == pytest.approx(ref_value, rel=rtol)
    expected = dict(ref_theta)
    for key, arr in ref_factors.items():
        expected[key] = np.zeros_like(grads[key])
        expected[key][rows] = arr
    for key, got in grads.items():
        if key not in expected:
            assert not got.any(), key
            continue
        ref = expected[key]
        assert got.shape == ref.shape, key
        assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref)), key


class TestOnePass:
    """The ELBO body over all three blocks at once against the three
    single-block calls drawn from one generator in the same order."""

    @pytest.mark.parametrize("amortized", [False, True])
    def test_equals_the_sum_of_the_single_blocks(self, amortized):
        state, d = semi_supervised_state(seed=23, amortized=amortized)
        refresh_qy(state, d.virtual, np.random.default_rng(23), 1.0)
        lab, vir = d.labeled, d.virtual
        batch = np.array([4, 1, 2])
        xs = d.unlabeled.lambdas[batch]
        rng_a, rng_b = crn(), crn()
        grads = state.views(np.zeros(state.theta.size))
        values = inference._elbo(
            state, rng_a, grads, (xs, batch, 1.9),
            (lab.lambdas, inference._row_bcs(lab.bcs), lab.ys),
            (vir.lambdas, inference._row_bcs(vir.bcs), None),
        )
        # each block writes the decoder's gradient: one zeroed vector per call
        flats = [np.zeros(state.theta.size) for _ in range(3)]
        singles = (
            elbo_unlabeled(state, xs, rng_b, state.views(flats[0]), indices=batch, scale=1.9),
            elbo_labeled(state, lab.lambdas, lab.ys, lab.bcs, rng_b, state.views(flats[1])),
            elbo_virtual(state, vir.lambdas, vir.bcs, rng_b, state.views(flats[2])),
        )
        ref = state.views(sum(flats))
        assert values == pytest.approx(singles, rel=1e-12)
        for key, got in grads.items():
            assert ref[key].any(), key
            assert np.max(np.abs(got - ref[key])) <= 1e-12 * np.max(np.abs(ref[key])), key
        assert rng_a.standard_normal() == rng_b.standard_normal()


class TestBlocksAgainstLoops:
    """Each ELBO block against its per-datum loop: the same values and
    gradients, and the generator left at the same stream position."""

    def test_unlabeled_factors(self):
        state, d = semi_supervised_state(seed=5, amortized=False)
        rng = np.random.default_rng(5)
        state.factors["mu_z_u"][:] = rng.standard_normal((5, state.model.dim_z)) * 0.3
        state.factors["rho_z_u"][:] = rng.uniform(-2.0, 0.0, (5, state.model.dim_z))
        batch = np.array([3, 1])
        xs = d.unlabeled.lambdas[batch]
        rng_a, rng_b = crn(), crn()
        batched = run_block(elbo_unlabeled, state, xs, rng_a, indices=batch, scale=1.7)
        looped = looped_unlabeled(state, xs, rng_b, indices=batch, scale=1.7)
        assert_blocks_agree(batched, looped, rows=batch)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_unlabeled_amortized(self):
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=1)
        cfg = TrainConfig(amortized=True, encoder_hidden=(7,), seed=0)
        unl = UnlabeledData(np.random.default_rng(2).normal(0.4, 0.8, (3, model.dim_x)))
        state = init_state(model, cfg, None, unl, None)
        rng_a, rng_b = crn(), crn()
        batched = run_block(elbo_unlabeled, state, unl.lambdas, rng_a, scale=0.6)
        looped = looped_unlabeled(state, unl.lambdas, rng_b, scale=0.6)
        assert_blocks_agree(batched, looped)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_labeled(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=6)
        rng_a, rng_b = crn(), crn()
        batched = run_block(
            elbo_labeled, state, labeled.lambdas, labeled.ys, labeled.bcs, rng_a
        )
        values, theta, factors = looped_conditional(
            state, "l", labeled.lambdas, labeled.bcs, lambda i: labeled.ys[i], rng_b
        )
        assert_blocks_agree(batched, (sum(values), theta, factors))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_virtual_hybrid(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=8)
        rng_a, rng_b = crn(), crn()
        batched = run_block(elbo_virtual, state, virtual.lambdas, virtual.bcs, rng_a)
        values, theta, factors = looped_conditional(
            state, "o", virtual.lambdas, virtual.bcs,
            lambda i: state.qy[i].sample(rng_b.standard_normal(model.dim_y)), rng_b,
        )
        terms = [
            reference_qy_term(obs, qy, state.gamma_posteriors["flux"])
            for obs, qy in zip(virtual.observables, state.qy)
        ]
        assert state.qy_terms == terms
        assert_blocks_agree(batched, (sum(values) + sum(terms), theta, factors))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_virtual_energy(self):
        rng = np.random.default_rng(15)
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=7)
        virtual = energy_virtual(model, rng, 3)
        state = init_state(model, TrainConfig(seed=0), None, None, virtual)
        refresh_qy(state, virtual, rng, 2.0)
        assert all(isinstance(qy, DiagGaussian) for qy in state.qy)
        rng_a, rng_b = crn(), crn()
        batched = run_block(elbo_virtual, state, virtual.lambdas, virtual.bcs, rng_a)
        values, theta, factors = looped_conditional(
            state, "o", virtual.lambdas, virtual.bcs,
            lambda i: state.qy[i].sample(rng_b.standard_normal(model.dim_y)), rng_b,
        )
        assert_blocks_agree(batched, (sum(values) + sum(state.qy_terms), theta, factors))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_refresh_qy(self):
        # the per-query, per-draw loop of h_means, each q(y) updated from it,
        # then the flux posterior and each query's term scored under it
        model, cfg, labeled, virtual, state, rng = make_problem(seed=9, n_o=3)
        # the last query keeps only its flux rows, so its term has an entropy
        flux_only = [
            cs for cs in virtual.observables[2] if isinstance(cs.precision, vobs.Learned)
        ]
        virtual = VirtualData(
            virtual.lambdas, virtual.bcs, [*virtual.observables[:2], flux_only]
        )
        before = copy.deepcopy(state)
        rng_a, rng_b = crn(), crn()
        refresh_qy(state, virtual, rng_a, 1.0)
        sy, qys = model.var_y(), []
        for i, obs in enumerate(virtual.observables):
            bc = BoundaryCoeffs.from_array(virtual.bcs[i])
            mu_X, rho_X = before.factors["mu_X_o"][i], before.factors["rho_X_o"][i]
            total = np.zeros(model.dim_y)
            for _ in range(inference.QY_MC):
                X = mu_X + np.exp(0.5 * rho_X) * rng_b.standard_normal(model.dim_X)
                total += model.output_map(model.cgm_forward(X[None], [bc])[0])[0]
            h_mean = total / inference.QY_MC
            qy = update_qy_closedform(obs, sy, h_mean, before.gamma_posteriors)
            assert np.array_equal(state.qy[i].mean, qy.mean)
            assert np.array_equal(state.qy[i].var_diag(), qy.var_diag())
            qys.append(qy)
        assert rng_a.standard_normal() == rng_b.standard_normal()
        flux = [
            (cs, qy) for obs, qy in zip(virtual.observables, qys) for cs in obs
            if isinstance(cs.precision, vobs.Learned)
        ]
        post = update_precision_gamma(
            [qy.second_moment(cs.gamma, cs.alpha) for cs, qy in flux], flux[0][0].m
        )
        assert state.gamma_posteriors["flux"] == post
        assert state.qy_terms == [
            reference_qy_term(obs, qy, post) for obs, qy in zip(virtual.observables, qys)
        ]


# Datasets whose per-datum arrays disagree with the 3 lambdas, or whose bcs
# rows do not hold four coefficients.
BAD_DATASETS = {
    "more-ys": lambda d: LabeledData(d.lams[:2], d.ys, d.bcs[:2]),
    "fewer-ys": lambda d: LabeledData(d.lams, d.ys[:2], d.bcs),
    "labeled-bcs": lambda d: LabeledData(d.lams, d.ys, d.bcs[:2]),
    "three-coeffs": lambda d: LabeledData(d.lams, d.ys, d.bcs[:, :3]),
    "virtual-bcs": lambda d: VirtualData(d.lams[:2], d.bcs, d.obs[:2]),
    "observables": lambda d: VirtualData(d.lams[:2], d.bcs[:2], d.obs),
}


class TestDatasets:
    @staticmethod
    def arrays():
        model, cfg, labeled, virtual, state, rng = make_problem(seed=10, n_l=3, n_o=3)
        return SimpleNamespace(
            lams=labeled.lambdas, ys=labeled.ys, bcs=labeled.bcs, obs=virtual.observables
        )

    @pytest.mark.parametrize("case", BAD_DATASETS)
    def test_row_counts_must_agree(self, case):
        with pytest.raises(DimensionMismatch):
            BAD_DATASETS[case](self.arrays())

    def test_consistent_rows_accepted(self):
        d = self.arrays()
        assert len(LabeledData(d.lams, d.ys, d.bcs)) == 3
        assert len(UnlabeledData(d.lams)) == 3
        assert len(VirtualData(d.lams, d.bcs, d.obs)) == 3


def zero_grads(arrays):
    return {key: np.zeros_like(arr) for key, arr in arrays.items()}


class TestPriorTheta:
    def test_zero_is_maximum(self):
        arrays = {"a": np.zeros(5), "b": np.zeros((2, 2))}
        v0 = prior_logpdf_theta(arrays, zero_grads(arrays), 2.0)
        assert v0 == 0.0
        arrays["a"][0] = 1.0
        g = zero_grads(arrays)
        v1 = prior_logpdf_theta(arrays, g, 2.0)
        assert v1 < v0
        assert g["a"][0] == pytest.approx(-0.25)

    def test_flat_limit(self):
        arrays = {"a": np.ones(3)}
        g = zero_grads(arrays)
        v = prior_logpdf_theta(arrays, g, 1e8)
        assert abs(v) < 1e-15
        assert np.max(np.abs(g["a"])) < 1e-15

    def test_quadratic_oracle(self):
        rng = np.random.default_rng(14)
        arrays = {"a": rng.standard_normal(7)}
        scale = 1.7
        g = {"a": rng.standard_normal(7)}
        before = g["a"].copy()
        v = prior_logpdf_theta(arrays, g, scale)
        assert v == pytest.approx(-0.5 * float(arrays["a"] @ arrays["a"]) / scale**2)
        # the gradient is added to what the arrays of grads hold
        assert np.array_equal(g["a"], before - (1.0 / (scale * scale)) * arrays["a"])


class TestBlocksWriteOnlyIntoTheirGrads:
    """A block adds its gradients into the grads it is given and writes
    nowhere else: theta and state.grad keep their bits, and the arrays and
    factor rows it does not reach stay zero."""

    MODEL_KEYS = {"decoder", "W_g", "b_g", "log_S_X", "w_h", "b_h", "log_S_y"}

    @staticmethod
    def check(state, block, *args, reached, **kwargs):
        """Runs the block and returns its grads; exactly the keys `reached`
        hold a nonzero entry."""
        state.grad[:] = 7.0
        theta, grad = state.theta.tobytes(), state.grad.tobytes()
        _, grads = run_block(block, state, *args, **kwargs)
        assert state.theta.tobytes() == theta
        assert state.grad.tobytes() == grad
        assert {key for key, g in grads.items() if g.any()} == reached
        return grads

    def test_factor_blocks_and_prior(self):
        state, d = semi_supervised_state(seed=5, amortized=False)
        rng = np.random.default_rng(5)
        refresh_qy(state, d.virtual, rng, 1.0)
        batch = np.array([3, 1])
        grads = self.check(
            state, elbo_unlabeled, d.unlabeled.lambdas[batch], rng, indices=batch,
            reached={"decoder", "mu_z_u", "rho_z_u"},
        )
        outside = np.setdiff1d(np.arange(5), batch)
        assert not grads["mu_z_u"][outside].any() and not grads["rho_z_u"][outside].any()
        lab, vir = d.labeled, d.virtual
        factor_keys = {"mu_z", "rho_z", "mu_X", "rho_X"}
        self.check(
            state, elbo_labeled, lab.lambdas, lab.ys, lab.bcs, rng,
            reached=self.MODEL_KEYS | {f"{key}_l" for key in factor_keys},
        )
        self.check(
            state, elbo_virtual, vir.lambdas, vir.bcs, rng,
            reached=self.MODEL_KEYS | {f"{key}_o" for key in factor_keys},
        )
        theta = state.theta.tobytes()
        arrays = state.model.params.arrays()
        prior_logpdf_theta(arrays, zero_grads(arrays), 1.0)
        assert state.theta.tobytes() == theta

    def test_amortized_unlabeled(self):
        state, d = semi_supervised_state(seed=6)
        self.check(
            state, elbo_unlabeled, d.unlabeled.lambdas, crn(),
            reached={"decoder", "enc_mu", "enc_logvar"},
        )


class TestReparametrization:
    def test_single_sample_estimates_unbiased(self):
        # mean of many single-sample likelihood estimates matches a large
        # reference within 3 standard errors
        model = GenerativeModel(2, 1, decoder_hidden=(5,), seed=6)
        rng = np.random.default_rng(15)
        x = rng.normal(0.4, 0.8, model.dim_x)
        mu = rng.standard_normal(model.dim_z) * 0.3
        var = np.exp(rng.uniform(-1.0, 0.0, model.dim_z))

        def estimate(n):
            z = mu + np.sqrt(var) * rng.standard_normal((n, model.dim_z))
            return np.array([model.logp_x_given_z(x, zi) for zi in z])

        small = estimate(10_000)
        big = estimate(100_000)
        se = np.sqrt(small.var() / small.size + big.var() / big.size)
        assert abs(small.mean() - big.mean()) < 3 * se


class TestTrain:
    def test_elbo_additivity(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=7)
        lab = (labeled.lambdas, labeled.ys, labeled.bcs)
        v_l1, _ = run_block(elbo_labeled, state, *lab, crn(1))
        v_o1, _ = run_block(elbo_virtual, state, virtual.lambdas, virtual.bcs, crn(2))
        arrays = model.params.arrays()
        v_p1 = prior_logpdf_theta(arrays, zero_grads(arrays), inference.THETA_PRIOR_SCALE)
        total_once = v_l1 + v_o1 + v_p1
        v_l2, _ = run_block(elbo_labeled, state, *lab, crn(1))
        v_o2, _ = run_block(elbo_virtual, state, virtual.lambdas, virtual.bcs, crn(2))
        v_p2 = prior_logpdf_theta(arrays, zero_grads(arrays), inference.THETA_PRIOR_SCALE)
        assert total_once == pytest.approx(v_l2 + v_o2 + v_p2, abs=1e-10)

    def test_grad_holds_the_blocks_and_theta_takes_the_reference_step(self):
        # one iteration on a minibatch of two of the five unlabeled data
        state, d = semi_supervised_state(seed=22, amortized=False)
        twin = copy.deepcopy(state)
        cfg = TrainConfig(iterations=1, unlabeled_batch=2, seed=3, plateau_window=10**9)
        train(state.model, cfg, d.labeled, d.unlabeled, d.virtual, state=state)
        # one pass of the ELBO body over the three blocks on a zeroed vector, the
        # generator drawn as train() draws it: the q(y) refresh, the minibatch, then
        # the body; state.grad holds these blocks alone, the prior acting in Adam
        rng = derive_rng(cfg.seed, "train")
        refresh_qy(twin, d.virtual, rng, cfg.tau_start)
        batch = rng.choice(5, size=2, replace=False)
        reference = np.zeros(twin.theta.size)
        grads = twin.views(reference)
        lab, vir, n_l = d.labeled, d.virtual, len(d.labeled)
        inference._elbo(
            twin, rng, grads, (d.unlabeled.lambdas[batch], batch, n_l / 5 * 5 / 2),
            (lab.lambdas, inference._row_bcs(lab.bcs), lab.ys),
            (vir.lambdas, inference._row_bcs(vir.bcs), None),
        )
        assert state.grad.tobytes() == reference.tobytes()
        outside = np.setdiff1d(np.arange(5), batch)
        for key in ("mu_z_u", "rho_z_u"):
            rows = state.views(state.grad)[key][outside]
            assert rows.tobytes() == np.zeros(rows.shape).tobytes()
        # the reference step: the prior's gradient added, then Adam over all of
        # theta, the factor rows outside the minibatch frozen
        prior_logpdf_theta(twin.model.params.arrays(), grads, inference.THETA_PRIOR_SCALE)
        at = twin.views(np.arange(twin.theta.size))
        frozen = np.hstack([at["mu_z_u"], at["rho_z_u"]])[outside].ravel()
        Adam(inference.LEARNING_RATE).step(twin.theta, reference, frozen)
        assert state.theta.tobytes() == twin.theta.tobytes()

    def test_labeled_only_objective_improves(self):
        rng = np.random.default_rng(16)
        model = GenerativeModel(8, 2, decoder_hidden=(16, 16), seed=8)
        sampler = GrfSampler(GrfSpec(grid_size=8, length_scale=0.3))
        lams, ys, bcs = [], [], []
        for _ in range(8):
            s = sampler.sample(rng)
            bc = field.sample_bc(rng)
            sys = fem.assemble(model.fine_mesh, s.kappa_vec, bc)
            ys.append(fem.solve(sys).y_vec)
            lams.append(s.lambda_vec)
            bcs.append(bc.as_array())
        labeled = LabeledData(np.array(lams), np.array(ys), np.array(bcs))
        cfg = TrainConfig(iterations=400, seed=0, plateau_window=10**9, log_every=10)
        state, log = train(model, cfg, labeled=labeled)
        f = log.column("F")
        assert np.mean(f[-5:]) > np.mean(f[:5])

    def test_state_not_viewing_its_theta_rejected(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=21)
        # a second state takes the model's arrays into a vector of its own
        init_state(model, cfg, labeled, None, virtual)
        with pytest.raises(ValueError, match="not views of its theta"):
            train(model, TrainConfig(iterations=1), labeled=labeled, state=state)

    def test_model_other_than_the_states_rejected(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=21)
        other = GenerativeModel(4, 2, decoder_hidden=(8,), seed=21)
        before = state.theta.copy()
        with pytest.raises(ValueError, match="not the state's"):
            train(other, TrainConfig(iterations=1), labeled=labeled, state=state)
        assert state.iteration == 0
        assert state.theta.tobytes() == before.tobytes()

    def test_requires_some_data(self):
        model = GenerativeModel(4, 2, decoder_hidden=(4,), seed=9)
        with pytest.raises(ValueError):
            train(model, TrainConfig(iterations=1))

    @pytest.mark.parametrize("kind", ["labeled", "unlabeled", "virtual"])
    def test_a_dataset_without_rows_rejected(self, kind):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=22)
        empty = {
            "labeled": LabeledData(labeled.lambdas[:0], labeled.ys[:0], labeled.bcs[:0]),
            "unlabeled": UnlabeledData(labeled.lambdas[:0]),
            "virtual": VirtualData(virtual.lambdas[:0], virtual.bcs[:0], []),
        }
        with pytest.raises(ValueError, match="each with rows"):
            train(model, TrainConfig(iterations=1), state=state, **{kind: empty[kind]})

    @pytest.mark.parametrize(
        "name,value",
        [
            ("unlabeled_batch", 0),
            ("cadence", 0),
            ("plateau_window", 0),
            ("log_every", 0),
            ("tau_start", 0.0),
            ("tau_end", -1.0),
            ("encoder_hidden", (4, 0)),
        ],
    )
    def test_config_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_nonfinite_loss_raises(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=10)
        # (y - mean)^2 overflows, so log p(y | X) evaluates to -inf while the
        # gradient stays representable
        model.params.b_h[:] = 1e200
        overflow = pytest.warns(RuntimeWarning, match="overflow")
        with pytest.raises(NonFiniteLoss), overflow:
            train(
                model,
                TrainConfig(iterations=5, plateau_window=10**9),
                labeled=labeled,
            )

    def test_gamma_posterior_updated_during_training(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=11)
        cfg2 = TrainConfig(iterations=12, cadence=5, seed=1, plateau_window=10**9)
        state2, _ = train(model, cfg2, labeled=labeled, virtual=virtual)
        post = state2.gamma_posteriors["flux"]
        n_flux = sum(
            cs.m for cs in virtual.observables[0] if isinstance(cs.precision, vobs.Learned)
        )
        assert post.alpha == pytest.approx(len(virtual) * n_flux / 2 + 1e-6)
        assert post.beta > 1e-6

    def test_plateau_stop_logs_its_iteration(self, monkeypatch):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=15)
        # every comparison of two full windows reads as a plateau
        monkeypatch.setattr(inference, "PLATEAU_TOL", np.inf)
        cfg = TrainConfig(iterations=20, plateau_window=3, log_every=4)
        state, log = train(model, cfg, labeled=labeled)
        assert state.iteration == 6
        assert list(log.column("iter")) == [4, 6]

    def test_amortized_minibatch_trains_the_encoders(self):
        # two of the five unlabeled data per iteration; an amortized state has
        # no unlabeled factors to freeze
        state, d = semi_supervised_state(seed=23)
        before = state.views(state.theta.copy())
        cfg = TrainConfig(iterations=2, unlabeled_batch=2, amortized=True,
                          encoder_hidden=(5,), seed=23, plateau_window=10**9)
        state, _ = train(state.model, cfg, d.labeled, d.unlabeled, d.virtual, state=state)
        assert state.iteration == 2 and "mu_z_u" not in state.factors
        assert np.isfinite(state.theta).all()
        for key in ("enc_mu", "enc_logvar"):
            assert not np.array_equal(state.views(state.theta)[key], before[key]), key

    def test_unlabeled_minibatch_updates_only_its_rows(self):
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=3)
        unl = UnlabeledData(np.random.default_rng(4).normal(0.4, 0.8, (5, model.dim_x)))
        cfg = TrainConfig(iterations=1, unlabeled_batch=2, seed=0)
        state = init_state(model, cfg, None, unl, None)
        before = {key: state.factors[key].copy() for key in ("mu_z_u", "rho_z_u")}
        # the iteration's first draw from the training generator picks the batch
        batch = derive_rng(cfg.seed, "train").choice(5, size=2, replace=False)
        state, _ = train(model, cfg, unlabeled=unl, state=state)
        rest = np.setdiff1d(np.arange(5), batch)
        for key, old in before.items():
            new = state.factors[key]
            assert np.all(new[batch] != old[batch])
            assert np.array_equal(new[rest], old[rest])


class DictAdam:
    """The dict-per-key Adam that the flat one replaced, kept as the reference
    for its bits: ascent over named arrays, the rows `rows[key]` of an array
    updated alone when given."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = lr
        self.m, self.v = {}, {}
        self.t = 0

    def step(self, params, grads, rows=None):
        self.t += 1
        # Kingma & Ba's alpha_t and eps_hat, which fold in the bias correction
        root = (1.0 - self.beta2**self.t) ** 0.5
        alpha = self.lr * root / (1.0 - self.beta1**self.t)
        eps = self.eps * root
        for key, gradient in grads.items():
            arr = params[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(arr)
                self.v[key] = np.zeros_like(arr)
            m, v = self.m[key], self.v[key]
            if rows and key in rows:
                sel = rows[key]
                m[sel] = self.beta1 * m[sel] + (1 - self.beta1) * gradient
                v[sel] = self.beta2 * v[sel] + (1 - self.beta2) * (gradient * gradient)
                arr[sel] += alpha * m[sel] / (np.sqrt(v[sel]) + eps)
                continue
            m *= self.beta1
            m += (1 - self.beta1) * gradient
            v *= self.beta2
            v += (1 - self.beta2) * (gradient * gradient)
            den = np.sqrt(v)
            den += eps
            step = m * alpha
            step /= den
            arr += step


class TestAdam:
    """The flat Adam against DictAdam over the same named arrays, laid out
    one after another in a flat vector."""

    SHAPES = {"w": (7,), "a": (5, 3), "rows": (6, 2)}

    @staticmethod
    def views(flat):
        out, pos = {}, 0
        for key, shape in TestAdam.SHAPES.items():
            size = int(np.prod(shape))
            out[key] = flat[pos : pos + size].reshape(shape)
            pos += size
        return out

    def assert_bit_equal(self, adam, theta, ref, ref_arrays):
        for flat, named in ((theta, ref_arrays), (adam.m, ref.m), (adam.v, ref.v)):
            for key, view in self.views(flat).items():
                assert view.tobytes() == named[key].tobytes(), key

    # the default takes the vector in one block; 4 in nine, the last of two
    @pytest.mark.parametrize("block", [Adam.BLOCK, 4])
    def test_full_update_bit_equal_to_dict_reference(self, block, monkeypatch):
        monkeypatch.setattr(Adam, "BLOCK", block)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(sum(int(np.prod(s)) for s in self.SHAPES.values()))
        ref_arrays = {key: view.copy() for key, view in self.views(theta).items()}
        adam, ref = Adam(lr=0.01), DictAdam(lr=0.01)
        for _ in range(5):
            grad = rng.standard_normal(theta.size)
            adam.step(theta, grad)
            ref.step(ref_arrays, {key: g.copy() for key, g in self.views(grad).items()})
            self.assert_bit_equal(adam, theta, ref, ref_arrays)

    def test_row_subset_bit_equal_to_dict_reference(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(sum(int(np.prod(s)) for s in self.SHAPES.values()))
        ref_arrays = {key: view.copy() for key, view in self.views(theta).items()}
        adam, ref = Adam(lr=0.05), DictAdam(lr=0.05)
        for _ in range(6):
            sel = rng.choice(6, size=3, replace=False)
            grad = rng.standard_normal(theta.size)
            keep = np.ones(theta.size, dtype=bool)
            rows = self.views(keep)["rows"]
            rows[:] = False
            rows[sel] = True
            outside = np.flatnonzero(~keep)
            # whatever the gradient holds outside the subset
            grad[outside] = np.nan
            frozen = [(a, a[outside].copy()) for a in (theta, adam.m, adam.v) if a is not None]
            adam.step(theta, grad, outside)
            ref_grads = {key: g.copy() for key, g in self.views(grad).items()}
            ref_grads["rows"] = ref_grads["rows"][sel]
            ref.step(ref_arrays, ref_grads, rows={"rows": sel})
            self.assert_bit_equal(adam, theta, ref, ref_arrays)
            for a, old in frozen:
                assert a[outside].tobytes() == old.tobytes()

    @pytest.mark.parametrize("with_frozen", [False, True])
    def test_prior_fold_bit_equal_to_prior_then_adam(self, with_frozen, monkeypatch):
        # the prior's slice, "w" and "a", ends at 22, inside the sixth block of four
        monkeypatch.setattr(Adam, "BLOCK", 4)
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(sum(int(np.prod(s)) for s in self.SHAPES.values()))
        ref_theta = theta.copy()
        scale, prior_end = 1.7, 22
        adam, ref = Adam(lr=0.01), Adam(lr=0.01)
        for _ in range(5):
            grad = rng.standard_normal(theta.size)
            frozen = None
            if with_frozen:
                rows = self.views(np.arange(theta.size))["rows"]
                frozen = rows[rng.choice(6, size=3, replace=False)].ravel()
            ref_grad, given = grad.copy(), grad.tobytes()
            arrays = self.views(ref_theta)
            del arrays["rows"]
            prior_logpdf_theta(arrays, self.views(ref_grad), scale)
            ref.step(ref_theta, ref_grad, frozen)
            adam.step(theta, grad, frozen, prior_end, 1.0 / (scale * scale))
            for a, b in ((theta, ref_theta), (adam.m, ref.m), (adam.v, ref.v)):
                assert a.tobytes() == b.tobytes()
            assert grad.tobytes() == given  # the fold only reads the gradient

    def test_alpha_t_form_within_rounding_of_algorithm_1(self):
        # Kingma & Ba's Algorithm 1, ascending: bias-corrected moments and eps
        # added to sqrt(v_hat); gradients from 1e-9 to 1 exercise eps
        rng = np.random.default_rng(7)
        n = 40
        theta = rng.standard_normal(n)
        ref, m, v = theta.copy(), np.zeros(n), np.zeros(n)
        adam, b1, b2 = Adam(lr=0.01), Adam.beta1, Adam.beta2
        for t in range(1, 101):
            grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-9, 0, n)
            adam.step(theta, grad)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
            ref += 0.01 * m_hat / (np.sqrt(v_hat) + Adam.eps)
            assert np.max(np.abs(theta - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestInitState:
    @pytest.mark.parametrize("d_f,d_c", [(4, 2), (8, 4), (16, 4), (12, 3), (64, 8)])
    def test_block_average_bit_equal_to_rows(self, d_f, d_c):
        lams = np.random.default_rng(d_f).normal(0.4, 0.8, (5, d_f * d_f))
        r = d_f // d_c
        rows = [lam.reshape(d_c, r, d_c, r).mean(axis=(1, 3)).ravel() for lam in lams]
        blocks = inference._block_average(lams, d_f, d_c)
        assert blocks.tobytes() == np.array(rows).tobytes()

    def test_encoders_drawn_into_theta_as_approximators_draw_them(self):
        # the state's config has seed 23 and encoder_hidden (5,)
        state, _ = semi_supervised_state(seed=23)
        dz = state.model.dim_z
        sizes = (state.model.dim_x, 5, dz)
        ref_mu = Approximator(sizes, seed=23 + 1).params
        ref_logvar = Approximator(sizes, seed=23 + 2).params
        ref_logvar[-dz:] = np.log(0.5)
        for net, ref in ((state.enc_mu, ref_mu), (state.enc_logvar, ref_logvar)):
            assert np.shares_memory(net.params, state.theta)
            assert net.params.tobytes() == ref.tobytes()


class TestStateCopy:
    def test_deepcopy_runs_on_its_own_weights(self):
        # Networks read their layers from `params` on every call, so a deep
        # copy of a state, as a benchmark makes before each timed period,
        # neither shares nor goes stale against the original's weights.
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=16)
        cfg = TrainConfig(amortized=True, encoder_hidden=(5,), seed=0)
        state = init_state(model, cfg, None, UnlabeledData(np.zeros((3, model.dim_x))), None)
        rng = np.random.default_rng(17)
        z, x = rng.standard_normal(model.dim_z), rng.standard_normal(model.dim_x)

        def outputs(s):
            return s.model.decode_x(z)[0], s.enc_mu(x), s.enc_logvar(x)

        before = outputs(state)
        twin = copy.deepcopy(state)
        for a, b in zip(outputs(twin), before):
            assert np.array_equal(a, b)
        for net in (twin.model.params.decoder, twin.enc_mu, twin.enc_logvar):
            net.params += 0.1
        for a, b in zip(outputs(twin), before):
            assert not np.array_equal(a, b)
        for a, b in zip(outputs(state), before):
            assert np.array_equal(a, b)

    def test_deepcopy_views_a_vector_of_its_own(self):
        state, _ = semi_supervised_state(seed=18)
        twin = copy.deepcopy(state)
        assert twin.theta.tobytes() == state.theta.tobytes()
        originals = [state.theta, state.grad, *state.adam_arrays().values()]
        for flat, views in ((twin.theta, twin.adam_arrays()), (twin.grad, twin.views(twin.grad))):
            for key, view in views.items():
                assert np.shares_memory(view, flat), key
                assert not any(np.shares_memory(view, a) for a in originals), key


def semi_supervised_state(seed, amortized=True):
    """A state over labeled, virtual and five unlabeled data, with encoders
    when `amortized` and unlabeled factors otherwise; returns it and the data."""
    model, _, labeled, virtual, _, _ = make_problem(seed=seed)
    cfg = TrainConfig(amortized=amortized, encoder_hidden=(5,), seed=seed)
    unl = UnlabeledData(np.random.default_rng(seed).normal(0.4, 0.8, (5, model.dim_x)))
    state = init_state(model, cfg, labeled, unl, virtual)
    return state, SimpleNamespace(labeled=labeled, unlabeled=unl, virtual=virtual)


class TestCheckpoint:
    """The file format, on states that hold a model alone or with encoders."""

    def test_roundtrip(self, tmp_path):
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=23)
        rng = np.random.default_rng(9)
        model.params.W_g[:] = rng.standard_normal(model.params.W_g.shape)
        save_state(inference.VariationalState(model), tmp_path / "ckpt")
        loaded = load_state(tmp_path / "ckpt").model
        assert loaded.metadata() == model.metadata()
        z = rng.standard_normal(model.dim_z)
        for a, b in zip(model.decode_x(z), loaded.decode_x(z)):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.params.W_g, model.params.W_g)

    def test_other_version_rejected(self, tmp_path):
        save_state(inference.VariationalState(GenerativeModel(4, 2)), tmp_path / "ckpt")
        path = tmp_path / "ckpt.json"
        header = json.loads(path.read_text())
        # version 6, whose files carry TrainConfig fields, the previous version
        # and a later one
        version = inference.CHECKPOINT_VERSION
        for other in sorted({6, version - 1, version + 1}):
            header["version"] = other
            path.write_text(json.dumps(header))
            with pytest.raises(ValueError, match=f"version {other}"):
                load_state(tmp_path / "ckpt")

    def test_loading_draws_no_init(self, tmp_path, monkeypatch):
        model = GenerativeModel(4, 2, decoder_hidden=(5,), seed=4)
        cfg = TrainConfig(amortized=True, encoder_hidden=(3,))
        state = init_state(model, cfg, None, UnlabeledData(np.zeros((2, model.dim_x))), None)
        save_state(state, tmp_path / "ckpt")

        def no_draw(*args):
            raise AssertionError("loading drew a random initialization")

        monkeypatch.setattr(approximators, "_glorot", no_draw)
        loaded = load_state(tmp_path / "ckpt")
        arrays = loaded.model.params.arrays()
        for key, arr in model.params.arrays().items():
            assert np.array_equal(arrays[key], arr)
        assert np.array_equal(loaded.enc_mu.params, state.enc_mu.params)
        assert np.array_equal(loaded.enc_logvar.params, state.enc_logvar.params)

    @pytest.mark.parametrize("extra", [8, -8, 3], ids=["padded", "truncated", "partial"])
    def test_blob_of_wrong_size_rejected(self, tmp_path, extra):
        save_state(inference.VariationalState(GenerativeModel(4, 2)), tmp_path / "ckpt")
        path = tmp_path / "ckpt.bin"
        data = path.read_bytes()
        path.write_bytes(data + bytes(extra) if extra > 0 else data[:extra])
        with pytest.raises(ValueError, match=f"has {len(data) + extra} bytes.*{len(data)} bytes"):
            load_state(tmp_path / "ckpt")


class TestStateCheckpoint:
    def test_roundtrip(self, tmp_path):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=12)
        state.iteration = 77
        save_state(state, tmp_path / "ckpt")
        loaded = load_state(tmp_path / "ckpt")
        assert loaded.iteration == 77
        assert loaded.model.metadata() == model.metadata()
        for key in state.factors:
            assert np.array_equal(loaded.factors[key], state.factors[key])
        assert set(loaded.gamma_posteriors) == set(state.gamma_posteriors)
        z = rng.standard_normal(model.dim_z)
        a = model.decode_x(z)
        b = loaded.model.decode_x(z)
        assert np.array_equal(a[0], b[0])

    def test_roundtrip_with_encoder(self, tmp_path):
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=13)
        cfg = TrainConfig(amortized=True, encoder_hidden=(5,), seed=0)
        unl = UnlabeledData(np.zeros((3, model.dim_x)))
        state = init_state(model, cfg, None, unl, None)
        save_state(state, tmp_path / "ckpt")
        loaded = load_state(tmp_path / "ckpt")
        x = np.random.default_rng(0).normal(size=model.dim_x)
        assert np.array_equal(loaded.enc_mu(x), state.enc_mu(x))

    @pytest.mark.parametrize("amortized", [True, False])
    def test_files_hold_adam_arrays_in_key_order(self, tmp_path, amortized):
        state, _ = semi_supervised_state(seed=19, amortized=amortized)
        save_state(state, tmp_path / "ckpt")
        layout = json.loads((tmp_path / "ckpt.json").read_text())["arrays"]
        arrays = state.adam_arrays()
        offsets = np.cumsum([0] + [a.size for a in arrays.values()])
        assert layout == {
            key: {"offset": int(pos), "shape": list(a.shape)}
            for (key, a), pos in zip(arrays.items(), offsets)
        }
        blob = np.concatenate([a.ravel() for a in arrays.values()]).astype("<f8").tobytes()
        assert (tmp_path / "ckpt.bin").read_bytes() == blob

    @pytest.mark.parametrize("amortized", [True, False])
    def test_loaded_state_trains_like_the_saved_one(self, tmp_path, amortized):
        state, d = semi_supervised_state(seed=20, amortized=amortized)
        save_state(state, tmp_path / "ckpt")
        loaded = load_state(tmp_path / "ckpt")
        for key, view in loaded.adam_arrays().items():
            assert np.shares_memory(view, loaded.theta), key
        save_state(loaded, tmp_path / "again")
        for suffix in (".json", ".bin"):
            again = (tmp_path / "again").with_suffix(suffix).read_bytes()
            assert again == (tmp_path / "ckpt").with_suffix(suffix).read_bytes()
        # a minibatch of two of the five unlabeled data per iteration
        cfg = TrainConfig(iterations=10, unlabeled_batch=2, cadence=5, plateau_window=10**9)
        runs = [
            train(s.model, cfg, d.labeled, d.unlabeled, d.virtual, state=s)
            for s in (state, loaded)
        ]
        (a, log_a), (b, log_b) = runs
        assert list(a.adam_arrays()) == list(b.adam_arrays())
        for key, arr in a.adam_arrays().items():
            assert arr.tobytes() == b.adam_arrays()[key].tobytes(), key
        assert np.array_equal(log_a.column("F"), log_b.column("F"))
