import numpy as np
import pytest

from cgsur import fem, field, inference, vobs
from cgsur.errors import IllConditioned, NonFiniteLoss
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


def make_problem(d_f=4, d_c=2, n_l=3, n_o=2, seed=0, hidden=(8,), mc=1, m2=5):
    """Small model + labeled + hybrid virtual data for gradient tests."""
    rng = np.random.default_rng(seed)
    model = GenerativeModel(d_f, d_c, decoder_hidden=hidden, seed=seed)
    cfg = TrainConfig(mc_samples=mc, seed=seed)
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
    refresh_qy(state, virtual, rng)
    return model, cfg, labeled, virtual, state, rng


def crn(seed=99):
    """A fresh generator per call: every ELBO call draws in the same order
    whatever the parameter values, so equal seeds give common random numbers."""
    return np.random.default_rng(seed)


def learned_set(gamma, alpha, lam):
    """Flux-like rows with precision lam, held as the mean of a "flux"
    Gamma posterior; returns the set and the posteriors."""
    cs = vobs.LinearConstraintSet(
        gamma=gamma, alpha=alpha, precision=vobs.Learned(), kind="flux"
    )
    return cs, {"flux": vobs.GammaPosterior(alpha=lam, beta=1.0)}


def diagonal_qy(mean, var):
    """A q(y) with diagonal covariance (no conditioning rows)."""
    return LowRankGaussian(mean, var, np.zeros((0, mean.size)), False)


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
        assert not q.exact
        # Sigma = diag(sbar) - A^T A, formed densely from its precision
        sigma = np.linalg.inv(lam * gamma.T @ gamma + np.diag(1.0 / sbar))
        sign, logdet = np.linalg.slogdet(2 * np.pi * np.e * sigma)
        assert sign == 1.0
        assert q.entropy() == pytest.approx(0.5 * logdet, rel=1e-12)
        q.sample(rng)  # entropy and sampling share one factorization
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
        draws = np.array([q.sample(rng) for _ in range(50)])
        assert np.max(np.abs(draws @ g1 - a1)) < 1e-7

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
        draws = np.array([q.sample(rng) for _ in range(60000)])
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
        draws = np.array([q.sample(rng) for _ in range(n)])
        sq = np.sum((draws @ gamma.T - alpha) ** 2, axis=1)
        assert abs(analytic - sq.mean()) < 3 * sq.std() / np.sqrt(n)


class TestEnergyUpdate:
    @staticmethod
    def build(d, seed, tau):
        rng = np.random.default_rng(seed)
        mesh = fem.build_mesh(d)
        kappa = np.exp(rng.normal(0.4, 0.8, mesh.n_pixels))
        bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
        obs = vobs.build_energy(mesh, kappa, bc, tau=tau, source=0.2)
        sy_inv = rng.uniform(0.5, 3.0, mesh.n_nodes)
        h = rng.standard_normal(mesh.n_nodes)
        return obs, sy_inv, h, rng

    def test_tau_zero_limit(self):
        obs, sy_inv, h, _ = self.build(3, 6, tau=1e-14)
        q = update_qy_energy(obs, sy_inv, h)
        assert np.max(np.abs(q.mean - h)) < 1e-9
        assert np.max(np.abs(q.var - 1.0 / sy_inv)) < 1e-9

    # d = 2 has 9 nodes and a dense K; d = 22 has 529 > 500 nodes and a sparse K
    @pytest.mark.parametrize("d", [2, 22], ids=["dense", "sparse"])
    @pytest.mark.parametrize("tau", [11.0, 1e4], ids=["tau11", "tau1e4"])
    def test_matches_dense_solve(self, d, tau):
        obs, sy_inv, h, _ = self.build(d, 7, tau=tau)
        q = update_qy_energy(obs, sy_inv, h)
        K = obs.system.K
        K = K if isinstance(K, np.ndarray) else K.toarray()
        a_mat = np.diag(sy_inv) + tau * K
        mu = np.linalg.solve(a_mat, tau * obs.system.f_vec + sy_inv * h)
        assert np.max(np.abs(q.mean - mu)) <= 1e-12 * np.abs(mu).max()
        assert np.allclose(q.var, 1.0 / np.diag(a_mat))


class TestEnergyTempering:
    def test_train_keeps_observables_and_restarts_the_schedule(self, monkeypatch):
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
        virtual = VirtualData(np.array(lams), np.array(bcs), observables)
        cfg = TrainConfig(
            iterations=4, cadence=2, tau_start=1.0, tau_end=16.0, plateau_window=10**9
        )
        seen = []
        update = inference.update_qy_energy

        def recording_update(obs, *args, **kwargs):
            seen.append(obs.tau)
            return update(obs, *args, **kwargs)

        monkeypatch.setattr(inference, "update_qy_energy", recording_update)
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


class TestElboUnlabeled:
    def test_kl_zero_case(self):
        # decoder ignoring z and q(z) = prior: the ELBO is exactly the fixed
        # Gaussian log-likelihood of each x.
        model = GenerativeModel(2, 2, decoder_hidden=(4,), seed=0)
        model.params.decoder.params[:] = 0.0
        bias = model.params.decoder.params[-2 * model.dim_x :]
        bias[: model.dim_x] = 0.3
        bias[model.dim_x :] = np.log(0.7)
        cfg = TrainConfig(mc_samples=3, seed=0)
        state = init_state(
            model, cfg, None, UnlabeledData(np.zeros((2, model.dim_x))), None
        )
        state.factors["mu_z_u"][:] = 0.0
        state.factors["rho_z_u"][:] = 0.0  # variance one: exactly the prior
        rng = np.random.default_rng(0)
        xs = rng.normal(0.3, 0.5, size=(2, model.dim_x))
        value, _, _ = elbo_unlabeled(state, xs, rng)
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
        model, cfg, labeled, virtual, state, rng = make_problem(mc=2)
        n_u = 2
        xs = labeled.lambdas[:n_u]
        state.factors["mu_z_u"] = rng.standard_normal((n_u, model.dim_z)) * 0.1
        state.factors["rho_z_u"] = np.full((n_u, model.dim_z), np.log(0.2))
        _, _, fgrads = elbo_unlabeled(state, xs, crn())
        h = 1e-6
        for (i, j) in [(0, 0), (1, 1)]:
            arr = state.factors["mu_z_u"]
            old = arr[i, j]
            arr[i, j] = old + h
            vp, _, _ = elbo_unlabeled(state, xs, crn())
            arr[i, j] = old - h
            vm, _, _ = elbo_unlabeled(state, xs, crn())
            arr[i, j] = old
            fd = (vp - vm) / (2 * h)
            assert fgrads["mu_z_u"][i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_amortized_encoder_gradients(self):
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=1)
        cfg = TrainConfig(mc_samples=1, amortized=True, encoder_hidden=(7,), seed=0)
        unl = UnlabeledData(np.random.default_rng(2).normal(0.4, 0.8, (2, model.dim_x)))
        state = init_state(model, cfg, None, unl, None)
        rng = np.random.default_rng(3)
        _, tgrads, _ = elbo_unlabeled(state, unl.lambdas, crn())
        h = 1e-6
        for key, net in (("enc_mu", state.enc_mu), ("enc_logvar", state.enc_logvar)):
            idx = rng.choice(net.n_params, size=5, replace=False)
            for i in idx:
                old = net.params[i]
                net.params[i] = old + h
                vp, _, _ = elbo_unlabeled(state, unl.lambdas, crn())
                net.params[i] = old - h
                vm, _, _ = elbo_unlabeled(state, unl.lambdas, crn())
                net.params[i] = old
                fd = (vp - vm) / (2 * h)
                assert tgrads[key][i] == pytest.approx(fd, rel=2e-5, abs=1e-7)


class TestElboLabeled:
    def test_plugin_oracle_tight_factors(self):
        # q collapsed to a near-delta at a known (z, X): the estimate equals
        # the plug-in joint log-density plus the entropies. The variance is
        # small enough that every draw rounds to the mean.
        model, cfg, labeled, virtual, state, rng = make_problem(seed=1)
        i = 0
        z0 = rng.standard_normal(model.dim_z)
        X0 = rng.standard_normal(model.dim_X) * 0.3
        tiny = np.log(1e-300)
        state.factors["mu_z_l"][i] = z0
        state.factors["rho_z_l"][i] = tiny
        state.factors["mu_X_l"][i] = X0
        state.factors["rho_X_l"][i] = tiny
        value, _, _ = elbo_labeled(
            state,
            labeled.lambdas[:1],
            labeled.ys[:1],
            labeled.bcs[:1],
            rng,
            indices=[i],
        )
        bc = BoundaryCoeffs.from_array(labeled.bcs[0])
        var_z = np.full(model.dim_z, np.exp(tiny))
        var_X = np.full(model.dim_X, np.exp(tiny))
        expected = (
            model.logp_y_given_X(labeled.ys[0], X0, bc)
            + model.logp_x_given_z(labeled.lambdas[0], z0)
            + model.logp_X_given_z(X0, z0)
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
        mean_y, var_y = model.output_map(model.cgm_forward(X, bc))
        lp = model.logp_y_given_X(y_far, X, bc)
        quad = -0.5 * float(np.sum((y_far - mean_y) ** 2 / var_y))
        assert lp == pytest.approx(quad, rel=1e-3)  # log-det term negligible

    def test_theta_gradient_through_cgm(self):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=3, mc=2)

        def value():
            v, th, fa = elbo_labeled(
                state, labeled.lambdas, labeled.ys, labeled.bcs, crn()
            )
            return v, th

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
        value = expected_constraint_loglik(cs, qy, posts)
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
        v1 = expected_constraint_loglik(cs, qy, lam1)
        v2 = expected_constraint_loglik(cs, qy, lam2)
        assert (v1 - v2) == pytest.approx(0.5 * 1.5 * sq - 0.5 * np.log(2.0))

    def test_analytic_term_matches_mc_2d(self):
        rng = np.random.default_rng(12)
        gamma = np.array([[1.0, -0.5]])
        alpha = np.array([0.3])
        cs, posts = learned_set(gamma, alpha, 2.2)
        post = posts["flux"]
        qy = diagonal_qy(np.array([0.4, -0.1]), np.array([0.5, 0.2]))
        analytic = expected_constraint_loglik(cs, qy, posts)
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
        model, cfg, labeled, virtual, state, rng = make_problem(seed=4, mc=1)

        def value():
            v, th, fa = elbo_virtual(
                state, virtual.lambdas, virtual.bcs, virtual.observables, crn()
            )
            return v, th

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
        refresh_qy(state, virtual, rng)
        v, th, fa = elbo_virtual(
            state, virtual.lambdas, virtual.bcs, virtual.observables, rng
        )
        assert np.isfinite(v)
        assert isinstance(state.qy[0], DiagGaussian)


def _add(grads, key, value):
    grads[key] = grads[key] + value if key in grads else np.array(value)


def _closed_z(mu, var):
    """E_q[log N(z | 0, I)] plus the entropy of q = N(mu, diag var)."""
    d = mu.size
    prior = -0.5 * (d * LOG_2PI + float(np.sum(mu * mu + var)))
    return prior + 0.5 * float(np.sum(np.log(var) + LOG_2PI + 1.0))


def looped_unlabeled(state, lambdas, rng, indices=None, scale=1.0):
    """Reference for elbo_unlabeled: one decoder (and encoder) call per datum
    and draw, noise drawn datum by datum."""
    model, mc = state.model, state.config.mc_samples
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
        acc_gz, acc_gz_eps = np.zeros(dz), np.zeros(dz)
        for eps in rng.standard_normal((mc, dz)):
            lp, gz, gdec = model.logp_x_given_z_grads(x, mu + std * eps)
            value += scale * lp / mc
            acc_gz += gz / mc
            acc_gz_eps += gz * eps / mc
            _add(theta, "decoder", scale * gdec["decoder"] / mc)
        value += scale * _closed_z(mu, var)
        d_mu = acc_gz - mu
        d_rho = 0.5 * std * acc_gz_eps - 0.5 * var + 0.5
        if amortized:
            _add(theta, "enc_mu", scale * state.enc_mu.backward(tape_mu, d_mu)[0])
            _add(theta, "enc_logvar", scale * state.enc_logvar.backward(tape_rho, d_rho)[0])
        else:
            factors["mu_z_u"][i] = scale * d_mu
            factors["rho_z_u"][i] = scale * d_rho
    return value, theta, {} if amortized else factors


def looped_conditional(state, suffix, lambdas, bcs, y_draw, rng, indices=None):
    """Reference for the labeled/virtual body: one decoder, coarse-map and
    coarse-solve call per datum and draw, y drawn after each datum's (z, X)
    noise."""
    model, mc = state.model, state.config.mc_samples
    n = lambdas.shape[0]
    idx = np.arange(n) if indices is None else np.asarray(indices)
    names = ("mu_z", "rho_z", "mu_X", "rho_X")
    rows = [state.factors[f"{name}_{suffix}"][idx] for name in names]
    factors = {f"{name}_{suffix}": np.zeros_like(r) for name, r in zip(names, rows)}
    values, theta = [], {}
    for i in range(n):
        bc = BoundaryCoeffs.from_array(bcs[i])
        mu_z, rho_z, mu_X, rho_X = (r[i] for r in rows)
        std_z, std_X = np.exp(0.5 * rho_z), np.exp(0.5 * rho_X)
        eps_z_blk = rng.standard_normal((mc, model.dim_z))
        eps_X_blk = rng.standard_normal((mc, model.dim_X))
        acc = [np.zeros(d) for d in (model.dim_z, model.dim_X) * 2]
        lik = 0.0
        for k in range(mc):
            eps_z, eps_X = eps_z_blk[k], eps_X_blk[k]
            z, X = mu_z + std_z * eps_z, mu_X + std_X * eps_X
            lp_y, gX_y, gy = model.logp_y_given_X_grads(y_draw(i, k), X, bc)
            lp_x, gz_x, gdec = model.logp_x_given_z_grads(lambdas[i], z)
            lp_X, gX_X, gz_X, gcm = model.logp_X_given_z_grads(X, z)
            for key, val in (*gy.items(), *gdec.items(), *gcm.items()):
                _add(theta, key, val / mc)
            lik += (lp_y + lp_x + lp_X) / mc
            gz, gX = gz_x + gz_X, gX_y + gX_X
            for j, term in enumerate((gz, gX, gz * eps_z, gX * eps_X)):
                acc[j] += term / mc
        var_z, var_X = np.exp(rho_z), np.exp(rho_X)
        values.append(lik + _closed_z(mu_z, var_z) + 0.5 * np.sum(np.log(var_X) + LOG_2PI + 1))
        grads = (
            acc[0] - mu_z,
            0.5 * std_z * acc[2] - 0.5 * var_z + 0.5,
            acc[1],
            0.5 * std_X * acc[3] + 0.5,
        )
        for name, g in zip(names, grads):
            factors[f"{name}_{suffix}"][i] = g
    return values, theta, factors


def assert_blocks_agree(batched, looped, rtol=1e-12):
    value, theta, factors = batched
    ref_value, ref_theta, ref_factors = looped
    assert value == pytest.approx(ref_value, rel=rtol)
    for got, ref in ((theta, ref_theta), (factors, ref_factors)):
        assert got.keys() == ref.keys()
        for key, arr in ref.items():
            assert np.shape(got[key]) == np.shape(arr)
            assert np.max(np.abs(got[key] - arr)) <= rtol * np.max(np.abs(arr)), key


class TestBlocksAgainstLoops:
    """Each ELBO block against its per-datum, per-draw loop: the same values
    and gradients, and the generator left at the same stream position."""

    @pytest.mark.parametrize("mc", [1, 3])
    def test_unlabeled_factors(self, mc):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=5, mc=mc)
        state.factors["mu_z_u"] = rng.standard_normal((4, model.dim_z)) * 0.3
        state.factors["rho_z_u"] = rng.uniform(-2.0, 0.0, (4, model.dim_z))
        xs, batch = labeled.lambdas[:2], np.array([3, 1])
        rng_a, rng_b = crn(), crn()
        batched = elbo_unlabeled(state, xs, rng_a, indices=batch, scale=1.7)
        looped = looped_unlabeled(state, xs, rng_b, indices=batch, scale=1.7)
        assert_blocks_agree(batched, looped)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_unlabeled_amortized(self):
        model = GenerativeModel(4, 2, decoder_hidden=(6,), seed=1)
        cfg = TrainConfig(mc_samples=2, amortized=True, encoder_hidden=(7,), seed=0)
        unl = UnlabeledData(np.random.default_rng(2).normal(0.4, 0.8, (3, model.dim_x)))
        state = init_state(model, cfg, None, unl, None)
        rng_a, rng_b = crn(), crn()
        batched = elbo_unlabeled(state, unl.lambdas, rng_a, scale=0.6)
        looped = looped_unlabeled(state, unl.lambdas, rng_b, scale=0.6)
        assert_blocks_agree(batched, looped)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    @pytest.mark.parametrize("mc", [1, 3])
    def test_labeled(self, mc):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=6, mc=mc)
        rng_a, rng_b = crn(), crn()
        batched = elbo_labeled(
            state, labeled.lambdas[1:], labeled.ys[1:], labeled.bcs[1:], rng_a, indices=[2, 0]
        )
        values, theta, factors = looped_conditional(
            state, "l", labeled.lambdas[1:], labeled.bcs[1:],
            lambda i, k: labeled.ys[1 + i], rng_b, indices=[2, 0],
        )
        assert_blocks_agree(batched, (sum(values), theta, factors))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    @pytest.mark.parametrize("mc", [1, 2])
    def test_virtual_hybrid(self, mc):
        model, cfg, labeled, virtual, state, rng = make_problem(seed=8, mc=mc)
        rng_a, rng_b = crn(), crn()
        batched = elbo_virtual(
            state, virtual.lambdas, virtual.bcs, virtual.observables, rng_a
        )
        values, theta, factors = looped_conditional(
            state, "o", virtual.lambdas, virtual.bcs,
            lambda i, k: state.qy[i].sample(rng_b), rng_b,
        )
        value = sum(values) + sum(
            inference._constraint_likelihood_value(obs, qy, state.gamma_posteriors)
            for obs, qy in zip(virtual.observables, state.qy)
        )
        assert_blocks_agree(batched, (value, theta, factors))
        assert rng_a.standard_normal() == rng_b.standard_normal()


class TestPriorTheta:
    def test_zero_is_maximum(self):
        arrays = {"a": np.zeros(5), "b": np.zeros((2, 2))}
        v0, _ = prior_logpdf_theta(arrays, 2.0)
        assert v0 == 0.0
        arrays["a"][0] = 1.0
        v1, g = prior_logpdf_theta(arrays, 2.0)
        assert v1 < v0
        assert g["a"][0] == pytest.approx(-0.25)

    def test_flat_limit(self):
        arrays = {"a": np.ones(3)}
        v, g = prior_logpdf_theta(arrays, 1e8)
        assert abs(v) < 1e-15
        assert np.max(np.abs(g["a"])) < 1e-15

    def test_quadratic_oracle(self):
        rng = np.random.default_rng(14)
        arrays = {"a": rng.standard_normal(7)}
        scale = 1.7
        v, _ = prior_logpdf_theta(arrays, scale)
        assert v == pytest.approx(-0.5 * float(arrays["a"] @ arrays["a"]) / scale**2)


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
        v_l1, _, _ = elbo_labeled(
            state, labeled.lambdas, labeled.ys, labeled.bcs, crn(1)
        )
        v_o1, _, _ = elbo_virtual(
            state, virtual.lambdas, virtual.bcs, virtual.observables, crn(2)
        )
        v_p1, _ = prior_logpdf_theta(model.params.arrays(), inference.THETA_PRIOR_SCALE)
        total_once = v_l1 + v_o1 + v_p1
        v_l2, _, _ = elbo_labeled(
            state, labeled.lambdas, labeled.ys, labeled.bcs, crn(1)
        )
        v_o2, _, _ = elbo_virtual(
            state, virtual.lambdas, virtual.bcs, virtual.observables, crn(2)
        )
        v_p2, _ = prior_logpdf_theta(model.params.arrays(), inference.THETA_PRIOR_SCALE)
        assert total_once == pytest.approx(v_l2 + v_o2 + v_p2, abs=1e-10)

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

    def test_requires_some_data(self):
        model = GenerativeModel(4, 2, decoder_hidden=(4,), seed=9)
        with pytest.raises(ValueError):
            train(model, TrainConfig(iterations=1))

    @pytest.mark.parametrize(
        "name,value",
        [
            ("mc_samples", 0),
            ("unlabeled_batch", 0),
            ("cadence", 0),
            ("plateau_window", 0),
            ("log_every", 0),
            ("tau_start", 0.0),
            ("tau_end", -1.0),
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


class TestAdam:
    def test_full_update_matches_row_update_bits(self):
        # the in-place full-array update against the row-subset expression
        rng = np.random.default_rng(3)
        start = rng.standard_normal((5, 3))
        full, rows = {"a": start.copy()}, {"a": start.copy()}
        adam_full, adam_rows = Adam(lr=0.01), Adam(lr=0.01)
        for _ in range(4):
            g = rng.standard_normal((5, 3))
            adam_full.step(full, {"a": g})
            adam_rows.step(rows, {"a": g}, rows={"a": np.arange(5)})
        assert np.array_equal(full["a"], rows["a"])
        assert np.array_equal(adam_full.m["a"], adam_rows.m["a"])
        assert np.array_equal(adam_full.v["a"], adam_rows.v["a"])

    def test_full_and_row_subset_updates(self):
        params = {"w": np.zeros(3), "rows": np.zeros((4, 2))}
        adam = Adam(lr=0.1)
        grads = {"w": np.ones(3), "rows": np.ones((2, 2))}
        adam.step(params, grads, rows={"rows": np.array([1, 3])})
        assert np.allclose(params["w"], 0.1)
        assert np.allclose(params["rows"][[1, 3]], 0.1)
        assert np.allclose(params["rows"][[0, 2]], 0.0)


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
