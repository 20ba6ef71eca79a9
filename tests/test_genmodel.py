import numpy as np
import pytest
from scipy.stats import multivariate_normal

from cgsur import fem, genmodel
from cgsur.field import BoundaryCoeffs
from cgsur.genmodel import GenerativeModel

BC_A = BoundaryCoeffs(0.0, 0.0, 1.0, 1.0)


def max_rel(a, b):
    b = np.asarray(b)
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def small_model(seed=0):
    # d_f = 4, d_c = 2; tiny decoder keeps finite differences cheap
    return GenerativeModel(4, 2, decoder_hidden=(6,), seed=seed)


class TestLatentConfig:
    def test_default_half_dim_X(self):
        for d_c, dim_z in ((4, 8), (2, 2), (1, 1)):  # floor at 1
            assert GenerativeModel(4, d_c, decoder_hidden=(2,)).dim_z == dim_z

    def test_invariants(self):
        with pytest.raises(ValueError):
            GenerativeModel(4, 2, dim_z=0)

    def test_grid_mismatch(self):
        for d_f, d_c in ((9, 2), (4, 0)):
            with pytest.raises(ValueError):
                GenerativeModel(d_f, d_c)


class TestPrior:
    def test_at_zero(self):
        m = small_model()
        z = np.zeros(m.dim_z)
        assert m.prior_logpdf(z) == pytest.approx(-0.5 * m.dim_z * np.log(2 * np.pi))

    def test_unit_vector(self):
        m = GenerativeModel(2, 2, dim_z=2, decoder_hidden=(4,))
        assert m.prior_logpdf(np.array([1.0, 0.0])) == pytest.approx(
            -0.5 - np.log(2 * np.pi)
        )

    def test_chi_square_moment(self):
        m = small_model()
        rng = np.random.default_rng(0)
        n = 100_000
        sq = np.array([m.prior_sample(rng) @ m.prior_sample(rng).T for _ in range(0)])
        draws = rng.standard_normal((n, m.dim_z))
        sq = np.sum(draws * draws, axis=1)
        se = np.sqrt(2.0 * m.dim_z / n)
        assert abs(sq.mean() - m.dim_z) < 3 * se


class TestDecoder:
    def test_variance_clamped(self):
        m = small_model()
        # force the variance head to extreme values through its output bias
        out_layer_bias = m.params.decoder.params[-2 * m.dim_x :]
        out_layer_bias[m.dim_x :] = 100.0  # exp(100) >> VAR_MAX
        _, var = m.decode_x(np.zeros(m.dim_z))
        assert np.all(var <= genmodel.VAR_MAX)
        out_layer_bias[m.dim_x :] = -100.0
        _, var = m.decode_x(np.zeros(m.dim_z))
        assert np.all(var >= genmodel.VAR_MIN)

    def test_logpdf_at_mean(self):
        m = small_model()
        z = np.full(m.dim_z, 0.3)
        mean, var = m.decode_x(z)
        assert m.logp_x_given_z(mean, z) == pytest.approx(
            -0.5 * np.sum(np.log(2 * np.pi * var))
        )

    def test_grads_match_finite_differences(self):
        m = small_model(seed=3)
        rng = np.random.default_rng(1)
        z = rng.standard_normal(m.dim_z)
        x = rng.normal(0.4, 0.8, m.dim_x)
        val, gz, grads = m.logp_x_given_z_grads(x, z)
        assert val == pytest.approx(m.logp_x_given_z(x, z))
        h = 1e-6
        params = m.params.decoder.params
        idx = rng.choice(params.size, size=25, replace=False)
        for i in idx:
            old = params[i]
            params[i] = old + h
            fp = m.logp_x_given_z(x, z)
            params[i] = old - h
            fm = m.logp_x_given_z(x, z)
            params[i] = old
            fd = (fp - fm) / (2 * h)
            assert grads["decoder"][i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        for i in range(m.dim_z):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (m.logp_x_given_z(x, zp) - m.logp_x_given_z(x, zm)) / (2 * h)
            assert gz[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


    def test_rows_match_single_calls(self):
        m = GenerativeModel(4, 2, decoder_hidden=(6, 5), seed=3)
        rng = np.random.default_rng(6)
        zs = rng.standard_normal((5, m.dim_z))
        xs = rng.normal(0.4, 0.8, (5, m.dim_x))
        val, gz, grads = m.logp_x_given_z_grads(xs, zs)
        singles = [m.logp_x_given_z_grads(x, z) for x, z in zip(xs, zs)]
        assert val.shape == (5,) and gz.shape == zs.shape
        assert max_rel(val, [v for v, _, _ in singles]) <= 1e-13
        assert max_rel(gz, [g for _, g, _ in singles]) <= 1e-13
        ref = np.sum([g["decoder"] for _, _, g in singles], axis=0)
        assert max_rel(grads["decoder"], ref) <= 1e-13

    def test_z_gradient_alone(self):
        m = small_model(seed=2)
        rng = np.random.default_rng(7)
        z, x = rng.standard_normal(m.dim_z), rng.normal(0.4, 0.8, m.dim_x)
        val, gz, _ = m.logp_x_given_z_grads(x, z)
        val2, gz2, grads = m.logp_x_given_z_grads(x, z, theta=False)
        assert grads == {} and val2 == val and np.array_equal(gz2, gz)


class TestCoarseMap:
    def test_zero_weights_give_bias(self):
        m = small_model()
        m.params.W_g[:] = 0.0
        m.params.b_g[:] = 0.7
        for z in (np.zeros(m.dim_z), np.ones(m.dim_z)):
            mean, _ = m.coarse_map(z)
            assert np.allclose(mean, 0.7)

    def test_linearity(self):
        m = small_model(seed=5)
        rng = np.random.default_rng(2)
        z1, z2 = rng.standard_normal((2, m.dim_z))
        b = m.params.b_g
        m1, _ = m.coarse_map(z1)
        m2, _ = m.coarse_map(z2)
        m12, _ = m.coarse_map(z1 + z2)
        assert np.allclose(m12 - b, (m1 - b) + (m2 - b), atol=1e-12)

    def test_grads_match_finite_differences(self):
        m = small_model(seed=7)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(m.dim_z)
        X = rng.normal(0.4, 0.5, m.dim_X)
        val, gX, gz, grads = m.logp_X_given_z_grads(X, z)
        h = 1e-6
        for (i, j) in [(0, 0), (1, 1), (2, 0), (3, 1)]:
            old = m.params.W_g[i, j]
            m.params.W_g[i, j] = old + h
            fp = m.logp_X_given_z(X, z)
            m.params.W_g[i, j] = old - h
            fm = m.logp_X_given_z(X, z)
            m.params.W_g[i, j] = old
            assert grads["W_g"][i, j] == pytest.approx(
                (fp - fm) / (2 * h), rel=1e-5, abs=1e-8
            )
        for i in range(m.dim_X):
            Xp, Xm = X.copy(), X.copy()
            Xp[i] += h
            Xm[i] -= h
            fd = (m.logp_X_given_z(Xp, z) - m.logp_X_given_z(Xm, z)) / (2 * h)
            assert gX[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_rows_match_single_calls(self):
        m = small_model(seed=8)
        rng = np.random.default_rng(9)
        zs = rng.standard_normal((6, m.dim_z))
        Xs = rng.normal(0.4, 0.5, (6, m.dim_X))
        val, gX, gz, grads = m.logp_X_given_z_grads(Xs, zs)
        singles = [m.logp_X_given_z_grads(X, z) for X, z in zip(Xs, zs)]
        assert val.shape == (6,) and gX.shape == Xs.shape and gz.shape == zs.shape
        for j, batched in enumerate((val, gX, gz)):
            assert max_rel(batched, [single[j] for single in singles]) <= 1e-13
        for key in ("W_g", "b_g", "log_S_X"):
            ref = np.sum([single[3][key] for single in singles], axis=0)
            assert max_rel(grads[key], ref) <= 1e-13


class TestCgm:
    def test_constant_field_linear_solution(self):
        m = small_model()
        Y = m.cgm_forward(np.zeros(m.dim_X), BC_A)
        assert np.allclose(Y, m.coarse_mesh.nodes[:, 0], atol=1e-12)

    def test_d_c_one_corner_interpolation(self):
        m = GenerativeModel(2, 1, decoder_hidden=(4,))
        assert m.dim_X == 1 and m.dim_Y == 4
        bc = BoundaryCoeffs(0.1, -0.2, 0.3, 0.4)
        for X in (np.zeros(1), np.array([1.3])):
            Y = m.cgm_forward(X, bc)
            # corners: (0,0)->a1, (1,0)->a3, (0,1)->a0, (1,1)->a2
            assert np.allclose(Y, [-0.2, 0.4, 0.1, 0.3])

    def test_grad_through_cgm(self):
        m = small_model()
        rng = np.random.default_rng(4)
        X = rng.normal(0.0, 0.5, m.dim_X)
        bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
        w = rng.standard_normal(m.dim_Y)

        def functional(Xv):
            return w @ m.cgm_forward(Xv, bc)

        sys = m.cgm_system(X, bc)
        fem.solve(sys)
        g = m.cgm_vjp(sys, w)
        h = 1e-6
        for i in range(m.dim_X):
            Xp, Xm = X.copy(), X.copy()
            Xp[i] += h
            Xm[i] -= h
            fd = (functional(Xp) - functional(Xm)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestOutputMap:
    def test_prolongation_exact_on_linear(self):
        m = small_model()
        m.params.w_h[:] = 1.0
        m.params.b_h[:] = 0.0
        coarse, fine = m.coarse_mesh, m.fine_mesh
        Y = 0.3 * coarse.nodes[:, 0] - 1.2 * coarse.nodes[:, 1] + 0.05
        mean, _ = m.output_map(Y)
        expected = 0.3 * fine.nodes[:, 0] - 1.2 * fine.nodes[:, 1] + 0.05
        assert np.allclose(mean, expected, atol=1e-13)

    def test_bias_only(self):
        m = small_model()
        m.params.b_h[:] = 2.5
        mean, _ = m.output_map(np.zeros(m.dim_Y))
        assert np.allclose(mean, 2.5)

    def test_partition_of_unity(self):
        m = small_model()
        ones = np.ones(m.dim_Y)
        assert np.allclose(m.prolongation @ ones, 1.0, atol=1e-14)

    def test_y_grads_match_finite_differences(self):
        m = small_model(seed=11)
        rng = np.random.default_rng(5)
        X = rng.normal(0.0, 0.4, m.dim_X)
        bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
        y = rng.standard_normal(m.dim_y)
        val, gX, grads = m.logp_y_given_X_grads(y, X, bc)
        assert val == pytest.approx(m.logp_y_given_X(y, X, bc))
        h = 1e-6
        for i in range(m.dim_X):
            Xp, Xm = X.copy(), X.copy()
            Xp[i] += h
            Xm[i] -= h
            fd = (m.logp_y_given_X(y, Xp, bc) - m.logp_y_given_X(y, Xm, bc)) / (2 * h)
            # inner linear solve participates: 1e-4 relative
            assert gX[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        for key in ("w_h", "b_h", "log_S_y"):
            arr = getattr(m.params, key)
            for i in (0, m.dim_y // 2):
                old = arr[i]
                arr[i] = old + h
                fp = m.logp_y_given_X(y, X, bc)
                arr[i] = old - h
                fm = m.logp_y_given_X(y, X, bc)
                arr[i] = old
                assert grads[key][i] == pytest.approx(
                    (fp - fm) / (2 * h), rel=1e-5, abs=1e-8
                )


class TestSampleJoint:
    def test_deterministic_composition_at_zero_variance(self):
        m = small_model(seed=13)
        # drive all variances to the clamp floor
        m.params.log_S_X[:] = np.log(genmodel.VAR_MIN)
        m.params.log_S_y[:] = np.log(genmodel.VAR_MIN)
        m.params.decoder.params[-m.dim_x :] = np.log(genmodel.VAR_MIN)
        rng = np.random.default_rng(6)
        s = m.sample_joint(BC_A, rng)
        mean_x, _ = m.decode_x(s["z"])
        mean_X, _ = m.coarse_map(s["z"])
        assert np.allclose(s["x"], mean_x, atol=1e-3)
        assert np.allclose(s["X"], mean_X, atol=1e-3)
        Y = m.cgm_forward(s["X"], BC_A)
        mean_y, _ = m.output_map(Y)
        assert np.allclose(s["y"], mean_y, atol=1e-3)

    def test_seed_reproducibility(self):
        m = small_model()
        a = m.sample_joint(BC_A, np.random.default_rng(42))
        b = m.sample_joint(BC_A, np.random.default_rng(42))
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_mc_mean_matches_decoder(self):
        m = small_model(seed=17)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(m.dim_z)
        mean, var = m.decode_x(z)
        n = 10_000
        draws = mean + np.sqrt(var) * rng.standard_normal((n, m.dim_x))
        se = np.sqrt(var / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.5 * se)


class TestJointDensity:
    def test_matches_independent_evaluator(self):
        # d_f = 2, d_c = 1 keeps every factor small enough for scipy to check
        m = GenerativeModel(2, 1, decoder_hidden=(3,), seed=19)
        rng = np.random.default_rng(8)
        bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
        s = m.sample_joint(bc, rng)
        total = m.joint_logpdf(s, bc)

        expected = multivariate_normal.logpdf(s["z"], np.zeros(m.dim_z), np.eye(m.dim_z))
        mean_x, var_x = m.decode_x(s["z"])
        expected += multivariate_normal.logpdf(s["x"], mean_x, np.diag(var_x))
        mean_X, var_X = m.coarse_map(s["z"])
        expected += multivariate_normal.logpdf(s["X"], mean_X, np.diag(var_X))
        mean_y, var_y = m.output_map(m.cgm_forward(s["X"], bc))
        expected += multivariate_normal.logpdf(s["y"], mean_y, np.diag(var_y))
        assert total == pytest.approx(expected, rel=1e-12)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m = small_model(seed=23)
        rng = np.random.default_rng(9)
        m.params.W_g[:] = rng.standard_normal(m.params.W_g.shape)
        genmodel.save_model(m, tmp_path / "model")
        loaded = genmodel.load_model(tmp_path / "model")
        assert loaded.metadata() == m.metadata()
        z = rng.standard_normal(m.dim_z)
        a_mean, a_var = m.decode_x(z)
        b_mean, b_var = loaded.decode_x(z)
        assert np.array_equal(a_mean, b_mean)
        assert np.array_equal(a_var, b_var)
        assert np.array_equal(loaded.params.W_g, m.params.W_g)
