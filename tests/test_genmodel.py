import numpy as np
import pytest
from scipy.stats import multivariate_normal

from cgsur import fem, genmodel
from cgsur.field import BoundaryCoeffs
from cgsur.errors import DimensionMismatch
from cgsur.gaussians import diag_logpdf, diag_logpdf_grads
from cgsur.genmodel import GenerativeModel, clamp_gate, clamp_var

BC_A = BoundaryCoeffs(0.0, 0.0, 1.0, 1.0)


def max_rel(a, b):
    b = np.asarray(b)
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# The model's plain densities and its ancestral sampler: references for the
# *_grads terms and the joint density, which training never calls.


def prior_logpdf(m, z):
    return -0.5 * float(z @ z) - 0.5 * m.dim_z * np.log(2 * np.pi)


def logp_X_given_z(m, X, z):
    mean, var = m.coarse_map(z)
    return diag_logpdf(X, mean, var)


def logp_y_given_X(m, y, X, bc):
    mean, var = m.output_map(m.cgm_forward(np.asarray(X)[None], [bc])[0])
    return diag_logpdf(y, mean, var)


def sample_joint(m, bc, rng):
    """Ancestral sample of (z, x, X, Y, y)."""
    z = rng.standard_normal(m.dim_z)
    mean_x, var_x = m.decode_x(z)
    x = mean_x + np.sqrt(var_x) * rng.standard_normal(m.dim_x)
    mean_X, var_X = m.coarse_map(z)
    X = mean_X + np.sqrt(var_X) * rng.standard_normal(m.dim_X)
    Y = m.cgm_forward(X[None], [bc])[0]
    mean_y, var_y = m.output_map(Y)
    y = mean_y + np.sqrt(var_y) * rng.standard_normal(m.dim_y)
    return {"z": z, "x": x, "X": X, "Y": Y, "y": y}


def joint_logpdf(m, sample, bc):
    """log p(z, x, X, y) of an ancestral sample (Y is deterministic)."""
    return (
        prior_logpdf(m, sample["z"])
        + m.logp_x_given_z(sample["x"], sample["z"])
        + logp_X_given_z(m, sample["X"], sample["z"])
        + logp_y_given_X(m, sample["y"], sample["X"], bc)
    )


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
        assert prior_logpdf(m, z) == pytest.approx(-0.5 * m.dim_z * np.log(2 * np.pi))

    def test_unit_vector(self):
        m = GenerativeModel(2, 2, dim_z=2, decoder_hidden=(4,))
        assert prior_logpdf(m, np.array([1.0, 0.0])) == pytest.approx(
            -0.5 - np.log(2 * np.pi)
        )

    def test_chi_square_moment(self):
        m = small_model()
        rng = np.random.default_rng(0)
        n = 100_000
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

    def test_bit_equal_to_gaussian_helpers(self):
        m = small_model(seed=4)
        rng = np.random.default_rng(8)
        zs, x = rng.standard_normal((3, m.dim_z)), rng.normal(0.4, 0.8, m.dim_x)
        val, gz, grads = m.logp_x_given_z_grads(x, zs)
        out, tape = m.params.decoder.forward(zs)
        mean, raw_exp = out[:, : m.dim_x], np.exp(out[:, m.dim_x :])
        var = clamp_var(raw_exp)
        _, g_mean, g_var = diag_logpdf_grads(x, mean, var)
        r = x - mean
        assert np.array_equal(g_mean, r / var)
        assert np.array_equal(g_var, 0.5 * (r * r / (var * var) - 1.0 / var))
        cot = np.concatenate([g_mean, g_var * clamp_gate(raw_exp) * raw_exp], axis=-1)
        gdec, gz0 = m.params.decoder.backward(tape, cot)
        assert np.array_equal(val, diag_logpdf(x, mean, var))
        assert np.array_equal(gz, gz0)
        assert np.array_equal(grads["decoder"], gdec)

    def test_z_gradient_alone(self):
        m = small_model(seed=2)
        rng = np.random.default_rng(7)
        z, x = rng.standard_normal(m.dim_z), rng.normal(0.4, 0.8, m.dim_x)
        val, gz, _ = m.logp_x_given_z_grads(x, z)
        val2, gz2, grads = m.logp_x_given_z_grads(x, z, weights=None)
        assert grads == {} and val2 == val and np.array_equal(gz2, gz)

    def test_row_weights_weigh_the_gradients_not_the_values(self):
        m = GenerativeModel(4, 2, decoder_hidden=(6, 5), seed=3)
        rng = np.random.default_rng(9)
        zs = rng.standard_normal((4, m.dim_z))
        xs = rng.normal(0.4, 0.8, (4, m.dim_x))
        w = np.array([0.3, 2.5, 1.0, 0.0])
        val, gz, grads = m.logp_x_given_z_grads(xs, zs, weights=w)
        singles = [m.logp_x_given_z_grads(x, z) for x, z in zip(xs, zs)]
        assert max_rel(val, [v for v, _, _ in singles]) <= 1e-13
        assert max_rel(gz, [wi * g for wi, (_, g, _) in zip(w, singles)]) <= 1e-13
        ref = np.sum([wi * g["decoder"] for wi, (_, _, g) in zip(w, singles)], axis=0)
        assert max_rel(grads["decoder"], ref) <= 1e-13
        # a scalar weighs every row alike
        _, gz2, _ = m.logp_x_given_z_grads(xs, zs, weights=2.5)
        assert max_rel(gz2, 2.5 * m.logp_x_given_z_grads(xs, zs)[1]) <= 1e-13

    def test_unit_row_weights_bit_equal_to_the_default(self):
        m = GenerativeModel(4, 2, decoder_hidden=(6, 5), seed=4)
        rng = np.random.default_rng(10)
        zs, xs = rng.standard_normal((3, m.dim_z)), rng.normal(0.4, 0.8, (3, m.dim_x))
        val, gz, grads = m.logp_x_given_z_grads(xs, zs)
        val1, gz1, grads1 = m.logp_x_given_z_grads(xs, zs, weights=np.ones(3))
        assert val.tobytes() == val1.tobytes() and gz.tobytes() == gz1.tobytes()
        assert grads["decoder"].tobytes() == grads1["decoder"].tobytes()


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
            fp = logp_X_given_z(m, X, z)
            m.params.W_g[i, j] = old - h
            fm = logp_X_given_z(m, X, z)
            m.params.W_g[i, j] = old
            assert grads["W_g"][i, j] == pytest.approx(
                (fp - fm) / (2 * h), rel=1e-5, abs=1e-8
            )
        for i in range(m.dim_X):
            Xp, Xm = X.copy(), X.copy()
            Xp[i] += h
            Xm[i] -= h
            fd = (logp_X_given_z(m, Xp, z) - logp_X_given_z(m, Xm, z)) / (2 * h)
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


def cgm_rows(m, rng, n):
    """n rows of X, each with its own boundary data, and y near their means."""
    Xs = rng.normal(0.0, 0.5, (n, m.dim_X))
    bcs = [BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4)) for _ in range(n)]
    ys = m.output_map(m.cgm_forward(Xs, bcs))[0] + rng.normal(0.0, 0.1, (n, m.dim_y))
    return ys, Xs, bcs


class TestCgm:
    def test_constant_field_linear_solution(self):
        m = small_model()
        Y = m.cgm_forward(np.zeros((1, m.dim_X)), [BC_A])
        assert Y.shape == (1, m.dim_Y)
        assert np.allclose(Y[0], m.coarse_mesh.nodes[:, 0], atol=1e-12)

    def test_d_c_one_corner_interpolation(self):
        m = GenerativeModel(2, 1, decoder_hidden=(4,))
        assert m.dim_X == 1 and m.dim_Y == 4
        bc = BoundaryCoeffs(0.1, -0.2, 0.3, 0.4)
        Ys = m.cgm_forward(np.array([[0.0], [1.3]]), [bc, bc])
        # corners: (0,0)->a1, (1,0)->a3, (0,1)->a0, (1,1)->a2
        assert np.allclose(Ys, [-0.2, 0.4, 0.1, 0.3])

    def test_grad_through_cgm(self):
        # d/dX of every row, each with its own boundary data, against central
        # differences of the model's composition through cgm_forward
        m = small_model()
        rng = np.random.default_rng(4)
        m.params.w_h[:] = rng.uniform(0.5, 1.5, m.dim_y)
        ys, Xs, bcs = cgm_rows(m, rng, 3)

        def functional(Xv):
            mean, var = m.output_map(m.cgm_forward(Xv, bcs))
            return diag_logpdf(ys, mean, var)

        _, g, _ = m.logp_y_given_X_grads(ys, Xs, bcs)
        h = 1e-6
        for i in range(m.dim_X):
            Xp, Xm = Xs.copy(), Xs.copy()
            Xp[:, i] += h
            Xm[:, i] -= h
            fd = (functional(Xp) - functional(Xm)) / (2 * h)
            assert g[:, i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_rows_bit_equal_to_single_calls(self):
        m = small_model(seed=14)
        rng = np.random.default_rng(10)
        m.params.w_h[:] = rng.uniform(0.5, 1.5, m.dim_y)
        ys, Xs, bcs = cgm_rows(m, rng, 5)
        Ys = m.cgm_forward(Xs, bcs)
        assert np.array_equal(Ys, [m.cgm_forward(X[None], [bc])[0] for X, bc in zip(Xs, bcs)])
        val, gX, grads = m.logp_y_given_X_grads(ys, Xs, bcs)
        singles = [
            m.logp_y_given_X_grads(y[None], X[None], [bc]) for y, X, bc in zip(ys, Xs, bcs)
        ]
        assert val.shape == (5,) and gX.shape == Xs.shape
        assert np.array_equal(val, [v[0] for v, _, _ in singles])
        assert np.array_equal(gX, [g[0] for _, g, _ in singles])
        assert grads.keys() == {"w_h", "b_h", "log_S_y"}
        for key in grads:
            ref = np.sum([single[key] for _, _, single in singles], axis=0)
            assert max_rel(grads[key], ref) <= 1e-13

    def test_one_solve_per_row_and_one_per_adjoint(self):
        # the benchmark counts these and compares them with its traced solves
        m = small_model(seed=15)
        ys, Xs, bcs = cgm_rows(m, np.random.default_rng(11), 3)
        calls = {
            1: lambda: m.cgm_forward(Xs, bcs),
            2: lambda: m.logp_y_given_X_grads(ys, Xs, bcs),
        }
        for per_row, call in calls.items():
            coarse, fine = fem.solve_count(m.d_c), fem.solve_count(m.d_f)
            call()
            assert fem.solve_count(m.d_c) - coarse == per_row * len(Xs)
            assert fem.solve_count(m.d_f) == fine

    def test_row_counts_must_agree(self):
        m = small_model(seed=16)
        ys, Xs, bcs = cgm_rows(m, np.random.default_rng(12), 3)
        before = fem.solve_count(m.d_c)
        bad_calls = (
            lambda: m.cgm_forward(Xs, bcs[:2]),
            lambda: m.cgm_forward(Xs[0], bcs[:1]),
            lambda: m.logp_y_given_X_grads(ys, Xs, bcs + bcs[:1]),
            lambda: m.logp_y_given_X_grads(ys[:2], Xs, bcs),
            lambda: m.logp_y_given_X_grads(ys[:, 1:], Xs, bcs),
        )
        for call in bad_calls:
            with pytest.raises(DimensionMismatch):
                call()
        assert fem.solve_count(m.d_c) == before


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

    def test_rows_bit_equal_to_single_calls(self):
        m = small_model(seed=12)
        rng = np.random.default_rng(9)
        m.params.w_h[:] = rng.uniform(0.5, 1.5, m.dim_y)
        Ys = rng.standard_normal((4, m.dim_Y))
        mean, var = m.output_map(Ys)
        assert np.array_equal(mean, [m.output_map(Y)[0] for Y in Ys])
        assert np.array_equal(var, m.var_y())
        with pytest.raises(DimensionMismatch):
            m.output_map(Ys[None])

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
        val, gX, grads = m.logp_y_given_X_grads(y[None], X[None], [bc])
        val, gX = val[0], gX[0]
        assert val == pytest.approx(logp_y_given_X(m, y, X, bc))
        h = 1e-6
        for i in range(m.dim_X):
            Xp, Xm = X.copy(), X.copy()
            Xp[i] += h
            Xm[i] -= h
            fd = (logp_y_given_X(m, y, Xp, bc) - logp_y_given_X(m, y, Xm, bc)) / (2 * h)
            # inner linear solve participates: 1e-4 relative
            assert gX[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        for key in ("w_h", "b_h", "log_S_y"):
            arr = getattr(m.params, key)
            for i in (0, m.dim_y // 2):
                old = arr[i]
                arr[i] = old + h
                fp = logp_y_given_X(m, y, X, bc)
                arr[i] = old - h
                fm = logp_y_given_X(m, y, X, bc)
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
        s = sample_joint(m, BC_A, rng)
        mean_x, _ = m.decode_x(s["z"])
        mean_X, _ = m.coarse_map(s["z"])
        assert np.allclose(s["x"], mean_x, atol=1e-3)
        assert np.allclose(s["X"], mean_X, atol=1e-3)
        Y = m.cgm_forward(s["X"][None], [BC_A])[0]
        assert np.array_equal(s["Y"], Y)
        mean_y, _ = m.output_map(Y)
        assert np.allclose(s["y"], mean_y, atol=1e-3)

    def test_seed_reproducibility(self):
        m = small_model()
        a = sample_joint(m, BC_A, np.random.default_rng(42))
        b = sample_joint(m, BC_A, np.random.default_rng(42))
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
        s = sample_joint(m, bc, rng)
        total = joint_logpdf(m, s, bc)

        expected = multivariate_normal.logpdf(s["z"], np.zeros(m.dim_z), np.eye(m.dim_z))
        mean_x, var_x = m.decode_x(s["z"])
        expected += multivariate_normal.logpdf(s["x"], mean_x, np.diag(var_x))
        mean_X, var_X = m.coarse_map(s["z"])
        expected += multivariate_normal.logpdf(s["X"], mean_X, np.diag(var_X))
        mean_y, var_y = m.output_map(m.cgm_forward(s["X"][None], [bc])[0])
        expected += multivariate_normal.logpdf(s["y"], mean_y, np.diag(var_y))
        assert total == pytest.approx(expected, rel=1e-12)
