import numpy as np
import pytest

from cgsur import fem, vobs
from cgsur.errors import DimensionMismatch, GridMismatch, SingularSystem
from cgsur.field import BoundaryCoeffs

BC_A = BoundaryCoeffs(0.0, 0.0, 1.0, 1.0)


def random_problem(d_f, seed, source=0.0):
    rng = np.random.default_rng(seed)
    mesh = fem.build_mesh(d_f)
    kappa = np.exp(rng.normal(0.4, 0.8, mesh.n_pixels))
    bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
    sys = fem.assemble(mesh, kappa, bc, source=source)
    return mesh, kappa, bc, sys, rng


def naive_element_data(mesh, e):
    tri = mesh.elements[e]
    pts = mesh.nodes[tri]
    mat = np.column_stack((np.ones(3), pts))
    grads = np.linalg.inv(mat).T[:, 1:]  # (3, 2), row i = grad phi_i
    return tri, grads


class TestGammaPosterior:
    def test_mean(self):
        post = vobs.GammaPosterior(alpha=4.0, beta=2.0)
        assert post.mean() == 2.0

    def test_positivity(self):
        with pytest.raises(ValueError):
            vobs.GammaPosterior(alpha=0.0, beta=1.0)

    def test_expected_log_matches_mc(self):
        post = vobs.GammaPosterior(alpha=3.5, beta=1.7)
        rng = np.random.default_rng(0)
        draws = rng.gamma(post.alpha, 1.0 / post.beta, size=200_000)
        assert post.expected_log() == pytest.approx(np.log(draws).mean(), abs=5e-3)


class TestCgr:
    def test_m1_is_25_for_dc4(self):
        mesh, kappa, bc, sys, _ = random_problem(16, 0)
        cs = vobs.build_cgr(mesh, fem.build_mesh(4), kappa, bc)
        assert cs.m == 25
        assert isinstance(cs.precision, vobs.Exact)

    def test_residual_nullity_at_exact_solution(self):
        mesh, kappa, bc, sys, _ = random_problem(16, 1, source=0.8)
        ystar = fem.solve(sys).y_vec
        cs = vobs.build_cgr(mesh, fem.build_mesh(4), kappa, bc, source=0.8)
        scale = np.linalg.norm(sys.f_vec) + np.linalg.norm(
            sys.K @ sys.dirichlet_values
        )
        assert np.max(np.abs(vobs.eval_residual(cs, ystar))) <= 1e-9 * scale

    def test_lift_oracle_two_ways(self):
        # At y = 0 with f = 0 the residual is w^T K y_D, computed here the
        # second way via direct assembly of the raw (unzeroed) rows.
        mesh, kappa, bc, sys, _ = random_problem(8, 2)
        coarse = fem.build_mesh(2)
        cs = vobs.build_cgr(mesh, coarse, kappa, bc)
        res = vobs.eval_residual(cs, np.zeros(mesh.n_nodes))
        W = np.asarray(fem.p1_prolongation(2, 8).todense())
        W[mesh.dirichlet_nodes, :] = 0.0
        expected = W.T @ (sys.K @ sys.dirichlet_values)
        assert np.allclose(res, expected, atol=1e-12)

    def test_grid_mismatch(self):
        mesh, kappa, bc, sys, _ = random_problem(8, 3)
        with pytest.raises(GridMismatch):
            vobs.build_cgr(mesh, fem.build_mesh(3), kappa, bc)

    def test_reproducible_from_inputs(self):
        mesh, kappa, bc, _, _ = random_problem(8, 4)
        a = vobs.build_cgr(mesh, fem.build_mesh(2), kappa, bc)
        b = vobs.build_cgr(mesh, fem.build_mesh(2), kappa, bc)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.alpha, b.alpha)


class TestRandomized:
    def test_count_default_60(self):
        mesh, kappa, bc, _, rng = random_problem(8, 5)
        cs = vobs.build_randomized(mesh, kappa, bc, count=60, rng=rng)
        assert cs.m == 60

    def test_residual_nullity(self):
        mesh, kappa, bc, sys, rng = random_problem(16, 6, source=0.4)
        ystar = fem.solve(sys).y_vec
        cs = vobs.build_randomized(mesh, kappa, bc, count=40, rng=rng, source=0.4)
        scale = np.linalg.norm(sys.f_vec) + np.linalg.norm(
            sys.K @ sys.dirichlet_values
        )
        assert np.max(np.abs(vobs.eval_residual(cs, ystar))) <= 1e-9 * scale

    def test_large_scale_limit(self):
        # scale >> 1: the weight is ~1 everywhere, so the row approaches the
        # row of an explicit all-ones weight (zeroed on Gamma_D).
        mesh, kappa, bc, sys, rng = random_problem(8, 7)
        cs = vobs.build_randomized(mesh, kappa, bc, count=1, scale=1e4, rng=rng)
        ones = np.ones((mesh.n_nodes, 1))
        ones[mesh.dirichlet_nodes] = 0.0
        # the weight departs from 1 by O(1/scale^2) ~ 2e-8 over the domain
        gamma0, alpha0 = vobs._weighted_residual_rows(sys, ones)
        assert np.allclose(cs.gamma[0], gamma0[0], rtol=1e-5, atol=1e-6)
        assert cs.alpha[0] == pytest.approx(alpha0[0], abs=1e-6)

    def test_scale_validated(self):
        mesh, kappa, bc, _, rng = random_problem(8, 8)
        with pytest.raises(ValueError):
            vobs.build_randomized(mesh, kappa, bc, count=4, scale=0.0, rng=rng)


class TestFlux:
    def test_divergence_free_constant_flux(self):
        mesh = fem.build_mesh(8)
        kappa = np.ones(mesh.n_pixels)
        sys = fem.assemble(mesh, kappa, BC_A)
        y = fem.solve(sys).y_vec
        cs = vobs.build_flux(mesh, fem.build_mesh(2), kappa)
        assert np.max(np.abs(vobs.eval_residual(cs, y))) < 1e-12

    def test_fgm_solution_imbalance_nonzero(self):
        mesh, kappa, bc, sys, _ = random_problem(16, 9)
        y = fem.solve(sys).y_vec
        cs = vobs.build_flux(mesh, fem.build_mesh(4), kappa)
        assert np.max(np.abs(vobs.eval_residual(cs, y))) > 1e-6

    def test_single_pixel_subdomain_hand_oracle(self):
        # d_f = d_c = 2: each subdomain is one pixel; compare each row's
        # action against edge integrals computed from naive per-element
        # fluxes (B matrices rebuilt from node coordinates).
        mesh, kappa, bc, sys, rng = random_problem(2, 10)
        y = rng.standard_normal(mesh.n_nodes)
        cs = vobs.build_flux(mesh, fem.build_mesh(2), kappa)
        h = mesh.h
        sides = {
            "bottom": (np.array([0.0, -1.0]), 0),
            "top": (np.array([0.0, 1.0]), 1),
            "left": (np.array([-1.0, 0.0]), 1),
            "right": (np.array([1.0, 0.0]), 0),
        }
        for p in range(mesh.n_pixels):
            total = 0.0
            for normal, kind in sides.values():
                e = 2 * p + kind
                tri, grads = naive_element_data(mesh, e)
                J = -kappa[mesh.pixel_of_element[e]] * grads.T @ y[tri]
                total += h * normal @ J
            assert cs.gamma[p] @ y == pytest.approx(total, abs=1e-12)

    def test_alpha_is_source_integral(self):
        mesh = fem.build_mesh(8)
        kappa = np.ones(mesh.n_pixels)
        cs = vobs.build_flux(mesh, fem.build_mesh(2), kappa, source=3.0)
        assert np.allclose(cs.alpha, 3.0 / 4.0)

    def test_telescoping_for_continuous_flux(self):
        # For a field with element-wise equal flux (u = s1, kappa = 1) the
        # interior-edge contributions cancel in the sum over subdomains and
        # only the global boundary remains; both are zero here.
        mesh = fem.build_mesh(8)
        kappa = np.ones(mesh.n_pixels)
        sys = fem.assemble(mesh, kappa, BC_A)
        y = fem.solve(sys).y_vec
        cs = vobs.build_flux(mesh, fem.build_mesh(4), kappa)
        total_row = cs.gamma.sum(axis=0)
        whole = vobs.build_flux(mesh, fem.build_mesh(1), kappa)
        assert total_row @ y == pytest.approx(whole.gamma[0] @ y, abs=1e-12)

    def test_learned_precision_group(self):
        mesh, kappa, bc, _, _ = random_problem(8, 11)
        cs = vobs.build_flux(mesh, fem.build_mesh(2), kappa)
        posts = {"flux": vobs.GammaPosterior(alpha=2.0, beta=4.0)}
        assert np.allclose(cs.lambda_inv_diag(posts), 2.0)
        with pytest.raises(KeyError):
            cs.lambda_inv_diag({})


class TestEnergyObservable:
    def test_solution_maximizes_logpdf(self):
        mesh, kappa, bc, sys, rng = random_problem(8, 12, source=0.5)
        ystar = fem.solve(sys).y_vec
        obs = vobs.build_energy(mesh, kappa, bc, tau=2.0, source=0.5)
        lp_star = vobs.energy_logpdf(obs, ystar)
        for _ in range(20):
            pert = ystar.copy()
            pert[mesh.free_nodes] += 0.05 * rng.standard_normal(len(mesh.free_nodes))
            assert vobs.energy_logpdf(obs, pert) <= lp_star + 1e-12

    def test_linear_in_tau(self):
        mesh, kappa, bc, sys, rng = random_problem(8, 13)
        y1 = rng.standard_normal(mesh.n_nodes)
        y2 = rng.standard_normal(mesh.n_nodes)
        lp1 = vobs.build_energy(mesh, kappa, bc, tau=1.0)
        lp2 = vobs.build_energy(mesh, kappa, bc, tau=2.0)
        d1 = vobs.energy_logpdf(lp1, y1) - vobs.energy_logpdf(lp1, y2)
        d2 = vobs.energy_logpdf(lp2, y1) - vobs.energy_logpdf(lp2, y2)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        mesh, kappa, bc, sys, rng = random_problem(4, 14, source=0.2)
        obs = vobs.build_energy(mesh, kappa, bc, tau=1.7, source=0.2)
        y = rng.standard_normal(mesh.n_nodes)
        g = vobs.energy_logpdf_grad(obs, y)
        h = 1e-6
        idx = rng.choice(mesh.n_nodes, size=10, replace=False)
        for i in idx:
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            fd = (vobs.energy_logpdf(obs, yp) - vobs.energy_logpdf(obs, ym)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_tau_positive(self):
        mesh, kappa, bc, _, _ = random_problem(4, 15)
        with pytest.raises(ValueError):
            vobs.build_energy(mesh, kappa, bc, tau=0.0)


class TestEvalResidual:
    def test_zero_y_zero_alpha(self):
        mesh, kappa, bc, _, _ = random_problem(8, 16)
        cs = vobs.build_cgr(mesh, fem.build_mesh(2), kappa, bc)
        cs.alpha[:] = 0.0
        assert np.all(vobs.eval_residual(cs, np.zeros(mesh.n_nodes)) == 0.0)

    def test_matches_naive_dot_products(self):
        mesh, kappa, bc, _, rng = random_problem(8, 17)
        cs = vobs.build_cgr(mesh, fem.build_mesh(2), kappa, bc)
        y = rng.standard_normal(mesh.n_nodes)
        res = vobs.eval_residual(cs, y)
        for m in range(cs.m):
            assert res[m] == pytest.approx(
                sum(cs.gamma[m, i] * y[i] for i in range(mesh.n_nodes)) - cs.alpha[m],
                abs=1e-10,
            )

    def test_dimension_check(self):
        mesh, kappa, bc, _, _ = random_problem(8, 18)
        cs = vobs.build_cgr(mesh, fem.build_mesh(2), kappa, bc)
        with pytest.raises(DimensionMismatch):
            vobs.eval_residual(cs, np.zeros(10))


class TestHybridAndStack:
    def test_bundle_counts(self):
        mesh, kappa, bc, _, rng = random_problem(16, 19)
        sets = vobs.build_hybrid(mesh, fem.build_mesh(4), kappa, bc, rng)
        kinds = [cs.kind for cs in sets]
        assert kinds == ["cgr", "randomized", "flux"]
        assert [cs.m for cs in sets] == [25, 60, 16]

    def test_dependent_exact_rows(self):
        gamma = np.zeros((3, 4))
        gamma[:, 1] = 1.0
        gamma[2, 2] = 1.0
        exact = vobs.Exact()
        sets = [
            vobs.LinearConstraintSet(gamma[:2], np.array([0.5, 0.5]), exact, "cgr"),
            vobs.LinearConstraintSet(gamma[2:], np.array([1.0]), exact, "cgr"),
        ]
        kept = vobs._drop_dependent_exact_rows(sets)
        assert [cs.m for cs in kept] == [1, 1]
        assert vobs._drop_dependent_exact_rows(kept) is kept  # full rank
        sets[0].alpha[1] = 0.7  # the duplicate contradicts its twin
        with pytest.raises(SingularSystem):
            vobs._drop_dependent_exact_rows(sets)

    def test_stacking(self):
        mesh, kappa, bc, _, rng = random_problem(8, 20)
        sets = vobs.build_hybrid(mesh, fem.build_mesh(2), kappa, bc, rng, m2=7)
        posts = {"flux": vobs.GammaPosterior(alpha=1.0, beta=2.0)}
        gamma, alpha, lam_inv = vobs.stack_sets(sets, posts)
        assert gamma.shape[0] == alpha.size == lam_inv.size == sets[0].m + 7 + 4
        assert np.all(lam_inv[: sets[0].m + 7] == 0.0)
        assert np.allclose(lam_inv[-4:], 2.0)
