import numpy as np
import pytest
import scipy.sparse as sp

from cgsur import fem, field, inference, vobs
from cgsur.errors import GridMismatch, InvalidSize, NonPositiveConductivity, SingularSystem
from cgsur.field import BoundaryCoeffs

BC_A = BoundaryCoeffs(0.0, 0.0, 1.0, 1.0)


def naive_assemble(mesh, kappa):
    """Independent stiffness assembly from node coordinates.

    Computes P1 gradients per element with the generic barycentric formula,
    without reusing any of the mesh's precomputed reference matrices.
    """
    n = mesh.n_nodes
    K = np.zeros((n, n))
    for e in range(mesh.n_elements):
        tri = mesh.elements[e]
        pts = mesh.nodes[tri]
        mat = np.column_stack((np.ones(3), pts))
        area = 0.5 * abs(np.linalg.det(mat))
        # gradients of barycentric coordinates
        grads = np.linalg.inv(mat).T[:, 1:]  # row i -> grad of phi_i
        ke = kappa[mesh.pixel_of_element[e]] * area * grads @ grads.T
        for a in range(3):
            for b in range(3):
                K[tri[a], tri[b]] += ke[a, b]
    return K


def add_at_assemble(mesh, kappa):
    """Dense K summed with np.add.at from the same element blocks."""
    n = mesh.n_nodes
    blocks = kappa[mesh.pixel_of_element][:, None, None] * fem._K_REF[mesh.element_kind]
    K = np.zeros((n, n))
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    np.add.at(K, (rows, cols), blocks.ravel())
    return K


def add_at_vjp(sys, cot):
    """solve_vjp with its per-pixel sum taken by np.add.at."""
    mesh = sys.mesh
    grad = np.zeros(mesh.n_pixels)
    y = fem.solve(sys).y_vec
    mu = np.zeros(mesh.n_nodes)
    mu[mesh.free_nodes] = sys.solve_free(cot[mesh.free_nodes])
    kref = fem._K_REF[mesh.element_kind]
    per_elem = -np.einsum("ei,eij,ej->e", mu[mesh.elements], kref, y[mesh.elements])
    np.add.at(grad, mesh.pixel_of_element, per_elem)
    return grad


def energy(sys, y):
    """Discrete potential 0.5 y^T K y over the full nodal vector."""
    return 0.5 * float(y @ (sys.K @ y))


def random_system(d, seed):
    rng = np.random.default_rng(seed)
    mesh = fem.build_mesh(d)
    kappa = np.exp(rng.normal(0.4, 0.8, mesh.n_pixels))
    bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
    return mesh, kappa, bc, fem.assemble(mesh, kappa, bc)


class TestMesh:
    def test_counts_d1(self):
        m = fem.build_mesh(1)
        assert m.n_nodes == 4
        assert m.n_elements == 2

    def test_counts_d2(self):
        m = fem.build_mesh(2)
        assert m.n_nodes == 9
        assert m.n_elements == 8

    def test_dim_y_d32(self):
        assert fem.build_mesh(32).n_nodes == 33**2 == 1089

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            fem.Mesh(0)

    def test_element_indices_valid(self):
        m = fem.build_mesh(5)
        assert np.all(m.elements >= 0)
        assert np.all(m.elements < m.n_nodes)
        for e in m.elements:
            assert len(set(e.tolist())) == 3
        # each pixel owns exactly two elements
        counts = np.bincount(m.pixel_of_element, minlength=m.n_pixels)
        assert np.all(counts == 2)

    def test_boundary_classification(self):
        m = fem.build_mesh(3)
        for n in m.dirichlet_nodes:
            assert m.nodes[n, 0] in (0.0, 1.0)

    def test_nested_refinement(self):
        # every coarse element is a union of fine elements: the p1 interpolant
        # of any coarse nodal field is reproduced exactly on fine nodes that
        # are also coarse nodes, and is linear within each coarse triangle.
        W = fem.p1_prolongation(2, 8)
        rng = np.random.default_rng(0)
        Yc = rng.standard_normal(9)
        fine = fem.build_mesh(8)
        interp = W @ Yc
        coarse = fem.build_mesh(2)
        for m, (x, y) in enumerate(coarse.nodes):
            n_f = int(round(y * 8)) * 9 + int(round(x * 8))
            assert interp[n_f] == pytest.approx(Yc[m], abs=1e-14)


def locate_in_coarse(fine_nodes, d_c):
    """Coarse cell (row, col) and local coords (xi, eta) of each fine node."""
    x, y = fine_nodes[:, 0], fine_nodes[:, 1]
    col = np.minimum((x * d_c).astype(np.int64), d_c - 1)
    row = np.minimum((y * d_c).astype(np.int64), d_c - 1)
    return row, col, x * d_c - col, y * d_c - row


def coo_bilinear_prolongation(d_c, d_f):
    """Reference: four corner weights per fine node, summed COO -> CSR."""
    fine = fem.build_mesh(d_f)
    row, col, xi, eta = locate_in_coarse(fine.nodes, d_c)
    n00 = row * (d_c + 1) + col
    corners = np.column_stack((n00, n00 + 1, n00 + d_c + 1, n00 + d_c + 2))
    weights = np.column_stack(
        ((1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta)
    )
    rows = np.repeat(np.arange(fine.n_nodes), 4)
    shape = (fine.n_nodes, (d_c + 1) ** 2)
    return sp.coo_matrix((weights.ravel(), (rows, corners.ravel())), shape).tocsr()


def coo_p1_prolongation(d_c, d_f):
    """Reference: three barycentric weights per fine node, COO -> CSR -> dense."""
    fine = fem.build_mesh(d_f)
    row, col, xi, eta = locate_in_coarse(fine.nodes, d_c)
    n00 = row * (d_c + 1) + col
    lower = (eta <= xi)[:, None]
    cols = np.where(
        lower,
        np.column_stack((n00, n00 + 1, n00 + d_c + 2)),
        np.column_stack((n00, n00 + d_c + 2, n00 + d_c + 1)),
    )
    weights = np.where(
        lower,
        np.column_stack((1 - xi, xi - eta, eta)),
        np.column_stack((1 - eta, xi, eta - xi)),
    )
    rows = np.repeat(np.arange(fine.n_nodes), 3)
    shape = (fine.n_nodes, (d_c + 1) ** 2)
    return np.asarray(sp.coo_matrix((weights.ravel(), (rows, cols.ravel())), shape).todense())


GRID_PAIRS = [(4, 2), (8, 4), (16, 4), (16, 16), (12, 3), (3, 1), (32, 4), (64, 8)]


class TestProlongation:
    @pytest.mark.parametrize("d_f,d_c", GRID_PAIRS)
    def test_bilinear_bit_equal_to_coo(self, d_f, d_c):
        P, ref = fem.bilinear_prolongation(d_c, d_f), coo_bilinear_prolongation(d_c, d_f)
        assert P.toarray().tobytes() == ref.toarray().tobytes()
        assert np.all(P.data != 0.0)  # the reference stores its zero weights
        rng = np.random.default_rng(d_f)
        Y, cot = rng.standard_normal((P.shape[1], 5)), rng.standard_normal((P.shape[0], 3))
        assert (P @ Y).tobytes() == (ref @ Y).tobytes()
        assert (P.T.tocsr() @ cot).tobytes() == (ref.T.tocsr() @ cot).tobytes()

    @pytest.mark.parametrize("d_f,d_c", GRID_PAIRS)
    def test_p1_bit_equal_to_coo(self, d_f, d_c):
        W = fem.p1_prolongation(d_c, d_f)
        assert W.tobytes() == coo_p1_prolongation(d_c, d_f).tobytes()


class TestAssemble:
    def test_matches_naive_assembly(self):
        mesh, kappa, bc, sys = random_system(3, 0)
        assert np.allclose(sys.K.toarray(), naive_assemble(mesh, kappa), atol=1e-13)

    def test_row_sums_zero(self):
        mesh = fem.build_mesh(4)
        sys = fem.assemble(mesh, np.ones(16), BC_A)
        assert np.max(np.abs(np.sum(sys.K, axis=1))) < 1e-13

    def test_unit_triangle_stencil(self):
        # kappa = 1, d = 1: the classic P1 stencil on two right triangles.
        # Diagonal nodes collect 0.5 from each triangle, off-diagonal nodes
        # 1.0 from their single triangle; no coupling across the diagonal.
        mesh = fem.build_mesh(1)
        sys = fem.assemble(mesh, np.ones(1), BC_A)
        expected = np.array(
            [
                [1.0, -0.5, -0.5, 0.0],
                [-0.5, 1.0, 0.0, -0.5],
                [-0.5, 0.0, 1.0, -0.5],
                [0.0, -0.5, -0.5, 1.0],
            ]
        )
        assert np.allclose(sys.K.toarray(), expected)
        assert np.max(np.abs(np.sum(sys.K, axis=1))) < 1e-14

    def test_zero_source_zero_load(self):
        mesh, _, _, sys = random_system(4, 1)
        assert np.all(sys.f_vec == 0.0)

    def test_stiffness_linear_in_kappa(self):
        mesh = fem.build_mesh(3)
        rng = np.random.default_rng(2)
        kappa = rng.uniform(0.5, 2.0, mesh.n_pixels)
        K1 = fem.assemble(mesh, kappa, BC_A).K.toarray()
        K2 = fem.assemble(mesh, 3.0 * kappa, BC_A).K.toarray()
        assert np.allclose(K2, 3.0 * K1)

    def test_rejects_nonpositive_kappa(self):
        mesh = fem.build_mesh(2)
        with pytest.raises(NonPositiveConductivity):
            fem.assemble(mesh, np.array([1.0, -1.0, 1.0, 1.0]), BC_A)

    def test_rejects_nan_kappa_on_a_band_grid(self):
        mesh = fem.build_mesh(22)
        kappa = np.ones(mesh.n_pixels)
        kappa[100] = np.nan
        with pytest.raises(NonPositiveConductivity):
            fem.assemble(mesh, kappa, BC_A)

    def test_band_grid_K_bit_equal_to_csr_of_the_blocks(self):
        for d in (16, 22):
            mesh, kappa, _, sys = random_system(d, 14 + d)
            blocks = kappa[mesh.pixel_of_element][:, None, None] * fem._K_REF[mesh.element_kind]
            # stably sorted entries make scipy sum the duplicates in element order
            o = np.lexsort((mesh._cols, mesh._rows))
            K0 = sp.coo_matrix((blocks.ravel()[o], (mesh._rows[o], mesh._cols[o]))).tocsr()
            assert sys.K.format == "csr" and sys.K.shape == K0.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(sys.K, part), getattr(K0, part)), (d, part)

    @pytest.mark.parametrize("d", [1, 2, 4, 16, 22])
    def test_bit_equal_to_add_at(self, d):
        rng = np.random.default_rng(d)
        mesh = fem.build_mesh(d)
        kappa = np.exp(rng.normal(0.4, 0.8, mesh.n_pixels))
        sys = fem.assemble(mesh, kappa, BC_A)
        assert np.array_equal(sys.K.toarray(), add_at_assemble(mesh, kappa))

    def test_mesh_builds_csr_structure_on_first_read_of_K(self):
        mesh = fem.Mesh(8)  # not the memoized mesh, which other tests read K on
        sys = fem.assemble(mesh, np.ones(mesh.n_pixels), BC_A)
        fem.solve(sys)
        fem.solve_vjp(sys, np.ones(mesh.n_nodes))
        assert "_csr" not in vars(mesh)
        assert np.array_equal(sys.K.toarray(), add_at_assemble(mesh, np.ones(mesh.n_pixels)))
        assert "_csr" in vars(mesh)

    def test_accepts_field_sample(self):
        spec = field.GrfSpec(grid_size=4)
        s = field.GrfSampler(spec).sample(np.random.default_rng(0))
        mesh = fem.build_mesh(4)
        sys = fem.assemble(mesh, s, BC_A)
        assert np.allclose(sys.kappa, s.kappa_vec)


class TestSolve:
    def test_linear_solution_exact(self):
        # kappa = 1, f = 0, u_D = s1 on both edges -> u = s1 exactly.
        mesh = fem.build_mesh(8)
        sys = fem.assemble(mesh, np.ones(64), BC_A)
        y = fem.solve(sys).y_vec
        assert np.max(np.abs(y - mesh.nodes[:, 0])) < 1e-12
        mid = np.where(mesh.nodes[:, 0] == 0.5)[0]
        assert np.allclose(y[mid], 0.5)

    def test_constant_solution(self):
        mesh = fem.build_mesh(4)
        bc = BoundaryCoeffs(0.3, 0.3, 0.3, 0.3)
        rng = np.random.default_rng(3)
        kappa = rng.uniform(0.5, 2.0, 16)
        y = fem.solve(fem.assemble(mesh, kappa, bc)).y_vec
        assert np.max(np.abs(y - 0.3)) < 1e-12

    def test_dirichlet_entries_exact(self):
        mesh, kappa, bc, sys = random_system(4, 4)
        y = fem.solve(sys).y_vec
        dv = mesh.dirichlet_values(bc)
        assert np.array_equal(y[mesh.dirichlet_nodes], dv[mesh.dirichlet_nodes])

    def test_matches_dense_lu_oracle(self):
        mesh, kappa, bc, sys = random_system(4, 5)
        K0 = naive_assemble(mesh, kappa)
        free, cons = mesh.free_nodes, mesh.dirichlet_nodes
        y0 = mesh.dirichlet_values(bc)
        rhs = -K0[np.ix_(free, cons)] @ y0[cons]
        y0[free] = np.linalg.solve(K0[np.ix_(free, free)], rhs)
        y = fem.solve(sys).y_vec
        assert np.max(np.abs(y - y0)) < 1e-11

    def test_cached_solution_is_read_only(self):
        # an in-place edit of the cached solution would change every later
        # solve of the system and its adjoint gradients
        _, _, _, sys = random_system(8, 36)
        cot = np.random.default_rng(37).standard_normal(sys.mesh.n_nodes)
        with pytest.raises(ValueError):
            fem.solve(sys).y_vec *= 2.0
        _, _, _, fresh = random_system(8, 36)
        assert np.array_equal(fem.solve(sys).y_vec, fem.solve(fresh).y_vec)
        assert np.array_equal(fem.solve_vjp(sys, cot), fem.solve_vjp(fresh, cot))

    def test_residual_tolerance(self):
        mesh, kappa, bc, sys = random_system(16, 6)
        y = fem.solve(sys).y_vec
        free = mesh.free_nodes
        rhs = (sys.K @ mesh.dirichlet_values(bc))[free]
        res = (sys.K @ y)[free]
        assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_sparse_path_matches_dense(self):
        mesh, kappa, bc, sys = random_system(32, 7)
        y = fem.solve(sys).y_vec
        K0 = naive_assemble(mesh, kappa)
        free, cons = mesh.free_nodes, mesh.dirichlet_nodes
        y0 = mesh.dirichlet_values(bc)
        y0[free] = np.linalg.solve(
            K0[np.ix_(free, free)], -K0[np.ix_(free, cons)] @ y0[cons]
        )
        assert np.max(np.abs(y - y0)) < 1e-10

    @pytest.mark.parametrize("d", [4, 16, 22, 32])
    def test_band_path_matches_a_dense_solve_of_the_naive_assembly(self, d):
        mesh, kappa, _, sys = random_system(d, 40 + d)
        y = fem.solve(sys).y_vec
        K0 = naive_assemble(mesh, kappa)
        free, cons = mesh.free_nodes, mesh.dirichlet_nodes
        g = sys.dirichlet_values[cons]
        u0 = np.linalg.solve(K0[np.ix_(free, free)], -K0[np.ix_(free, cons)] @ g)
        assert np.max(np.abs(y[free] - u0)) <= 1e-13 * np.abs(u0).max()
        assert np.array_equal(y[cons], g)

    def test_band_path_builds_no_sparse_matrix(self, monkeypatch):
        monkeypatch.setattr(fem, "sp", None)  # any scipy.sparse call in fem raises
        for d in (4, 16, 22):
            mesh = fem.build_mesh(d)
            kappa = np.exp(np.random.default_rng(38).normal(0.4, 0.8, mesh.n_pixels))
            sys = fem.assemble(mesh, kappa, BC_A)
            fem.solve(sys)
            fem.solve_vjp(sys, np.ones(mesh.n_nodes))
            obs = vobs.EnergyObservable(system=sys, tau=1e3)
            inference.update_qy_energy(obs, np.full(mesh.n_nodes, 2.0), np.zeros(mesh.n_nodes))
            assert sys._K is None, d

    def test_all_dirichlet_grid_runs_the_band_path(self):
        # d = 1: all four nodes carry Dirichlet data, so K_ff is 0 x 0
        fem.reset_solve_counts()
        mesh, _, bc, sys = random_system(1, 39)
        assert mesh.free_nodes.size == 0
        assert np.array_equal(fem.solve(sys).y_vec, mesh.dirichlet_values(bc))
        assert fem.solve_count(1) == 1
        assert np.array_equal(fem.solve_vjp(sys, np.ones(mesh.n_nodes)), np.zeros(1))

    @pytest.mark.parametrize("d", [4, 22])
    def test_infinite_kappa_raises_nonpositive_conductivity(self, d):
        mesh = fem.build_mesh(d)
        kappa = np.ones(mesh.n_pixels)
        kappa[mesh.n_pixels // 2 + d // 2] = np.inf
        with pytest.raises(NonPositiveConductivity):
            fem.assemble(mesh, kappa, BC_A)

    def test_solve_counter(self):
        fem.reset_solve_counts()
        mesh, kappa, bc, sys = random_system(4, 8)
        fem.solve(sys)
        assert fem.solve_count(4) == 1
        fem.solve(sys)  # cached solution, no new solve
        assert fem.solve_count(4) == 1


def coo_energy_band(sys, tau, shift):
    """Band of tau K + diag(shift) filled as the deleted fem.factorize did it.

    The CSR sum prunes K's zero n00-n11 entries, so the half-bandwidth read off
    the nonzeros is d + 1.
    """
    A = (tau * sys.K + sp.diags_array(shift)).tocoo()
    A.sum_duplicates()
    upper = A.col >= A.row
    rows, cols = A.row[upper], A.col[upper]
    kd = int((cols - rows).max())
    band = np.zeros((kd + 1, A.shape[0]), order="F")
    band[kd + rows - cols, cols] = A.data[upper]
    return band


class TestFactorize:
    def test_band_not_positive_definite_raises(self):
        # K is singular (constants span its null space), so K - I is indefinite
        _, _, _, sys = random_system(4, 36)
        with pytest.raises(SingularSystem):
            fem.factorize_shifted(sys, 1.0, -np.ones(sys.mesh.n_nodes))

    def test_band_nan_raises(self):
        _, _, _, sys = random_system(4, 37)
        shift = np.ones(sys.mesh.n_nodes)
        shift[7] = np.nan
        with pytest.raises(SingularSystem):
            fem.factorize_shifted(sys, 1.0, shift)

    @pytest.mark.parametrize("d", [4, 16, 32])
    def test_band_and_solution_bit_equal_to_the_coo_fill(self, d, monkeypatch):
        mesh, _, _, sys = random_system(d, 50 + d)
        rng = np.random.default_rng(51 + d)
        tau, shift = 1e3, rng.uniform(0.5, 3.0, mesh.n_nodes)
        rhs = rng.standard_normal(mesh.n_nodes)
        band0 = coo_energy_band(sys, tau, shift)
        x0 = fem._band_cholesky(band0.copy(order="F"))(rhs)
        bands, band_cholesky = [], fem._band_cholesky
        monkeypatch.setattr(
            fem, "_band_cholesky", lambda band: bands.append(band.copy()) or band_cholesky(band)
        )
        solve, diagonal = fem.factorize_shifted(sys, tau, shift)
        assert band0.shape == (d + 2, mesh.n_nodes)
        assert np.array_equal(bands[0], band0)
        assert np.array_equal(diagonal, shift + tau * sys.K.diagonal())
        assert np.array_equal(solve(rhs), x0)

    def test_energy_matrix_band_matches_dense_solve(self):
        mesh, _, _, sys = random_system(32, 32)
        rng = np.random.default_rng(33)
        shift = rng.uniform(0.5, 3.0, mesh.n_nodes)
        rhs = rng.standard_normal(mesh.n_nodes)
        x = fem.factorize_shifted(sys, 1e3, shift)[0](rhs)
        x0 = np.linalg.solve(1e3 * add_at_assemble(mesh, sys.kappa) + np.diag(shift), rhs)
        assert np.max(np.abs(x - x0)) <= 1e-12 * np.abs(x0).max()


class TestSolveVjp:
    def test_zero_cotangent(self):
        _, _, _, sys = random_system(3, 9)
        g = fem.solve_vjp(sys, np.zeros(sys.mesh.n_nodes))
        assert np.all(g == 0.0)

    def test_constant_bc_zero_gradient(self):
        mesh = fem.build_mesh(3)
        bc = BoundaryCoeffs(0.7, 0.7, 0.7, 0.7)
        rng = np.random.default_rng(10)
        kappa = rng.uniform(0.5, 2.0, mesh.n_pixels)
        sys = fem.assemble(mesh, kappa, bc)
        g = fem.solve_vjp(sys, rng.standard_normal(mesh.n_nodes))
        assert np.max(np.abs(g)) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_bit_equal_to_add_at(self, d):
        _, _, _, sys = random_system(d, 20 + d)
        cot = np.random.default_rng(d).standard_normal(sys.mesh.n_nodes)
        assert np.array_equal(fem.solve_vjp(sys, cot), add_at_vjp(sys, cot))

    def test_band_path_matches_dense_assembly(self):
        # the reference solves the forward and adjoint systems of the dense
        # np.add.at K with numpy's LU
        mesh, kappa, bc, sys = random_system(22, 34)
        cot = np.random.default_rng(35).standard_normal(mesh.n_nodes)
        K0 = add_at_assemble(mesh, kappa)
        free, cons = mesh.free_nodes, mesh.dirichlet_nodes
        y, mu = mesh.dirichlet_values(bc), np.zeros(mesh.n_nodes)
        y[free] = np.linalg.solve(K0[np.ix_(free, free)], -K0[np.ix_(free, cons)] @ y[cons])
        mu[free] = np.linalg.solve(K0[np.ix_(free, free)], cot[free])
        kref = fem._K_REF[mesh.element_kind]
        per_elem = -np.einsum("ei,eij,ej->e", mu[mesh.elements], kref, y[mesh.elements])
        g0 = np.bincount(mesh.pixel_of_element, per_elem, mesh.n_pixels)
        g = fem.solve_vjp(sys, cot)
        assert np.max(np.abs(g - g0)) <= 1e-12 * np.abs(g0).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        mesh = fem.build_mesh(2)
        kappa = np.exp(rng.normal(0.4, 0.8, mesh.n_pixels))
        bc = BoundaryCoeffs(*rng.uniform(-0.5, 0.5, 4))
        sys = fem.assemble(mesh, kappa, bc)
        cot = rng.standard_normal(mesh.n_nodes)
        g = fem.solve_vjp(sys, cot)
        h = 1e-6
        for p in range(mesh.n_pixels):
            kp, km = kappa.copy(), kappa.copy()
            kp[p] += h
            km[p] -= h
            yp = fem.solve(fem.assemble(mesh, kp, bc)).y_vec
            ym = fem.solve(fem.assemble(mesh, km, bc)).y_vec
            fd = cot @ (yp - ym) / (2 * h)
            assert g[p] == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestFluxAndEnergy:
    def test_energy_linear_solution(self):
        mesh = fem.build_mesh(8)
        sys = fem.assemble(mesh, np.ones(64), BC_A)
        assert energy(sys, mesh.nodes[:, 0]) == pytest.approx(0.5)

    def test_energy_zero_vector(self):
        _, _, _, sys = random_system(4, 13)
        assert energy(sys, np.zeros(sys.mesh.n_nodes)) == 0.0

    def test_energy_minimal_at_solution(self):
        mesh, kappa, bc, sys = random_system(4, 14)
        y = fem.solve(sys).y_vec
        v_star = energy(sys, y)
        rng = np.random.default_rng(15)
        for _ in range(100):
            delta = np.zeros(mesh.n_nodes)
            delta[mesh.free_nodes] = 0.1 * rng.standard_normal(len(mesh.free_nodes))
            assert energy(sys, y + delta) >= v_star - 1e-12


class TestGalerkinAndConvergence:
    def test_galerkin_residual_nullity(self):
        mesh, kappa, bc, sys = random_system(8, 17)
        y = fem.solve(sys).y_vec
        resid = sys.K @ y
        rng = np.random.default_rng(18)
        scale = np.linalg.norm(resid)
        for _ in range(20):
            w = np.zeros(mesh.n_nodes)
            w[mesh.free_nodes] = rng.standard_normal(len(mesh.free_nodes))
            assert abs(w @ resid) <= 1e-10 * max(scale * np.linalg.norm(w), 1.0)

    @staticmethod
    def manufactured_error(d):
        # kappa = 1 + s1, u = 0 at s1 = 0 and u = 1 at s1 = 1: the exact
        # solution u = ln(1 + s1) / ln 2 depends on s1 only, so the zero-flux
        # condition on the top/bottom edges holds exactly.
        mesh = fem.build_mesh(d)
        s1 = (np.arange(d * d) % d + 0.5) / d  # pixel centroids' first coordinates
        kappa = 1.0 + s1
        y = fem.solve(fem.assemble(mesh, kappa, BC_A)).y_vec
        exact = np.log1p(mesh.nodes[:, 0]) / np.log(2.0)
        return np.sqrt(np.mean((y - exact) ** 2))

    def test_second_order_convergence(self):
        errs = [self.manufactured_error(d) for d in (4, 8, 16, 32)]
        for e_coarse, e_fine in zip(errs, errs[1:]):
            ratio = e_coarse / e_fine
            assert 2.5 < ratio < 6.0
