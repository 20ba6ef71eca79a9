import numpy as np
import pytest

from cgsur import field
from cgsur.errors import DimensionMismatch, FactorizationError
from cgsur.field import BcScenario, BoundaryCoeffs, GrfSampler, GrfSpec


def pixel_centroids(d: int) -> np.ndarray:
    """Centroid coordinates of the d x d pixels, row-major (row = index // d).

    Pixel (row r, col c) has centroid ((c + 0.5)/d, (r + 0.5)/d); the first
    coordinate is s1, the second s2.
    """
    idx = np.arange(d * d)
    return np.column_stack(((idx % d + 0.5) / d, (idx // d + 0.5) / d))


def covariance_matrix(spec: GrfSpec) -> np.ndarray:
    """Dense squared-exponential covariance of lambda at the pixel centroids,
    C[i, j] = std^2 * exp(-0.5 * ||s_i - s_j||^2 / length_scale^2): the
    reference for the sampler's Kronecker factor."""
    s = pixel_centroids(spec.grid_size)
    diff = s[:, None, :] - s[None, :, :]
    sq = np.sum(diff * diff, axis=-1)
    return spec.std**2 * np.exp(-0.5 * sq / spec.length_scale**2)


def draw(spec, seed):
    return GrfSampler(spec).sample(np.random.default_rng(seed))


def test_covariance_diagonal_is_sigma_squared():
    spec = GrfSpec(grid_size=4, std=0.8, length_scale=0.15)
    C = covariance_matrix(spec)
    assert np.allclose(np.diag(C), 0.64)


def test_covariance_decays_with_distance():
    # Tiny length scale: off-diagonal entries are effectively zero.
    spec = GrfSpec(grid_size=8, std=0.8, length_scale=0.01)
    C = covariance_matrix(spec)
    off = C - np.diag(np.diag(C))
    assert np.max(np.abs(off)) < 1e-12 * 0.64


def test_covariance_matches_kernel_formula():
    # d_f = 2: centroids at (0.25, 0.25) and (0.75, 0.25), distance 0.5.
    spec = GrfSpec(grid_size=2, std=0.8, length_scale=0.15)
    C = covariance_matrix(spec)
    expected = 0.64 * np.exp(-0.25 / (2 * 0.0225))
    assert C[0, 1] == pytest.approx(expected, rel=1e-12)
    # full-matrix oracle: evaluate the kernel entrywise
    s = pixel_centroids(2)
    for i in range(4):
        for j in range(4):
            d2 = np.sum((s[i] - s[j]) ** 2)
            assert C[i, j] == pytest.approx(0.64 * np.exp(-0.5 * d2 / 0.0225), rel=1e-12)


def test_covariance_symmetric_psd():
    spec = GrfSpec(grid_size=6)
    C = covariance_matrix(spec)
    assert np.allclose(C, C.T)
    evals = np.linalg.eigvalsh(C)
    assert evals.min() > -1e-10 * evals.max()


def test_spec_invariants():
    with pytest.raises(ValueError):
        GrfSpec(grid_size=0)
    with pytest.raises(ValueError):
        GrfSpec(grid_size=4, std=0.0)
    with pytest.raises(ValueError):
        GrfSpec(grid_size=4, length_scale=-1.0)


def test_sample_deterministic_for_seed():
    spec = GrfSpec(grid_size=8)
    a = draw(spec, 123)
    b = draw(spec, 123)
    assert np.array_equal(a.lambda_vec, b.lambda_vec)
    c = draw(spec, 124)
    assert not np.array_equal(a.lambda_vec, c.lambda_vec)


def test_sample_degenerate_sigma():
    spec = GrfSpec(grid_size=4, mean=0.4, std=1e-12)
    s = draw(spec, 7)
    assert np.allclose(s.lambda_vec, 0.4, atol=1e-9)


def test_exp_log_roundtrip():
    s = draw(GrfSpec(grid_size=8), 5)
    assert np.max(np.abs(np.log(s.kappa_vec) - s.lambda_vec)) < 1e-13
    assert np.all(s.kappa_vec > 0)


def test_kappa_coefficient_of_variation():
    # CoV of a lognormal with sigma = 0.8 is sqrt(exp(0.64) - 1) ~ 0.947.
    spec = GrfSpec(grid_size=4, std=0.8)
    sampler = field.GrfSampler(spec)
    rng = np.random.default_rng(0)
    kappas = np.array([sampler.sample(rng).kappa_vec for _ in range(4000)])
    cov_hat = kappas.std(axis=0) / kappas.mean(axis=0)
    assert np.mean(cov_hat) == pytest.approx(np.sqrt(np.exp(0.64) - 1.0), rel=0.05)


def test_empirical_mean_and_covariance():
    spec = GrfSpec(grid_size=4, mean=0.4, std=0.8, length_scale=0.3)
    sampler = field.GrfSampler(spec)
    rng = np.random.default_rng(1)
    n = 20000
    lams = np.array([sampler.sample(rng).lambda_vec for _ in range(n)])
    # mean within 3 standard errors
    se_mean = 0.8 / np.sqrt(n)
    assert np.all(np.abs(lams.mean(axis=0) - 0.4) < 3 * se_mean)
    # covariance of two fixed pixels within 5 standard errors
    C = covariance_matrix(spec)
    i, j = 0, 9
    c_hat = np.mean((lams[:, i] - lams[:, i].mean()) * (lams[:, j] - lams[:, j].mean()))
    se_cov = np.sqrt((C[i, i] * C[j, j] + C[i, j] ** 2) / n)
    assert abs(c_hat - C[i, j]) < 5 * se_cov


def test_bc_scenarios():
    rng = np.random.default_rng(0)
    assert [s.name for s in BcScenario] == ["UNIFORM", "D"]
    for _ in range(100):
        bc = field.sample_bc(rng)
        assert np.all(np.abs(bc.as_array()) <= 0.5)
    for _ in range(100):
        bc = field.sample_bc(rng, BcScenario.D)
        assert bc.a0 == 0.0 and bc.a3 == 0.0
        assert 0.0 <= bc.a1 <= 1.0 and -1.0 <= bc.a2 <= 0.0


def test_from_array_takes_exactly_four_values():
    bc = BoundaryCoeffs(0.1, 0.2, 0.3, 0.4)
    assert BoundaryCoeffs.from_array(bc.as_array()) == bc
    for values in ([0.1, 0.2, 0.3, 0.4, 9.0], [0.1, 0.2, 0.3], [[0.1, 0.2, 0.3, 0.4]]):
        with pytest.raises(DimensionMismatch):
            BoundaryCoeffs.from_array(values)


def test_boundary_coeffs_finite():
    with pytest.raises(ValueError):
        BoundaryCoeffs(np.nan, 0, 0, 0)


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_kronecker_factor_matches_dense_covariance(d):
    spec = GrfSpec(grid_size=d)
    chol = field.GrfSampler(spec)._chol
    k1 = chol @ chol.T
    C = covariance_matrix(spec)
    err = np.max(np.abs(spec.std**2 * np.kron(k1, k1) - C))
    assert err <= 3 * field.JITTER_START * spec.std**2


def test_draw_matches_dense_factor_draw():
    # Same normals through the dense factor of the d^2 x d^2 covariance: this
    # pins the row-major pixel order (row = index // d).
    spec = GrfSpec(grid_size=4, mean=0.4, std=0.8, length_scale=0.3)
    lam = field.GrfSampler(spec).sample(np.random.default_rng(5)).lambda_vec
    eps = np.random.default_rng(5).standard_normal(spec.dim)
    C = covariance_matrix(spec)
    dense = spec.mean + np.linalg.cholesky(C + field.JITTER_START * np.eye(spec.dim)) @ eps
    assert np.linalg.norm(lam - dense) <= 1e-8 * np.linalg.norm(dense)


def test_sample_consumes_d_squared_normals():
    sampler = field.GrfSampler(GrfSpec(grid_size=5))
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    sampler.sample(a)
    b.standard_normal(25)
    assert np.array_equal(a.standard_normal(3), b.standard_normal(3))


def test_grid_128_holds_small_arrays_and_matches_moments():
    # The dense covariance alone would be 128^2 x 128^2 doubles (2 GB).
    d = 128
    spec = GrfSpec(grid_size=d)
    sampler = field.GrfSampler(spec)
    arrays = [v for v in vars(sampler).values() if isinstance(v, np.ndarray)]
    assert arrays and max(a.size for a in arrays) <= d * d
    rng = np.random.default_rng(2)
    n = 100
    draws = np.array([sampler.sample(rng).lambda_vec for _ in range(n)])
    # With C = std^2 (K1 kron K1) over D = d^2 pixels: the pooled mean has
    # variance 1^T C 1 / (n D^2) = std^2 (sum K1)^2 / (n D^2), and the pooled
    # mean square deviation has variance 2 tr(C^2) / (n D^2), where
    # tr(C^2) = std^4 tr(K1^2)^2 = std^4 (sum K1 * K1)^2.
    s = (np.arange(d) + 0.5) / d
    k1 = np.exp(-0.5 * (s[:, None] - s[None, :]) ** 2 / spec.length_scale**2)
    var = spec.std**2
    dim = spec.dim
    dev = draws - spec.mean
    z_mean = dev.mean() / np.sqrt(var * k1.sum() ** 2 / (n * dim * dim))
    z_var = (np.mean(dev * dev) - var) / np.sqrt(
        2.0 * var**2 * np.sum(k1 * k1) ** 2 / (n * dim * dim)
    )
    assert abs(z_mean) < 4.5 and abs(z_var) < 4.5


def test_factorization_failure_raises(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(FactorizationError):
        field.GrfSampler(GrfSpec(grid_size=4))
