import numpy as np
import pytest

from cgsur import field
from cgsur.field import BcScenario, BoundaryCoeffs, GrfSpec


def test_covariance_diagonal_is_sigma_squared():
    spec = GrfSpec(grid_size=4, std=0.8, length_scale=0.15)
    C = field.covariance_matrix(spec)
    assert np.allclose(np.diag(C), 0.64)


def test_covariance_decays_with_distance():
    # Tiny length scale: off-diagonal entries are effectively zero.
    spec = GrfSpec(grid_size=8, std=0.8, length_scale=0.01)
    C = field.covariance_matrix(spec)
    off = C - np.diag(np.diag(C))
    assert np.max(np.abs(off)) < 1e-12 * 0.64


def test_covariance_matches_kernel_formula():
    # d_f = 2: centroids at (0.25, 0.25) and (0.75, 0.25), distance 0.5.
    spec = GrfSpec(grid_size=2, std=0.8, length_scale=0.15)
    C = field.covariance_matrix(spec)
    expected = 0.64 * np.exp(-0.25 / (2 * 0.0225))
    assert C[0, 1] == pytest.approx(expected, rel=1e-12)
    # full-matrix oracle: evaluate the kernel entrywise
    s = field.pixel_centroids(2)
    for i in range(4):
        for j in range(4):
            d2 = np.sum((s[i] - s[j]) ** 2)
            assert C[i, j] == pytest.approx(0.64 * np.exp(-0.5 * d2 / 0.0225), rel=1e-12)


def test_covariance_symmetric_psd():
    spec = GrfSpec(grid_size=6)
    C = field.covariance_matrix(spec)
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
    a = field.sample_grf(spec, 123)
    b = field.sample_grf(spec, 123)
    assert np.array_equal(a.lambda_vec, b.lambda_vec)
    c = field.sample_grf(spec, 124)
    assert not np.array_equal(a.lambda_vec, c.lambda_vec)


def test_sample_degenerate_sigma():
    spec = GrfSpec(grid_size=4, mean=0.4, std=1e-12)
    s = field.sample_grf(spec, 7)
    assert np.allclose(s.lambda_vec, 0.4, atol=1e-9)


def test_exp_log_roundtrip():
    s = field.sample_grf(GrfSpec(grid_size=8), 5)
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
    C = field.covariance_matrix(spec)
    i, j = 0, 9
    c_hat = np.mean((lams[:, i] - lams[:, i].mean()) * (lams[:, j] - lams[:, j].mean()))
    se_cov = np.sqrt((C[i, i] * C[j, j] + C[i, j] ** 2) / n)
    assert abs(c_hat - C[i, j]) < 5 * se_cov


def test_bc_scenarios():
    rng = np.random.default_rng(0)
    assert field.sample_bc(rng, BcScenario.A) == BoundaryCoeffs(0, 0, 1, 1)
    assert field.sample_bc(rng, BcScenario.B) == BoundaryCoeffs(1, 1, 0, 0)
    for _ in range(100):
        bc = field.sample_bc(rng)
        assert np.all(np.abs(bc.as_array()) <= 0.5)
    for _ in range(100):
        bc = field.sample_bc(rng, BcScenario.C)
        assert bc.a1 == 0.0 and bc.a2 == 0.0
        assert abs(bc.a0) <= 0.5 and abs(bc.a3) <= 0.5
    for _ in range(100):
        bc = field.sample_bc(rng, BcScenario.D)
        assert bc.a0 == 0.0 and bc.a3 == 0.0
        assert 0.0 <= bc.a1 <= 1.0 and -1.0 <= bc.a2 <= 0.0


def test_boundary_coeffs_finite():
    with pytest.raises(ValueError):
        BoundaryCoeffs(np.nan, 0, 0, 0)
