"""Lognormal conductivity random fields and randomized Dirichlet data.

The conductivity is kappa(s) = exp(lambda(s)) where lambda is a stationary
Gaussian field with a squared-exponential covariance, discretized as a
piecewise-constant value per pixel of the d x d grid on the unit square.
Dirichlet boundary data on the left/right edges is parameterized by four
coefficients (a0..a3) that are either fixed or sampled per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FactorizationError

# Jitter ladder for the covariance Cholesky, relative to sigma^2.
JITTER_START = 1e-10
JITTER_MAX = 1e-6


@dataclass(frozen=True)
class GrfSpec:
    """Parameters of the log-conductivity field on a d x d pixel grid.

    grid_size: pixels per side of the unit square.
    mean, std: pointwise mean / standard deviation of log-conductivity.
    length_scale: kernel length as a fraction of the domain side.
    """

    grid_size: int
    mean: float = 0.4
    std: float = 0.8
    length_scale: float = 0.15

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.std <= 0.0:
            raise ValueError(f"std must be > 0, got {self.std}")
        if self.length_scale <= 0.0:
            raise ValueError(f"length_scale must be > 0, got {self.length_scale}")

    @property
    def dim(self) -> int:
        return self.grid_size * self.grid_size


def pixel_centroids(d: int) -> np.ndarray:
    """Centroid coordinates of the d x d pixels, row-major (row = index // d).

    Pixel (row r, col c) has centroid ((c + 0.5)/d, (r + 0.5)/d); the first
    coordinate is s1, the second s2.
    """
    idx = np.arange(d * d)
    col = idx % d
    row = idx // d
    return np.column_stack(((col + 0.5) / d, (row + 0.5) / d))


def covariance_matrix(spec: GrfSpec) -> np.ndarray:
    """Dense squared-exponential covariance of lambda at the pixel centroids.

    C[i, j] = std^2 * exp(-0.5 * ||s_i - s_j||^2 / length_scale^2)
    """
    s = pixel_centroids(spec.grid_size)
    diff = s[:, None, :] - s[None, :, :]
    sq = np.sum(diff * diff, axis=-1)
    return spec.std**2 * np.exp(-0.5 * sq / spec.length_scale**2)


@dataclass(frozen=True)
class FieldSample:
    """One realization: log-conductivity and conductivity per pixel."""

    lambda_vec: np.ndarray
    kappa_vec: np.ndarray

    @classmethod
    def from_lambda(cls, lam: np.ndarray) -> "FieldSample":
        lam = np.asarray(lam, dtype=np.float64)
        return cls(lambda_vec=lam, kappa_vec=np.exp(lam))


class GrfSampler:
    """Holds the Cholesky factor of the covariance so draws are cheap.

    The factor is computed once with an escalating diagonal jitter
    (JITTER_START * std^2, doubling up to JITTER_MAX * std^2); the instance
    is read-only after construction and safe to share across threads.
    """

    def __init__(self, spec: GrfSpec):
        self.spec = spec
        cov = covariance_matrix(spec)
        jitter = JITTER_START * spec.std**2
        max_jitter = JITTER_MAX * spec.std**2
        eye = np.eye(cov.shape[0])
        while True:
            try:
                self._chol = np.linalg.cholesky(cov + jitter * eye)
                break
            except np.linalg.LinAlgError:
                jitter *= 2.0
                if jitter > max_jitter:
                    raise FactorizationError(
                        f"covariance Cholesky failed at jitter {jitter:.3e}"
                    ) from None
        self.jitter = jitter

    def sample(self, rng: np.random.Generator) -> FieldSample:
        eps = rng.standard_normal(self.spec.dim)
        lam = self.spec.mean + self._chol @ eps
        return FieldSample.from_lambda(lam)


def sample_grf(spec: GrfSpec, seed: int) -> FieldSample:
    """One field draw, deterministic in (spec, seed)."""
    return GrfSampler(spec).sample(np.random.default_rng(seed))


class BcScenario(Enum):
    """Named boundary-condition families; UNIFORM is four iid U[-0.5, 0.5]."""

    UNIFORM = "uniform"
    A = "A"
    B = "B"
    C = "C"
    D = "D"


@dataclass(frozen=True)
class BoundaryCoeffs:
    """Coefficients of the Dirichlet data.

    Left edge (s1 = 0): u = a0 * s2 + a1 * (1 - s2).
    Right edge (s1 = 1): u = a2 * s2 + a3 * (1 - s2).
    """

    a0: float
    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        vals = (self.a0, self.a1, self.a2, self.a3)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"boundary coefficients must be finite, got {vals}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "BoundaryCoeffs":
        a = np.asarray(a, dtype=np.float64)
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def sample_bc(
    rng: np.random.Generator, scenario: BcScenario = BcScenario.UNIFORM
) -> BoundaryCoeffs:
    """Draw boundary coefficients for the given scenario.

    A and B are fixed profiles; C mixes uniform draws with zeros; D uses
    +/- Beta(2, 5) draws. UNIFORM is the default training distribution.
    """
    if scenario is BcScenario.UNIFORM:
        a = rng.uniform(-0.5, 0.5, size=4)
        return BoundaryCoeffs(*a)
    if scenario is BcScenario.A:
        return BoundaryCoeffs(0.0, 0.0, 1.0, 1.0)
    if scenario is BcScenario.B:
        return BoundaryCoeffs(1.0, 1.0, 0.0, 0.0)
    if scenario is BcScenario.C:
        return BoundaryCoeffs(rng.uniform(-0.5, 0.5), 0.0, 0.0, rng.uniform(-0.5, 0.5))
    if scenario is BcScenario.D:
        return BoundaryCoeffs(0.0, rng.beta(2.0, 5.0), -rng.beta(2.0, 5.0), 0.0)
    raise ValueError(f"unknown scenario {scenario!r}")
