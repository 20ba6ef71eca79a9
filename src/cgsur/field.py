"""Lognormal conductivity random fields and randomized Dirichlet data.

The conductivity is kappa(s) = exp(lambda(s)) where lambda is a stationary
Gaussian field with a squared-exponential covariance, discretized as a
piecewise-constant value per pixel of the d x d grid on the unit square.
On this grid the covariance is std^2 (K1 kron K1) for the 1-D kernel K1, and
GrfSampler draws through K1's d x d factor (Saatci 2011; Wilson et al., NeurIPS 2014).
Dirichlet boundary data on the left/right edges is parameterized by four
coefficients (a0..a3), drawn from one of two scenarios: UNIFORM, the training
distribution, or D, a shifted test distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, FactorizationError

# Diagonal jitter of K1's Cholesky (K1 has unit diagonal): it factors K1 for all
# d <= 512 and length scales 1e-3..1e4; zero jitter fails there from d = 3.
JITTER_START = 1e-10


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
        if not self.std > 0.0:
            raise ValueError(f"std must be > 0, got {self.std}")
        if not self.length_scale > 0.0:
            raise ValueError(f"length_scale must be > 0, got {self.length_scale}")

    @property
    def dim(self) -> int:
        return self.grid_size * self.grid_size


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
    """Draws lambda = mean + std * (L1 E L1^T).ravel(), L1 = chol(K1 + jitter I).

    K1[a, b] = exp(-0.5 ((a - b) / d)^2 / length_scale^2), E holds d^2 standard
    normals. As chol(K1 kron K1) = L1 kron L1 and (L1 kron L1) vec(E) =
    vec(L1 E L1^T) for row-major vec, this is the dense factor's draw for the
    same normals up to jitter and rounding. Read-only and thread-safe.
    """

    def __init__(self, spec: GrfSpec):
        self.spec = spec
        self.jitter = JITTER_START
        idx = np.arange(spec.grid_size)
        k1 = np.exp(-0.5 * ((idx[:, None] - idx) / (idx.size * spec.length_scale)) ** 2)
        try:
            self._chol = np.linalg.cholesky(k1 + self.jitter * np.eye(idx.size))
        except np.linalg.LinAlgError:
            raise FactorizationError(f"K1 Cholesky failed, jitter {self.jitter}") from None

    def sample(self, rng: np.random.Generator) -> FieldSample:
        eps = rng.standard_normal(self._chol.shape)
        lam = self.spec.mean + self.spec.std * (self._chol @ eps @ self._chol.T).ravel()
        return FieldSample.from_lambda(lam)


class BcScenario(Enum):
    """Boundary-condition families; UNIFORM is four iid U[-0.5, 0.5]."""

    UNIFORM = "uniform"
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
        if a.shape != (4,):
            raise DimensionMismatch(f"expected 4 coefficients, got shape {a.shape}")
        return cls(*map(float, a))


def sample_bc(
    rng: np.random.Generator, scenario: BcScenario = BcScenario.UNIFORM
) -> BoundaryCoeffs:
    """Draw boundary coefficients for the given scenario.

    UNIFORM is the default training distribution; D draws a1 and a2 as
    +Beta(2, 5) and -Beta(2, 5) and sets a0 = a3 = 0.
    """
    if scenario is BcScenario.UNIFORM:
        a = rng.uniform(-0.5, 0.5, size=4)
        return BoundaryCoeffs(*a)
    if scenario is BcScenario.D:
        return BoundaryCoeffs(0.0, rng.beta(2.0, 5.0), -rng.beta(2.0, 5.0), 0.0)
    raise ValueError(f"unknown scenario {scenario!r}")
