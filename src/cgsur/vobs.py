"""Virtual observables: physics constraints packaged as likelihood terms.

Three linear families act on the full fine nodal vector y:

- coarse-grained residuals: weak-form residuals tested against coarse-mesh
  shape functions (interpolated onto the fine mesh, zeroed on Gamma_D);
- randomized residuals: the same construction with radial-basis weights at
  uniformly sampled centers;
- flux balance: net boundary flux minus source integral per subdomain,
  where subdomains coincide with the coarse-mesh cells.

Residual rows are built in lift form: Dirichlet columns of Gamma are zeroed
and the right-hand side absorbs the Dirichlet data, so the residual vanishes
at the exact fine solution and is insensitive to the (known) boundary entries
of y. Residual families carry exact (infinite) precision; flux rows carry a
learned precision resolved through a named Gamma-posterior group.

The energy observable is nonlinear-complete information: it scores y by the
tempered discrete potential of the fine system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import digamma

from . import fem
from .errors import DimensionMismatch, GridMismatch, SingularSystem
from .field import BoundaryCoeffs


@dataclass
class GammaPosterior:
    """Gamma(alpha, beta) belief over a shared constraint precision."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError(f"Gamma parameters must be positive: {self}")

    def mean(self) -> float:
        return self.alpha / self.beta

    def expected_log(self) -> float:
        return float(digamma(self.alpha)) - np.log(self.beta)


class Exact:
    """Infinite precision: the constraint manifold is hit exactly."""

    def __repr__(self):
        return "Exact()"

    def __eq__(self, other):
        return isinstance(other, Exact)


@dataclass
class Fixed:
    """Known finite precision per row."""

    lam: np.ndarray


@dataclass
class Learned:
    """Precision shared by a named group and inferred during training."""

    group: str = "flux"


@dataclass
class LinearConstraintSet:
    """M linear virtual observables o(y) = Gamma y - alpha at one query point."""

    gamma: np.ndarray
    alpha: np.ndarray
    precision: object
    kind: str

    def __post_init__(self):
        if self.gamma.ndim != 2 or self.gamma.shape[0] != self.alpha.size:
            raise DimensionMismatch(
                f"gamma {self.gamma.shape} inconsistent with alpha {self.alpha.shape}"
            )
        if self.gamma.shape[0] < 1:
            raise ValueError("a constraint set needs at least one row")
        row_norms = np.linalg.norm(self.gamma, axis=1)
        if np.any(row_norms == 0.0):
            raise ValueError("constraint rows must be nonzero")

    @property
    def m(self) -> int:
        return self.gamma.shape[0]

    def lambda_inv_diag(self, gamma_posteriors: dict | None = None) -> np.ndarray:
        """Per-row inverse precision; zeros for exactly enforced rows."""
        if isinstance(self.precision, Exact):
            return np.zeros(self.m)
        if isinstance(self.precision, Fixed):
            return 1.0 / np.asarray(self.precision.lam, dtype=np.float64)
        post = (gamma_posteriors or {}).get(self.precision.group)
        if post is None:
            raise KeyError(f"no Gamma posterior for group {self.precision.group!r}")
        return np.full(self.m, 1.0 / post.mean())


def eval_residual(cs: LinearConstraintSet, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (cs.gamma.shape[1],):
        raise DimensionMismatch(
            f"y has shape {y.shape}, expected ({cs.gamma.shape[1]},)"
        )
    return cs.gamma @ y - cs.alpha


def _weighted_residual_rows(sys: fem.FemSystem, weights: np.ndarray):
    """Rows w^T K (Dirichlet columns zeroed) and lift-adjusted right-hand side.

    weights: (n_nodes, M) columns already zeroed at Dirichlet nodes.
    """
    raw = np.asarray((sys.K @ weights).T)
    alpha = weights.T @ sys.f_vec - raw @ sys.dirichlet_values
    gamma = raw.copy()
    gamma[:, sys.mesh.dirichlet_nodes] = 0.0
    return gamma, alpha


def _drop_zero_rows(gamma, alpha):
    keep = np.linalg.norm(gamma, axis=1) > 0.0
    return gamma[keep], alpha[keep]


def build_cgr(
    fine_mesh: fem.Mesh,
    coarse_mesh: fem.Mesh,
    kappa,
    bc: BoundaryCoeffs,
    source=0.0,
) -> LinearConstraintSet:
    """Coarse-grained residual constraints, one per coarse node.

    Weight m is the fine-mesh nodal interpolant of the coarse hat function at
    coarse node m, zeroed at fine Dirichlet nodes for admissibility; it lies
    exactly in the fine test space, so the residual vanishes at the exact
    fine solution. Rows are zeroed, not dropped (all-zero rows can only occur
    in the degenerate d_f = d_c case and are removed).
    """
    sys = fem.assemble(fine_mesh, kappa, bc, source=source)
    W = np.asarray(fem.p1_prolongation(coarse_mesh.d, fine_mesh.d).todense())
    W[fine_mesh.dirichlet_nodes, :] = 0.0
    gamma, alpha = _weighted_residual_rows(sys, W)
    gamma, alpha = _drop_zero_rows(gamma, alpha)
    return LinearConstraintSet(gamma=gamma, alpha=alpha, precision=Exact(), kind="cgr")


def build_randomized(
    fine_mesh: fem.Mesh,
    kappa,
    bc: BoundaryCoeffs,
    count: int,
    scale: float = 0.1,
    rng: np.random.Generator | None = None,
    source=0.0,
) -> LinearConstraintSet:
    """Randomized weighted residuals with radial-basis weights.

    Centers are uniform on the unit square; each weight is the fine nodal
    interpolant of exp(-||s - s0||^2 / scale^2), zeroed on Gamma_D.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = rng or np.random.default_rng()
    sys = fem.assemble(fine_mesh, kappa, bc, source=source)
    centers = rng.uniform(0.0, 1.0, size=(count, 2))
    d2 = np.sum(
        (fine_mesh.nodes[:, None, :] - centers[None, :, :]) ** 2, axis=-1
    )
    W = np.exp(-d2 / scale**2)
    W[fine_mesh.dirichlet_nodes, :] = 0.0
    gamma, alpha = _weighted_residual_rows(sys, W)
    return LinearConstraintSet(
        gamma=gamma, alpha=alpha, precision=Exact(), kind="randomized"
    )


def build_flux(
    fine_mesh: fem.Mesh,
    coarse_mesh: fem.Mesh,
    kappa,
    source=0.0,
    precision_group: str = "flux",
) -> LinearConstraintSet:
    """Flux-balance constraints over subdomains matching the coarse cells.

    Row i is the net outward flux through the boundary of coarse cell i,
    computed from the element-wise constant fluxes of the fine elements
    inside the cell; alpha_i is the integrated source over the cell. The
    exact fine solution does not satisfy these rows, so they carry a
    learned precision.
    """
    if fine_mesh.d % coarse_mesh.d != 0:
        raise GridMismatch(
            f"fine size {fine_mesh.d} not a multiple of coarse size {coarse_mesh.d}"
        )
    kappa = np.asarray(
        kappa.kappa_vec if hasattr(kappa, "kappa_vec") else kappa, dtype=np.float64
    )
    d_f, d_c = fine_mesh.d, coarse_mesh.d
    r = d_f // d_c
    n_sub = d_c * d_c
    gamma = np.zeros((n_sub, fine_mesh.n_nodes))

    # (normal, element kind) per side; bottom/right edges abut the lower
    # triangle of a pixel, top/left edges the upper one.
    sides = {
        "bottom": (np.array([0.0, -1.0]), 0),
        "top": (np.array([0.0, 1.0]), 1),
        "left": (np.array([-1.0, 0.0]), 1),
        "right": (np.array([1.0, 0.0]), 0),
    }

    def edge_pixels(R, C, side):
        if side == "bottom":
            return R * r, np.arange(C * r, (C + 1) * r)
        if side == "top":
            return (R + 1) * r - 1, np.arange(C * r, (C + 1) * r)
        if side == "left":
            return np.arange(R * r, (R + 1) * r), C * r
        return np.arange(R * r, (R + 1) * r), (C + 1) * r - 1

    for i in range(n_sub):
        R, C = i // d_c, i % d_c
        for side, (normal, kind) in sides.items():
            pr, pc = edge_pixels(R, C, side)
            pix = np.atleast_1d(pr * d_f + pc)
            elems = 2 * pix + kind
            # |edge| * n^T J_e = -kappa_e n^T B_ref y_e  (the 1/h in B cancels
            # against the edge length h)
            coeff = -kappa[pix][:, None] * (normal @ fem._B_REF[kind])[None, :]
            np.add.at(gamma[i], fine_mesh.elements[elems].ravel(), coeff.ravel())

    src = np.asarray(source, dtype=np.float64)
    if src.ndim == 0:
        alpha = np.full(n_sub, float(src) / n_sub)
    else:
        per_pixel = src.reshape(d_f, d_f) / (d_f * d_f)
        alpha = per_pixel.reshape(d_c, r, d_c, r).sum(axis=(1, 3)).ravel()
    return LinearConstraintSet(
        gamma=gamma, alpha=alpha, precision=Learned(precision_group), kind="flux"
    )


@dataclass
class EnergyObservable:
    """Tempered potential-energy likelihood for the fine system at a query."""

    system: fem.FemSystem
    tau: float

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def build_energy(
    fine_mesh: fem.Mesh, kappa, bc: BoundaryCoeffs, tau: float, source=0.0
) -> EnergyObservable:
    return EnergyObservable(
        system=fem.assemble(fine_mesh, kappa, bc, source=source), tau=tau
    )


def energy_logpdf(obs: EnergyObservable, y: np.ndarray) -> float:
    """log-likelihood up to the y- and theta-independent constants.

    The minimum-energy offset and the tempering normalizer are dropped; they
    do not affect training.
    """
    return -obs.tau * fem.energy(obs.system, y)


def energy_logpdf_grad(obs: EnergyObservable, y: np.ndarray) -> np.ndarray:
    return -obs.tau * fem.energy_grad(obs.system, y)


def build_hybrid(
    fine_mesh: fem.Mesh,
    coarse_mesh: fem.Mesh,
    kappa,
    bc: BoundaryCoeffs,
    rng: np.random.Generator,
    m2: int = 60,
    scale: float = 0.1,
    source=0.0,
) -> list[LinearConstraintSet]:
    """The hybrid bundle: coarse residuals + randomized residuals + flux rows.

    Exact rows beyond the free nodes' count, or otherwise linearly
    dependent, are dropped (see _drop_dependent_exact_rows).
    """
    return _drop_dependent_exact_rows(
        [
            build_cgr(fine_mesh, coarse_mesh, kappa, bc, source=source),
            build_randomized(
                fine_mesh, kappa, bc, count=m2, scale=scale, rng=rng, source=source
            ),
            build_flux(fine_mesh, coarse_mesh, kappa, source=source),
        ]
    )


# Relative residual of a dropped exact row at the kept rows' minimum-norm
# solution above which the rows contradict each other. A row dropped as
# numerically dependent (pivot below n eps) misses by up to ~sqrt(n eps).
CONSISTENCY_RTOL = 1e-6


def _drop_dependent_exact_rows(sets: list) -> list:
    """Keep a linearly independent subset of the bundle's exact rows.

    Dependent exact rows make Xi = Gamma S Gamma^T singular, so q(y) could
    not enforce them exactly. A pivoted Cholesky of Gamma_E Gamma_E^T, with
    rows scaled to unit norm, gives the rank and the rows to keep; each
    dropped row must hold at the kept rows' minimum-norm solution, or
    SingularSystem is raised. A full-rank bundle is returned as it is.
    """
    exact = [cs for cs in sets if isinstance(cs.precision, Exact)]
    gamma, alpha, _ = stack_sets(exact)
    norms = np.linalg.norm(gamma, axis=1)
    gamma, alpha = gamma / norms[:, None], alpha / norms
    low, piv, rank, _ = scipy.linalg.lapack.dpstrf(gamma @ gamma.T, lower=1)
    if rank == alpha.size:
        return sets
    kept = piv[:rank] - 1
    coef = scipy.linalg.cho_solve((low[:rank, :rank], True), alpha[kept])
    y0 = gamma[kept].T @ coef
    scale = np.abs(gamma) @ np.abs(y0) + np.abs(alpha)
    worst = float(np.max(np.abs(gamma @ y0 - alpha) / scale))
    if worst > CONSISTENCY_RTOL:
        raise SingularSystem(f"dependent exact rows are inconsistent ({worst:.1e})")
    keep = np.isin(np.arange(alpha.size), kept)
    out = []
    for cs in sets:
        if isinstance(cs.precision, Exact):
            rows, keep = keep[: cs.m], keep[cs.m :]
            if not rows.any():
                continue
            cs = LinearConstraintSet(
                cs.gamma[rows], cs.alpha[rows], cs.precision, cs.kind
            )
        out.append(cs)
    return out


def stack_sets(sets: list[LinearConstraintSet], gamma_posteriors: dict | None = None):
    """Concatenate constraint sets into (gamma, alpha, lambda_inv_diag)."""
    gamma = np.vstack([cs.gamma for cs in sets])
    alpha = np.concatenate([cs.alpha for cs in sets])
    lam_inv = np.concatenate([cs.lambda_inv_diag(gamma_posteriors) for cs in sets])
    return gamma, alpha, lam_inv
