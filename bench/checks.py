"""Checks on the outputs of each benchmark operation.

Each check tests a property the method must have, or compares with a
computation made here apart from the program's own path (a dense solve,
independent Monte Carlo draws, closed-form moments). None compares against a
stored copy of an earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import numpy as np

from cgsur import fem, vobs
from cgsur.field import BoundaryCoeffs, GrfSpec
from cgsur.genmodel import clamp_var
from cgsur.gaussians import kl_diag_standard


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# ----- training -----


def exact_rows_satisfied(qys, observables, rtol: float = 1e-8):
    """Every exactly enforced row satisfies Gamma mu = alpha for its q(y)."""
    for i, (qy, sets) in enumerate(zip(qys, observables)):
        for cs in sets:
            if not isinstance(cs.precision, vobs.Exact):
                continue
            resid = cs.gamma @ qy.mean - cs.alpha
            scale = np.abs(cs.gamma) @ np.abs(qy.mean) + np.abs(cs.alpha)
            worst = float(np.max(np.abs(resid) / scale))
            _require(
                worst <= rtol,
                f"query {i} {cs.kind}: |Gamma mu - alpha| reaches {worst:.3e} "
                f"of its scale (tolerance {rtol:.0e})",
            )


def flux_precision_alpha(post, rows: int, queries: int, alpha0: float = 1e-6):
    """The flux Gamma posterior has alpha = m N_O / 2 + alpha0."""
    want = 0.5 * rows * queries + alpha0
    _require(
        abs(post.alpha - want) <= 1e-12 * want,
        f"flux Gamma alpha is {post.alpha!r}, expected {want!r}",
    )


def all_finite(values, what: str):
    values = np.asarray(values, dtype=np.float64)
    _require(values.size > 0, f"no {what} to check")
    _require(bool(np.all(np.isfinite(values))), f"{what} has non-finite entries")


def labels_solve_system(mesh, lambdas, bcs, ys, rtol: float = 1e-9):
    """Each fine label solves its discrete system (dense solve of K_ff u = r)."""
    free, cons = mesh.free_nodes, mesh.dirichlet_nodes
    for i, (lam, a, y) in enumerate(zip(lambdas, bcs, ys)):
        sys = fem.assemble(mesh, np.exp(lam), BoundaryCoeffs.from_array(a))
        K = sys.K if sys.dense else sys.K.toarray()
        g = sys.dirichlet_values[cons]
        u = np.linalg.solve(K[np.ix_(free, free)], sys.f_vec[free] - K[np.ix_(free, cons)] @ g)
        err = float(np.max(np.abs(y[free] - u)) / max(np.max(np.abs(u)), 1e-300))
        _require(err <= rtol, f"label {i} misses the dense solve by {err:.3e} (relative)")
        _require(
            bool(np.array_equal(y[cons], g)),
            f"label {i} does not carry its Dirichlet data",
        )


def energy_variances(qys, observables, sy, tau: float, rtol: float = 1e-12):
    """Every energy q(y) variance equals 1 / (1/s_y + tau diag K)."""
    for i, (qy, obs) in enumerate(zip(qys, observables)):
        K = obs.system.K
        diag_k = np.diag(K) if isinstance(K, np.ndarray) else K.diagonal()
        want = 1.0 / (1.0 / sy + tau * diag_k)
        err = float(np.max(np.abs(qy.var - want) / want))
        _require(err <= rtol, f"query {i}: q(y) variance off by {err:.3e} (relative)")


# ----- prediction -----


def solve_count_rise(solves: dict, d: int, want: int, what: str):
    """The operation raised the program's solve counter for grid d by want."""
    got = solves.get(d, 0)
    _require(got == want, f"{what} solve count (d={d}) rose by {got}, expected {want}")


def independent_predictive(model, qz, bc: BoundaryCoeffs, n: int, rng):
    """Predictive draws y from q(z) through a dense solve of the coarse system."""
    mesh = model.coarse_mesh
    free, cons = mesh.free_nodes, mesh.dirichlet_nodes
    p = model.params
    var_X = clamp_var(np.exp(p.log_S_X))
    sy = clamp_var(np.exp(p.log_S_y))
    out = np.empty((n, model.dim_y))
    for j in range(n):
        z = qz.mean + np.sqrt(qz.var) * rng.standard_normal(model.dim_z)
        X = p.W_g @ z + p.b_g + np.sqrt(var_X) * rng.standard_normal(model.dim_X)
        sys = fem.assemble(mesh, np.exp(X), bc)
        K = sys.K if sys.dense else sys.K.toarray()
        Y = sys.dirichlet_values.copy()
        Y[free] = np.linalg.solve(
            K[np.ix_(free, free)], sys.f_vec[free] - K[np.ix_(free, cons)] @ Y[cons]
        )
        mean_y = p.w_h * (model.prolongation @ Y) + p.b_h
        out[j] = mean_y + np.sqrt(sy) * rng.standard_normal(model.dim_y)
    return out


def predictive_mean_agrees(samples, reference, z_max: float = 6.0):
    """Node-wise means of two independent draw sets agree within z_max MC errors."""
    se = np.sqrt(
        samples.var(axis=0, ddof=1) / samples.shape[0]
        + reference.var(axis=0, ddof=1) / reference.shape[0]
    )
    z = np.abs(samples.mean(axis=0) - reference.mean(axis=0)) / se
    worst = float(np.max(z))
    _require(
        worst <= z_max,
        f"predictive mean differs from the independent estimate by {worst:.2f} "
        f"standard errors (limit {z_max})",
    )


def elbo_not_below_prior(model, x, qz, eps):
    """E_q[log p(x|z)] - KL(q || prior) >= the same for q = prior, with shared eps."""

    def elbo(mean, var):
        lik = np.mean(
            [model.logp_x_given_z(x, mean + np.sqrt(var) * e) for e in eps]
        )
        return float(lik) - kl_diag_standard(mean, var)

    dz = model.dim_z
    got = elbo(qz.mean, qz.var)
    prior = elbo(np.zeros(dz), np.ones(dz))
    _require(got >= prior, f"ELBO of q(z) {got:.6e} is below the prior's {prior:.6e}")


# ----- uncertainty propagation -----


def qoi_within_dirichlet_range(qoi, bc: BoundaryCoeffs, atol: float = 1e-12):
    """Discrete maximum principle: P1 on right triangles with zero source."""
    a = bc.as_array()
    lo, hi = float(a.min()), float(a.max())
    qoi = np.asarray(qoi, dtype=np.float64)
    _require(
        bool(np.all((qoi >= lo - atol) & (qoi <= hi + atol))),
        f"reference QoI range [{qoi.min():.6f}, {qoi.max():.6f}] leaves the "
        f"Dirichlet range [{lo:.6f}, {hi:.6f}]",
    )


def histograms_and_ks(result, rtol: float = 1e-9):
    width = np.diff(result["bin_edges"])
    for key in ("hist_surrogate", "hist_reference"):
        mass = float(np.sum(result[key] * width))
        _require(abs(mass - 1.0) <= rtol, f"{key} integrates to {mass!r}, not 1")
    ks = result["ks"]
    _require(0.0 <= ks <= 1.0, f"KS statistic {ks!r} outside [0, 1]")


def _kernel_1d(spec: GrfSpec) -> np.ndarray:
    s = (np.arange(spec.grid_size) + 0.5) / spec.grid_size
    return np.exp(-0.5 * (s[:, None] - s[None, :]) ** 2 / spec.length_scale**2)


def grf_moments(draws, spec: GrfSpec, z_max: float = 4.5):
    """Pooled mean and variance of GRF draws match the spec within sampling error.

    The SE covariance on the pixel grid is std^2 (K1 kron K1) for the 1-D
    kernel matrix K1, which gives the standard errors in closed form:
    Var(pooled mean) = sum(C) / (n D^2) and Var(pooled mean square deviation)
    = 2 tr(C^2) / (n D^2) for n independent draws of dimension D.
    """
    draws = np.asarray(draws, dtype=np.float64)
    n, dim = draws.shape
    _require(dim == spec.dim, f"draws have {dim} pixels, spec has {spec.dim}")
    k1 = _kernel_1d(spec)
    var = spec.std**2
    sum_c = var * float(k1.sum()) ** 2
    tr_c2 = var**2 * float(np.sum(k1 * k1)) ** 2
    dev = draws - spec.mean
    z_mean = float(dev.mean()) / np.sqrt(sum_c / (n * dim * dim))
    z_var = (float(np.mean(dev * dev)) - var) / np.sqrt(2.0 * tr_c2 / (n * dim * dim))
    _require(
        abs(z_mean) <= z_max and abs(z_var) <= z_max,
        f"GRF draws: mean off by {z_mean:.2f} SE, variance off by {z_var:.2f} SE "
        f"(limit {z_max})",
    )

