"""Predictive posterior, evaluation metrics and uncertainty propagation.

Prediction never touches the fine solver: the posterior over the latent code
is either read off the amortized encoder or found by maximizing the
unlabeled ELBO for the given input, and samples then flow through the coarse
solver only. The fine solver is used here solely when an explicit Monte
Carlo reference is requested for uncertainty propagation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import gaussian_kde

from . import fem
from .errors import DegenerateValidation, InvalidSize, NonPositiveVariance
from .field import BoundaryCoeffs
from .gaussians import diag_logpdf, kl_diag_standard
from .inference import INFER_Z_LEARNING_RATE, Adam, DiagGaussian, VariationalState
from .seeding import derive_rng


@dataclass
class PredictiveSamples:
    """Monte Carlo draws from the predictive posterior at one input."""

    samples: np.ndarray  # (K, dim_y)
    mean: np.ndarray
    var: np.ndarray


def infer_z(
    x: np.ndarray,
    state: VariationalState,
    mode: str = "optimize",
    steps: int = 400,
    seed: int = 0,
) -> DiagGaussian:
    """Posterior over the latent code for a new input; no model solves.

    mode="amortized" evaluates the trained encoder; mode="optimize" runs a
    fresh reparametrized ascent of E_q[log p(x|z)] - KL(q || prior) over the
    factor (mu, log-variance), initialized at the encoder output when one is
    available and at the prior otherwise.
    """
    model = state.model
    if mode == "amortized":
        if state.enc_mu is None:
            raise ValueError("no amortized encoder in this state")
        mu = state.enc_mu(x)
        var = np.exp(state.enc_logvar(x))
        return DiagGaussian(mean=mu, var=var)
    if mode != "optimize":
        raise ValueError(f"unknown mode {mode!r}")

    rng = derive_rng(seed, "infer_z")
    if state.enc_mu is not None:
        mu = state.enc_mu(x)
        rho = state.enc_logvar(x).copy()
    else:
        mu = np.zeros(model.dim_z)
        rho = np.full(model.dim_z, np.log(0.5))
    params = {"mu": mu, "rho": rho}
    adam = Adam(INFER_Z_LEARNING_RATE)
    objective = []
    for _ in range(steps):
        eps = rng.standard_normal(model.dim_z)
        std = np.exp(0.5 * rho)
        z = mu + std * eps
        lp, gz, _ = model.logp_x_given_z_grads(x, z, theta=False)
        var = np.exp(rho)
        obj = lp - kl_diag_standard(mu, var)
        objective.append(obj)
        g_mu = gz - mu
        g_rho = gz * (0.5 * std * eps) - 0.5 * var + 0.5
        adam.step(params, {"mu": g_mu, "rho": g_rho})
    tail = max(steps // 10, 2)
    if len(objective) >= 2 * tail:
        early = float(np.mean(objective[-2 * tail : -tail]))
        late = float(np.mean(objective[-tail:]))
        if late - early > 0.05 * max(abs(late), 1.0):
            warnings.warn(
                "infer_z objective still improving at the step budget; "
                "consider increasing steps",
                RuntimeWarning,
            )
    return DiagGaussian(mean=mu, var=np.exp(rho))


def predictive_posterior(
    x: np.ndarray,
    bc: BoundaryCoeffs,
    state: VariationalState,
    k: int = 256,
    rng: np.random.Generator | None = None,
    mode: str = "optimize",
    qz: DiagGaussian | None = None,
    infer_seed: int = 0,
) -> PredictiveSamples:
    """Monte Carlo predictive posterior p(y | x): K coarse solves, no fine ones.

    Draws (per sample) z from q*(z), X from p(X | z), runs the coarse model
    and adds the output-map noise. Sampling consumes the generator strictly
    per sample, so a K-sample call replays as K sequential single-sample
    calls sharing the generator.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or np.random.default_rng()
    model = state.model
    if qz is None:
        qz = infer_z(x, state, mode=mode, seed=infer_seed)
    sy = model.var_y()
    samples = np.empty((k, model.dim_y))
    for j in range(k):
        z = qz.mean + np.sqrt(qz.var) * rng.standard_normal(model.dim_z)
        mean_X, var_X = model.coarse_map(z)
        X = mean_X + np.sqrt(var_X) * rng.standard_normal(model.dim_X)
        Y = model.cgm_forward(X, bc)
        mean_y, _ = model.output_map(Y)
        samples[j] = mean_y + np.sqrt(sy) * rng.standard_normal(model.dim_y)
    return PredictiveSamples(
        samples=samples, mean=samples.mean(axis=0), var=samples.var(axis=0)
    )


def r2_score(y_true: np.ndarray, y_pred_mean: np.ndarray) -> float:
    """Coefficient of determination over a validation set.

    1 - sum ||y_i - mu_i||^2 / sum ||y_i - ybar||^2 with ybar the validation
    average.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred_mean = np.asarray(y_pred_mean, dtype=np.float64)
    if y_true.ndim != 2 or y_true.shape[0] < 2:
        raise DegenerateValidation("need at least two validation pairs")
    ybar = y_true.mean(axis=0)
    denom = float(np.sum((y_true - ybar) ** 2))
    if denom == 0.0:
        raise DegenerateValidation("validation outputs are identical")
    return 1.0 - float(np.sum((y_true - y_pred_mean) ** 2)) / denom


def logscore(y_true: np.ndarray, mean: np.ndarray, var: np.ndarray) -> float:
    """Average Gaussian log-density of validation outputs under predictive
    moments."""
    y_true = np.asarray(y_true, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if np.any(var <= 0.0):
        raise NonPositiveVariance("predictive variances must be positive")
    return float(np.mean(diag_logpdf(y_true, mean, var)))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, max |ECDF_a - ECDF_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def center_node_index(d: int) -> int:
    """Node index of (0.5, 0.5); requires an even grid."""
    if d % 2 != 0:
        raise ValueError(f"grid size {d} is odd; (0.5, 0.5) is not a node")
    return (d // 2) * (d + 1) + d // 2


def propagate_uq(
    sampler,
    bc: BoundaryCoeffs,
    state: VariationalState,
    n: int,
    rng: np.random.Generator,
    mode: str = "amortized",
    with_reference: bool = True,
    bins: int = 64,
):
    """Push input randomness through the surrogate and read off the QoI.

    The QoI is the solution value at the domain center. Draws one predictive
    sample per input (the correct marginal over inputs and predictive
    noise). When requested, the fine-model Monte Carlo reference is computed
    for the same inputs and the two-sample KS distance is reported. The
    density estimates need n >= 2 inputs.
    """
    if n < 2:
        raise InvalidSize(f"propagate_uq needs n >= 2 inputs, got {n}")
    model = state.model
    node = center_node_index(model.d_f)
    mode = mode if (state.enc_mu is not None or mode != "amortized") else "optimize"
    qoi_surrogate = np.empty(n)
    fields = []
    for i in range(n):
        x = sampler.sample(rng)
        fields.append(x)
        ps = predictive_posterior(
            x.lambda_vec, bc, state, k=1, rng=rng, mode=mode, infer_seed=i
        )
        qoi_surrogate[i] = ps.samples[0, node]
    series = {"surrogate": qoi_surrogate}
    if with_reference:
        qoi_ref = np.empty(n)
        for i, x in enumerate(fields):
            sys = fem.assemble(model.fine_mesh, x.kappa_vec, bc)
            qoi_ref[i] = fem.solve(sys).y_vec[node]
        series["reference"] = qoi_ref
    pooled = np.concatenate(list(series.values()))
    lo, hi = float(pooled.min()), float(pooled.max())
    edges = np.linspace(lo, hi, bins + 1)
    grid = np.linspace(lo, hi, 256)
    result = {**series, "bin_edges": edges, "kde_grid": grid}
    if with_reference:
        result["ks"] = ks_statistic(qoi_surrogate, qoi_ref)
    for name, qoi in series.items():
        result[f"hist_{name}"] = np.histogram(qoi, bins=edges, density=True)[0]
        result[f"kde_{name}"] = gaussian_kde(qoi, bw_method="silverman")(grid)
    return result
