"""Predictive posterior, evaluation metrics and uncertainty propagation.

Prediction never touches the fine solver: the posterior over the latent code
is either read off the amortized encoder, whose one output holds the mean
and then the log-variance, or found by maximizing the unlabeled ELBO for the
given input, and samples then flow through the coarse solver only.
The fine solver is used here solely when an explicit Monte Carlo reference
is requested for uncertainty propagation.

predictive_posterior takes the noise of its K samples from one draw, in the
order a per-sample loop consumes it, and runs every model term, the coarse
solves included, once over the K rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import gaussian_kde

from . import fem
from .errors import DegenerateValidation, DimensionMismatch, InvalidInput, InvalidSize
from .errors import NonPositiveVariance
from .field import BoundaryCoeffs
from .gaussians import diag_logpdf, kl_diag_standard
from .inference import Adam, DiagGaussian, VariationalState
from .seeding import derive_rng

# infer_z's Adam step size: one small q(z) ascends in a few hundred steps
INFER_Z_LEARNING_RATE = 0.05
# Histogram bins of propagate_uq's QoI densities
UQ_BINS = 64


def _finite(name: str, a) -> np.ndarray:
    """`a` as a float64 array; InvalidInput if an entry is NaN or infinite."""
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} has a non-finite entry")
    return a


def _check_count(name: str, value, least: int) -> None:
    """InvalidInput unless `value` is an integer >= `least`."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")


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

    mode="amortized" splits one encoder output into mean and log-variance;
    mode="optimize" runs `steps` (an integer >= 0) of a fresh reparametrized
    ascent of E_q[log p(x|z)] - KL(q || prior) over the factor (mu, log-variance),
    which starts at the encoder's output when there is one, else at the prior.
    """
    model = state.model
    if np.shape(x) != (model.dim_x,):
        raise DimensionMismatch(f"x has shape {np.shape(x)}, expected ({model.dim_x},)")
    _finite("x", x)
    dz = model.dim_z
    if mode == "amortized":
        if state.encoder is None:
            raise ValueError("no amortized encoder in this state")
        out = state.encoder(x)
        return DiagGaussian(mean=out[:dz], var=np.exp(out[dz:]))
    if mode != "optimize":
        raise ValueError(f"unknown mode {mode!r}")
    _check_count("steps", steps, 0)
    noise = derive_rng(seed, "infer_z").standard_normal((steps, dz))
    # Adam ascends one flat factor; mu and rho (and their gradients) are views.
    factor, grad = np.empty(2 * dz), np.empty(2 * dz)
    mu, rho = factor[:dz], factor[dz:]
    g_mu, g_rho = grad[:dz], grad[dz:]
    if state.encoder is not None:
        factor[:] = state.encoder(x)
    else:
        mu[:], rho[:] = 0.0, np.log(0.5)
    adam = Adam(INFER_Z_LEARNING_RATE)
    objective = []
    for eps in noise:
        std = np.exp(0.5 * rho)
        z = mu + std * eps
        lp, gz, _ = model.logp_x_given_z_grads(x, z, weights=None)
        var = np.exp(rho)
        objective.append(lp - kl_diag_standard(mu, var))
        np.subtract(gz, mu, out=g_mu)
        g_rho[:] = gz * (0.5 * std * eps) - 0.5 * var + 0.5
        adam.step(factor, grad)
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
    return DiagGaussian(mean=mu.copy(), var=np.exp(rho))


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

    Each sample draws z from q*(z) and X from p(X | z), runs the coarse model
    and adds the output-map noise. One (K, dim_z + dim_X + dim_y) standard
    normal draw holds every sample's noise, row j being what sample j would
    draw in turn, so a K-sample call replays as K sequential single-sample
    calls sharing the generator. Every model term runs once over all K rows;
    the coarse model solves once per sample.
    """
    _check_count("k", k, 1)
    rng = rng or np.random.default_rng()
    model = state.model
    if qz is None:
        qz = infer_z(x, state, mode=mode, seed=infer_seed)
    dz, dX = model.dim_z, model.dim_X
    noise = rng.standard_normal((k, dz + dX + model.dim_y))
    z = qz.mean + np.sqrt(qz.var) * noise[:, :dz]
    mean_X, var_X = model.coarse_map(z)
    X = mean_X + np.sqrt(var_X) * noise[:, dz : dz + dX]
    Y = model.cgm_forward(X, [bc] * k)
    mean_y, var_y = model.output_map(Y)
    samples = mean_y + np.sqrt(var_y) * noise[:, dz + dX :]
    return PredictiveSamples(
        samples=samples, mean=samples.mean(axis=0), var=samples.var(axis=0)
    )


def r2_score(y_true: np.ndarray, y_pred_mean: np.ndarray) -> float:
    """Coefficient of determination over a validation set.

    1 - sum ||y_i - mu_i||^2 / sum ||y_i - ybar||^2 with ybar the validation
    average.
    """
    y_true, y_pred_mean = _finite("y_true", y_true), _finite("y_pred_mean", y_pred_mean)
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
    y_true, mean = _finite("y_true", y_true), _finite("mean", mean)
    var = np.asarray(var, dtype=np.float64)
    if not np.all(var > 0.0):
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
):
    """Push input randomness through the surrogate and read off the QoI.

    The QoI is the solution value at the domain center. Draws one predictive
    sample per input (the correct marginal over inputs and predictive
    noise). When requested, the fine-model Monte Carlo reference is computed
    for the same inputs and the two-sample KS distance is reported. The
    density estimates need n >= 2 inputs. mode="amortized" silently falls
    back to "optimize" when the state has no encoder.
    """
    if n < 2:
        raise InvalidSize(f"propagate_uq needs n >= 2 inputs, got {n}")
    model = state.model
    node = center_node_index(model.d_f)
    mode = mode if (state.encoder is not None or mode != "amortized") else "optimize"
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
    edges = np.linspace(lo, hi, UQ_BINS + 1)
    grid = np.linspace(lo, hi, 256)
    result = {**series, "bin_edges": edges, "kde_grid": grid}
    if with_reference:
        result["ks"] = ks_statistic(qoi_surrogate, qoi_ref)
    for name, qoi in series.items():
        result[f"hist_{name}"] = np.histogram(qoi, bins=edges, density=True)[0]
        result[f"kde_{name}"] = gaussian_kde(qoi, bw_method="silverman")(grid)
    return result
