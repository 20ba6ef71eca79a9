"""Stochastic variational training of the generative surrogate.

The variational family is a structured mean field: a point estimate for the
model parameters, diagonal Gaussians for every per-datum latent, and for
query points a Gaussian over the fine solution y that is never updated by
gradient steps. Linear virtual observables give q(y) in closed form through
a low-rank (Woodbury) update; energy observables give one SPD linear system,
solved exactly with a direct factorization; learned constraint precisions
get conjugate Gamma updates. Everything else follows the reparametrized
Monte Carlo ELBO with Adam.

Gradients of the Monte Carlo objective are chained by hand through the
model's *_grads methods; the coarse solve contributes through its adjoint.
The labeled and virtual blocks are the same model term log p(y | X) and run
one conditional-ELBO body; they differ only in where y comes from (an
observation or a q(y) draw) and in the virtual block's likelihood and q(y)
entropy terms. Each block draws its noise from the generator it is given, in
an order that does not depend on the parameter values, so two identically
seeded generators give common random numbers for finite differences.

A block first draws all its noise, datum by datum, and then runs the
decoder, the encoders and the coarse map once over all n * mc_samples
(datum, draw) rows; parameter gradients come back summed over the rows.
Only log p(y | X) stays one call per row: each row's coarse system is
factorized on its own, and fem.SOLVE_COUNTS, which the benchmark checks
against its traced fem.solve calls, counts one solve per call.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import fem, vobs
from .approximators import Approximator, load_arrays, save_arrays
from .errors import IllConditioned, NonFiniteLoss
from .field import BoundaryCoeffs
from .gaussians import (
    LOG_2PI,
    entropy_diag,
    standard_logpdf_expectation,
)
from .genmodel import GenerativeModel, model_checkpoint, model_from_checkpoint
from .seeding import derive_rng
from .vobs import EnergyObservable, GammaPosterior, LinearConstraintSet

QY_ROW_CAP = 1024  # guard on the number of stacked constraint rows
# Adam step sizes of the trainer and of infer_z, which ascends one small q(z)
# against a fixed decoder in a few hundred steps and so takes larger ones.
LEARNING_RATE = 1e-3
INFER_Z_LEARNING_RATE = 0.05
# Std of the isotropic Gaussian prior on theta: weak against the data, but it
# keeps weights that no datum constrains from drifting.
THETA_PRIOR_SCALE = 10.0
# Relative change of the windowed mean objective below which training stops.
PLATEAU_TOL = 1e-4
# Draws of X per query for the MC estimate of <h(Y(X))> in each q(y) refresh.
QY_MC = 8
# Shape and rate of the vague Gamma prior on the flux precision.
GAMMA_PRIOR = 1e-6


# ---------------------------------------------------------------------------
# q(y) representations
# ---------------------------------------------------------------------------


@dataclass
class DiagGaussian:
    mean: np.ndarray
    var: np.ndarray

    def sample(self, rng):
        return self.mean + np.sqrt(self.var) * rng.standard_normal(self.mean.size)

    def var_diag(self):
        return self.var

    def entropy(self):
        return entropy_diag(self.var)


class LowRankGaussian:
    """N(mu, Sigma) with Sigma = diag(sbar) - A^T A, A = L^{-1} Gamma diag(sbar).

    The result of conditioning N(h_mean, diag(sbar)) on Gamma y = alpha
    observed with noise precision Lambda; L is the Cholesky factor of
    Xi = Gamma diag(sbar) Gamma^T + Lambda^{-1}. Exactly enforced rows
    (Lambda^{-1} = 0) leave a singular covariance whose null directions are
    pinned to the constraint manifold.
    """

    def __init__(self, mean, sbar, a_mat, exact: bool):
        self.mean = mean
        self.sbar = sbar
        self._a = a_mat
        self.exact = exact
        self._sqrt_parts = None

    def var_diag(self):
        return np.maximum(self.sbar - np.sum(self._a**2, axis=0), 0.0)

    def _sqrt(self):
        if self._sqrt_parts is None:
            b = self._a / np.sqrt(self.sbar)[None, :]
            _, s, vt = np.linalg.svd(b, full_matrices=False)
            scale = np.sqrt(np.clip(1.0 - s**2, 0.0, None)) - 1.0
            self._sqrt_parts = (vt, scale, s)
        return self._sqrt_parts

    def sample(self, rng):
        vt, scale, _ = self._sqrt()
        eps = rng.standard_normal(self.mean.size)
        w = eps + vt.T @ (scale * (vt @ eps))
        return self.mean + np.sqrt(self.sbar) * w

    def second_moment(self, gamma_rows, alpha_rows):
        """E || gamma_rows y - alpha_rows ||^2 under this Gaussian."""
        r = gamma_rows @ self.mean - alpha_rows
        t = self._a @ gamma_rows.T
        trace = float(np.sum(gamma_rows**2 * self.sbar[None, :]) - np.sum(t**2))
        return float(r @ r) + max(trace, 0.0)

    def entropy(self):
        """Differential entropy; meaningful only without exact rows."""
        _, _, s = self._sqrt()
        logdet = float(np.sum(np.log(self.sbar))) + float(
            np.sum(np.log(np.clip(1.0 - s**2, 1e-300, None)))
        )
        return 0.5 * (self.mean.size * (LOG_2PI + 1.0) + logdet)


def update_qy_closedform(
    sets, sy_var_diag, h_mean, gamma_posteriors=None
) -> LowRankGaussian:
    """Closed-form mean-field update of q(y) for linear virtual observables.

    Implements the precision-form optimum
        Sigma^{-1} = Gamma^T Lambda Gamma + diag(1/sy),
        Sigma^{-1} mu = Gamma^T Lambda alpha + diag(1/sy) h_mean
    through the Woodbury identity with Xi = Gamma S Gamma^T + Lambda^{-1};
    exactly enforced rows take the Lambda^{-1} = 0 limit. The rows of the
    list of constraint sets are stacked.
    """
    if not sets:
        return DiagGaussian(mean=h_mean.copy(), var=sy_var_diag.copy())
    gamma, alpha, lam_inv = vobs.stack_sets(sets, gamma_posteriors)
    if gamma.shape[0] > QY_ROW_CAP:
        raise ValueError(
            f"{gamma.shape[0]} constraint rows exceed the configured cap {QY_ROW_CAP}"
        )
    sbar = np.asarray(sy_var_diag, dtype=np.float64)
    gs = gamma * sbar[None, :]
    xi = gs @ gamma.T + np.diag(lam_inv)
    try:
        low = scipy.linalg.cholesky(xi, lower=True)
    except scipy.linalg.LinAlgError as e:
        raise IllConditioned(f"Xi is singular (dependent exact rows?): {e}") from None
    a_mat = scipy.linalg.solve_triangular(low, gs, lower=True)
    u = scipy.linalg.solve_triangular(low, alpha - gamma @ h_mean, lower=True)
    mean = h_mean + a_mat.T @ u
    return LowRankGaussian(
        mean=mean,
        sbar=sbar,
        a_mat=a_mat,
        exact=bool(np.any(lam_inv == 0.0)),
    )


def update_precision_gamma(second_moments, m: int) -> GammaPosterior:
    """Conjugate update for a precision shared by m rows at every query point.

    alpha = N_O m / 2 + a0,  beta = 0.5 sum_i E||o^(i)||^2 + b0, with the prior's
    a0 = b0 = GAMMA_PRIOR.
    """
    moments = np.asarray(list(second_moments), dtype=np.float64)
    if np.any(moments < 0.0):
        raise ValueError("residual second moments must be nonnegative")
    return GammaPosterior(
        alpha=0.5 * m * moments.size + GAMMA_PRIOR,
        beta=0.5 * float(moments.sum()) + GAMMA_PRIOR,
    )


def update_qy_energy(
    obs: EnergyObservable, sy_inv_diag, h_mean, *, steps=None
) -> DiagGaussian:
    """Mean-field q(y) for the energy observable, solved exactly.

    The tempered potential exp(-tau V(y)) and the Gaussian p(y | X) make the
    optimal mean the solution of one SPD system,
    (diag(sy_inv) + tau K) mu = tau f + diag(sy_inv) h_mean, which is factored
    and solved directly (dense Cholesky or sparse LU, as fem chooses for K).
    Variances are the mean-field fixed point 1 / diag(Sigma^{-1}).

    `steps` is accepted and ignored; callers from before the exact solve
    still pass it.
    """
    sy_inv = np.asarray(sy_inv_diag, dtype=np.float64)
    K = obs.system.K
    a_mat = obs.tau * K + scipy.sparse.diags_array(sy_inv)
    mean = fem.factorize(a_mat)(obs.tau * obs.system.f_vec + sy_inv * h_mean)
    return DiagGaussian(mean=mean, var=1.0 / (sy_inv + obs.tau * K.diagonal()))


# ---------------------------------------------------------------------------
# datasets, configuration and state
# ---------------------------------------------------------------------------


@dataclass
class LabeledData:
    lambdas: np.ndarray
    ys: np.ndarray
    bcs: np.ndarray

    def __len__(self):
        return self.lambdas.shape[0]


@dataclass
class UnlabeledData:
    lambdas: np.ndarray
    bcs: np.ndarray | None = None

    def __len__(self):
        return self.lambdas.shape[0]


@dataclass
class VirtualData:
    """Query inputs with their observables.

    observables[i] is either a list of LinearConstraintSet or one
    EnergyObservable for query i.
    """

    lambdas: np.ndarray
    bcs: np.ndarray
    observables: list

    def __len__(self):
        return self.lambdas.shape[0]


@dataclass
class TrainConfig:
    """Settings of one train() call.

    iterations: iteration budget of the call.
    mc_samples: reparametrized draws per datum in every ELBO block.
    unlabeled_batch: unlabeled data per iteration (all of them when fewer).
    cadence: iterations between q(y) and Gamma-precision refreshes.
    plateau_window: iterations per window of the plateau stop, which compares
        the mean objective of the last two windows.
    tau_start, tau_end: energy tempering, geometric over the call.
    amortized: unlabeled q(z) comes from an encoder network instead of
        per-datum factors.
    encoder_hidden: hidden widths of that encoder.
    seed: seed of the training generator and of the encoder's init.
    log_every: iterations between TrainLog rows.
    """

    iterations: int = 20000
    mc_samples: int = 1
    unlabeled_batch: int = 64
    cadence: int = 50
    plateau_window: int = 500
    tau_start: float = 1.0
    tau_end: float = 1e4
    amortized: bool = False
    encoder_hidden: tuple = (256, 128)
    seed: int = 0
    log_every: int = 25

    def __post_init__(self):
        for name in ("mc_samples", "unlabeled_batch", "cadence", "plateau_window", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("tau_start", "tau_end"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


class VariationalState:
    """Everything the trainer adapts: theta_MAP, factors, q(y), precisions."""

    def __init__(self, model: GenerativeModel, config: TrainConfig):
        self.model = model
        self.config = config
        self.factors: dict[str, np.ndarray] = {}
        self.enc_mu: Approximator | None = None
        self.enc_logvar: Approximator | None = None
        self.qy: list = []
        self.gamma_posteriors: dict[str, GammaPosterior] = {}
        self.iteration = 0
        # energy tempering: the iteration at which the current train() call
        # started, and the tau of the latest q(y) refresh
        self.run_start = 0
        self.tau = config.tau_start

    def adam_arrays(self) -> dict:
        out = self.model.params.arrays()
        if self.enc_mu is not None:
            out["enc_mu"] = self.enc_mu.params
            out["enc_logvar"] = self.enc_logvar.params
        return {**out, **self.factors}


def _block_average(lam: np.ndarray, d_f: int, d_c: int) -> np.ndarray:
    r = d_f // d_c
    return lam.reshape(d_c, r, d_c, r).mean(axis=(1, 3)).ravel()


def init_state(
    model: GenerativeModel,
    config: TrainConfig,
    labeled: LabeledData | None,
    unlabeled: UnlabeledData | None,
    virtual: VirtualData | None,
) -> VariationalState:
    """Data-informed starting point for the variational parameters.

    The coarse-map bias and per-datum q(X) means start at block averages of
    the observed log-conductivity, and the output variance starts at the
    empirical variance of the labeled solutions.
    """
    state = VariationalState(model, config)
    dz, dX = model.dim_z, model.dim_X

    all_lams = [d.lambdas for d in (labeled, unlabeled, virtual) if d is not None]
    if all_lams:
        stacked = np.vstack(all_lams)
        blocks = np.array(
            [_block_average(lam, model.d_f, model.d_c) for lam in stacked]
        )
        model.params.b_g[:] = blocks.mean(axis=0)
    if labeled is not None and len(labeled) >= 2:
        var_y = labeled.ys.var(axis=0) + 1e-6
        model.params.log_S_y[:] = np.log(var_y)

    for suffix, data in (("l", labeled), ("o", virtual)):
        if data is None:
            continue
        n = len(data)
        state.factors[f"mu_z_{suffix}"] = np.zeros((n, dz))
        state.factors[f"rho_z_{suffix}"] = np.full((n, dz), np.log(0.1))
        state.factors[f"mu_X_{suffix}"] = np.array(
            [_block_average(lam, model.d_f, model.d_c) for lam in data.lambdas]
        )
        state.factors[f"rho_X_{suffix}"] = np.full((n, dX), np.log(0.01))
    if virtual is not None:
        state.qy = [None] * len(virtual)
        if any(
            isinstance(obs, list)
            and any(isinstance(cs.precision, vobs.Learned) for cs in obs)
            for obs in virtual.observables
        ):
            state.gamma_posteriors["flux"] = GammaPosterior(GAMMA_PRIOR, GAMMA_PRIOR)
    if unlabeled is not None:
        if config.amortized:
            sizes = (model.dim_x, *config.encoder_hidden, dz)
            state.enc_mu = Approximator(sizes, seed=config.seed + 1)
            state.enc_logvar = Approximator(sizes, seed=config.seed + 2)
            # start near the prior: zero mean head, moderate variance
            state.enc_logvar.params[-dz:] = np.log(0.5)
        else:
            n = len(unlabeled)
            state.factors["mu_z_u"] = np.zeros((n, dz))
            state.factors["rho_z_u"] = np.full((n, dz), np.log(0.1))
    return state


# ---------------------------------------------------------------------------
# ELBO terms
# ---------------------------------------------------------------------------


class GradStore(dict):
    """Gradients summed key by key over the dicts given to add()."""

    def add(self, *grads):
        for g in grads:
            for key, value in g.items():
                if key in self:
                    self[key] += value
                else:
                    self[key] = np.array(value, dtype=np.float64)


def _q_draw(mu, rho, eps):
    """Rows of reparametrized draws: eps is (n, mc, d) for the n rows of
    (mu, rho); returns the draws as (n * mc, d) rows, datum by datum."""
    return (mu[:, None] + np.exp(0.5 * rho)[:, None] * eps).reshape(-1, mu.shape[1])


def _q_terms(mu, rho, g, eps, prior: bool):
    """Closed forms of q = N(mu, diag exp(rho)) per datum: its entropy, plus
    E_q[log N(0, I)] when `prior`. Returns their values and their (mu, rho)
    gradients plus those of the MC average of a term whose gradients at the
    draws _q_draw(mu, rho, eps) are the rows g."""
    var = np.exp(rho)
    g = g.reshape(eps.shape)
    value = entropy_diag(var)
    d_mu = g.mean(axis=1)
    d_rho = 0.5 * np.exp(0.5 * rho) * (g * eps).mean(axis=1) + 0.5
    if prior:
        value = value + standard_logpdf_expectation(mu, var)
        d_mu, d_rho = d_mu - mu, d_rho - 0.5 * var
    return value, d_mu, d_rho


def elbo_unlabeled(
    state: VariationalState,
    lambdas: np.ndarray,
    rng: np.random.Generator,
    indices=None,
    scale: float = 1.0,
):
    """Monte Carlo estimate of the unlabeled ELBO block with gradients.

    Likelihood terms are reparametrized MC; the prior cross term and the
    entropy are closed forms. Returns (value, theta_grads, factor_grads).
    """
    model = state.model
    mc = state.config.mc_samples
    n = lambdas.shape[0]
    if state.enc_mu is not None:
        mu, tape_mu = state.enc_mu.forward(lambdas)
        rho, tape_rho = state.enc_logvar.forward(lambdas)
    else:
        idx = np.arange(n) if indices is None else np.asarray(indices)
        mu, rho = state.factors["mu_z_u"][idx], state.factors["rho_z_u"][idx]
    eps = rng.standard_normal((n, mc, model.dim_z))
    lp, gz, gdec = model.logp_x_given_z_grads(
        np.repeat(lambdas, mc, axis=0), _q_draw(mu, rho, eps)
    )
    closed, g_mu, g_rho = _q_terms(mu, rho, gz, eps, prior=True)
    value = scale * np.sum(lp.reshape(n, mc).mean(axis=1) + closed)
    theta = {"decoder": gdec["decoder"] * (scale / mc)}
    if state.enc_mu is None:
        return value, theta, {"mu_z_u": scale * g_mu, "rho_z_u": scale * g_rho}
    theta["enc_mu"] = state.enc_mu.backward(tape_mu, g_mu)[0] * scale
    theta["enc_logvar"] = state.enc_logvar.backward(tape_rho, g_rho)[0] * scale
    return value, theta, {}


def _conditional_elbo(state, suffix, lambdas, bcs, y_draw, rng, indices):
    """Body shared by the labeled and virtual blocks.

    Both estimate E_q[log p(x|z) + log p(X|z) + log p(y|X)] with the coarse
    solve inside log p(y|X), plus the closed-form z prior cross term and the
    (z, X) entropies. They differ only in where y comes from: y_draw(i, k)
    returns an observation or a q(y) draw, and is called after datum i's
    (z, X) draws so the generator stream matches the block's own order.
    Factor keys end in `suffix`. Returns (per-datum values, theta_grads,
    factor_grads).
    """
    model = state.model
    mc = state.config.mc_samples
    n = lambdas.shape[0]
    idx = np.arange(n) if indices is None else np.asarray(indices)
    keys = [f"{name}_{suffix}" for name in ("mu_z", "rho_z", "mu_X", "rho_X")]
    mu_z, rho_z, mu_X, rho_X = (state.factors[key][idx] for key in keys)
    eps_z, eps_X, ys = [], [], []
    for i in range(n):
        eps_z.append(rng.standard_normal((mc, model.dim_z)))
        eps_X.append(rng.standard_normal((mc, model.dim_X)))
        ys += [y_draw(i, k) for k in range(mc)]
    eps_z, eps_X = np.array(eps_z), np.array(eps_X)
    z, X = _q_draw(mu_z, rho_z, eps_z), _q_draw(mu_X, rho_X, eps_X)

    theta = GradStore()
    lp_y, gX_y = np.empty(n * mc), np.empty_like(X)
    for r in range(n * mc):
        bc = BoundaryCoeffs.from_array(bcs[r // mc])
        lp_y[r], gX_y[r], grads = model.logp_y_given_X_grads(ys[r], X[r], bc)
        theta.add(grads)
    lp_x, gz_x, gdec = model.logp_x_given_z_grads(np.repeat(lambdas, mc, axis=0), z)
    lp_X, gX_X, gz_X, gcm = model.logp_X_given_z_grads(X, z)
    theta = {key: val / mc for key, val in {**theta, **gdec, **gcm}.items()}

    closed_z, *g_z = _q_terms(mu_z, rho_z, gz_x + gz_X, eps_z, prior=True)
    closed_X, *g_X = _q_terms(mu_X, rho_X, gX_y + gX_X, eps_X, prior=False)
    values = (lp_y + (lp_x + lp_X)).reshape(n, mc).mean(axis=1) + closed_z + closed_X
    return values, theta, dict(zip(keys, [*g_z, *g_X]))


def elbo_labeled(
    state: VariationalState,
    lambdas: np.ndarray,
    ys: np.ndarray,
    bcs: np.ndarray,
    rng: np.random.Generator,
    indices=None,
):
    """Labeled ELBO block: the coarse solve sits inside log p(y | X)."""
    values, theta, factors = _conditional_elbo(
        state, "l", lambdas, bcs, lambda i, k: ys[i], rng, indices
    )
    return np.sum(values), theta, factors


def expected_constraint_loglik(cs: LinearConstraintSet, qy, gamma_posteriors):
    """Analytic E_q[log p(o-hat | y)] for one set under q(y) q(lambda).

    For exactly enforced rows the term is a constant of the conditioning and
    is dropped (returns 0). For flux rows, with lambda the precision of the
    "flux" Gamma posterior, the value is
    -0.5 E[lambda] E||o||^2 + 0.5 M E[log lambda] - (M/2) log 2pi.
    """
    if isinstance(cs.precision, vobs.Exact):
        return 0.0
    post = gamma_posteriors["flux"]
    weighted_sq = post.mean() * qy.second_moment(cs.gamma, cs.alpha)
    elog = np.full(cs.m, post.expected_log())
    return -0.5 * weighted_sq + 0.5 * float(np.sum(elog)) - 0.5 * cs.m * LOG_2PI


def _constraint_likelihood_value(sets, qy, gamma_posteriors):
    """Finite-precision likelihood terms plus the q(y) entropy when finite.

    For exact rows both the likelihood and the entropy along the constrained
    directions are infinite with opposite signs and cancel; both are dropped
    from the reported value."""
    value = 0.0 if isinstance(qy, LowRankGaussian) and qy.exact else qy.entropy()
    for cs in sets:
        value += expected_constraint_loglik(cs, qy, gamma_posteriors)
    return value


def _energy_likelihood_value(system: fem.FemSystem, qy: DiagGaussian, tau: float):
    """E_q[-tau V(y)] for diagonal q plus its entropy; constants dropped."""
    K = system.K
    quad = float(qy.mean @ (K @ qy.mean)) + float(K.diagonal() @ qy.var)
    return -tau * (0.5 * quad - float(system.f_vec @ qy.mean)) + qy.entropy()


def elbo_virtual(
    state: VariationalState,
    lambdas: np.ndarray,
    bcs: np.ndarray,
    observables: list,
    rng: np.random.Generator,
    indices=None,
):
    """Virtual-observable ELBO block.

    q(y) is sampled, never reparametrized: its parameters are maintained by
    the closed-form / energy updates, so gradients here flow only to theta
    and the (z, X) factors. Each datum adds its constraint or energy
    likelihood and the q(y) entropy to the shared conditional body.
    """
    idx = np.arange(lambdas.shape[0]) if indices is None else np.asarray(indices)
    qys = [state.qy[j] for j in idx]

    values, theta, factors = _conditional_elbo(
        state, "o", lambdas, bcs, lambda i, k: qys[i].sample(rng), rng, indices
    )
    value = np.sum(values)
    for obs, qy in zip(observables, qys):
        if isinstance(obs, EnergyObservable):
            value += _energy_likelihood_value(obs.system, qy, state.tau)
        else:
            value += _constraint_likelihood_value(obs, qy, state.gamma_posteriors)
    return value, theta, factors


def prior_logpdf_theta(arrays: dict, prior_scale: float):
    """Isotropic Gaussian prior over all unconstrained parameters.

    Returns (value up to an additive constant, gradients)."""
    inv_var = 1.0 / (prior_scale * prior_scale)
    value = 0.0
    for arr in arrays.values():
        value += -0.5 * inv_var * float(np.sum(arr * arr))
    return value, {key: -inv_var * arr for key, arr in arrays.items()}


# ---------------------------------------------------------------------------
# Adam and the training loop
# ---------------------------------------------------------------------------


class Adam:
    """Ascent Adam over a dict of named arrays; supports row-subset updates."""

    # Kingma & Ba's defaults; no caller needs other moment decays.
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict, grads: dict, rows: dict | None = None):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for key, gradient in grads.items():
            arr = params[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(arr)
                self.v[key] = np.zeros_like(arr)
            m, v = self.m[key], self.v[key]
            if rows and key in rows:
                sel = rows[key]
                m[sel] = self.beta1 * m[sel] + (1 - self.beta1) * gradient
                v[sel] = self.beta2 * v[sel] + (1 - self.beta2) * (gradient * gradient)
                arr[sel] += self.lr * (m[sel] / b1c) / (np.sqrt(v[sel] / b2c) + self.eps)
                continue
            m *= self.beta1
            m += (1 - self.beta1) * gradient
            v *= self.beta2
            v += (1 - self.beta2) * (gradient * gradient)
            # the row branch's update, in place where it gives the same bits
            den = np.sqrt(v / b2c)
            den += self.eps
            step = m / b1c
            step *= self.lr
            step /= den
            arr += step


@dataclass
class TrainLog:
    rows: list = dataclass_field(default_factory=list)

    COLUMNS = ("iter", "F", "F_u", "F_l", "F_O", "wallclock")

    def append(self, *row):
        self.rows.append(tuple(row))

    def column(self, name):
        j = self.COLUMNS.index(name)
        return np.array([r[j] for r in self.rows])


def _temper_tau(cfg: TrainConfig, iteration: int) -> float:
    """Geometric schedule from tau_start to tau_end over one train() call."""
    frac = min(iteration / max(cfg.iterations, 1), 1.0)
    return float(cfg.tau_start * (cfg.tau_end / cfg.tau_start) ** frac)


def _plateaued(history: list, w: int) -> bool:
    """The mean objective of the last w iterations moved by less than
    PLATEAU_TOL (relative) from that of the w before them."""
    if len(history) < 2 * w:
        return False
    recent = float(np.mean(history[-w:]))
    before = float(np.mean(history[-2 * w : -w]))
    return abs(recent - before) / max(abs(before), 1e-12) < PLATEAU_TOL


def _estimate_h_mean(state, i, bc, rng):
    """MC estimate of <h(Y(X))> under q(X) for query i."""
    model = state.model
    mu_X = state.factors["mu_X_o"][i]
    std_X = np.exp(0.5 * state.factors["rho_X_o"][i])
    total = np.zeros(model.dim_y)
    for _ in range(QY_MC):
        X = mu_X + std_X * rng.standard_normal(model.dim_X)
        total += model.mean_y_given_X(X, bc)
    return total / QY_MC


def refresh_qy(state: VariationalState, virtual: VirtualData, rng):
    """Closed-form / energy updates of every q(y) plus Gamma precisions.

    Energy observables are tempered with the tau of the current train()
    call, kept on the state; the caller's observables are not modified.
    """
    model = state.model
    sy = model.var_y()
    state.tau = _temper_tau(state.config, state.iteration - state.run_start)
    flux_moments, flux_rows = [], 0
    for i in range(len(virtual)):
        bc = BoundaryCoeffs.from_array(virtual.bcs[i])
        h_mean = _estimate_h_mean(state, i, bc, rng)
        obs = virtual.observables[i]
        if isinstance(obs, EnergyObservable):
            state.qy[i] = update_qy_energy(
                dataclasses.replace(obs, tau=state.tau), 1.0 / sy, h_mean
            )
        else:
            state.qy[i] = update_qy_closedform(
                obs, sy, h_mean, state.gamma_posteriors
            )
            for cs in obs:
                if isinstance(cs.precision, vobs.Learned):
                    flux_rows = cs.m
                    flux_moments.append(state.qy[i].second_moment(cs.gamma, cs.alpha))
    if flux_moments:
        state.gamma_posteriors["flux"] = update_precision_gamma(flux_moments, flux_rows)


def train(
    model: GenerativeModel,
    config: TrainConfig,
    labeled: LabeledData | None = None,
    unlabeled: UnlabeledData | None = None,
    virtual: VirtualData | None = None,
    state: VariationalState | None = None,
    log: TrainLog | None = None,
):
    """Run the SVI loop; returns (state, log).

    Each iteration draws fresh reparametrization noise, accumulates the
    three ELBO blocks plus the parameter prior, and takes one Adam ascent
    step; every `cadence` iterations the q(y) factors and learned precisions
    are refreshed in closed form. Stops on the iteration budget or when the
    moving average of the objective plateaus.
    """
    if labeled is None and unlabeled is None and virtual is None:
        raise ValueError("at least one dataset must be provided")
    if state is None:
        state = init_state(model, config, labeled, unlabeled, virtual)
    log = log if log is not None else TrainLog()
    state.run_start = state.iteration
    rng = derive_rng(config.seed, "train")
    adam = Adam(LEARNING_RATE)

    n_l = len(labeled) if labeled is not None else 0
    n_u = len(unlabeled) if unlabeled is not None else 0
    # the unlabeled block weighs as much as the labeled one
    w_u = n_l / n_u if n_u and n_l else 1.0

    if virtual is not None:
        refresh_qy(state, virtual, rng)

    history = []
    start = time.monotonic()
    stop_iteration = state.iteration + config.iterations
    while state.iteration < stop_iteration:
        state.iteration += 1
        f_u = f_l = f_o = 0.0
        grads = GradStore()
        rows = {}

        if n_u:
            if n_u > config.unlabeled_batch:
                batch = rng.choice(n_u, size=config.unlabeled_batch, replace=False)
            else:
                batch = np.arange(n_u)
            scale_u = w_u * n_u / batch.size
            f_u, th, fa = elbo_unlabeled(
                state, unlabeled.lambdas[batch], rng, indices=batch, scale=scale_u
            )
            grads.add(th, fa)
            rows = dict.fromkeys(fa, batch)
        if n_l:
            f_l, th, fa = elbo_labeled(
                state, labeled.lambdas, labeled.ys, labeled.bcs, rng
            )
            grads.add(th, fa)
        if virtual is not None:
            f_o, th, fa = elbo_virtual(
                state, virtual.lambdas, virtual.bcs, virtual.observables, rng
            )
            grads.add(th, fa)
        f_prior, prior_grads = prior_logpdf_theta(
            state.model.params.arrays(), THETA_PRIOR_SCALE
        )
        grads.add(prior_grads)
        total = f_u + f_l + f_o + f_prior
        if not np.isfinite(total):
            raise NonFiniteLoss(
                f"objective became non-finite at iteration {state.iteration}: "
                f"F_u={f_u:.3e} F_l={f_l:.3e} F_O={f_o:.3e} prior={f_prior:.3e}"
            )

        adam.step(state.adam_arrays(), grads, rows=rows)

        if virtual is not None and state.iteration % config.cadence == 0:
            refresh_qy(state, virtual, rng)

        history.append(total)
        plateau = _plateaued(history, config.plateau_window)
        if (
            plateau
            or state.iteration % config.log_every == 0
            or state.iteration == stop_iteration
        ):
            log.append(
                state.iteration, total, f_u, f_l, f_o, time.monotonic() - start
            )
        if plateau:
            break
    return state, log


# ---------------------------------------------------------------------------
# full-state checkpoints
# ---------------------------------------------------------------------------

def save_state(state: VariationalState, stem) -> None:
    """The model checkpoint plus encoder, factors, precisions and config;
    q(y) is derived data and is rebuilt from the virtual dataset."""
    header, _ = model_checkpoint(state.model)
    arrays = state.adam_arrays()
    cfg = dataclasses.asdict(state.config)
    cfg["encoder_hidden"] = list(cfg["encoder_hidden"])
    header.update(
        factor_keys=sorted(state.factors.keys()),
        gamma_posteriors={
            key: {"alpha": post.alpha, "beta": post.beta}
            for key, post in state.gamma_posteriors.items()
        },
        iteration=state.iteration,
        config=cfg,
    )
    save_arrays(stem, header, arrays)


def load_state(stem) -> VariationalState:
    header, arrays = load_arrays(stem)
    cfg_dict = dict(header["config"])
    cfg_dict["encoder_hidden"] = tuple(cfg_dict["encoder_hidden"])
    model = model_from_checkpoint(header, arrays)
    state = VariationalState(model, TrainConfig(**cfg_dict))
    if "enc_mu" in arrays:
        sizes = (model.dim_x, *state.config.encoder_hidden, model.dim_z)
        state.enc_mu = Approximator(sizes, params=arrays["enc_mu"])
        state.enc_logvar = Approximator(sizes, params=arrays["enc_logvar"])
    for key in header["factor_keys"]:
        state.factors[key] = arrays[key]
    state.gamma_posteriors = {
        key: GammaPosterior(alpha=val["alpha"], beta=val["beta"])
        for key, val in header["gamma_posteriors"].items()
    }
    state.iteration = int(header["iteration"])
    if "mu_X_o" in state.factors:
        state.qy = [None] * state.factors["mu_X_o"].shape[0]
    return state
