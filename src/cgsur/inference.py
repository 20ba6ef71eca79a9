"""Stochastic variational training of the generative surrogate.

The variational family is a structured mean field: a point estimate for the
model parameters, diagonal Gaussians for every per-datum latent, and for
query points a Gaussian over the fine solution y that is never updated by
gradient steps. Linear virtual observables give q(y) in closed form through
a low-rank (Woodbury) update, whose one Cholesky factor serves the mean, the
variances, the draws and the entropy; energy observables give one SPD linear
system, solved exactly with a direct factorization; learned constraint
precisions get conjugate Gamma updates. Everything else follows the
reparametrized Monte Carlo ELBO with Adam.

Gradients of the Monte Carlo objective are chained by hand through the
model's *_grads methods; the coarse solve contributes through its adjoint.
The unlabeled, labeled and virtual ELBO blocks sum the same model densities
over their data, and one body evaluates them together. Each block draws its
noise in one call, row i holding datum i's (a virtual row also the standard
normals of its q(y) draw), in an order that does not depend on the parameter
values, so two identically seeded generators give common random numbers for
finite differences. The rows of all blocks then make one call of each model
term: the decoder over every z row, the unlabeled ones weighted by the
minibatch scale, and log p(X | z) and log p(y | X), coarse solves included,
over the labeled and virtual rows, where y is an observation or a q(y) draw.
The virtual block also adds each query's likelihood and q(y) entropy term,
which changes only when q(y) is refreshed; each refresh computes it once and
draws the coarse inputs of every query in one call.

Every array that gradient steps adapt is a view of one float64 vector owned
by the VariationalState. The ELBO body writes the decoder's gradient into the
views of a second vector of that layout and adds the others into the rest,
zeroed by the trainer once per iteration. One Adam steps the whole vector,
adds the parameter prior's gradient to the model's arrays, which lead it,
and freezes the unlabeled factors outside a minibatch by their flat indices.

save_state and load_state write and read the one checkpoint format: <stem>.json
holds a versioned header with the networks' sizes and the layout of the
arrays, and <stem>.bin the arrays as one little-endian float64 blob.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np
import scipy.linalg

from . import fem, vobs
from .approximators import Approximator
from .errors import DimensionMismatch, IllConditioned, NonFiniteLoss
from .field import BoundaryCoeffs
from .gaussians import (
    LOG_2PI,
    entropy_diag,
    standard_logpdf_expectation,
)
from .genmodel import GenerativeModel, model_from_checkpoint
from .seeding import derive_rng
from .vobs import EnergyObservable, GammaPosterior, LinearConstraintSet

QY_ROW_CAP = 1024  # guard on the number of stacked constraint rows
LEARNING_RATE = 1e-3  # Adam step size of the trainer
# Std of the isotropic Gaussian prior on theta: weak against the data, but it
# keeps weights that no datum constrains from drifting.
THETA_PRIOR_SCALE = 10.0
# Relative change of the windowed mean objective below which training stops.
PLATEAU_TOL = 1e-4
# Draws of X per query for the MC estimate of <h(Y(X))> in each q(y) refresh.
QY_MC = 8
# Shape and rate of the vague Gamma prior on the flux precision.
GAMMA_PRIOR = 1e-6
# Files of version 1 have a layout per checkpoint kind, and those of version 4
# describe networks by lists of layer kinds; state files up to version 6 carry
# TrainConfig fields, where version 7 records the encoders' layer widths.
CHECKPOINT_VERSION = 7


# ---------------------------------------------------------------------------
# q(y) representations
# ---------------------------------------------------------------------------


@dataclass
class DiagGaussian:
    mean: np.ndarray
    var: np.ndarray

    def sample(self, eps):
        """The draw that the standard normal vector eps maps to."""
        return self.mean + np.sqrt(self.var) * eps

    def var_diag(self):
        return self.var

    def entropy(self):
        return entropy_diag(self.var)


class LowRankGaussian:
    """N(mu, Sigma) with Sigma = diag(sbar) - A^T A, A = L^{-1} Gamma diag(sbar).

    The result of conditioning N(h_mean, diag(sbar)) on Gamma y = alpha
    observed with noise precision Lambda; L is the Cholesky factor of
    Xi = Gamma diag(sbar) Gamma^T + Lambda^{-1}, and this one factor serves
    the mean, the variances, the draws and the entropy. With
    B = A diag(sbar)^{-1/2} and C = (L + Lambda^{-1/2})^{-1} L, the root
    R = I - B^T C B has R R^T = I - B^T B, so a draw is
    mean + diag(sbar)^{1/2} R eps, and `logdet`, log det Sigma, is
    sum log sbar + sum log Lambda^{-1} - 2 sum log diag L. Exactly enforced
    rows (Lambda^{-1} = 0) leave a singular covariance, whose null
    directions are pinned to the constraint manifold, and logdet = -inf.
    """

    def __init__(self, mean, sbar, a_mat, c_mat, logdet):
        self.mean = mean
        self.sbar = sbar
        self._a = a_mat
        self._c = c_mat
        self.logdet = logdet

    def var_diag(self):
        return np.maximum(self.sbar - np.sum(self._a**2, axis=0), 0.0)

    def sample(self, eps):
        """The draw that the standard normal vector eps maps to."""
        root = np.sqrt(self.sbar)
        return self.mean + root * eps - self._a.T @ (self._c @ (self._a @ (eps / root)))

    def second_moment(self, gamma_rows, alpha_rows):
        """E || gamma_rows y - alpha_rows ||^2 under this Gaussian."""
        r = gamma_rows @ self.mean - alpha_rows
        t = self._a @ gamma_rows.T
        trace = float(np.sum(gamma_rows**2 * self.sbar[None, :]) - np.sum(t**2))
        return float(r @ r) + max(trace, 0.0)

    def entropy(self):
        """Differential entropy; -inf with exact rows."""
        return 0.5 * (self.mean.size * (LOG_2PI + 1.0) + self.logdet)


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
    c_mat = scipy.linalg.solve_triangular(low + np.diag(np.sqrt(lam_inv)), low, lower=True)
    logdet = -np.inf  # an exact row has Lambda^{-1} = 0
    if np.all(lam_inv > 0):
        logdet = float(np.sum(np.log(sbar)) + np.sum(np.log(lam_inv)))
        logdet -= 2.0 * float(np.sum(np.log(np.diag(low))))
    return LowRankGaussian(mean, sbar, a_mat, c_mat, logdet)


def update_precision_gamma(second_moments, m: int) -> GammaPosterior:
    """Conjugate update for a precision shared by m rows at every query point.

    alpha = N_O m / 2 + a0,  beta = 0.5 sum_i E||o^(i)||^2 + b0, with the prior's
    a0 = b0 = GAMMA_PRIOR.
    """
    moments = np.asarray(list(second_moments), dtype=np.float64)
    if not np.all(np.isfinite(moments) & (moments >= 0.0)):
        raise ValueError("residual second moments must be finite and nonnegative")
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
    (diag(sy_inv) + tau K) mu = diag(sy_inv) h_mean, which fem.factorize_shifted
    factors from the band of K summed from the element blocks. Variances are
    the mean-field fixed point 1 / diag(Sigma^{-1}).

    `steps` is accepted and ignored; callers from before the exact solve
    still pass it.
    """
    sy_inv = np.asarray(sy_inv_diag, dtype=np.float64)
    solve, diagonal = fem.factorize_shifted(obs.system, obs.tau, sy_inv)
    return DiagGaussian(mean=solve(sy_inv * h_mean), var=1.0 / diagonal)


# ---------------------------------------------------------------------------
# datasets, configuration and state
# ---------------------------------------------------------------------------


class _Dataset:
    """Every field holds one row per lambda; bcs rows hold four values."""

    def __post_init__(self):
        n = len(self)
        for name, rows in vars(self).items():
            if len(rows) != n:
                raise DimensionMismatch(f"{name} has {len(rows)} rows for {n} lambdas")
        if hasattr(self, "bcs") and np.shape(self.bcs) != (n, 4):
            raise DimensionMismatch(f"bcs has shape {np.shape(self.bcs)}, expected ({n}, 4)")

    def __len__(self):
        return self.lambdas.shape[0]


@dataclass
class LabeledData(_Dataset):
    lambdas: np.ndarray
    ys: np.ndarray
    bcs: np.ndarray


@dataclass
class UnlabeledData(_Dataset):
    lambdas: np.ndarray


@dataclass
class VirtualData(_Dataset):
    """Query inputs with their observables.

    observables[i] is either a list of LinearConstraintSet or one
    EnergyObservable for query i.
    """

    lambdas: np.ndarray
    bcs: np.ndarray
    observables: list


@dataclass
class TrainConfig:
    """Settings of one train() call.

    iterations: iteration budget of the call.
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
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("unlabeled_batch", "cadence", "plateau_window", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("tau_start", "tau_end"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if min(self.encoder_hidden, default=1) < 1:
            raise ValueError(f"encoder_hidden widths must be >= 1, got {self.encoder_hidden}")


class VariationalState:
    """Everything the trainer adapts: theta_MAP, factors, q(y), precisions.

    init_state and load_state copy the arrays of adam_arrays() -- the model's
    decoder, W_g ... log_S_y, the encoders and every factor -- into one vector
    `theta`, in that order, and make each a view of its slice; assign into
    them, not over them. `grad` has the same layout, and views() gives the
    named views of either. A deep copy views a vector of its own. No
    TrainConfig is kept: train() runs on that of its call, and refresh_qy
    sets q(y), its terms and `tau`, which save_state does not write.
    """

    def __init__(self, model: GenerativeModel):
        self.model = model
        self.factors: dict[str, np.ndarray] = {}
        self.enc_mu: Approximator | None = None
        self.enc_logvar: Approximator | None = None
        self.qy: list = []
        # per query, its expected log-likelihood plus q(y) entropy
        self.qy_terms: list = []
        self.gamma_posteriors: dict[str, GammaPosterior] = {}
        self.iteration = 0
        self.theta = self.grad = None  # set by _bind

    def adam_arrays(self) -> dict:
        out = self.model.params.arrays()
        if self.enc_mu is not None:
            out["enc_mu"] = self.enc_mu.params
            out["enc_logvar"] = self.enc_logvar.params
        return {**out, **self.factors}

    def views(self, flat: np.ndarray) -> dict:
        """Named views of a theta-sized vector, in adam_arrays() order."""
        ends = np.cumsum([np.prod(shape, dtype=int) for shape in self._shapes.values()])
        parts = np.split(flat, ends[:-1])
        return {key: p.reshape(shape) for (key, shape), p in zip(self._shapes.items(), parts)}

    def _bind(self):
        """Copy the arrays of adam_arrays() into a new theta and make each a
        view of it; each original is released as soon as it is copied."""
        arrays = self.adam_arrays()
        self._shapes = {key: arr.shape for key, arr in arrays.items()}
        self.theta = np.empty(sum(arr.size for arr in arrays.values()))
        self.grad = np.zeros(self.theta.size)
        for key, view in self.views(self.theta).items():
            view[...] = arrays.pop(key)
            if key in self.factors:
                self.factors[key] = view
            elif key in ("enc_mu", "enc_logvar"):
                getattr(self, key).params = view
            elif key == "decoder":
                self.model.params.decoder.params = view
            else:
                setattr(self.model.params, key, view)

    def __deepcopy__(self, memo):
        twin = object.__new__(VariationalState)
        memo[id(self)] = twin
        for name, value in vars(self).items():
            if name not in ("theta", "grad"):
                setattr(twin, name, copy.deepcopy(value, memo))
        twin._bind()
        return twin


def _block_average(lams: np.ndarray, d_f: int, d_c: int) -> np.ndarray:
    """Each row's means over the r x r fine pixels of every coarse pixel."""
    r = d_f // d_c
    return lams.reshape(-1, d_c, r, d_c, r).mean(axis=(2, 4)).reshape(-1, d_c * d_c)


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
    state = VariationalState(model)
    dz, dX = model.dim_z, model.dim_X

    all_lams = [d.lambdas for d in (labeled, unlabeled, virtual) if d is not None]
    if all_lams:
        blocks = _block_average(np.vstack(all_lams), model.d_f, model.d_c)
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
        state.factors[f"mu_X_{suffix}"] = _block_average(data.lambdas, model.d_f, model.d_c)
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
            state.enc_mu = Approximator._undrawn(sizes)
            state.enc_logvar = Approximator._undrawn(sizes)
        else:
            n = len(unlabeled)
            state.factors["mu_z_u"] = np.zeros((n, dz))
            state.factors["rho_z_u"] = np.full((n, dz), np.log(0.1))
    state._bind()
    if state.enc_mu is not None:
        # drawn straight into theta: no encoder vector sits beside the decoder's copy
        state.enc_mu._draw(config.seed + 1)
        state.enc_logvar._draw(config.seed + 2)
        # start near the prior: zero mean head, moderate variance
        state.enc_logvar.params[-dz:] = np.log(0.5)
    return state


# ---------------------------------------------------------------------------
# ELBO terms
# ---------------------------------------------------------------------------


def _q_draw(mu, rho, eps):
    """Reparametrized draws mu + exp(rho / 2) eps of q = N(mu, diag exp(rho))."""
    return mu + np.exp(0.5 * rho) * eps


def _row_bcs(bcs):
    """BoundaryCoeffs for each row of an (n, 4) array."""
    return [BoundaryCoeffs.from_array(bc) for bc in bcs]


def _q_terms(mu, rho, g, eps, prior: bool, weights=1.0):
    """Closed forms of q = N(mu, diag exp(rho)) per datum: its entropy, plus
    E_q[log N(0, I)] when `prior`. Returns their values and the (mu, rho)
    gradients of their sum weighted by `weights` (a scalar or a column, one
    weight per row), plus those of a term whose gradients at the draws
    _q_draw(mu, rho, eps) are the rows g."""
    var = np.exp(rho)
    value = entropy_diag(var)
    d_mu = g
    d_rho = 0.5 * np.exp(0.5 * rho) * (g * eps) + 0.5 * weights
    if prior:
        value = value + standard_logpdf_expectation(mu, var)
        d_mu, d_rho = d_mu - weights * mu, d_rho - 0.5 * weights * var
    return value, d_mu, d_rho


def _elbo(state, rng, grads, unlabeled=None, labeled=None, virtual=None):
    """One Monte Carlo pass over the ELBO blocks it is given: `unlabeled` =
    (lambdas, indices, scale), `labeled` = (lambdas, bcs, ys) and `virtual` =
    (lambdas, bcs, None), bcs one BoundaryCoeffs per row. Writes the decoder's
    gradient into `grads`, named views of a theta-sized vector, adds the others,
    and returns (F_u, F_l, F_O), 0.0 for a block not given; F_u is times
    `scale` and F_O includes state.qy_terms."""
    model = state.model
    dz, dX = model.dim_z, model.dim_X
    z_rows, X_rows, bcs, blocks = [], [], [], []  # blocks: (slot in F, keys, rows, scale)
    if unlabeled is not None:
        x_u, indices, scale = unlabeled
        idx = np.arange(len(x_u)) if indices is None else np.asarray(indices)
        if state.enc_mu is not None:
            mu, tape_mu = state.enc_mu.forward(x_u)
            rho, tape_rho = state.enc_logvar.forward(x_u)
        else:
            mu, rho = state.factors["mu_z_u"][idx], state.factors["rho_z_u"][idx]
        eps_u = rng.standard_normal((len(x_u), dz))
    for slot, suffix, data in ((1, "l", labeled), (2, "o", virtual)):
        if data is None:
            continue
        lambdas, row_bcs, ys = data
        n = lambdas.shape[0]
        keys = [f"{name}_{suffix}" for name in ("mu_z", "rho_z", "mu_X", "rho_X")]
        mu_z, rho_z, mu_X, rho_X = (state.factors[key] for key in keys)
        if mu_z.shape[0] != n:
            raise DimensionMismatch(f"{n} data for {mu_z.shape[0]} rows of {keys[0]}")
        noise = rng.standard_normal((n, dz + dX + (model.dim_y if ys is None else 0)))
        if ys is None:
            ys = np.array([qy.sample(eps) for qy, eps in zip(state.qy, noise[:, dz + dX :])])
        z_rows.append((lambdas, mu_z, rho_z, noise[:, :dz], np.ones(n)))
        X_rows.append((mu_X, rho_X, noise[:, dz : dz + dX], ys))
        bcs += row_bcs
        blocks.append((slot, keys, np.arange(n), 1.0))
    # The unlabeled rows go last, so that the X rows are the first rows of z.
    n_c = sum(len(rows) for _, _, rows, _ in blocks)
    if unlabeled is not None:
        z_rows.append((x_u, mu, rho, eps_u, np.full(len(x_u), scale)))
        blocks.append((0, [] if state.enc_mu is not None else ["mu_z_u", "rho_z_u"], idx, scale))

    x, mu_z, rho_z, eps_z, w = (np.concatenate(a) for a in zip(*z_rows))
    z = _q_draw(mu_z, rho_z, eps_z)
    value, gz, _ = model.logp_x_given_z_grads(x, z, weights=w, decoder_grad=grads["decoder"])
    g_X, gy, gcm = [], {}, {}
    if X_rows:
        mu_X, rho_X, eps_X, ys = (np.concatenate(a) for a in zip(*X_rows))
        X = _q_draw(mu_X, rho_X, eps_X)
        lp_y, gX, gy = model.logp_y_given_X_grads(ys, X, bcs)
        lp_X, gX_X, gz_X, gcm = model.logp_X_given_z_grads(X, z[:n_c])
        gz[:n_c] += gz_X
        gX += gX_X
        value_X, *g_X = _q_terms(mu_X, rho_X, gX, eps_X, prior=False)
        value[:n_c] += lp_y + lp_X + value_X
    for key, g in (*gy.items(), *gcm.items()):
        grads[key] += g
    value_z, *g_z = _q_terms(mu_z, rho_z, gz, eps_z, prior=True, weights=w[:, None])
    value += value_z
    f, lo = [0.0, 0.0, 0.0], 0
    for slot, keys, idx, scale in blocks:
        rows = slice(lo, lo + len(idx))
        f[slot] = float(scale * np.sum(value[rows]))
        for key, g in zip(keys, g_z + g_X):
            np.add.at(grads[key], idx, g[rows])  # an index drawn twice gets both rows
        lo += len(idx)
    if unlabeled is not None and state.enc_mu is not None:
        grads["enc_mu"] += state.enc_mu.backward(tape_mu, g_z[0][n_c:])[0]
        grads["enc_logvar"] += state.enc_logvar.backward(tape_rho, g_z[1][n_c:])[0]
    if virtual is not None:
        f[2] = sum(state.qy_terms, f[2])
    return tuple(f)


def elbo_unlabeled(
    state: VariationalState,
    lambdas: np.ndarray,
    rng: np.random.Generator,
    grads: dict,
    indices=None,
    scale: float = 1.0,
) -> float:
    """Unlabeled ELBO block alone, times `scale`: q(z) comes from the encoders
    or from the rows `indices` of the unlabeled factors (the first n when
    None). Puts its gradients into `grads`; see _elbo."""
    return _elbo(state, rng, grads, unlabeled=(lambdas, indices, scale))[0]


def elbo_labeled(
    state: VariationalState,
    lambdas: np.ndarray,
    ys: np.ndarray,
    bcs: np.ndarray,
    rng: np.random.Generator,
    grads: dict,
) -> float:
    """Labeled ELBO block alone: the coarse solve sits inside log p(y | X).
    Puts its gradients into `grads`; see _elbo."""
    return _elbo(state, rng, grads, labeled=(lambdas, _row_bcs(bcs), ys))[1]


def expected_constraint_loglik(
    cs: LinearConstraintSet, second_moment: float, post: GammaPosterior
):
    """Analytic E_q[log p(o-hat | y)] for one learned set under q(y) q(lambda).

    With second_moment = E_q||o||^2, o = Gamma y - alpha, and lambda the
    precision of the flux Gamma posterior `post`, the value is
    -0.5 E[lambda] E||o||^2 + 0.5 M E[log lambda] - (M/2) log 2pi.
    """
    weighted_sq = post.mean() * second_moment
    return -0.5 * weighted_sq + 0.5 * cs.m * post.expected_log() - 0.5 * cs.m * LOG_2PI


def _energy_likelihood_value(system: fem.FemSystem, qy: DiagGaussian, tau: float):
    """E_q[-tau V(y)] for diagonal q plus its entropy; constants dropped."""
    K = system.K
    quad = float(qy.mean @ (K @ qy.mean)) + float(K.diagonal() @ qy.var)
    return -tau * (0.5 * quad) + qy.entropy()


def elbo_virtual(
    state: VariationalState,
    lambdas: np.ndarray,
    bcs: np.ndarray,
    rng: np.random.Generator,
    grads: dict,
) -> float:
    """Virtual-observable ELBO block alone: q(y) is sampled, never
    reparametrized, so gradients flow only to theta and the (z, X) factors,
    and each query's term of the latest refresh (state.qy_terms) is added."""
    return _elbo(state, rng, grads, virtual=(lambdas, _row_bcs(bcs), None))[2]


def prior_logpdf_theta(arrays: dict, grads: dict | None, prior_scale: float) -> float:
    """Isotropic Gaussian prior over all unconstrained parameters.

    Adds its gradient into the arrays of `grads` under the same keys, in place,
    unless grads is None, and returns its value up to an additive constant."""
    inv_var = 1.0 / (prior_scale * prior_scale)
    value = 0.0
    for key, arr in arrays.items():
        value += -0.5 * inv_var * float(np.vdot(arr, arr))
        if grads is not None:
            grads[key] -= inv_var * arr
    return value


# ---------------------------------------------------------------------------
# Adam and the training loop
# ---------------------------------------------------------------------------


class Adam:
    """Ascent Adam over one flat float64 vector; the entries at the flat
    indices `frozen` of a step keep their values and moments, and the first
    `prior_end` ascend g - prior_inv_var * theta, adding the Gaussian prior's
    gradient as prior_logpdf_theta does; `grad` is only read. A step is
    alpha_t m / (sqrt(v) + eps_hat), with Kingma & Ba's alpha_t = lr sqrt(1 -
    beta2^t) / (1 - beta1^t) and eps_hat = eps sqrt(1 - beta2^t) (arXiv:1412.6980).

    m, v and two block-sized work buffers are allocated at the first step,
    and the update runs block by block, cut at `prior_end`, so a step makes
    no vector-sized temporary.
    """

    # Kingma & Ba's defaults; no caller needs other moment decays.
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # Entries per block: the update's six streams stay in a 2 MB cache.
    BLOCK = 32768

    def __init__(self, lr):
        self.lr = lr
        self.m = self.v = None
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray, frozen=None, prior_end=0,
             prior_inv_var=0.0):
        if self.m is None:
            self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
            self._den, self._step = np.empty((2, min(theta.size, self.BLOCK)))
            # numpy takes 0-d arrays as ufunc operands faster than floats
            c = (self.beta1, 1 - self.beta1, self.beta2, 1 - self.beta2)
            self._consts = [np.array(x) for x in c]
        self.t += 1
        # all entries are stepped, then the frozen ones get their bits back
        kept = [] if frozen is None else [(a, a[frozen]) for a in (theta, self.m, self.v)]
        # The order of the operations fixes the bits of the result; each is one
        # ufunc call with its output given positionally.
        b1, c1, b2, c2 = self._consts
        root = (1.0 - self.beta2**self.t) ** 0.5
        alpha = np.array(self.lr * root / (1.0 - self.beta1**self.t))
        eps = np.array(self.eps * root)
        mul, add, block = np.multiply, np.add, self.BLOCK
        for start, stop in ((0, prior_end), (prior_end, theta.size)):
            for lo in range(start, stop, block):
                hi = lo + block if lo + block < stop else stop
                th, g, mb, vb = theta[lo:hi], grad[lo:hi], self.m[lo:hi], self.v[lo:hi]
                den, step = self._den[: th.size], self._step[: th.size]
                if start < prior_end:
                    mul(th, prior_inv_var, den)
                    g = np.subtract(g, den, den)
                mul(mb, b1, mb)
                mul(g, c1, step)
                add(mb, step, mb)
                mul(vb, b2, vb)
                mul(g, g, step)
                mul(step, c2, step)
                add(vb, step, vb)
                np.sqrt(vb, den)
                add(den, eps, den)
                mul(mb, alpha, step)
                np.divide(step, den, step)
                add(th, step, th)
        for a, bits in kept:
            a[frozen] = bits


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


def refresh_qy(state: VariationalState, virtual: VirtualData, rng, tau: float):
    """Closed-form / energy updates of every q(y) plus Gamma precisions.

    Each query's h_mean, the MC estimate of <h(Y(X))> under q(X), averages
    QY_MC draws of X, all queries' drawn at once and solved in one call.
    Energy observables are tempered with `tau`, which is kept on the state;
    the caller's observables are not modified. Each query's expected
    log-likelihood plus q(y) entropy, which the virtual ELBO block adds until
    the next refresh, goes to state.qy_terms.
    """
    model = state.model
    sy = model.var_y()
    state.tau = tau
    n = len(virtual)
    eps = rng.standard_normal((n, QY_MC, model.dim_X))
    mu, rho = state.factors["mu_X_o"][:, None], state.factors["rho_X_o"][:, None]
    X = _q_draw(mu, rho, eps).reshape(n * QY_MC, model.dim_X)
    bcs = _row_bcs(np.repeat(virtual.bcs, QY_MC, axis=0))
    mean_y = model.output_map(model.cgm_forward(X, bcs))[0]
    # in row-major order each query's draws are summed in turn, not pairwise
    h_means = np.ascontiguousarray(mean_y).reshape(n, QY_MC, -1).sum(axis=1) / QY_MC
    state.qy_terms = [0.0] * n
    flux = []  # (query, set, E||Gamma y - alpha||^2) of every learned set
    for i, h_mean in enumerate(h_means):
        obs = virtual.observables[i]
        if isinstance(obs, EnergyObservable):
            qy = update_qy_energy(
                dataclasses.replace(obs, tau=state.tau), 1.0 / sy, h_mean
            )
            state.qy_terms[i] = _energy_likelihood_value(obs.system, qy, state.tau)
        else:
            qy = update_qy_closedform(obs, sy, h_mean, state.gamma_posteriors)
            # For exact rows both the likelihood and the entropy along the
            # constrained directions are infinite with opposite signs and
            # cancel; both are dropped from the term.
            if not any(isinstance(cs.precision, vobs.Exact) for cs in obs):
                state.qy_terms[i] = qy.entropy()
            flux += [
                (i, cs, qy.second_moment(cs.gamma, cs.alpha))
                for cs in obs
                if isinstance(cs.precision, vobs.Learned)
            ]
        state.qy[i] = qy
    if flux:
        post = update_precision_gamma([moment for *_, moment in flux], flux[-1][1].m)
        state.gamma_posteriors["flux"] = post
        for i, cs, moment in flux:
            state.qy_terms[i] += expected_constraint_loglik(cs, moment, post)


def train(
    model: GenerativeModel,
    config: TrainConfig,
    labeled: LabeledData | None = None,
    unlabeled: UnlabeledData | None = None,
    virtual: VirtualData | None = None,
    state: VariationalState | None = None,
):
    """Run the SVI loop on `model` (that of `state`, if given); returns (state, log).

    Each iteration, one pass of the ELBO body over the unlabeled minibatch,
    the labeled and the virtual data, with fresh noise, writes the decoder's
    gradient into state.grad and adds the others into the rest, zeroed first.
    A fresh Adam takes one ascent step over state.theta, adding the parameter
    prior's gradient to the model's arrays, the unlabeled factors' rows
    outside the minibatch frozen. Every `cadence` iterations
    the q(y) factors and learned precisions are refreshed in closed form,
    energy observables tempered on the schedule of this call's `config`.
    Stops on the iteration budget or when the moving average of the
    objective plateaus.
    """
    given = [data for data in (labeled, unlabeled, virtual) if data is not None]
    if not given or not all(len(data) for data in given):
        raise ValueError("train needs at least one dataset, each with rows")
    if state is None:
        state = init_state(model, config, labeled, unlabeled, virtual)
    if model is not state.model:
        raise ValueError("train was given a model that is not the state's")
    if not all(np.may_share_memory(a, state.theta) for a in state.adam_arrays().values()):
        raise ValueError("the state's arrays are not views of its theta (was its model "
                         "bound by another init_state, or an array assigned over?)")
    log = TrainLog()
    rng = derive_rng(config.seed, "train")
    adam = Adam(LEARNING_RATE)
    grads = state.views(state.grad)
    n_l = len(labeled) if labeled is not None else 0
    n_u = len(unlabeled) if unlabeled is not None else 0
    # the unlabeled block weighs as much as the labeled one
    w_u = n_l / n_u if n_u and n_l else 1.0
    if n_u > config.unlabeled_batch and "mu_z_u" in state.factors:
        # flat index in theta of each unlabeled datum's factor entries, one row per
        # datum; a minibatch freezes the rows outside it
        at = state.views(np.arange(state.theta.size))
        at = np.hstack([at["mu_z_u"], at["rho_z_u"]])
    labeled_rows = (labeled.lambdas, _row_bcs(labeled.bcs), labeled.ys) if n_l else None
    virtual_rows = None if virtual is None else (virtual.lambdas, _row_bcs(virtual.bcs), None)
    prior_end = sum(a.size for a in state.model.params.arrays().values())

    first_iteration = state.iteration
    stop_iteration = first_iteration + config.iterations
    if virtual is not None:
        refresh_qy(state, virtual, rng, config.tau_start)

    history = []
    start = time.monotonic()
    while state.iteration < stop_iteration:
        state.iteration += 1
        frozen = unlabeled_rows = None
        state.grad[grads["decoder"].size :].fill(0.0)  # the decoder's slice leads it

        if n_u:
            if n_u > config.unlabeled_batch:
                batch = rng.choice(n_u, size=config.unlabeled_batch, replace=False)
            else:
                batch = np.arange(n_u)
            unlabeled_rows = (unlabeled.lambdas[batch], batch, w_u * n_u / batch.size)
            if "mu_z_u" in state.factors and batch.size < n_u:
                frozen = at[np.setdiff1d(np.arange(n_u), batch)].ravel()
        f_u, f_l, f_o = _elbo(state, rng, grads, unlabeled_rows, labeled_rows, virtual_rows)
        f_prior = prior_logpdf_theta(state.model.params.arrays(), None, THETA_PRIOR_SCALE)
        total = f_u + f_l + f_o + f_prior
        if not np.isfinite(total):
            raise NonFiniteLoss(
                f"objective became non-finite at iteration {state.iteration}: "
                f"F_u={f_u:.3e} F_l={f_l:.3e} F_O={f_o:.3e} prior={f_prior:.3e}"
            )

        adam.step(state.theta, state.grad, frozen, prior_end, 1.0 / THETA_PRIOR_SCALE**2)

        if virtual is not None and state.iteration % config.cadence == 0:
            tau = _temper_tau(config, state.iteration - first_iteration)
            refresh_qy(state, virtual, rng, tau)

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
# checkpoints
# ---------------------------------------------------------------------------

def save_state(state: VariationalState, stem) -> None:
    """Write <stem>.json and <stem>.bin: the model, encoders, factors,
    precisions and iteration; q(y) is derived data, rebuilt by refresh_qy."""
    stem = Path(stem)
    arrays = state.adam_arrays()
    layout, pos = {}, 0
    for key, arr in arrays.items():
        layout[key] = {"offset": pos, "shape": list(arr.shape)}
        pos += arr.size
    header = {
        "version": CHECKPOINT_VERSION,
        "model": state.model.metadata(),
        "encoder_sizes": None if state.enc_mu is None else list(state.enc_mu.sizes),
        "factor_keys": sorted(state.factors.keys()),
        "gamma_posteriors": {
            key: dataclasses.asdict(post) for key, post in state.gamma_posteriors.items()
        },
        "iteration": state.iteration,
        "arrays": layout,
    }
    stem.with_suffix(".json").write_text(json.dumps(header, indent=2))
    blob = np.concatenate([np.asarray(a, dtype="<f8").ravel() for a in arrays.values()])
    stem.with_suffix(".bin").write_bytes(blob.tobytes())


def load_state(stem) -> VariationalState:
    """Inverse of save_state; draws no random initialization."""
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    data = stem.with_suffix(".bin").read_bytes()
    total = sum(int(np.prod(info["shape"])) for info in header["arrays"].values())
    if len(data) != 8 * total:
        raise ValueError(
            f"{stem.with_suffix('.bin')} has {len(data)} bytes; its header lays out "
            f"{total} float64 values ({8 * total} bytes)"
        )
    blob = np.frombuffer(data, dtype="<f8").astype(np.float64)
    arrays = {}
    for key, info in header["arrays"].items():
        size = int(np.prod(info["shape"]))
        arrays[key] = blob[info["offset"] : info["offset"] + size].reshape(info["shape"])
    state = VariationalState(model_from_checkpoint(header["model"], arrays))
    if header["encoder_sizes"] is not None:
        state.enc_mu = Approximator(header["encoder_sizes"], params=arrays["enc_mu"])
        state.enc_logvar = Approximator(header["encoder_sizes"], params=arrays["enc_logvar"])
    # in the file's order, so that theta is laid out as the file is
    state.factors = {key: a for key, a in arrays.items() if key in header["factor_keys"]}
    state.gamma_posteriors = {
        key: GammaPosterior(**val) for key, val in header["gamma_posteriors"].items()
    }
    state.iteration = int(header["iteration"])
    if "mu_X_o" in state.factors:
        state.qy = [None] * state.factors["mu_X_o"].shape[0]
    state._bind()
    return state
