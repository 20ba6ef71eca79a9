"""Generative model with a coarse solver in the loop.

Sampling path:

    z ~ N(0, I)
    x = f(z) + S_x(z)^{1/2} eps           decoder network, x is log-conductivity
    X = W_g z + b_g + S_X^{1/2} eps       effective log-conductivity per coarse pixel
    Y = CGM(exp(X), bc)                   deterministic coarse FE solve
    y = w_h * (P Y) + b_h + S_y^{1/2} eps P = bilinear coarse-to-fine prolongation

All conditional densities are diagonal Gaussians. Methods named *_grads
return the log-density together with exact gradients for every parameter
and latent that feeds it, so the trainer can chain terms without a general
autodiff graph; the coarse solve is differentiated through its adjoint.
Every term takes a batch as rows (the decoder and coarse map also one vector
each), the coarse solve one BoundaryCoeffs per row of X: values and latent
gradients come per row, parameter gradients summed over the rows. One private
loop assembles, solves and differentiates the coarse systems row by row.

A model is saved inside a training state (inference.save_state) as metadata()
and params.arrays(), which model_from_checkpoint turns back into a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .approximators import Approximator
from .errors import DimensionMismatch
from .gaussians import diag_logpdf, diag_logpdf_grads

# Clamp bounds for every diagonal variance in the model.
VAR_MIN = 1e-8
VAR_MAX = 1e4

_BLOB_KEYS = ("W_g", "b_g", "log_S_X", "w_h", "b_h", "log_S_y")


def clamp_var(raw_exp: np.ndarray) -> np.ndarray:
    return np.clip(raw_exp, VAR_MIN, VAR_MAX)


def clamp_gate(raw_exp: np.ndarray) -> np.ndarray:
    """1 where the clamp is inactive (gradient passes), else 0."""
    return ((raw_exp > VAR_MIN) & (raw_exp < VAR_MAX)).astype(np.float64)


@dataclass
class ModelParams:
    """All trainable generative-model parameters."""

    decoder: Approximator
    W_g: np.ndarray
    b_g: np.ndarray
    log_S_X: np.ndarray
    w_h: np.ndarray
    b_h: np.ndarray
    log_S_y: np.ndarray

    def arrays(self) -> dict:
        """Named mutable views used by the optimizer and checkpoints."""
        out = {"decoder": self.decoder.params}
        for key in _BLOB_KEYS:
            out[key] = getattr(self, key)
        return out


class GenerativeModel:
    def __init__(
        self,
        d_f: int,
        d_c: int,
        dim_z: int | None = None,
        decoder_hidden: tuple = (128, 256),
        seed: int = 0,
    ):
        self._set_sizes(d_f, d_c, dim_z)
        rng = np.random.default_rng(seed)
        decoder = Approximator((self.dim_z, *decoder_hidden, 2 * self.dim_x), seed=seed)
        dz = self.dim_z
        limit = np.sqrt(6.0 / (dz + self.dim_X))
        self.params = ModelParams(
            decoder=decoder,
            W_g=rng.uniform(-limit, limit, size=(self.dim_X, dz)),
            b_g=np.zeros(self.dim_X),
            log_S_X=np.full(self.dim_X, np.log(0.1)),
            w_h=np.ones(self.dim_y),
            b_h=np.zeros(self.dim_y),
            log_S_y=np.full(self.dim_y, np.log(0.01)),
        )

    def _set_sizes(self, d_f, d_c, dim_z):
        """Dimensions, meshes and prolongation; draws no parameters."""
        if d_c < 1 or d_f % d_c != 0:
            raise ValueError(f"d_f = {d_f} must be a multiple of d_c = {d_c} >= 1")
        # dim(z) = 0.5 * dim(X) unless given, at least 1
        self.dim_z = max(1, round(0.5 * d_c * d_c)) if dim_z is None else dim_z
        if self.dim_z < 1:
            raise ValueError(f"dim_z must be >= 1, got {self.dim_z}")
        self.d_f = d_f
        self.d_c = d_c
        self.dim_x = d_f * d_f
        self.dim_X = d_c * d_c
        self.dim_y = (d_f + 1) ** 2
        self.dim_Y = (d_c + 1) ** 2

        self.fine_mesh = fem.build_mesh(d_f)
        self.coarse_mesh = fem.build_mesh(d_c)
        self.prolongation = fem.bilinear_prolongation(d_c, d_f)
        self._prolongation_T = self.prolongation.T.tocsr()

    # ----- decoder p(x | z) -----

    def decode_x(self, z: np.ndarray):
        """Mean and clamped diagonal variance of x given z."""
        out, _ = self.params.decoder.forward(z)
        return out[..., : self.dim_x], clamp_var(np.exp(out[..., self.dim_x :]))

    def logp_x_given_z(self, x: np.ndarray, z: np.ndarray) -> float:
        mean, var = self.decode_x(z)
        return diag_logpdf(x, mean, var)

    def logp_x_given_z_grads(self, x: np.ndarray, z: np.ndarray, weights=1.0, decoder_grad=True):
        """Returns (logpdf, d/dz, {"decoder": d/dtheta_x}): values per row, and
        gradients of sum_r w_r log p(x_r | z_r) for `weights` w, a scalar or one
        per row, d/dtheta_x written into `decoder_grad` (see Approximator.backward).
        weights=None gives d/dz unweighted and an empty dict."""
        out, tape = self.params.decoder.forward(z)
        mean = out[..., : self.dim_x]
        raw_exp = np.exp(out[..., self.dim_x :])
        var = clamp_var(raw_exp)
        val, g_mean, g_var = diag_logpdf_grads(x, mean, var)
        cot = np.concatenate([g_mean, g_var * clamp_gate(raw_exp) * raw_exp], axis=-1)
        theta = weights is not None
        if theta:
            cot *= np.expand_dims(weights, -1)
        gdec, gz = self.params.decoder.backward(tape, cot, params=theta and decoder_grad)
        return val, gz, ({"decoder": gdec} if theta else {})

    # ----- coarse map p(X | z) -----

    def coarse_map(self, z: np.ndarray):
        mean = z @ self.params.W_g.T + self.params.b_g
        var = clamp_var(np.exp(self.params.log_S_X))
        return mean, var

    def logp_X_given_z_grads(self, X: np.ndarray, z: np.ndarray):
        """Returns (logpdf, d/dX, d/dz, theta grads for W_g, b_g, log_S_X)."""
        p = self.params
        mean, var = self.coarse_map(z)
        raw_exp = np.exp(p.log_S_X)
        val, g_mean, g_var = diag_logpdf_grads(X, mean, var)
        g_rows = g_mean.reshape(-1, self.dim_X)
        grads = {
            "W_g": g_rows.T @ np.reshape(z, (-1, self.dim_z)),
            "b_g": g_rows.sum(axis=0),
            "log_S_X": g_var.reshape(-1, self.dim_X).sum(axis=0)
            * clamp_gate(raw_exp)
            * raw_exp,
        }
        return val, -g_mean, g_mean @ p.W_g, grads

    # ----- CGM and output map p(y | X) -----

    def _X_rows(self, X: np.ndarray, bcs) -> np.ndarray:
        """X as (B, dim_X) rows, checked against its B BoundaryCoeffs."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim_X:
            raise DimensionMismatch(f"X has shape {X.shape}, expected (B, {self.dim_X})")
        if len(bcs) != X.shape[0]:
            raise DimensionMismatch(f"{len(bcs)} boundary conditions for {len(X)} rows of X")
        return X

    def _coarse_solves(self, X: np.ndarray, bcs):
        """The model's one loop over rows: assembles and solves each checked row's
        coarse system. Returns Y as rows and the pullback of cotangents on Y to X,
        one adjoint solve per row on the cached factor."""
        systems = [fem.assemble(self.coarse_mesh, k, bc) for k, bc in zip(np.exp(X), bcs)]
        Y = np.array([fem.solve(sys).y_vec for sys in systems])

        def pullback(cot_Y):
            gX = [fem.solve_vjp(sys, c) * sys.kappa for sys, c in zip(systems, cot_Y)]
            return np.reshape(gX, X.shape)

        return Y.reshape(X.shape[0], self.dim_Y), pullback

    def cgm_forward(self, X: np.ndarray, bcs) -> np.ndarray:
        """Coarse nodal solutions Y as rows, for rows of X and their BoundaryCoeffs."""
        return self._coarse_solves(self._X_rows(X, bcs), bcs)[0]

    def output_map(self, Y: np.ndarray):
        """Mean and variance of y for one coarse solution Y or (B, dim_Y) rows."""
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim > 2 or Y.shape[-1:] != (self.dim_Y,):
            raise DimensionMismatch(f"Y has shape {Y.shape}, expected (B, {self.dim_Y})")
        p = self.params
        mean = p.w_h * (self.prolongation @ Y.T).T + p.b_h
        var = clamp_var(np.exp(p.log_S_y))
        return mean, var

    def var_y(self) -> np.ndarray:
        return clamp_var(np.exp(self.params.log_S_y))

    def logp_y_given_X_grads(self, y: np.ndarray, X: np.ndarray, bcs):
        """Returns (logpdf, d/dX, theta grads for w_h, b_h, log_S_y) for rows
        of y and X and one BoundaryCoeffs per row: values and d/dX per row,
        theta grads summed; d/dX through each row's adjoint coarse solve."""
        X = self._X_rows(X, bcs)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (len(X), self.dim_y):
            raise DimensionMismatch(f"y has shape {y.shape}, expected {(len(X), self.dim_y)}")
        p = self.params
        Y, pullback = self._coarse_solves(X, bcs)
        PY = (self.prolongation @ Y.T).T
        raw_exp = np.exp(p.log_S_y)
        var = clamp_var(raw_exp)
        mean = p.w_h * PY + p.b_h
        val, g_mean, g_var = diag_logpdf_grads(y, mean, var)
        grads = {
            "w_h": (g_mean * PY).sum(axis=0),
            "b_h": g_mean.sum(axis=0),
            "log_S_y": (g_var * clamp_gate(raw_exp) * raw_exp).sum(axis=0),
        }
        cot_Y = (self._prolongation_T @ (g_mean * p.w_h).T).T
        return val, pullback(cot_Y), grads

    # ----- checkpoints -----

    def metadata(self) -> dict:
        return {
            "d_f": self.d_f,
            "d_c": self.d_c,
            "dim_z": self.dim_z,
            "decoder_sizes": list(self.params.decoder.sizes),
        }


def model_from_checkpoint(meta: dict, arrays: dict) -> GenerativeModel:
    """Inverse of metadata() and params.arrays(); draws no random initialization."""
    model = GenerativeModel.__new__(GenerativeModel)
    model._set_sizes(meta["d_f"], meta["d_c"], meta["dim_z"])
    model.params = ModelParams(
        decoder=Approximator(meta["decoder_sizes"], params=arrays["decoder"]),
        **{key: arrays[key] for key in _BLOB_KEYS},
    )
    return model
