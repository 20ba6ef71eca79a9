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
The decoder and coarse-map terms take a batch of (z, x) or (z, X) as rows,
or one of each as vectors: values and latent gradients come per row, and
parameter gradients summed over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .approximators import Approximator, load_arrays, save_arrays
from .errors import DimensionMismatch
from .field import BoundaryCoeffs
from .gaussians import (
    diag_logpdf,
    diag_logpdf_grad_mean,
    diag_logpdf_grad_var,
    LOG_2PI,
)

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

    # ----- prior -----

    def prior_logpdf(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.dim_z,):
            raise DimensionMismatch(f"z has shape {z.shape}, expected ({self.dim_z},)")
        return -0.5 * float(z @ z) - 0.5 * self.dim_z * LOG_2PI

    def prior_sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim_z)

    # ----- decoder p(x | z) -----

    def decode_x(self, z: np.ndarray):
        """Mean and clamped diagonal variance of x given z."""
        out, _ = self.params.decoder.forward(z)
        return out[..., : self.dim_x], clamp_var(np.exp(out[..., self.dim_x :]))

    def logp_x_given_z(self, x: np.ndarray, z: np.ndarray) -> float:
        mean, var = self.decode_x(z)
        return diag_logpdf(x, mean, var)

    def logp_x_given_z_grads(self, x: np.ndarray, z: np.ndarray, theta: bool = True):
        """Returns (logpdf, d/dz, {"decoder": d/dtheta_x}); with theta=False
        the decoder gradient is not computed and the dict is empty."""
        out, tape = self.params.decoder.forward(z)
        mean = out[..., : self.dim_x]
        raw_exp = np.exp(out[..., self.dim_x :])
        var = clamp_var(raw_exp)
        val = diag_logpdf(x, mean, var)
        g_mean = diag_logpdf_grad_mean(x, mean, var)
        g_var = diag_logpdf_grad_var(x, mean, var) * clamp_gate(raw_exp) * raw_exp
        cot = np.concatenate([g_mean, g_var], axis=-1)
        gdec, gz = self.params.decoder.backward(tape, cot, params=theta)
        return val, gz, ({"decoder": gdec} if theta else {})

    # ----- coarse map p(X | z) -----

    def coarse_map(self, z: np.ndarray):
        mean = z @ self.params.W_g.T + self.params.b_g
        var = clamp_var(np.exp(self.params.log_S_X))
        return mean, var

    def logp_X_given_z(self, X: np.ndarray, z: np.ndarray) -> float:
        mean, var = self.coarse_map(z)
        return diag_logpdf(X, mean, var)

    def logp_X_given_z_grads(self, X: np.ndarray, z: np.ndarray):
        """Returns (logpdf, d/dX, d/dz, theta grads for W_g, b_g, log_S_X)."""
        p = self.params
        mean, var = self.coarse_map(z)
        raw_exp = np.exp(p.log_S_X)
        val = diag_logpdf(X, mean, var)
        g_mean = diag_logpdf_grad_mean(X, mean, var)
        g_var = diag_logpdf_grad_var(X, mean, var)
        g_rows = g_mean.reshape(-1, self.dim_X)
        grads = {
            "W_g": g_rows.T @ np.reshape(z, (-1, self.dim_z)),
            "b_g": g_rows.sum(axis=0),
            "log_S_X": g_var.reshape(-1, self.dim_X).sum(axis=0)
            * clamp_gate(raw_exp)
            * raw_exp,
        }
        return val, -g_mean, g_mean @ p.W_g, grads

    # ----- CGM -----

    def cgm_system(self, X: np.ndarray, bc: BoundaryCoeffs) -> fem.FemSystem:
        X = np.asarray(X, dtype=np.float64)
        if X.shape != (self.dim_X,):
            raise DimensionMismatch(f"X has shape {X.shape}, expected ({self.dim_X},)")
        return fem.assemble(self.coarse_mesh, np.exp(X), bc)

    def cgm_forward(self, X: np.ndarray, bc: BoundaryCoeffs) -> np.ndarray:
        """Coarse nodal solution for effective log-conductivity X."""
        return fem.solve(self.cgm_system(X, bc)).y_vec

    def cgm_vjp(self, sys: fem.FemSystem, cot_Y: np.ndarray) -> np.ndarray:
        """Pull a cotangent on Y back to X through the adjoint solve."""
        return fem.solve_vjp(sys, cot_Y) * sys.kappa

    # ----- output map p(y | X) -----

    def output_map(self, Y: np.ndarray):
        Y = np.asarray(Y, dtype=np.float64)
        if Y.shape != (self.dim_Y,):
            raise DimensionMismatch(f"Y has shape {Y.shape}, expected ({self.dim_Y},)")
        p = self.params
        mean = p.w_h * (self.prolongation @ Y) + p.b_h
        var = clamp_var(np.exp(p.log_S_y))
        return mean, var

    def mean_y_given_X(self, X: np.ndarray, bc: BoundaryCoeffs) -> np.ndarray:
        return self.output_map(self.cgm_forward(X, bc))[0]

    def var_y(self) -> np.ndarray:
        return clamp_var(np.exp(self.params.log_S_y))

    def logp_y_given_X(self, y: np.ndarray, X: np.ndarray, bc: BoundaryCoeffs) -> float:
        mean, var = self.output_map(self.cgm_forward(X, bc))
        return diag_logpdf(y, mean, var)

    def logp_y_given_X_grads(self, y: np.ndarray, X: np.ndarray, bc: BoundaryCoeffs):
        """Returns (logpdf, d/dX, theta grads for w_h, b_h, log_S_y).

        The d/dX path runs through one adjoint solve of the coarse system.
        """
        p = self.params
        sys = self.cgm_system(X, bc)
        Y = fem.solve(sys).y_vec
        PY = self.prolongation @ Y
        raw_exp = np.exp(p.log_S_y)
        var = clamp_var(raw_exp)
        mean = p.w_h * PY + p.b_h
        val = diag_logpdf(y, mean, var)
        g_mean = diag_logpdf_grad_mean(y, mean, var)
        grads = {
            "w_h": g_mean * PY,
            "b_h": g_mean,
            "log_S_y": diag_logpdf_grad_var(y, mean, var)
            * clamp_gate(raw_exp)
            * raw_exp,
        }
        cot_Y = self.prolongation.T @ (g_mean * p.w_h)
        gX = self.cgm_vjp(sys, cot_Y)
        return val, gX, grads

    # ----- joint sampling -----

    def sample_joint(self, bc: BoundaryCoeffs, rng: np.random.Generator) -> dict:
        """Ancestral sample of (z, x, X, Y, y)."""
        z = self.prior_sample(rng)
        mean_x, var_x = self.decode_x(z)
        x = mean_x + np.sqrt(var_x) * rng.standard_normal(self.dim_x)
        mean_X, var_X = self.coarse_map(z)
        X = mean_X + np.sqrt(var_X) * rng.standard_normal(self.dim_X)
        Y = self.cgm_forward(X, bc)
        mean_y, var_y = self.output_map(Y)
        y = mean_y + np.sqrt(var_y) * rng.standard_normal(self.dim_y)
        return {"z": z, "x": x, "X": X, "Y": Y, "y": y}

    def joint_logpdf(self, sample: dict, bc: BoundaryCoeffs) -> float:
        """log p(z, x, X, y) of an ancestral sample (Y is deterministic)."""
        return (
            self.prior_logpdf(sample["z"])
            + self.logp_x_given_z(sample["x"], sample["z"])
            + self.logp_X_given_z(sample["X"], sample["z"])
            + self.logp_y_given_X(sample["y"], sample["X"], bc)
        )

    # ----- checkpoints -----

    def metadata(self) -> dict:
        return {
            "d_f": self.d_f,
            "d_c": self.d_c,
            "dim_z": self.dim_z,
            "decoder_sizes": list(self.params.decoder.sizes),
        }


def model_checkpoint(model: GenerativeModel) -> tuple[dict, dict]:
    """The header entries and named arrays that describe a model on disk."""
    return {"model": model.metadata()}, model.params.arrays()


def model_from_checkpoint(header: dict, arrays: dict) -> GenerativeModel:
    """Inverse of model_checkpoint; draws no random initialization."""
    meta = header["model"]
    model = GenerativeModel.__new__(GenerativeModel)
    model._set_sizes(meta["d_f"], meta["d_c"], meta["dim_z"])
    model.params = ModelParams(
        decoder=Approximator(meta["decoder_sizes"], params=arrays["decoder"]),
        **{key: arrays[key] for key in _BLOB_KEYS},
    )
    return model


def save_model(model: GenerativeModel, stem) -> None:
    save_arrays(stem, *model_checkpoint(model))


def load_model(stem) -> GenerativeModel:
    return model_from_checkpoint(*load_arrays(stem))
