"""Tanh multilayer perceptrons with hand-rolled reverse-mode gradients.

A network is described by its layer widths (n_0, ..., n_L): layer l maps
x -> W_l x + b_l with W_l of shape (n_l, n_{l-1}), and tanh follows every
layer but the last. All parameters live in one flat float64 vector, layer by
layer with W_l (row-major) before b_l, so optimizers and checkpoints can
treat a network as a single array.

forward() takes a batch of inputs as rows, shape (B, n_0), runs one matmul
per layer and returns (B, n_L) outputs with a tape; one input of shape (n_0,)
is a batch of one and gives an output of shape (n_L,). backward() consumes
the tape once with a cotangent of the output's shape and returns exact
gradients of sum_rows cotangent . output: the parameter gradient summed over
the rows, and the input gradient row by row.

Checkpoints of generative models and training states share one on-disk
format, written by save_arrays and read by load_arrays: <stem>.json holds a
versioned header with the layout of the arrays, and <stem>.bin holds the
arrays as one little-endian float64 blob.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, TapeConsumed

# Version 1 files have a separate layout per checkpoint kind, which
# load_arrays cannot read; state files of versions 2 and 3 carry TrainConfig
# fields that are now constants; files of version 4 describe networks by
# lists of layer kinds instead of their widths.
CHECKPOINT_VERSION = 5


class Tape:
    """The input of every layer from one forward pass; usable for one reverse pass."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.consumed = False


def _glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Approximator:
    """A tanh multilayer perceptron with layer widths `sizes` and one flat
    float64 parameter vector.

    Weights get seeded Glorot-uniform draws, layer by layer, and biases start
    at zero; `params`, when given, is copied instead and nothing is drawn.
    """

    def __init__(self, sizes, seed: int = 0, params: np.ndarray | None = None):
        self.sizes = sizes = tuple(int(n) for n in sizes)
        if len(sizes) < 2 or min(sizes) < 1:
            raise ValueError(f"need at least two positive layer widths, got {sizes}")
        layers = list(zip(sizes[:-1], sizes[1:]))
        if params is None:
            rng = np.random.default_rng(seed)
            self.params = np.concatenate(
                [
                    np.append(_glorot(rng, n_in, n_out, (n_out, n_in)), np.zeros(n_out))
                    for n_in, n_out in layers
                ]
            )
        else:
            self.params = np.array(params, dtype=np.float64)
        n_params = sum(n_out * (n_in + 1) for n_in, n_out in layers)
        if self.params.shape != (n_params,):
            raise DimensionMismatch(
                f"parameter blob has shape {self.params.shape}, expected ({n_params},)"
            )

    def _layers(self, flat):
        """(W, b) views of a parameter-sized vector, layer by layer."""
        out, pos = [], 0
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            end = pos + n_out * n_in
            out.append((flat[pos:end].reshape(n_out, n_in), flat[end : end + n_out]))
            pos = end + n_out
        return out

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def output_dim(self) -> int:
        return self.sizes[-1]

    @property
    def n_params(self) -> int:
        return self.params.size

    def forward(self, x: np.ndarray):
        """Evaluate the network on (B, n_0) rows or one (n_0,) input; returns
        (output, tape)."""
        x = np.asarray(x, dtype=np.float64)
        rows = np.atleast_2d(x)
        if x.ndim > 2 or rows.shape[1] != self.input_dim:
            raise DimensionMismatch(
                f"input has shape {x.shape}, expected rows of width {self.input_dim}"
            )
        layers = self._layers(self.params)
        inputs = []
        for i, (w, b) in enumerate(layers):
            inputs.append(rows)
            rows = rows @ w.T
            rows += b
            if i + 1 < len(layers):
                np.tanh(rows, out=rows)
        return (rows if x.ndim == 2 else rows[0]), Tape(inputs)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, tape: Tape, output_cotangent: np.ndarray, params: bool = True):
        """Reverse pass; returns (param_gradient, input_gradient).

        The parameter gradient is summed over the tape's rows; with
        params=False it is skipped and None is returned in its place.
        """
        if tape.consumed:
            raise TapeConsumed("tape was already used for a reverse pass")
        cot = np.asarray(output_cotangent, dtype=np.float64)
        rows = np.atleast_2d(cot)
        expected = (tape.inputs[0].shape[0], self.output_dim)
        if cot.ndim > 2 or rows.shape != expected:
            raise DimensionMismatch(
                f"cotangent has shape {cot.shape}, expected {expected} for this tape"
            )
        tape.consumed = True
        # every slot of gparams is written below, layer by layer
        gparams = np.empty_like(self.params) if params else None
        layers = self._layers(self.params)
        grads = self._layers(gparams) if params else ()
        for i in reversed(range(len(layers))):
            x = tape.inputs[i]
            if params:
                gw, gb = grads[i]
                np.matmul(rows.T, x, out=gw)
                rows.sum(axis=0, out=gb)
            rows = rows @ layers[i][0]
            if i > 0:
                # x = tanh(a), so d tanh / da = 1 - x^2
                rows *= 1.0 - x**2
        return gparams, (rows if cot.ndim == 2 else rows[0])


def save_arrays(stem, header: dict, arrays: dict) -> None:
    """Write <stem>.json (header, version and array layout) and <stem>.bin."""
    stem = Path(stem)
    layout, pos = {}, 0
    for key, arr in arrays.items():
        layout[key] = {"offset": pos, "shape": list(np.shape(arr))}
        pos += int(np.size(arr))
    full = {"version": CHECKPOINT_VERSION, **header, "arrays": layout}
    stem.with_suffix(".json").write_text(json.dumps(full, indent=2))
    blob = np.concatenate([np.asarray(a, dtype="<f8").ravel() for a in arrays.values()])
    stem.with_suffix(".bin").write_bytes(blob.tobytes())


def load_arrays(stem) -> tuple[dict, dict]:
    """Inverse of save_arrays; returns (header, arrays) as owned float64 copies."""
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    blob = np.frombuffer(stem.with_suffix(".bin").read_bytes(), dtype="<f8")
    arrays = {}
    for key, info in header["arrays"].items():
        size = int(np.prod(info["shape"]))
        chunk = blob[info["offset"] : info["offset"] + size]
        arrays[key] = chunk.astype(np.float64).reshape(info["shape"])
    return header, arrays

