"""Differentiable parametric maps with hand-rolled reverse-mode gradients.

Networks are sequential stacks of layers acting on float64 vectors. All
parameters live in one flat vector so optimizers and checkpoints can treat a
network as a single array. forward() records a tape; backward() consumes it
once and returns exact gradients of cotangent^T output with respect to the
parameters and the input.

Supported layers (descriptor dicts):
    {"kind": "dense", "units": n}
    {"kind": "tanh"} | {"kind": "relu"}

Checkpoints of networks, generative models and training states share one
on-disk format, written by save_arrays and read by load_arrays: <stem>.json
holds a versioned header with the layout of the arrays, and <stem>.bin holds
the arrays as one little-endian float64 blob.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, TapeConsumed

# Version 1 files have a separate layout per checkpoint kind, which
# load_arrays cannot read; state files of versions 2 and 3 carry TrainConfig
# fields that are now constants.
CHECKPOINT_VERSION = 4


class Tape:
    """Per-layer caches from one forward pass; usable for one reverse pass."""

    def __init__(self, caches):
        self.caches = caches
        self.consumed = False


def _glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class _Dense:
    def __init__(self, in_dim, units):
        self.in_dim, self.units = in_dim, units
        self.n_params = units * in_dim + units

    def init(self, rng):
        w = _glorot(rng, self.in_dim, self.units, (self.units, self.in_dim))
        return np.concatenate([w.ravel(), np.zeros(self.units)])

    def split(self, p):
        nw = self.units * self.in_dim
        return p[:nw].reshape(self.units, self.in_dim), p[nw:]

    def forward(self, p, x):
        w, b = self.split(p)
        return w @ x + b, x

    def backward(self, p, cache, cot):
        w, _ = self.split(p)
        x = cache
        gp = np.concatenate([np.outer(cot, x).ravel(), cot])
        return gp, w.T @ cot


class _Tanh:
    n_params = 0

    def forward(self, p, x):
        y = np.tanh(x)
        return y, y

    def backward(self, p, cache, cot):
        return np.empty(0), cot * (1.0 - cache**2)


class _Relu:
    n_params = 0

    def forward(self, p, x):
        mask = x > 0.0
        return x * mask, mask

    def backward(self, p, cache, cot):
        return np.empty(0), cot * cache


class Approximator:
    """A sequential differentiable map with one flat float64 parameter vector."""

    def __init__(self, input_dim: int, layers: list[dict], seed: int = 0):
        self._build(input_dim, layers)
        rng = np.random.default_rng(seed)
        chunks = [layer.init(rng) for layer in self._layers if layer.n_params]
        self.params = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
        )

    def _build(self, input_dim, layers):
        """Layer objects and parameter slices; draws no parameters."""
        self.input_dim = int(input_dim)
        self.layer_specs = [dict(spec) for spec in layers]
        self._layers = []
        width = self.input_dim
        for spec in self.layer_specs:
            kind = spec["kind"]
            if kind == "dense":
                layer = _Dense(width, int(spec["units"]))
                width = layer.units
            elif kind == "tanh":
                layer = _Tanh()
            elif kind == "relu":
                layer = _Relu()
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
            self._layers.append(layer)
        self.output_dim = width
        offsets = np.cumsum([0] + [layer.n_params for layer in self._layers])
        self._slices = [
            slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])
        ]

    @property
    def n_params(self) -> int:
        return self.params.size

    def forward(self, x: np.ndarray):
        """Evaluate the network; returns (output, tape)."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size != self.input_dim:
            raise DimensionMismatch(
                f"input has size {x.size}, expected {self.input_dim}"
            )
        caches = []
        for layer, sl in zip(self._layers, self._slices):
            x, cache = layer.forward(self.params[sl], x)
            caches.append(cache)
        return x, Tape(caches)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, tape: Tape, output_cotangent: np.ndarray):
        """Reverse pass; returns (param_gradient, input_gradient)."""
        if tape.consumed:
            raise TapeConsumed("tape was already used for a reverse pass")
        tape.consumed = True
        cot = np.asarray(output_cotangent, dtype=np.float64).ravel()
        if cot.size != self.output_dim:
            raise DimensionMismatch(
                f"cotangent has size {cot.size}, expected {self.output_dim}"
            )
        gparams = np.zeros_like(self.params)
        for layer, sl, cache in zip(
            reversed(self._layers), reversed(self._slices), reversed(tape.caches)
        ):
            gp, cot = layer.backward(self.params[sl], cache, cot)
            if layer.n_params:
                gparams[sl] = gp
        return gparams, cot

    def descriptor(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "layers": self.layer_specs,
            "n_params": self.n_params,
        }

    @classmethod
    def from_descriptor(cls, desc: dict, params: np.ndarray):
        """The network `desc` describes, holding a copy of `params`."""
        net = cls.__new__(cls)
        net._build(desc["input_dim"], desc["layers"])
        params = np.asarray(params, dtype=np.float64)
        expected = sum(layer.n_params for layer in net._layers)
        if params.size != expected:
            raise DimensionMismatch(
                f"parameter blob has {params.size} values, expected {expected}"
            )
        net.params = params.copy()
        return net


def mlp(
    input_dim: int,
    hidden: tuple = (128, 256),
    output_dim: int = 1,
    activation: str = "tanh",
    seed: int = 0,
) -> Approximator:
    layers = []
    for width in hidden:
        layers.append({"kind": "dense", "units": int(width)})
        layers.append({"kind": activation})
    layers.append({"kind": "dense", "units": int(output_dim)})
    return Approximator(input_dim, layers, seed=seed)


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


def save_checkpoint(net: Approximator, stem) -> None:
    save_arrays(stem, {"descriptor": net.descriptor()}, {"params": net.params})


def load_checkpoint(stem) -> Approximator:
    header, arrays = load_arrays(stem)
    return Approximator.from_descriptor(header["descriptor"], arrays["params"])
