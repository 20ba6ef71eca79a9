"""Tanh multilayer perceptrons with hand-rolled reverse-mode gradients.

A network is described by its layer widths (n_0, ..., n_L): layer l maps
x -> W_l x + b_l with W_l of shape (n_l, n_{l-1}), and tanh follows every
layer but the last. All parameters live in one flat float64 vector `params`,
layer by layer with W_l (row-major) before b_l, allocated once and read anew
on every call: a trainer may replace it by a view of a longer vector, as
VariationalState does to step every trained array with one Adam.

forward() takes a batch of inputs as rows, shape (B, n_0), runs one matmul
per layer and returns (B, n_L) outputs with a tape; one input of shape (n_0,)
is a batch of one and gives an output of shape (n_L,). backward() consumes
the tape once with a cotangent of the output's shape and returns exact
gradients of sum_rows cotangent . output: the parameter gradient summed over
the rows, into a new array or one it is given, and the input gradient by row.

A network is stored by its widths and its `params`; Approximator(sizes,
params=...) rebuilds it without drawing an initialization, as
inference.load_state does.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, TapeConsumed


class Tape:
    """The input of every layer from one forward pass; usable for one reverse pass."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.consumed = False


def _glorot(rng, w):
    """Fill the (fan_out, fan_in) weight block w with Glorot-uniform draws, in
    place; the same bits as rng.uniform(-limit, limit, w.shape)."""
    limit = np.sqrt(6.0 / sum(w.shape))
    rng.random(out=w)
    w *= 2.0 * limit
    w -= limit


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
        if params is None:
            self.params = np.empty(self.n_params)
            self._draw(seed)
        else:
            self.params = np.array(params, dtype=np.float64)
        if self.params.shape != (self.n_params,):
            raise DimensionMismatch(
                f"parameter blob has shape {self.params.shape}, expected ({self.n_params},)"
            )

    @classmethod
    def _undrawn(cls, sizes):
        """Approximator(sizes) with its params allocated but not written, for
        an owner that makes them a view of a longer vector and calls _draw."""
        net = cls.__new__(cls)
        net.sizes = tuple(sizes)
        net.params = np.empty(net.n_params)
        return net

    def _draw(self, seed):
        """Seeded Glorot-uniform weights and zero biases, written into params."""
        rng = np.random.default_rng(seed)
        for w, b in self._layers(self.params):
            _glorot(rng, w)
            b[:] = 0.0

    def _layers(self, flat):
        """(W, b) views of a parameter-sized vector, layer by layer."""
        if flat.shape != self.params.shape:
            raise DimensionMismatch(f"array of shape {flat.shape} for {self.n_params} parameters")
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
        return sum(n_out * (n_in + 1) for n_in, n_out in zip(self.sizes, self.sizes[1:]))

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

    def backward(self, tape: Tape, output_cotangent: np.ndarray, params=True):
        """Reverse pass; returns (param_gradient, input_gradient).

        The parameter gradient is summed over the tape's rows into `params`, a
        parameter-sized array, or a new one when True; None or False skips it.
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
        if params is True:  # every slot of it is written below, layer by layer
            params = np.empty_like(self.params)
        layers = self._layers(self.params)
        grads = () if params is None or params is False else self._layers(params)
        tape.consumed = True
        for i in reversed(range(len(layers))):
            x = tape.inputs[i]
            if grads:
                gw, gb = grads[i]
                np.matmul(rows.T, x, out=gw)
                rows.sum(axis=0, out=gb)
            rows = rows @ layers[i][0]
            if i > 0:
                # x = tanh(a), so d tanh / da = 1 - x^2
                rows *= 1.0 - x**2
        return (params if grads else None), (rows if cot.ndim == 2 else rows[0])

