import json

import numpy as np
import pytest

from cgsur import approximators as ap
from cgsur import genmodel, inference
from cgsur.errors import DimensionMismatch, TapeConsumed


def finite_diff_params(net, x, cot, h=1e-6):
    g = np.zeros(net.n_params)
    for i in range(net.n_params):
        old = net.params[i]
        net.params[i] = old + h
        fp = cot @ net(x)
        net.params[i] = old - h
        fm = cot @ net(x)
        net.params[i] = old
        g[i] = (fp - fm) / (2 * h)
    return g


def finite_diff_input(net, x, cot, h=1e-6):
    g = np.zeros(x.size)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (cot @ net(xp) - cot @ net(xm)) / (2 * h)
    return g


ARCHITECTURES = [
    ("affine", lambda: ap.Approximator((3, 2), seed=0)),
    ("mlp_tanh", lambda: ap.Approximator((4, 8, 6, 5), seed=1)),
]


class TestForward:
    def test_identity_affine(self):
        net = ap.Approximator((3, 3), seed=0)
        net.params[:9] = np.eye(3).ravel()
        net.params[9:] = 0.0
        x = np.array([1.5, -2.0, 0.25])
        assert np.allclose(net(x), x)

    def test_tanh_at_zero(self):
        net = ap.Approximator((2, 4, 1), seed=0)
        # zero biases by construction; tanh(W 0 + 0) = 0, output = b_out = 0
        assert net(np.zeros(2)) == pytest.approx(0.0)

    def test_matches_independent_forward(self):
        # independently coded forward and reverse passes for a tanh MLP with
        # two hidden layers; the reverse pass pins every gradient slice
        net = ap.Approximator((3, 5, 4, 2), seed=7)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        cot = rng.standard_normal(2)
        p = net.params
        w1, b1 = p[:15].reshape(5, 3), p[15:20]
        w2, b2 = p[20:40].reshape(4, 5), p[40:44]
        w3, b3 = p[44:52].reshape(2, 4), p[52:54]
        h1 = np.tanh(w1 @ x + b1)
        h2 = np.tanh(w2 @ h1 + b2)
        out, tape = net.forward(x)
        assert np.max(np.abs(out - (w3 @ h2 + b3))) <= 1e-14
        d2 = (w3.T @ cot) * (1.0 - h2**2)
        d1 = (w2.T @ d2) * (1.0 - h1**2)
        # per layer: the weight gradient, row-major, then the bias gradient
        layer_grads = [(d1, x), (d2, h1), (cot, h2)]
        expected = np.concatenate([np.append(np.outer(d, h), d) for d, h in layer_grads])
        gp, gx = net.backward(tape, cot)
        assert gp.shape == expected.shape
        assert np.max(np.abs(gp - expected)) <= 1e-14
        assert np.max(np.abs(gx - w1.T @ d1)) <= 1e-14

    def test_dimension_mismatch(self):
        net = ap.Approximator((3, 4, 2))
        with pytest.raises(DimensionMismatch):
            net(np.zeros(5))

    def test_rows_of_wrong_width_rejected(self):
        net = ap.Approximator((3, 4, 2))
        with pytest.raises(DimensionMismatch, match="shape"):
            net.forward(np.zeros((6, 4)))

    def test_three_dimensional_input_rejected(self):
        net = ap.Approximator((3, 4, 2))
        with pytest.raises(DimensionMismatch, match="shape"):
            net.forward(np.zeros((2, 5, 3)))

    @pytest.mark.parametrize("sizes", [(3,), (3, 0, 2)])
    def test_widths_validated(self, sizes):
        with pytest.raises(ValueError, match="layer widths"):
            ap.Approximator(sizes)

    def test_deterministic(self):
        net = ap.Approximator((3, 4, 2), seed=9)
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(net(x), net(x))

    def test_seeded_init_reproducible(self):
        a = ap.Approximator((3, 4, 2), seed=11)
        b = ap.Approximator((3, 4, 2), seed=11)
        assert np.array_equal(a.params, b.params)


class TestBackward:
    def test_affine_closed_form(self):
        net = ap.Approximator((3, 2), seed=0)
        x = np.array([0.5, -1.0, 2.0])
        cot = np.array([2.0, -3.0])
        out, tape = net.forward(x)
        gp, gx = net.backward(tape, cot)
        gw = gp[:6].reshape(2, 3)
        gb = gp[6:]
        assert np.allclose(gw, np.outer(cot, x))
        assert np.allclose(gb, cot)
        w = net.params[:6].reshape(2, 3)
        assert np.allclose(gx, w.T @ cot)

    def test_zero_cotangent(self):
        net = ap.Approximator((3, 4, 2), seed=1)
        _, tape = net.forward(np.ones(3))
        gp, gx = net.backward(tape, np.zeros(2))
        assert np.all(gp == 0) and np.all(gx == 0)

    def test_cotangent_batch_must_match_tape(self):
        net = ap.Approximator((3, 4, 2), seed=1)
        _, tape = net.forward(np.ones((3, 3)))
        for cot in (np.ones((2, 2)), np.ones(2)):
            with pytest.raises(DimensionMismatch, match="tape"):
                net.backward(tape, cot)
        # a rejected cotangent leaves the tape usable
        gp, gx = net.backward(tape, np.ones((3, 2)))
        assert gp.shape == (net.n_params,) and gx.shape == (3, 3)

    def test_tape_single_use(self):
        net = ap.Approximator((2, 3, 1), seed=0)
        _, tape = net.forward(np.ones(2))
        net.backward(tape, np.ones(1))
        with pytest.raises(TapeConsumed):
            net.backward(tape, np.ones(1))

    @pytest.mark.parametrize("name,make", ARCHITECTURES)
    def test_gradients_match_finite_differences(self, name, make):
        net = make()
        rng = np.random.default_rng(42)
        x = 0.7 * rng.standard_normal(net.input_dim) + 0.05
        cot = rng.standard_normal(net.output_dim)
        _, tape = net.forward(x)
        gp, gx = net.backward(tape, cot)
        gp0 = finite_diff_params(net, x, cot)
        gx0 = finite_diff_input(net, x, cot)
        scale = max(np.abs(gp0).max(), 1e-8)
        assert np.max(np.abs(gp - gp0)) / scale < 1e-5
        scale_x = max(np.abs(gx0).max(), 1e-8)
        assert np.max(np.abs(gx - gx0)) / scale_x < 1e-5


class TestCheckpoint:
    @pytest.mark.parametrize(
        "save,load,make",
        [
            (
                genmodel.save_model,
                genmodel.load_model,
                lambda: genmodel.GenerativeModel(4, 2),
            ),
            (
                inference.save_state,
                inference.load_state,
                lambda: inference.VariationalState(
                    genmodel.GenerativeModel(4, 2), inference.TrainConfig()
                ),
            ),
        ],
        ids=["model", "state"],
    )
    def test_other_version_rejected(self, tmp_path, save, load, make):
        save(make(), tmp_path / "ckpt")
        path = tmp_path / "ckpt.json"
        header = json.loads(path.read_text())
        # files of the previous version and of a later one
        for version in (ap.CHECKPOINT_VERSION - 1, ap.CHECKPOINT_VERSION + 1):
            header["version"] = version
            path.write_text(json.dumps(header))
            with pytest.raises(ValueError, match=f"version {version}"):
                load(tmp_path / "ckpt")

    def test_loading_draws_no_init(self, tmp_path, monkeypatch):
        model = genmodel.GenerativeModel(4, 2, decoder_hidden=(5,), seed=4)
        cfg = inference.TrainConfig(amortized=True, encoder_hidden=(3,))
        unlabeled = inference.UnlabeledData(np.zeros((2, model.dim_x)))
        state = inference.init_state(model, cfg, None, unlabeled, None)
        genmodel.save_model(model, tmp_path / "model")
        inference.save_state(state, tmp_path / "state")

        def no_draw(*args):
            raise AssertionError("loading drew a random initialization")

        monkeypatch.setattr(ap, "_glorot", no_draw)
        loaded_state = inference.load_state(tmp_path / "state")
        for loaded in (genmodel.load_model(tmp_path / "model"), loaded_state.model):
            arrays = loaded.params.arrays()
            for key, arr in model.params.arrays().items():
                assert np.array_equal(arrays[key], arr)
        assert np.array_equal(loaded_state.enc_mu.params, state.enc_mu.params)
        assert np.array_equal(loaded_state.enc_logvar.params, state.enc_logvar.params)

    def test_blob_size_checked(self):
        with pytest.raises(DimensionMismatch):
            ap.Approximator((3, 4, 2), params=np.zeros(7))


def per_row(net, xs, cots):
    """The looped reference: one forward/backward per row, parameter
    gradients summed and input gradients stacked."""
    outs, gps, gxs = [], [], []
    for x, cot in zip(xs, cots):
        out, tape = net.forward(x)
        gp, gx = net.backward(tape, cot)
        outs.append(out)
        gps.append(gp)
        gxs.append(gx)
    return np.array(outs), np.sum(gps, axis=0), np.array(gxs)


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestBatch:
    # the decoder and encoder shapes of a (16, 4) model with default widths
    SHAPES = {"decoder": (8, 128, 256, 512), "encoder": (256, 256, 128, 8)}

    @pytest.mark.parametrize("shape", ["decoder", "encoder"])
    @pytest.mark.parametrize("batch", [1, 3, 48])
    def test_matches_per_row_calls(self, shape, batch):
        net = ap.Approximator(self.SHAPES[shape], seed=5)
        rng = np.random.default_rng(batch)
        xs = rng.standard_normal((batch, net.input_dim))
        cots = rng.standard_normal((batch, net.output_dim))
        out, tape = net.forward(xs)
        gp, gx = net.backward(tape, cots)
        ref_out, ref_gp, ref_gx = per_row(net, xs, cots)
        assert out.shape == ref_out.shape and gx.shape == ref_gx.shape
        assert max_rel(out, ref_out) <= 1e-13
        assert max_rel(gp, ref_gp) <= 1e-13
        assert max_rel(gx, ref_gx) <= 1e-13

    def test_vector_is_a_batch_of_one(self):
        net = ap.Approximator((3, 5, 2), seed=2)
        x, cot = np.array([0.3, -1.2, 0.8]), np.array([1.5, -0.5])
        out, tape = net.forward(x)
        gp, gx = net.backward(tape, cot)
        out2, tape2 = net.forward(x[None, :])
        gp2, gx2 = net.backward(tape2, cot[None, :])
        assert out.shape == (2,) and gx.shape == (3,)
        assert np.array_equal(out2[0], out) and np.array_equal(gx2[0], gx)
        assert np.array_equal(gp2, gp)

    def test_input_gradient_alone(self):
        net = ap.Approximator((3, 5, 2), seed=3)
        xs = np.random.default_rng(4).standard_normal((4, 3))
        cots = np.ones((4, 2))
        _, tape = net.forward(xs)
        gp, gx = net.backward(tape, cots)
        _, tape = net.forward(xs)
        none, gx_alone = net.backward(tape, cots, params=False)
        assert none is None and np.array_equal(gx_alone, gx)
