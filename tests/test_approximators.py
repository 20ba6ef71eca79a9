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
    ("affine", lambda: ap.Approximator(3, [{"kind": "dense", "units": 2}], seed=0)),
    ("mlp_tanh", lambda: ap.mlp(4, hidden=(8, 6), output_dim=5, seed=1)),
    ("mlp_relu", lambda: ap.mlp(4, hidden=(7,), output_dim=3, activation="relu", seed=2)),
]


class TestForward:
    def test_identity_affine(self):
        net = ap.Approximator(3, [{"kind": "dense", "units": 3}], seed=0)
        net.params[:9] = np.eye(3).ravel()
        net.params[9:] = 0.0
        x = np.array([1.5, -2.0, 0.25])
        assert np.allclose(net(x), x)

    def test_tanh_at_zero(self):
        net = ap.mlp(2, hidden=(4,), output_dim=1, seed=0)
        # zero biases by construction; tanh(W 0 + 0) = 0, output = b_out = 0
        assert net(np.zeros(2)) == pytest.approx(0.0)

    def test_matches_independent_forward(self):
        # independently coded forward pass for a 2-layer tanh MLP
        net = ap.mlp(3, hidden=(5,), output_dim=2, seed=7)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        w1 = net.params[:15].reshape(5, 3)
        b1 = net.params[15:20]
        w2 = net.params[20:30].reshape(2, 5)
        b2 = net.params[30:32]
        expected = w2 @ np.tanh(w1 @ x + b1) + b2
        assert np.allclose(net(x), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        net = ap.mlp(3, hidden=(4,), output_dim=2)
        with pytest.raises(DimensionMismatch):
            net(np.zeros(5))

    def test_deterministic(self):
        net = ap.mlp(3, hidden=(4,), output_dim=2, seed=9)
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(net(x), net(x))

    def test_seeded_init_reproducible(self):
        a = ap.mlp(3, hidden=(4,), output_dim=2, seed=11)
        b = ap.mlp(3, hidden=(4,), output_dim=2, seed=11)
        assert np.array_equal(a.params, b.params)


class TestBackward:
    def test_affine_closed_form(self):
        net = ap.Approximator(3, [{"kind": "dense", "units": 2}], seed=0)
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
        net = ap.mlp(3, hidden=(4,), output_dim=2, seed=1)
        _, tape = net.forward(np.ones(3))
        gp, gx = net.backward(tape, np.zeros(2))
        assert np.all(gp == 0) and np.all(gx == 0)

    def test_tape_single_use(self):
        net = ap.mlp(2, hidden=(3,), output_dim=1, seed=0)
        _, tape = net.forward(np.ones(2))
        net.backward(tape, np.ones(1))
        with pytest.raises(TapeConsumed):
            net.backward(tape, np.ones(1))

    @pytest.mark.parametrize("name,make", ARCHITECTURES)
    def test_gradients_match_finite_differences(self, name, make):
        net = make()
        rng = np.random.default_rng(42)
        # keep relu inputs away from the kink
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
    def test_roundtrip(self, tmp_path):
        net = ap.mlp(6, hidden=(8, 4), output_dim=3, seed=5)
        ap.save_checkpoint(net, tmp_path / "net")
        loaded = ap.load_checkpoint(tmp_path / "net")
        assert loaded.descriptor() == net.descriptor()
        assert np.array_equal(loaded.params, net.params)
        x = np.linspace(-1, 1, 6)
        assert np.array_equal(loaded(x), net(x))

    @pytest.mark.parametrize(
        "save,load,make",
        [
            (ap.save_checkpoint, ap.load_checkpoint, lambda: ap.mlp(3, hidden=(4,))),
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
        ids=["network", "model", "state"],
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
        net = ap.mlp(3, hidden=(4,), output_dim=2, seed=3)
        model = genmodel.GenerativeModel(4, 2, decoder_hidden=(5,), seed=4)
        cfg = inference.TrainConfig(amortized=True, encoder_hidden=(3,))
        unlabeled = inference.UnlabeledData(np.zeros((2, model.dim_x)))
        state = inference.init_state(model, cfg, None, unlabeled, None)
        ap.save_checkpoint(net, tmp_path / "net")
        genmodel.save_model(model, tmp_path / "model")
        inference.save_state(state, tmp_path / "state")

        def no_draw(*args):
            raise AssertionError("loading drew a random initialization")

        monkeypatch.setattr(ap, "_glorot", no_draw)
        assert np.array_equal(ap.load_checkpoint(tmp_path / "net").params, net.params)
        loaded_state = inference.load_state(tmp_path / "state")
        for loaded in (genmodel.load_model(tmp_path / "model"), loaded_state.model):
            arrays = loaded.params.arrays()
            for key, arr in model.params.arrays().items():
                assert np.array_equal(arrays[key], arr)
        assert np.array_equal(loaded_state.enc_mu.params, state.enc_mu.params)
        assert np.array_equal(loaded_state.enc_logvar.params, state.enc_logvar.params)

    def test_blob_size_checked(self):
        desc = ap.mlp(3, hidden=(4,), output_dim=2).descriptor()
        with pytest.raises(DimensionMismatch):
            ap.Approximator.from_descriptor(desc, np.zeros(7))
