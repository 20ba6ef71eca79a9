"""Tests of the benchmark's own code: span arithmetic, tracing and the checks.

Each check must pass on a correct output and fail on a deliberately corrupted
one. Problems are kept small so the file runs in a few seconds.
"""

import copy
import json
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import harness
from cgsur import fem, field, inference, predict, vobs
from cgsur.field import BoundaryCoeffs, GrfSampler, GrfSpec
from cgsur.genmodel import GenerativeModel
import tracing
from tracing import Tracer
import workloads
from workloads import WORKLOADS


# ----- spans -----


class _Nested:
    """root calls a twice and b once; a calls leaf."""

    def root(self):
        self.a()
        self.b()
        self.a()

    def a(self):
        self.leaf()

    def b(self):
        pass

    def leaf(self):
        pass


def test_self_time_is_duration_minus_direct_children(monkeypatch):
    # A scripted clock gives a synthetic span tree with known times: each
    # reading of perf_counter advances by the next step.
    steps = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 8.5, 9.0, 9.5, 12.0, 12.5, 13.0])
    now = [0.0]

    def clock():
        now[0] += next(steps)
        return now[0]

    monkeypatch.setattr(tracing, "perf_counter", clock)
    tracer = Tracer()
    for attr in ("root", "a", "b", "leaf"):
        tracer.wrap(_Nested, attr, attr)
    try:
        _Nested().root()
    finally:
        tracer.restore()
    assert tracer.names == ["root", "a", "leaf", "b", "a", "leaf"]
    assert tracer.parents == [-1, 0, 1, 0, 0, 4]
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    assert durations == pytest.approx([86.5, 13.0, 4.0, 8.5, 34.0, 12.0])
    own = tracer.self_times()
    # root: 86.5 - (13 + 8.5 + 34); a: 13 - 4 and 34 - 12; leaves and b: all.
    assert own == pytest.approx([31.0, 9.0, 4.0, 8.5, 22.0, 12.0])
    assert sum(own) == pytest.approx(durations[0])


class _Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


def test_tracer_records_parents_phases_and_restores():
    original = _Toy.__dict__["inner"]
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "toy.outer")
    tracer.wrap(_Toy, "inner", lambda self, i: f"toy.inner.{i % 2}")
    tracer.phase = "op"
    assert _Toy().outer(3) == 3
    tracer.phase = "check"
    _Toy().inner(5)
    tracer.restore()
    assert _Toy.__dict__["inner"] is original

    assert tracer.names == ["toy.outer", "toy.inner.0", "toy.inner.1", "toy.inner.0", "toy.inner.1"]
    assert tracer.parents == [-1, 0, 0, 0, -1]
    assert tracer.phases == ["op"] * 4 + ["check"]
    _, calls = tracer.totals("op")
    assert calls == {"toy.outer": 1, "toy.inner.0": 2, "toy.inner.1": 1}
    seconds, _ = tracer.totals("op", self_time=False)
    own, _ = tracer.totals("op")
    assert own["toy.outer"] <= seconds["toy.outer"]


class _FakeWorkload:
    """Two units per operation; every third operation raises."""

    name = "fake"
    d_f, d_c = 4, 2
    units = 2
    setups = 3

    def __init__(self):
        self.calls = 0

    def setup(self, seed):
        return SimpleNamespace(seed=seed)

    def check_setup(self, ctx):
        pass

    def prepare(self, ctx):
        return None

    def op(self, ctx, args, clock):
        self.calls += 1
        if self.calls % 3 == 0:
            raise ValueError("planned failure")
        return self.calls

    def check(self, ctx, args, out, solves):
        if out == 4:
            raise checks.CheckFailed("planned check failure")


class _UntimedWorkload(_FakeWorkload):
    """Each operation spends 50 ms and one fine solve in an untimed region."""

    units = 1

    def op(self, ctx, args, clock):
        with clock.untimed():
            _Toy().inner(1)
            fem.SOLVE_COUNTS[self.d_f] = fem.SOLVE_COUNTS.get(self.d_f, 0) + 1
            time.sleep(0.05)
        _Toy().inner(2)


def test_untimed_region_is_left_out_of_time_spans_and_solves():
    tracer = Tracer()
    tracer.wrap(_Toy, "inner", "toy.inner")
    try:
        raw = harness.measure(_UntimedWorkload(), seed=1, seconds=0.0, tracer=tracer)
    finally:
        tracer.restore()
    assert max(raw["op_s"]) < 0.05
    assert all(c[_UntimedWorkload.d_f] == 0 for c in raw["solve_counts"])
    _, calls = tracer.totals("op")
    assert calls == {"toy.inner": harness.MIN_OPS}
    _, calls = tracer.totals("untimed")
    assert calls == {"toy.inner": harness.MIN_OPS + 1}  # the warm-up too


def test_measure_counts_attempts_failures_and_checks(capsys):
    raw = harness.measure(_FakeWorkload(), seed=1, seconds=0.0)
    # The warm-up (call 1) is not counted; calls 2, 3, 4 are the three
    # attempted operations, of which call 3 raises and call 4 fails its check.
    assert raw["attempted"] == harness.MIN_OPS == 3
    assert raw["failed"] == 1
    assert len(raw["op_s"]) == 2
    assert raw["failures"] == ["planned check failure"]
    assert len(raw["setup_s"]) == 3
    assert "planned failure" in capsys.readouterr().err


def test_op_ms_weighs_the_median_of_each_stream():
    # Default stream: the median operation per unit.
    assert harness.op_ms({"samples": {"op": [0.003, 0.001, 0.002]}, "streams": {"op": 1.0}}) == 2.0
    # A training iteration plus a refresh once per 50 iterations; the slow
    # outlier iteration moves neither median.
    raw = {
        "samples": {"iteration": [0.010, 0.012, 0.011, 0.500], "refresh": [1.0, 1.5, 0.5]},
        "streams": {"iteration": 1.0, "refresh": 1 / 50},
    }
    assert harness.op_ms(raw) == pytest.approx(11.5 + 1000 / 50)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean_and_traced_at_a_small_size(name):
    # The real set-up, operation and checks of each workload on a 16 x 16 fine
    # grid, traced: no operation fails, every check passes, and the traced run
    # yields exactly the per-layer metrics that BENCHMARK.json lists.
    workload = copy.copy(WORKLOADS[name])
    workload.d_f, workload.d_c = 16, 4
    workload.setups = 2
    tracer = Tracer()
    harness.install(tracer, workload)
    try:
        raw = harness.measure(workload, seed=3, seconds=0.0, tracer=tracer)
    finally:
        tracer.restore()
    assert raw["failed"] == 0 and raw["failures"] == []
    assert raw["attempted"] == len(raw["op_s"]) == harness.MIN_OPS
    table = harness.layer_table(tracer, len(raw["op_s"]) * workload.units)
    metrics = harness.per_layer(raw, table, harness.setup_table(tracer, workload), workload)
    assert list(metrics) == [n for n, _ in harness.per_layer_names()]
    listed = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in listed["per_layer"]]
    for name in harness.OP_SPANS:
        # A span has self time in an operation exactly when it is called there.
        assert (metrics[f"{name}.self_ms"][0] > 0.0) == (metrics[f"{name}.calls"][0] > 0.0)
    for label in ("coarse", "fine"):
        # The program's own counters agree with the traced calls.
        assert metrics[f"fem.solve_count.{label}"][0] == metrics[f"fem.solve.{label}.calls"][0]
    if isinstance(workload, workloads.Train):
        # One timed q(y) refresh per default-cadence period: the one that
        # train() makes at the start of the call is untimed.
        assert metrics["inference.refresh_qy.calls"][0] * workload.units == 1
        # Every timed iteration and refresh is sampled, and the samples of an
        # operation add up to its timed region less train()'s own overhead.
        ops = len(raw["op_s"])
        assert len(raw["samples"]["iteration"]) == ops * workload.units
        assert len(raw["samples"]["refresh"]) == ops
        sampled = sum(raw["samples"]["iteration"]) + sum(raw["samples"]["refresh"])
        timed = sum(raw["op_s"]) * workload.units
        assert 0.9 * timed < sampled <= timed


# ----- training checks -----


def _hybrid_problem(seed=0, d_f=8, d_c=2):
    rng = np.random.default_rng(seed)
    mesh_f, mesh_c = fem.build_mesh(d_f), fem.build_mesh(d_c)
    s = GrfSampler(GrfSpec(grid_size=d_f)).sample(rng)
    bc = field.sample_bc(rng)
    sets = vobs.build_hybrid(mesh_f, mesh_c, s.kappa_vec, bc, rng, m2=5)
    n = mesh_f.n_nodes
    sy = np.full(n, 0.01)
    h = rng.standard_normal(n) * 0.1
    posts = {"flux": vobs.GammaPosterior(alpha=2.0, beta=1.0)}
    return sets, inference.update_qy_closedform(sets, sy, h, posts), rng


def test_exact_rows_check_rejects_mean_off_constraints():
    sets, qy, rng = _hybrid_problem()
    checks.exact_rows_satisfied([qy], [sets])
    qy.mean = qy.mean + 1e-4 * rng.standard_normal(qy.mean.size)
    with pytest.raises(checks.CheckFailed, match="Gamma mu - alpha"):
        checks.exact_rows_satisfied([qy], [sets])


def test_flux_alpha_check():
    checks.flux_precision_alpha(inference.update_precision_gamma([1.0] * 8, 16), 16, 8)
    with pytest.raises(checks.CheckFailed):
        checks.flux_precision_alpha(inference.update_precision_gamma([1.0] * 7, 16), 16, 8)


def test_finite_check():
    checks.all_finite([1.0, -2.0], "F")
    with pytest.raises(checks.CheckFailed):
        checks.all_finite([1.0, np.nan], "F")


def test_label_check_rejects_a_perturbed_label():
    rng = np.random.default_rng(3)
    mesh = fem.build_mesh(8)
    s = GrfSampler(GrfSpec(grid_size=8)).sample(rng)
    bc = field.sample_bc(rng)
    y = fem.solve(fem.assemble(mesh, s.kappa_vec, bc)).y_vec
    lam, a = s.lambda_vec[None], bc.as_array()[None]
    checks.labels_solve_system(mesh, lam, a, y[None])
    bad = y.copy()
    bad[mesh.free_nodes[3]] += 1e-6
    with pytest.raises(checks.CheckFailed, match="dense solve"):
        checks.labels_solve_system(mesh, lam, a, bad[None])


def test_energy_variance_check_rejects_a_wrong_variance():
    rng = np.random.default_rng(4)
    mesh = fem.build_mesh(4)
    s = GrfSampler(GrfSpec(grid_size=4)).sample(rng)
    obs = vobs.build_energy(mesh, s.kappa_vec, field.sample_bc(rng), tau=1e4)
    sy = np.full(mesh.n_nodes, 0.02)
    qy = inference.update_qy_energy(obs, 1.0 / sy, np.zeros(mesh.n_nodes), steps=5)
    checks.energy_variances([qy], [obs], sy, 1e4)
    qy.var = qy.var * (1.0 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="variance"):
        checks.energy_variances([qy], [obs], sy, 1e4)


# ----- prediction checks -----


def _predict_problem():
    rng = np.random.default_rng(5)
    model = GenerativeModel(4, 2, decoder_hidden=(8,), seed=5)
    sampler = GrfSampler(GrfSpec(grid_size=4))
    unl = inference.UnlabeledData(np.array([sampler.sample(rng).lambda_vec for _ in range(4)]))
    state = inference.init_state(model, inference.TrainConfig(seed=5), None, unl, None)
    return state, sampler.sample(rng).lambda_vec, field.sample_bc(rng)


def test_count_check_rejects_a_prediction_path_that_solves_the_fine_system():
    state, x, bc = _predict_problem()

    def clean():
        predict.predictive_posterior(x, bc, state, k=3, rng=np.random.default_rng(0))

    def with_fine_solve():
        clean()
        fem.solve(fem.assemble(state.model.fine_mesh, np.exp(x), bc))

    def solves_of(path):
        before = dict(fem.SOLVE_COUNTS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            path()
        return {d: fem.SOLVE_COUNTS.get(d, 0) - before.get(d, 0) for d in (2, 4)}

    solves = solves_of(clean)
    checks.solve_count_rise(solves, 4, 0, "fine")
    checks.solve_count_rise(solves, 2, 3, "coarse")
    solves = solves_of(with_fine_solve)
    with pytest.raises(checks.CheckFailed, match="fine solve count"):
        checks.solve_count_rise(solves, 4, 0, "fine")


def test_predictive_mean_check_against_independent_draws():
    state, x, bc = _predict_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        qz = predict.infer_z(x, state)
        ps = predict.predictive_posterior(x, bc, state, k=256, rng=np.random.default_rng(1), qz=qz)
    ref = checks.independent_predictive(state.model, qz, bc, 512, np.random.default_rng(2))
    checks.predictive_mean_agrees(ps.samples, ref)
    shifted = ps.samples + 0.5 * np.sqrt(ps.var)
    with pytest.raises(checks.CheckFailed, match="standard errors"):
        checks.predictive_mean_agrees(shifted, ref)


def test_elbo_check_rejects_a_q_worse_than_the_prior():
    state, x, _ = _predict_problem()
    model = state.model
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        qz = predict.infer_z(x, state)
    eps = np.random.default_rng(6).standard_normal((128, model.dim_z))
    checks.elbo_not_below_prior(model, x, qz, eps)
    far = inference.DiagGaussian(mean=np.full(model.dim_z, 4.0), var=np.full(model.dim_z, 0.01))
    with pytest.raises(checks.CheckFailed, match="below the prior"):
        checks.elbo_not_below_prior(model, x, far, eps)


# ----- uncertainty-propagation checks -----


def test_grf_moment_check_rejects_draws_scaled_by_1_2():
    spec = GrfSpec(grid_size=16)
    sampler = GrfSampler(spec)
    rng = np.random.default_rng(7)
    draws = np.array([sampler.sample(rng).lambda_vec for _ in range(32)])
    checks.grf_moments(draws, spec)
    with pytest.raises(checks.CheckFailed, match="GRF draws"):
        checks.grf_moments(1.2 * draws, spec)
    with pytest.raises(checks.CheckFailed, match="GRF draws"):
        checks.grf_moments(spec.mean + 1.2 * (draws - spec.mean), spec)


def test_qoi_range_and_histogram_checks():
    bc = BoundaryCoeffs(0.1, -0.2, 0.3, 0.0)
    checks.qoi_within_dirichlet_range([-0.2, 0.0, 0.3], bc)
    with pytest.raises(checks.CheckFailed, match="Dirichlet range"):
        checks.qoi_within_dirichlet_range([0.31], bc)

    edges = np.linspace(0.0, 2.0, 5)
    good = {"bin_edges": edges, "hist_surrogate": np.full(4, 0.5),
            "hist_reference": np.array([1.0, 1.0, 0.0, 0.0]), "ks": 0.5}
    checks.histograms_and_ks(good)
    for key, value in (("hist_reference", np.full(4, 0.6)), ("ks", 1.5)):
        with pytest.raises(checks.CheckFailed):
            checks.histograms_and_ks({**good, key: value})


def test_qoi_of_fine_solves_obeys_the_maximum_principle():
    rng = np.random.default_rng(8)
    mesh = fem.build_mesh(8)
    sampler = GrfSampler(GrfSpec(grid_size=8))
    bc = field.sample_bc(rng)
    node = predict.center_node_index(8)
    qoi = [
        fem.solve(fem.assemble(mesh, sampler.sample(rng).kappa_vec, bc)).y_vec[node]
        for _ in range(16)
    ]
    checks.qoi_within_dirichlet_range(qoi, bc)
