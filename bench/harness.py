"""Measure one workload: repeated set-up, a warm-up, then timed operations.

A closed loop with one caller: each operation starts when the previous one
and its checks have finished. Copies, generator re-seeding and checks run
outside the timed region. With tracing on, spans are recorded around the
layer boundaries of `cgsur` and summed per operation.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

from cgsur import approximators, fem, field, genmodel, inference, predict, vobs

import checks
from tracing import Tracer

MIN_OPS = 3

# Layer boundaries: (owner, attribute, span name). fem.solve is split by grid.
_SPANS = [
    (field.GrfSampler, "__init__", "field.GrfSampler.init"),
    (field.GrfSampler, "sample", "field.GrfSampler.sample"),
    (fem, "assemble", "fem.assemble"),
    (fem, "solve_vjp", "fem.solve_vjp"),
    (approximators.Approximator, "forward", "approximators.forward"),
    (approximators.Approximator, "backward", "approximators.backward"),
    (genmodel.GenerativeModel, "logp_x_given_z_grads", "genmodel.logp_x_given_z_grads"),
    (genmodel.GenerativeModel, "logp_X_given_z_grads", "genmodel.logp_X_given_z_grads"),
    (genmodel.GenerativeModel, "logp_y_given_X_grads", "genmodel.logp_y_given_X_grads"),
    (genmodel.GenerativeModel, "cgm_forward", "genmodel.cgm_forward"),
    (vobs, "build_hybrid", "vobs.build"),
    (vobs, "build_energy", "vobs.build"),
    (inference, "init_state", "inference.init_state"),
    (inference, "elbo_unlabeled", "inference.elbo_unlabeled"),
    (inference, "elbo_labeled", "inference.elbo_labeled"),
    (inference, "elbo_virtual", "inference.elbo_virtual"),
    (inference.Adam, "step", "inference.Adam.step"),
    (inference, "update_qy_closedform", "inference.update_qy_closedform"),
    (inference, "update_qy_energy", "inference.update_qy_energy"),
    (inference, "refresh_qy", "inference.refresh_qy"),
    (predict, "infer_z", "predict.infer_z"),
    (predict, "predictive_posterior", "predict.predictive_posterior"),
    (predict, "propagate_uq", "predict.propagate_uq"),
]

# Per-operation self time of every module whose spans run in operations, and
# of each span of those modules. A layer that an operation does not call
# reads 0.0 there, as its call count does.
MODULE_SELF_MS = ["field", "fem", "approximators", "genmodel", "inference", "predict"]
# Spans that run in set-up only; they are timed per set-up, not counted per
# operation.
_SETUP_SPANS = {"field.GrfSampler.init", "vobs.build", "inference.init_state"}
# Per operation, each of these spans gives its self time and its call count;
# the counts repeat exactly between runs.
OP_SPANS = ["fem.solve.coarse", "fem.solve.fine"] + [
    name for name in dict.fromkeys(n for _, _, n in _SPANS) if name not in _SETUP_SPANS
]
# Wall time per set-up of these spans (median over the run's set-ups).
SETUP_MS = {
    "field.GrfSampler.init_ms": "field.GrfSampler.init",
    "vobs.build_ms": "vobs.build",
    "inference.init_state_ms": "inference.init_state",
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(n, "ms") for n in SETUP_MS]
    names += [(f"{n}.self_ms", "ms") for n in MODULE_SELF_MS + OP_SPANS]
    names += [(f"{n}.calls", "count") for n in OP_SPANS]
    names += [("fem.solve_count.coarse", "count"), ("fem.solve_count.fine", "count")]
    names += [("trace.op_ms", "ms")]
    return names


def install(tracer: Tracer, workload):
    for owner, attr, name in _SPANS:
        tracer.wrap(owner, attr, name)
    d_f = workload.d_f
    tracer.wrap(
        fem,
        "solve",
        lambda sys: "fem.solve.fine" if sys.mesh.d == d_f else "fem.solve.coarse",
    )


class Clock:
    """Takes parts of an operation out of its measured time.

    Spans recorded inside `untimed()` fall in the phase "untimed", so the
    per-layer tables leave them out as op_ms does; so do the solve counts.

    A workload with `streams` times the parts of an operation itself and
    hands them over with `sample()`; see `op_ms`.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.untimed_s = 0.0
        self.untimed_solves: dict[int, int] = {}
        self.samples: dict[str, list[float]] = {}

    def sample(self, stream: str, seconds):
        self.samples.setdefault(stream, []).extend(float(s) for s in seconds)

    @contextmanager
    def untimed(self):
        previous = self.tracer.phase if self.tracer is not None else None
        if self.tracer is not None:
            self.tracer.phase = "untimed"
        before = dict(fem.SOLVE_COUNTS)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.untimed_s += perf_counter() - t0
            for d, n in fem.SOLVE_COUNTS.items():
                self.untimed_solves[d] = self.untimed_solves.get(d, 0) + n - before.get(d, 0)
            if self.tracer is not None:
                self.tracer.phase = previous


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, tracer: Tracer | None = None):
    """Run one workload; returns a dict of raw measurements."""

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    setup_s = []
    for r in range(workload.setups):
        ctx = None
        fem.build_mesh.cache_clear()
        gc.collect()
        phase(f"setup/{r}")
        t0 = perf_counter()
        ctx = workload.setup(seed)
        setup_s.append(perf_counter() - t0)

    failures = []

    def run_check(fn, *args):
        phase("check")
        try:
            fn(*args)
        except checks.CheckFailed as e:
            failures.append(str(e))

    run_check(workload.check_setup, ctx)

    def run_op(args):
        """Time one operation; returns its output, seconds, samples and solve counts."""
        clock = Clock(tracer)
        before = dict(fem.SOLVE_COUNTS)
        t0 = perf_counter()
        out = workload.op(ctx, args, clock)
        dt = perf_counter() - t0 - clock.untimed_s
        after = fem.SOLVE_COUNTS
        solves = {
            d: after.get(d, 0) - before.get(d, 0) - clock.untimed_solves.get(d, 0)
            for d in (workload.d_c, workload.d_f)
        }
        samples = clock.samples if hasattr(workload, "streams") else {"op": [dt / workload.units]}
        return out, dt, samples, solves

    # Warm-up: not counted. Lazy imports and first-call set-up finish here.
    phase("prepare")
    args = workload.prepare(ctx)
    phase("warmup")
    out, _, _, solves = run_op(args)
    run_check(workload.check, ctx, args, out, solves)

    op_s = []
    samples: dict[str, list[float]] = {name: [] for name in _streams(workload)}
    attempted = failed = 0
    solves_per_op = []
    start = perf_counter()
    while attempted < MIN_OPS or perf_counter() - start < seconds:
        phase("prepare")
        args = workload.prepare(ctx)
        gc.collect()
        attempted += 1
        phase("op")
        try:
            out, dt, op_samples, solves = run_op(args)
        except Exception:  # an operation that raises counts as failed
            phase("check")
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        op_s.append(dt / workload.units)
        for name, values in op_samples.items():
            samples[name].extend(values)
        solves_per_op.append(solves)
        run_check(workload.check, ctx, args, out, solves)

    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "samples": samples,
        "streams": _streams(workload),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "solve_counts": solves_per_op,
        "peak_rss_mb": peak_rss_mb(),
    }


# By default an operation is one sample of one stream: its timed seconds
# divided by its units.
DEFAULT_STREAMS = {"op": 1.0}


def _streams(workload) -> dict:
    return getattr(workload, "streams", DEFAULT_STREAMS)


def op_ms(raw) -> float:
    """Time per unit: the sum over streams of weight times median sample.

    With the default stream that is the median operation per unit. A
    workload whose operation is made of parts of different cost (a training
    iteration and a q(y) refresh once per cadence) samples each part on its
    own, so every part's median is taken over many samples of like work.
    """
    return 1e3 * sum(
        weight * statistics.median(raw["samples"][name])
        for name, weight in raw["streams"].items()
    )


def end_to_end(raw) -> dict:
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "op_ms": (op_ms(raw), "ms"),
    }


def tail_ms(samples) -> tuple[int, float] | None:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90):
        if n * (100 - p) >= 1000:
            return p, 1e3 * statistics.quantiles(samples, n=100)[p - 1]
    return None


def per_layer(raw, table: dict, setup: dict, workload) -> dict:
    """The per-layer metrics, from the span tables of a traced run."""
    n_ops = len(raw["op_s"]) * workload.units
    out = {
        metric: (setup.get(span, {"ms": 0.0})["ms"], "ms") for metric, span in SETUP_MS.items()
    }
    for module in MODULE_SELF_MS:
        total = sum((row["self_ms"] for k, row in table.items() if k.startswith(module + ".")), 0.0)
        out[f"{module}.self_ms"] = (total, "ms")
    unused = {"self_ms": 0.0, "calls": 0.0}
    for name in OP_SPANS:
        out[f"{name}.self_ms"] = (table.get(name, unused)["self_ms"], "ms")
    for name in OP_SPANS:
        out[f"{name}.calls"] = (table.get(name, unused)["calls"], "count")
    for label, d in (("coarse", workload.d_c), ("fine", workload.d_f)):
        total = sum(c[d] for c in raw["solve_counts"])
        out[f"fem.solve_count.{label}"] = (total / n_ops, "count")
    out["trace.op_ms"] = (op_ms(raw), "ms")
    return out


def layer_table(tracer: Tracer, n_ops: int) -> dict:
    """Self ms and calls per operation for every span name seen in operations.

    n_ops counts operations as op_ms does (iterations or inputs), so the self
    times of one operation add up to about op_ms.
    """
    self_s, calls = tracer.totals("op")
    return {
        name: {"self_ms": 1e3 * self_s[name] / n_ops, "calls": calls[name] / n_ops}
        for name in sorted(calls)
    }


def setup_table(tracer: Tracer, workload) -> dict:
    """Median wall ms and calls per set-up for every span name seen in set-up."""
    per_setup = [
        tracer.totals(f"setup/{r}", self_time=False) for r in range(workload.setups)
    ]
    names = sorted({n for _, calls in per_setup for n in calls})
    return {
        name: {
            "ms": 1e3 * statistics.median(s.get(name, 0.0) for s, _ in per_setup),
            "calls": statistics.median(c.get(name, 0) for _, c in per_setup),
        }
        for name in names
    }
