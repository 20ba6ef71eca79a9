"""In-memory spans around the layer boundaries of `cgsur`, recorded from outside.

`Tracer.wrap` replaces a module function or class method with a wrapper that
records one span per call: its name, start, end, parent span and the phase of
the run it fell in (set-up, warm-up, operation or check). Nothing under `src/`
changes; `Tracer.restore` puts the originals back. Spans stay in memory until
the run ends.

Calls nest on one thread's stack, so a span's self time is its duration minus
the summed durations of its direct children; each span adds its duration to
its parent's child total when it ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_s: list[float] = []
        self.phases: list[str] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name):
        """Record a span on every call of owner.attr.

        name is the span name, or a callable of the call's arguments that
        returns it (to split one function by the grid it works on).
        """
        original = owner.__dict__[attr]
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            parent = self._stack[-1] if self._stack else -1
            self.names.append(name_of(*args, **kwargs))
            self.parents.append(parent)
            self.child_s.append(0.0)
            self.phases.append(self.phase)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                end = self.ends[idx] = perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.child_s[parent] += end - self.starts[idx]

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        return [e - s - c for s, e, c in zip(self.starts, self.ends, self.child_s)]

    def totals(self, phase: str, self_time: bool = True):
        """Per span name: (summed self or wall time in s, call count) in a phase."""
        own = self.self_times() if self_time else None
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            if self.phases[i] != phase:
                continue
            seconds[name] += own[i] if self_time else self.ends[i] - self.starts[i]
            calls[name] += 1
        return seconds, calls

    def write(self, path: Path):
        """Write every span as [name, phase, parent, start_s, duration_s]."""
        names = sorted(set(self.names))
        phases = sorted(set(self.phases))
        name_id = {n: i for i, n in enumerate(names)}
        phase_id = {p: i for i, p in enumerate(phases)}
        t0 = min(self.starts, default=0.0)
        spans = [
            [
                name_id[self.names[i]],
                phase_id[self.phases[i]],
                self.parents[i],
                round(self.starts[i] - t0, 9),
                round(self.ends[i] - self.starts[i], 9),
            ]
            for i in range(len(self.names))
        ]
        path.write_text(
            json.dumps({"names": names, "phases": phases, "spans": spans})
        )

