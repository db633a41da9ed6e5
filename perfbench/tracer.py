"""Span tracer for the benchmark's traced run.

It wraps, from outside the package, the module attributes through which one
abrbench module calls into another (for example ``abrbench.cli.solve_expert_ao``
or ``abrbench.simulator.transfer_time``), plus the public functions listed in
``ENTRY_POINTS`` that their own module calls by its global name. Every wrapped
call becomes a span (id, name, start, end, parent id, op id) kept in memory.
A call that lasts under ``FOLD_BELOW_S`` and whose children were all folded is
folded too: it adds to its name's count and time but stores no span, so that
hot leaves such as ``transfer_time`` cost a counter rather than a record.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import importlib
import json
import statistics
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "trace", "media", "simulator", "policies", "expert", "learner", "metrics")

# Public functions that their own module calls through its globals; wrapping
# the defining module's attribute is the only way to see those calls.
ENTRY_POINTS = {
    "expert": ("solve_fixed_throughput",),
    "simulator": ("step", "observe", "advance"),
    "policies": ("decide_robust_mpc", "decide_buffer_based"),
    "learner": ("act",),
    "metrics": ("compare", "rank_points"),
}

FOLD_BELOW_S = 10e-6


class _Stats:
    __slots__ = ("calls", "total", "self_total", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = array("d")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, _Stats] = {}
        self.ao_iterations = 0
        self.ao_cap_stops = 0
        self.ao_converged = 0
        self.op_id = 0
        self._next_id = 0
        # each open call: [span id, child seconds, has a stored child]
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, _Stats())
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, False]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stats.calls += 1
                stats.total += dur
                stats.self_total += dur - frame[1]
                stats.durations.append(dur)
                stored = frame[2] or dur >= FOLD_BELOW_S
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent[2] = parent[2] or stored
                    parent_id = parent[0]
                else:
                    parent_id = None
                if stored:
                    spans.append((span_id, name, start, end, parent_id, tracer.op_id))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_ao(self, solution) -> None:
        self.ao_iterations += solution.iterations
        if solution.converged:
            self.ao_converged += 1
        else:
            self.ao_cap_stops += 1

    def call(self, name: str, op_id: int, fn, *args):
        """Run ``fn(*args)`` as a root span of op ``op_id``."""
        self.op_id = op_id
        return self._wrap(name, fn)(*args)

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"abrbench.{layer}")
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if value.__module__.startswith("abrbench.") and owner in LAYERS and owner != layer:
                    self._patch(module, attr, f"{owner}.{attr}")
            for attr in ENTRY_POINTS.get(layer, ()):
                self._patch(module, attr, f"{layer}.{attr}")

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        hook = self._on_ao if name == "expert.solve_expert_ao" else None
        setattr(module, attr, self._wrap(name, original, hook))
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reporting ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per stored span, [id, name, start_s, end_s, parent_id,
        op_id], then one object per name with its calls and total and self time."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name in sorted(self.stats):
                s = self.stats[name]
                fh.write(json.dumps({"name": name, "calls": s.calls, "total_s": s.total,
                                     "self_s": s.self_total}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced so far (one round)."""

        def stat(name):
            return self.stats.get(name) or _Stats()

        def calls(name):
            return stat(name).calls

        def total_ms(name):
            return stat(name).total * 1e3

        def self_ms(name):
            return stat(name).self_total * 1e3

        def pct_ms(name, q):
            d = stat(name).durations
            if len(d) < 2:
                return d[0] * 1e3 if d else 0.0
            return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * 1e3

        ao = "expert.solve_expert_ao"
        fixed = "expert.solve_fixed_throughput"
        mpc = "policies.decide_robust_mpc"
        ao_calls = stat(ao).calls
        out = {
            f"{ao}.calls": calls(ao),
            f"{ao}.ms_p50": pct_ms(ao, 50),
            f"{ao}.ms_p99": pct_ms(ao, 99),
            f"{ao}.ms_max": max(stat(ao).durations, default=0.0) * 1e3,
            f"{ao}.self_ms": self_ms(ao),
            "expert.ao.iterations": self.ao_iterations,
            "expert.ao.cap_stops": self.ao_cap_stops,
            "expert.ao.converged_frac": self.ao_converged / ao_calls if ao_calls else 0.0,
            f"{fixed}.calls": calls(fixed),
            f"{fixed}.ms_p50": pct_ms(fixed, 50),
            f"{fixed}.ms_p99": pct_ms(fixed, 99),
            f"{fixed}.self_ms": self_ms(fixed),
            f"{mpc}.calls": calls(mpc),
            f"{mpc}.ms_p50": pct_ms(mpc, 50),
            f"{mpc}.ms_p99": pct_ms(mpc, 99),
            f"{mpc}.total_ms": total_ms(mpc),
            "learner.train.self_ms": self_ms("learner.train"),
            "learner.act.calls": calls("learner.act"),
            "learner.act.self_ms": self_ms("learner.act"),
            "trace.transfer_time.calls": calls("trace.transfer_time"),
            "trace.transfer_time.total_ms": total_ms("trace.transfer_time"),
            "trace.load_trace.total_ms": total_ms("trace.load_trace"),
            "metrics.compare.ms": total_ms("metrics.compare"),
            "metrics.rank_points.ms": total_ms("metrics.rank_points"),
            "cli.main.total_ms": total_ms("cli.main"),
            "cli.self_ms": self_ms("cli.main"),
        }
        for fn in ("step", "observe", "advance"):
            out[f"simulator.{fn}.calls"] = calls(f"simulator.{fn}")
            out[f"simulator.{fn}.self_ms"] = self_ms(f"simulator.{fn}")
        return out
