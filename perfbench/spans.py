"""Span recorder that times fracstep's layers at their public boundaries.

Every function named in a layer module's ``__all__`` (``main`` for the CLI,
which has no ``__all__``) is wrapped, on its defining module and on every
fracstep module that bound the same object by name, so calls made from one
layer into another are timed where they cross. Spans are kept in memory and
written out by the caller; a span's self time is its duration minus the
durations of its child spans, so per op the self times of all spans, the op
span included, add up to the op's duration.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("mesh", "kernels", "soe", "complementary", "gronwall", "solver",
          "specialfn", "cli")

_clock = time.perf_counter


def _table_entries(table) -> int:
    return table.N * (table.N + 1) // 2


# Counters taken at the boundary from a call's arguments and result:
# counter name -> (function names, fn(args, kwargs, result) -> amount).
_COUNTERS = {
    "kernels.entries": (
        ("l1_kernel", "alikhanov_kernel", "bdf2_kernel", "fast_l1_kernel"),
        lambda a, k, r: _table_entries(r)),
    "complementary.entries": (
        ("build_complementary",), lambda a, k, r: _table_entries(r)),
    "gronwall.trials": (
        ("verify_gronwall_quadratic", "verify_gronwall_linear"),
        lambda a, k, r: r.trials),
    "solver.steps": (
        ("step_scheme",), lambda a, k, r: 1),
    "solver.fast_steps": (
        ("solve_single_mode_fast",), lambda a, k, r: len(r.us) - 1),
}

# Metric name -> the functions whose self time it sums.
TIME_GROUPS = {
    "mesh.build_s": ("mesh", None),
    "kernels.build_s": ("kernels", ("l1_kernel", "alikhanov_kernel",
                                    "bdf2_kernel", "bdf2_recombine")),
    "kernels.fastl1_s": ("kernels", ("fast_l1_kernel",)),
    "kernels.audit_s": ("kernels", ("verify_assumptions",)),
    "kernels.derivative_s": ("kernels", ("apply_discrete_derivative",)),
    "complementary.build_s": ("complementary", ("build_complementary",)),
    "complementary.identity_s": ("complementary", ("identity_residual",)),
    "complementary.lemma_s": ("complementary", ("check_lemma21",
                                                "check_lemma22_23")),
    "gronwall.trials_s": ("gronwall", ("verify_gronwall_quadratic",
                                       "verify_gronwall_linear")),
    "gronwall.bound_s": ("gronwall", ("gronwall_bound",)),
    "soe.build_s": ("soe", ("build_soe",)),
    "soe.history_s": ("soe", ("history_update", "fast_l1_apply")),
    "solver.march_s": ("solver", ("step_scheme", "solve_single_mode",
                                  "solve_single_mode_fast", "solve_fd1d")),
    "solver.envelope_s": ("solver", ("check_stability_envelope",)),
    "solver.energy_s": ("solver", ("check_energy_lemmas",)),
    "solver.study_s": ("solver", ("smooth_study", "singular_study",
                                  "estimate_order")),
    "specialfn.ml_s": ("specialfn", ("mittag_leffler",)),
    "specialfn.log_ml_s": ("specialfn", ("log_mittag_leffler",)),
    "specialfn.omega_s": ("specialfn", ("omega",)),
    "cli.self_s": ("cli", None),
}

CALL_GROUPS = {
    "mesh.calls": ("mesh", None),
    "kernels.derivative_calls": ("kernels", ("apply_discrete_derivative",)),
    "soe.history_calls": ("soe", ("history_update", "fast_l1_apply")),
    "specialfn.ml_calls": ("specialfn", ("mittag_leffler",)),
    "specialfn.log_ml_calls": ("specialfn", ("log_mittag_leffler",)),
}


class Recorder:
    """In-memory spans for one process; records only inside an op span."""

    def __init__(self):
        self.spans = []      # [span id, parent id, op index, name, start, end]
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # name -> calls, self, raised
        self.counters = defaultdict(float)
        self.soe_builds = []  # (Nq, cert_residual) per certified approximation
        self.ops = []         # [op name, duration, {span name: self time}]
        self._stack = []      # open spans: [span id, name, start, child time]
        self._patched = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans) + len(self._stack)
        self._stack.append([sid, name, _clock(), 0.0])

    def _exit(self, raised):
        end = _clock()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        st = self.stats[name]
        st[0] += 1
        st[1] += dur - child
        st[2] += raised
        self.spans.append([sid, parent[0] if parent else -1, len(self.ops) - 1,
                           name, start, end])
        if self.ops and parent is not None:
            per_op = self.ops[-1][2]
            per_op[name] = per_op.get(name, 0.0) + dur - child
        return dur, child

    def run_op(self, name, fn):
        """Run ``fn()`` as a root span named ``op.<name>``; returns its value."""
        self.ops.append([name, 0.0, {}])
        self._enter(f"op.{name}")
        raised = 1
        try:
            out = fn()
            raised = 0
            return out
        finally:
            dur, child = self._exit(raised)
            self.ops[-1][1] = dur
            self.ops[-1][2]["op.self"] = dur - child

    def wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        counters = [(c, hook) for c, (names, hook) in _COUNTERS.items()
                    if name in names]
        is_soe_build = full == "soe.build_soe"

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self._enter(full)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(1)
                raise
            self._exit(0)
            for counter, hook in counters:
                self.counters[counter] += hook(args, kwargs, out)
            if is_soe_build:
                self.soe_builds.append((out.Nq, out.cert_residual))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions wherever fracstep bound them."""
        for layer in LAYERS:
            importlib.import_module(f"fracstep.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fracstep" or n.startswith("fracstep.")]
        for layer in LAYERS:
            mod = sys.modules[f"fracstep.{layer}"]
            for name in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._patched.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------

    def _sum(self, layer, names, field):
        total = 0
        for full, st in self.stats.items():
            lay, _, fn = full.partition(".")
            if lay == layer and (names is None or fn in names):
                total += st[field]
        return total

    def layer_metrics(self) -> dict:
        """Per-layer figures over every op recorded so far."""
        out = {name: float(self._sum(layer, fns, 1))
               for name, (layer, fns) in TIME_GROUPS.items()}
        out.update({name: int(self._sum(layer, fns, 0))
                    for name, (layer, fns) in CALL_GROUPS.items()})
        for layer in LAYERS:
            if layer not in ("mesh", "cli"):  # mesh.build_s, cli.self_s cover them
                out[f"{layer}.self_s"] = float(self._sum(layer, None, 1))
        out["op.self_s"] = float(sum(op[2]["op.self"] for op in self.ops))
        out["kernels.entries"] = int(self.counters["kernels.entries"])
        out["kernels.table_mb"] = 8.0 * out["kernels.entries"] / 1e6
        out["complementary.entries"] = int(self.counters["complementary.entries"])
        out["gronwall.trials"] = int(self.counters["gronwall.trials"])
        out["solver.steps"] = int(self.counters["solver.steps"]
                                  + self.counters["solver.fast_steps"])
        out["specialfn.ml_failed"] = int(
            self.stats.get("specialfn.mittag_leffler", (0, 0.0, 0))[2])
        out["soe.Nq"] = max((nq for nq, _ in self.soe_builds), default=0)
        out["soe.cert_residual"] = max((r for _, r in self.soe_builds),
                                       default=0.0)
        return out

    def op_breakdown(self) -> list:
        """Per op: duration and the self time of every span name inside it."""
        return [{"op": name, "seconds": dur, "self": selfs}
                for name, dur, selfs in self.ops]

    def to_json(self) -> dict:
        return {
            "span_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.spans,
            "ops": self.op_breakdown(),
            "functions": {name: {"calls": st[0], "self_s": st[1], "raised": st[2]}
                          for name, st in sorted(self.stats.items())},
            "layers": self.layer_metrics(),
        }
