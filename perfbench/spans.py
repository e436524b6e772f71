"""Spans at the layer boundaries of ggm, recorded from outside the package.

A Tracer replaces public functions by wrappers (module attributes such as
``ggm.experiments.select_params`` or ``numpy.linalg.eigh``) while it is
installed, and restores them on ``uninstall``. Each call becomes a span:
name, start, end and the index of the enclosing span, plus counts taken
at the same boundary. Spans stay in memory until ``write``.

Wrappers record only in the process that installed them. Pool workers
forked during the Monte Carlo phase inherit the wrappers but call straight
through, so worker-side calls add no spans.
"""
import gzip
import json
import os
import time

import numpy as np

import ggm.experiments as experiments
import ggm.metrics as metrics
import ggm.prox as prox
import ggm.solvers as solvers


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _joint_counts(args, kwargs, out):
    return {"iterations": out.iterations, "unconverged": int(not out.converged)}


def _columns(args, kwargs, out):
    return {"columns": int(np.shape(args[0])[1])}


def _matrices(args, kwargs, out):
    return {"matrices": int(np.prod(np.shape(args[0])[:-2], dtype=int))}


# span name -> (module attributes to wrap, counts taken from (args, kwargs, result),
# whether to record process-tree CPU seconds)
LAYERS = {
    "experiments.run_experiment": ([(experiments, "run_experiment")], None, True),
    "experiments.select_params": ([(experiments, "select_params")], None, True),
    "experiments.realize_cell": ([(experiments, "realize_cell")], None, False),
    "solvers.solve_joint_hidden": (
        [(experiments, "solve_joint_hidden"), (solvers, "solve_joint_hidden")],
        _joint_counts, False),
    "solvers.solve_gl": ([(experiments, "solve_gl"), (solvers, "solve_gl")], None, False),
    "solvers.solve_ggl": ([(experiments, "solve_ggl"), (solvers, "solve_ggl")], None, False),
    "solvers.solve_lvgl": ([(experiments, "solve_lvgl"), (solvers, "solve_lvgl")], None, False),
    "prox.fused_prox_stack": (
        [(solvers, "fused_prox_stack"), (prox, "fused_prox_stack")], _columns, False),
    "prox.prox_logdet": ([(solvers, "prox_logdet"), (prox, "prox_logdet")], None, False),
    "prox.soft_threshold": ([(solvers, "soft_threshold"), (prox, "soft_threshold")], None, False),
    "linalg.eigh": ([(np.linalg, "eigh")], _matrices, False),
    "linalg.eigvalsh": ([(np.linalg, "eigvalsh")], None, False),
    "metrics.mean_normalized_error": (
        [(experiments, "mean_normalized_error"), (metrics, "mean_normalized_error")],
        None, False),
}


class Tracer:
    def __init__(self):
        self.name, self.parent, self.start, self.end, self.extra = [], [], [], [], []
        self._stack = []
        self._saved = []
        self._pid = os.getpid()

    def _wrap(self, span_name, fn, counts, cpu):
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(span_name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(None)
            self.extra.append(None)
            self._stack.append(idx)
            cpu0 = _cpu_seconds() if cpu else 0.0
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            extra = counts(args, kwargs, out) if counts else {}
            if cpu:
                extra["cpu_s"] = _cpu_seconds() - cpu0
            self.extra[idx] = extra or None
            return out
        return wrapper

    def install(self):
        for span_name, (targets, counts, cpu) in LAYERS.items():
            for module, attr in targets:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name, fn, counts, cpu))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        dur = self._durations()
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def layer_metrics(self, workers):
        """Per-layer sums over all recorded spans, keyed by metric name."""
        dur = self._durations()
        own = self.self_times()
        out = {}
        for span_name in LAYERS:
            idx = [i for i, n in enumerate(self.name) if n == span_name]
            out[span_name + ".s"] = sum(dur[i] for i in idx)
            out[span_name + ".calls"] = len(idx)
            out[span_name + ".self_s"] = sum(own[i] for i in idx)
            for i in idx:
                for key, val in (self.extra[i] or {}).items():
                    out[f"{span_name}.{key}"] = out.get(f"{span_name}.{key}", 0) + val
        run_s = out["experiments.run_experiment.s"]
        sel_s = out["experiments.select_params.s"]
        run_cpu = out.get("experiments.run_experiment.cpu_s", 0.0)
        sel_cpu = out.get("experiments.select_params.cpu_s", 0.0)
        mc_s = run_s - sel_s
        out["experiments.monte_carlo.s"] = mc_s
        out["experiments.select_params.cpu_util"] = sel_cpu / (sel_s * workers) if sel_s else 0.0
        out["experiments.monte_carlo.cpu_util"] = \
            (run_cpu - sel_cpu) / (mc_s * workers) if mc_s > 0 else 0.0
        return out

    def write(self, path, summary):
        """Spans as [name, parent, start, end, self_s, counts] rows plus a summary."""
        own = self.self_times()
        t0 = min(self.start, default=0.0)
        rows = [[n, p, s - t0, e - t0, o, x] for n, p, s, e, o, x in
                zip(self.name, self.parent, self.start, self.end, own, self.extra)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"summary": summary, "columns": ["name", "parent", "start_s", "end_s",
                                                       "self_s", "counts"], "spans": rows}, fh)
