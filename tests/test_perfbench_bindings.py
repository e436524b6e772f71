"""The benchmark under perfbench/ wraps module attributes of ggm by name
and passes config keys and SolverConfig arguments by name; a refactor that
drops one breaks its runs."""
import os

import numpy as np

import ggm.prox as prox
from ggm.solvers import PenaltyWeights, SolverConfig, solve_joint_hidden

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_counts_the_fused_kernel(monkeypatch):
    monkeypatch.syspath_prepend(_PERFBENCH)
    import spans

    fused = prox.fused_prox_stack
    tracer = spans.Tracer()
    tracer.install()
    try:
        est = solve_joint_hidden([np.eye(3)] * 2, PenaltyWeights.tied(2, 0.1, 0.2, 0.05, 0.05),
                                 SolverConfig(max_iters=3))
    finally:
        tracer.uninstall()
    assert prox.fused_prox_stack is fused
    # one fused prox on S and one on P per iteration, seen through prox's global
    assert tracer.name.count("prox.fused_prox_stack") == 2 * est.iterations


def test_every_workload_builds_and_warms_up(monkeypatch):
    monkeypatch.syspath_prepend(_PERFBENCH)
    import workloads

    for workload in workloads.WORKLOADS.values():
        # each warm-up runs 2-iteration solves through the public API
        workload.warm_up(workload.make_inputs(1))
        if isinstance(workload, workloads.JointSolves):
            # the timed rounds build this config; warm_up does not
            cfg = workload._solver_config()
            assert (cfg.max_iters, cfg.tol_primal, cfg.tol_dual) == \
                (workload.max_iters, workload.tol, workload.tol)
    assert any(isinstance(w, workloads.JointSolves) for w in workloads.WORKLOADS.values())
