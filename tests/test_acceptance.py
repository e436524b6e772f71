"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings as they complete. The trend criteria (5-7) run the full
benchmark sweeps at desk scale (20 realizations) and take a few minutes
each; everything else is fast.
"""
import time

import numpy as np
import pytest

from ggm.experiments import METHODS, build_config, emit_csv, run_experiment
from ggm.graphs import Graph, PrecisionGraph, choose_hidden, marginal_precision
from ggm.metrics import mean_normalized_error
from ggm.prox import prox_fused_l1, prox_logdet
from ggm.sampling import ObservedCovariances
from ggm.solvers import (
    GGLProblem,
    JointProblem,
    PenaltyWeights,
    SolverConfig,
    ggl_objective,
    joint_objective,
    reference_oracle,
    solve_ggl,
    solve_gl,
    solve_joint_hidden,
    solve_lvgl,
)

from _oracles import fused_brute_force, random_pd_matrix, random_tiny_instance, \
    schur_marginal_via_inverse

GL, GGL, LVGL, JOINT = (METHODS.index(m) for m in ("GL", "GGL", "LVGL", "Joint"))

EXPERIMENT_SOLVER = dict(max_iters=800, tol_primal=1e-4, tol_dual=1e-4)


class _Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.start = time.time()
        self.checks = []

    def check(self, ok, detail):
        self.checks.append((bool(ok), detail))

    def finish(self):
        elapsed = time.time() - self.start
        ok = all(c for c, _ in self.checks)
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {self.number} ({self.title}): "
              f"{status} in {elapsed:.1f}s")
        for good, detail in self.checks:
            print(f"    {'ok  ' if good else 'FAIL'} {detail}")
        assert ok, f"criterion {self.number} failed: " + \
            "; ".join(d for g, d in self.checks if not g)
        return elapsed


def medians(result):
    """(n_sweep, 4) medians across realizations."""
    return np.median(result.raw_errors, axis=2)


def test_criterion_1_kernel_exactness():
    crit = _Criterion(1, "kernel exactness")
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 21))
        a = random_pd_matrix(rng, dim)
        a = 0.5 * (a + a.T)
        c = rng.standard_normal((dim, dim))
        c = 0.5 * (c + c.T)
        tau = float(rng.uniform(0.2, 5.0))
        r = prox_logdet(a, c, tau)
        residual = np.linalg.norm(c - np.linalg.inv(r) + tau * (r - a))
        worst = max(worst, residual / dim)
        if residual > 1e-8 * dim:
            break
    crit.check(worst <= 1e-8, f"prox_logdet stationarity residual/dim max {worst:.2e} <= 1e-8")

    worst_fused = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 4))
        v = rng.normal(0.0, 1.5, k)
        lam = float(rng.uniform(0.0, 1.0))
        if trial % 2 == 0 or k < 3:
            w = float(rng.uniform(0.0, 1.0))
        else:
            w = np.zeros((k, k))
            iu = np.triu_indices(k, 1)
            w[iu] = rng.uniform(0.0, 1.0, iu[0].size)
            w = w + w.T
        gap = np.max(np.abs(prox_fused_l1(v, lam, w) - fused_brute_force(v, lam, w)))
        worst_fused = max(worst_fused, gap)
    crit.check(worst_fused <= 2e-3,
               f"prox_fused_l1 vs grid brute force max gap {worst_fused:.2e} <= 2e-3")
    elapsed = crit.finish()
    assert elapsed < 10.0


@pytest.mark.filterwarnings("ignore:.*hidden.*:UserWarning")
def test_criterion_2_schur_oracle():
    crit = _Criterion(2, "Schur-complement oracle")
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        h = int(rng.integers(0, min(4, n)))
        s = random_pd_matrix(rng, n)
        s = 0.5 * (s + s.T)
        adj = np.abs(s) * (1 - np.eye(n))
        pg = PrecisionGraph(Graph(n, adj), s)
        part = choose_hidden(n, h, int(rng.integers(0, 2**31)))
        k_o, _ = marginal_precision(pg, part)
        gap = np.linalg.norm(k_o - schur_marginal_via_inverse(s, part.observed))
        worst = max(worst, gap)
    crit.check(worst <= 1e-8, f"max Frobenius gap {worst:.2e} <= 1e-8 over 200 instances")
    elapsed = crit.finish()
    assert elapsed < 5.0


@pytest.mark.filterwarnings("ignore:.*hidden.*:UserWarning")
def test_criterion_3_solver_oracle_equivalence():
    crit = _Criterion(3, "solver-oracle equivalence")
    rng = np.random.default_rng(303)
    tight = SolverConfig(tol_primal=1e-7, tol_dual=1e-7, max_iters=20_000)
    budget = 20_000
    gaps = {"joint": [], "ggl": [], "lvgl": []}
    for _ in range(20):
        covs = random_tiny_instance(rng, o=4, k=2, m=120)
        rho = float(rng.uniform(0.05, 0.3))
        beta = float(rng.uniform(0.05, 0.4))
        rho_p = float(rng.uniform(0.0, 0.15))
        beta_p = float(rng.uniform(0.0, 0.15))

        w = PenaltyWeights.tied(2, rho, beta, rho_p, beta_p)
        est = solve_joint_hidden(ObservedCovariances(tuple(covs)), w, tight)
        oracle = reference_oracle(JointProblem(tuple(covs), w), budget=budget)
        gaps["joint"].append(abs(est.objective - oracle.objective) / abs(oracle.objective))

        lam1 = float(rng.uniform(0.02, 0.2))
        lam2 = float(rng.uniform(0.02, 0.2))
        s_ggl = solve_ggl(covs, lam1, lam2, tight)
        o_ggl = reference_oracle(GGLProblem(tuple(covs), lam1, lam2), budget=budget)
        gaps["ggl"].append(
            abs(ggl_objective(s_ggl, covs, lam1, lam2) - o_ggl.objective) / abs(o_ggl.objective))

        s_lv, p_lv = solve_lvgl(covs[0], rho, beta, tight)
        w1 = PenaltyWeights.tied(1, rho, beta)
        obj_lv = joint_objective([s_lv], [p_lv], [covs[0]], w1)
        o_lv = reference_oracle(JointProblem((covs[0],), w1), budget=budget)
        gaps["lvgl"].append(abs(obj_lv - o_lv.objective) / abs(o_lv.objective))
    for name, vals in gaps.items():
        crit.check(max(vals) <= 1e-3,
                   f"{name}: max relative objective gap {max(vals):.2e} <= 1e-3 (20 instances)")
    elapsed = crit.finish()
    assert elapsed < 300.0


def test_criterion_4_reduction_identities():
    crit = _Criterion(4, "reduction identities")
    rng = np.random.default_rng(404)
    tight = SolverConfig(tol_primal=1e-8, tol_dual=1e-8, max_iters=20_000)

    covs = random_tiny_instance(rng, o=5, k=1, m=100)
    w1 = PenaltyWeights.tied(1, 0.12, 0.25)
    est = solve_joint_hidden(ObservedCovariances(tuple(covs)), w1, tight)
    s_lv, p_lv = solve_lvgl(covs[0], 0.12, 0.25, tight)
    obj_lv = joint_objective([s_lv], [p_lv], covs, w1)
    gap_a = abs(est.objective - obj_lv) / abs(obj_lv)
    crit.check(gap_a <= 1e-6, f"K=1 joint vs LVGL relative objective gap {gap_a:.2e} <= 1e-6")

    s_lv, p_lv = solve_lvgl(covs[0], 0.12, 1e6, tight)
    s_gl = solve_gl(covs[0], 0.12, tight)
    gap_b = np.linalg.norm(s_lv - s_gl)
    crit.check(np.max(np.abs(p_lv)) <= 1e-4, f"beta=1e6: max |P| {np.max(np.abs(p_lv)):.2e} <= 1e-4")
    crit.check(gap_b <= 1e-3, f"beta=1e6: ||S_lvgl - S_gl||_F {gap_b:.2e} <= 1e-3")

    covs3 = random_tiny_instance(rng, o=4, k=3, m=80)
    ggl = solve_ggl(covs3, 0.1, 0.0, tight)
    gap_c = max(np.linalg.norm(a - solve_gl(c, 0.1, tight))
                for a, c in zip(ggl, covs3))
    crit.check(gap_c <= 1e-6, f"lambda2=0: max ||S_ggl - S_gl||_F {gap_c:.2e} <= 1e-6")
    elapsed = crit.finish()
    assert elapsed < 60.0


def test_criterion_5_error_drops_with_more_graphs():
    crit = _Criterion(5, "joint error drops with K (tc1)")
    cfg = build_config("tc1", {}, n_realizations=20, workers=2, **EXPERIMENT_SOLVER)
    result = run_experiment(cfg)
    med = medians(result)
    k_index = {k: i for i, k in enumerate(result.table.xaxis)}
    joint_k1 = med[k_index[1], JOINT]
    joint_k6 = med[k_index[6], JOINT]
    crit.check(joint_k6 <= 0.9 * joint_k1,
               f"Joint median at K=6 ({joint_k6:.4f}) <= 0.9 x K=1 ({joint_k1:.4f})")
    for k in (4, 5, 6):
        row = med[k_index[k]]
        for m_idx, name in ((GL, "GL"), (GGL, "GGL"), (LVGL, "LVGL")):
            crit.check(row[JOINT] <= row[m_idx] + 1e-12,
                       f"K={k}: Joint median {row[JOINT]:.4f} <= {name} {row[m_idx]:.4f}")
    print("    medians by K:", np.array2string(med, precision=4))
    elapsed = crit.finish()
    assert elapsed < 1800.0


def test_criterion_6_error_drops_with_more_samples():
    crit = _Criterion(6, "error drops with M (tc2)")
    cfg = build_config("tc2", {}, n_realizations=20, workers=2, **EXPERIMENT_SOLVER)
    result = run_experiment(cfg)
    med = medians(result)
    xs = result.table.xaxis
    first, last = xs.index(50), xs.index(500)
    for m_idx, name in ((GL, "GL"), (GGL, "GGL"), (LVGL, "LVGL"), (JOINT, "Joint")):
        crit.check(med[last, m_idx] < med[first, m_idx],
                   f"{name}: median at M=500 ({med[last, m_idx]:.4f}) "
                   f"< at M=50 ({med[first, m_idx]:.4f})")
    for i, m in enumerate(xs):
        if m >= 100:
            crit.check(med[i, JOINT] <= med[i, GL] + 1e-12,
                       f"M={m}: Joint median {med[i, JOINT]:.4f} <= GL {med[i, GL]:.4f}")
    print("    medians by M:", np.array2string(med, precision=4))
    elapsed = crit.finish()
    assert elapsed < 2700.0


def test_criterion_7_no_penalty_when_all_observed():
    crit = _Criterion(7, "hidden-aware methods converge at O = N (tc3)")
    cfg = build_config("tc3", {}, o_sweep=(26, 29, 32), synthetic_substitute=True,
                       n_realizations=20, workers=2, **EXPERIMENT_SOLVER)
    result = run_experiment(cfg)
    med = medians(result)
    full = result.table.xaxis.index(32)
    gap_single = abs(med[full, GL] - med[full, LVGL])
    gap_joint = abs(med[full, GGL] - med[full, JOINT])
    crit.check(gap_single <= 0.02,
               f"O=N: |GL - LVGL| median gap {gap_single:.4f} <= 0.02")
    crit.check(gap_joint <= 0.02,
               f"O=N: |GGL - Joint| median gap {gap_joint:.4f} <= 0.02")
    print("    medians by O:", np.array2string(med, precision=4))
    elapsed = crit.finish()
    assert elapsed < 1800.0


def test_criterion_8_metric_properties():
    crit = _Criterion(8, "error metric properties")
    rng = np.random.default_rng(808)
    ok_scale = True
    ok_sym = True
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + np.eye(4)
        b = rng.standard_normal((4, 4)) + np.eye(4)
        c = float(10.0 ** rng.uniform(-6, 6))
        ok_scale &= abs(mean_normalized_error([c * a], [b])
                        - mean_normalized_error([a], [b])) <= 1e-12
        ok_sym &= abs(mean_normalized_error([a], [b])
                      - mean_normalized_error([b], [a])) <= 1e-12
    crit.check(ok_scale, "scale invariance exact to 1e-12 (50 random pairs)")
    crit.check(ok_sym, "symmetry error(A,B) = error(B,A)")
    m = rng.standard_normal((5, 5))
    crit.check(mean_normalized_error([m], [m]) == 0.0, "est = truth gives exactly 0")
    hand = mean_normalized_error([np.eye(2)], [np.array([[0.0, 1.0], [1.0, 0.0]])])
    crit.check(abs(hand - 2.0) <= 1e-12, f"hand example value {hand!r} equals 2.0")
    crit.finish()


def test_criterion_9_byte_identical_reruns(tmp_path):
    crit = _Criterion(9, "byte-identical deterministic reruns")
    base = dict(n=10, p=0.2, n_hidden=1, m=50, k_sweep=(1, 2), n_realizations=2,
                base_seed=13, rho_grid=(0.05, 0.2), beta_grid=(0.1, 0.5),
                eta_grid=(1.0,), max_iters=300, tol_primal=1e-4, tol_dual=1e-4)
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        cfg = build_config("tc1", {}, workers=workers, **base)
        result = run_experiment(cfg)
        path = tmp_path / f"{name}.csv"
        emit_csv(result.table, path)
        outputs.append(path.read_bytes())
    crit.check(outputs[0] == outputs[1], "rerun with identical config is byte-identical")
    crit.check(outputs[0] == outputs[2], "worker count does not change the CSV")
    crit.finish()
