#!/usr/bin/env python3
"""Show that every output check of the benchmark rejects a perturbed output.

    python3 perfbench/selftest.py

Each case builds a correct output on a small instance, confirms that the
check accepts it, perturbs it, and confirms that the check rejects the
perturbed copy. Prints one PASS/FAIL line per case; exits 1 on any FAIL.
"""
import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from ggm import experiments  # noqa: E402
from ggm.prox import fused_prox_stack  # noqa: E402
from ggm.solvers import PenaltyWeights, SolverConfig, solve_joint_hidden  # noqa: E402
from workloads import Round, Tc1Sweep  # noqa: E402


def _case(name, good, bad):
    """good/bad are zero-argument callables returning a check's error list."""
    ok = not good() and bool(bad())
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    return ok


def fused_cases():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((5, 6))
    v[3] = v[1]                                   # a tie the prox must fuse
    z = fused_prox_stack(v, 0.3, 0.15)
    bad = z.copy()
    bad[2, 4] += 1e-6
    return [_case("fused prox duality gap",
                  lambda: checks.check_fused_prox(v, z, 0.3, 0.15, "good"),
                  lambda: checks.check_fused_prox(v, bad, 0.3, 0.15, "bad"))]


def joint_cases():
    cfg = experiments.build_config("tc1", {}, n=10, k_sweep=(3,), m=200,
                                   n_realizations=1, base_seed=5)
    covs, _ = experiments.realize_cell(cfg, 0, 0)
    covs = list(covs.covs)
    rho, beta, eta, tol = 0.2, 0.2, 0.5, 1e-6
    est = solve_joint_hidden(covs, PenaltyWeights.tied(3, rho, beta, rho * eta, beta * eta),
                             SolverConfig(tol_primal=tol, tol_dual=tol, max_iters=5000))

    def check(e):
        return checks.check_joint_estimate(e, covs, rho, beta, rho * eta, beta * eta, tol, "e")

    def replace_layer(field, i, value):
        mats = list(getattr(est, field))
        mats[i] = value
        return dataclasses.replace(est, **{field: tuple(mats)})

    o = covs[0].shape[0]
    not_psd = replace_layer("p_hat", 1, est.p_hat[1] - 1e-3 * np.eye(o))
    lam = np.linalg.eigvalsh(est.s_hat[0] - est.p_hat[0]).min()
    not_pd = replace_layer("s_hat", 0, est.s_hat[0] - (lam + 0.1) * np.eye(o))
    moved = est.s_hat[2].copy()
    moved[0, 1] += 1e-3
    moved[1, 0] += 1e-3
    off_optimum = replace_layer("s_hat", 2, moved)
    # keep the reported objective consistent so that only optimality is off
    off_optimum = dataclasses.replace(off_optimum, objective=checks.joint_objective(
        off_optimum.s_hat, off_optimum.p_hat, covs, rho, beta, rho * eta, beta * eta))
    return [
        _case("joint: convergence flag", lambda: check(est),
              lambda: check(dataclasses.replace(est, converged=False))),
        _case("joint: P is PSD", lambda: check(est), lambda: check(not_psd)),
        _case("joint: S - P is PD", lambda: check(est), lambda: check(not_pd)),
        _case("joint: reported objective", lambda: check(est),
              lambda: check(dataclasses.replace(est, objective=est.objective + 1e-6))),
        _case("joint: S-block fixed-point residual", lambda: check(est),
              lambda: check(off_optimum)),
    ]


def tc1_cases():
    wl = Tc1Sweep()
    wl.config = dict(k_sweep=(2,), n_realizations=2, base_seed=0, workers=1,
                     rho_grid=(0.1, 0.3), beta_grid=(0.1, 0.3), eta_grid=(1.0,),
                     max_iters=300, tol_primal=1e-4, tol_dual=1e-4)
    wl.timing_passes = 1
    state = wl.make_inputs(0)
    rnd = wl.run_round(state)
    good = rnd.outputs[0]

    def check(result):
        return wl.check(state, [Round(rnd.attempted, 0, [result])], 0)[0]

    raw_high = good.raw_errors.copy()
    raw_high[0, 1, 0] = 4.5
    raw_nan = good.raw_errors.copy()
    raw_nan[0, 2, 1] = np.nan
    # raw errors moved by 1e-6 with the table kept consistent: only the
    # re-solves can tell. GL is re-solved on the seeded cell, Joint on all.
    def moved(method):
        raw = good.raw_errors.copy()
        raw[:, method, :] += 1e-6
        return dataclasses.replace(good, raw_errors=raw, table=dataclasses.replace(
            good.table, errors=raw.mean(axis=2)))

    params = good.selected[2]
    return [
        _case("tc1: selection invocation count", lambda: check(good),
              lambda: check(dataclasses.replace(
                  good, selection_invocations=good.selection_invocations + 1))),
        _case("tc1: Monte Carlo invocation count", lambda: check(good),
              lambda: check(dataclasses.replace(good, mc_invocations=good.mc_invocations - 4))),
        _case("tc1: raw error within [0, 4]", lambda: check(good),
              lambda: check(dataclasses.replace(good, raw_errors=raw_high))),
        _case("tc1: raw error finite", lambda: check(good),
              lambda: check(dataclasses.replace(good, raw_errors=raw_nan))),
        _case("tc1: selected parameters on the grid", lambda: check(good),
              lambda: check(dataclasses.replace(good, selected={
                  2: dataclasses.replace(params, joint_eta=0.7)}))),
        _case("tc1: seeded cell re-solved by all methods", lambda: check(good),
              lambda: check(moved(0))),
        _case("tc1: every cell re-solved by Joint", lambda: check(good),
              lambda: check(moved(3))),
    ]


def main():
    results = fused_cases() + joint_cases() + tc1_cases()
    print(f"{sum(results)}/{len(results)} checks reject their perturbed output")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
