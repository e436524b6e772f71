"""The three workloads: their inputs, one timed round, and their output checks.

A workload's ``make_inputs(seed)`` builds the inputs of the timed part,
``warm_up(state)`` runs each code path once on them, ``run_round(state)``
performs one round of operations (the same ones in every round) and
returns a ``Round``, and ``check(state, rounds, seed)`` returns the failure
messages of the output checks in ``checks.py``, plus the seconds and ADMM
iterations of any joint solves the checks timed.
"""
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from ggm import experiments, prox, solvers
from ggm.errors import GgmError
from ggm.solvers import PenaltyWeights, SolverConfig


@dataclass
class Round:
    attempted: int
    failed: int
    outputs: list
    solve_s: float = 0.0        # seconds inside solve_joint_hidden
    iterations: int = 0         # ADMM iterations of those solves
    counts: dict = field(default_factory=dict)


def _rng(seed, tag):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), tag])))


def _fused_prox_sample(seed, ks, lam, pair_weight, n_cols=24):
    """Certificate check of fused_prox_stack on seeded columns at each K.

    Half of the entries are copies of other entries of their column, so
    the ties that the exact prox must fuse occur.
    """
    errors = []
    for k in ks:
        rng = _rng(seed, 100 + k)
        v = rng.standard_normal((k, n_cols))
        tie = rng.random((k, n_cols)) < 0.5
        v = np.where(tie, v[rng.integers(0, k, size=k)], v)
        z = prox.fused_prox_stack(v, lam, pair_weight)
        errors += checks.check_fused_prox(v, z, lam, pair_weight, f"K={k}")
    return errors


# ---------------------------------------------------------------------------
# tc1-sweep: the paper's reproduction path through the harness
# ---------------------------------------------------------------------------

class Tc1Sweep:
    """run_experiment on the tc1 preset, two values of its K axis."""

    name = "tc1-sweep"
    workers = 2
    # tc1 preset: Erdos-Renyi N = 20, p = 0.15, 2 hidden nodes, m = 200,
    # default 5 x 5 x 3 grids, with the tc1 script's solver settings.
    # base_seed is the preset's own (0) in every run. The work depends on
    # it: the selection's joint solves take 50.8k to 58.8k layer-iterations
    # over base seeds 0-5, a spread that would add to the machine's own.
    config = dict(k_sweep=(2, 3), n_realizations=12, base_seed=0, workers=2,
                  max_iters=800, tol_primal=1e-4, tol_dual=1e-4)
    timing_passes = 5

    def make_inputs(self, seed):
        return {"cfg": experiments.build_config("tc1", {}, **self.config)}

    def warm_up(self, state):
        covs, _ = experiments.realize_cell(state["cfg"], 0, 0)
        warm = SolverConfig(max_iters=2)
        solvers.solve_gl(covs.covs[0], 0.1, warm)
        solvers.solve_ggl(covs, 0.1, 0.1, warm)
        solvers.solve_lvgl(covs.covs[0], 0.1, 0.1, warm)
        solvers.solve_joint_hidden(
            covs, PenaltyWeights.tied(covs.n_layers, 0.1, 0.1, 0.05, 0.05), warm)

    def _invocations(self, cfg):
        n_rho, n_beta, n_eta = len(cfg.rho_grid), len(cfg.beta_grid), len(cfg.eta_grid)
        per_value = n_rho + n_rho * n_rho + n_rho * n_beta + n_rho * n_beta * n_eta
        return len(cfg.sweep) * (per_value + len(experiments.METHODS) * cfg.n_realizations)

    def run_round(self, state):
        cfg = state["cfg"]
        attempted = self._invocations(cfg)
        try:
            result = experiments.run_experiment(cfg)
        except GgmError:
            return Round(attempted, attempted, [None])
        return Round(attempted, 0, [result], counts={
            "experiments.selection_invocations": result.selection_invocations,
            "experiments.mc_invocations": result.mc_invocations})

    def check(self, state, rounds, seed):
        cfg = state["cfg"]
        results = [r for rnd in rounds for r in rnd.outputs if r is not None]
        errors = []
        for result in results:
            errors += checks.check_run_result(result, cfg, len(experiments.METHODS))
            if not np.array_equal(result.raw_errors, results[0].raw_errors):
                errors.append("two sweeps of one run disagree")
        errors += _fused_prox_sample(seed, cfg.k_sweep, 0.3, 0.15)
        if errors or not results:
            return errors, 0.0, 0
        # Re-solve the Joint method on every Monte Carlo cell, and all four
        # methods on one seeded cell, with the public solvers; score them with
        # the benchmark's own error formula. The Joint re-solves are the same
        # in every run, so this workload's iters_per_s is taken from them:
        # the median time of a few passes over all cells.
        solver_cfg = cfg.solver_config()
        cells = [(si, value, r, *experiments.realize_cell(cfg, si, r))
                 for si, value in enumerate(cfg.sweep) for r in range(cfg.n_realizations)]
        weights = {}
        for value, prm in results[0].selected.items():
            weights[value] = PenaltyWeights.tied(value, prm.joint_rho, prm.joint_beta,
                                                 prm.joint_rho * prm.joint_eta,
                                                 prm.joint_beta * prm.joint_eta)
        pass_s, joints = [], None
        for _ in range(self.timing_passes):
            t0 = time.perf_counter()
            estimates = [solvers.solve_joint_hidden(covs, weights[value], solver_cfg)
                         for _, value, _, covs, _ in cells]
            pass_s.append(time.perf_counter() - t0)
            joints = joints or estimates
        full_cell = int(_rng(seed, 1).integers(len(cells)))
        for n_cell, ((si, value, r, covs, truths), joint) in enumerate(zip(cells, joints)):
            label = f"cell K={value}, realization {r}"
            if n_cell != full_cell:
                own = checks.normalized_error(joint.s_hat, truths)
                errors += checks.check_cell_errors(
                    results[0].raw_errors[si, 3:, r], [own], label, ("Joint",))
                continue
            prm = results[0].selected[value]
            gl = [solvers.solve_gl(c, prm.gl_lam, solver_cfg) for c in covs.covs]
            ggl = solvers.solve_ggl(covs, prm.ggl_l1, prm.ggl_l2, solver_cfg)
            lvgl = [solvers.solve_lvgl(c, prm.lv_rho, prm.lv_beta, solver_cfg)[0]
                    for c in covs.covs]
            own = [checks.normalized_error(est, truths) for est in (gl, ggl, lvgl, joint.s_hat)]
            errors += checks.check_cell_errors(results[0].raw_errors[si, :, r], own, label,
                                               experiments.METHODS)
        return errors, statistics.median(pass_s), sum(e.iterations for e in joints)


# ---------------------------------------------------------------------------
# Joint solves on one fixed instance, relabelled by the seed
# ---------------------------------------------------------------------------

class JointSolves:
    """solve_joint_hidden at a few tied penalty settings.

    The instance (graphs, precisions, hidden set, samples) is fixed; the
    seed draws a relabelling of the observed nodes and an order of the
    layers. Relabelling changes every input bit but not the problem, so
    every seed costs the same iterations: across random instances the
    iteration count varies threefold (216 to 643 at K = 4, O = 100).
    """

    tol = 1e-5          # `ggm solve` defaults
    max_iters = 2000

    def make_inputs(self, seed):
        cfg = experiments.build_config("tc1", {}, n=self.n, p=self.p, k_sweep=(self.k,),
                                       m=200, n_realizations=1, base_seed=self.instance_seed)
        covs, _ = experiments.realize_cell(cfg, 0, 0)
        rng = _rng(seed, 0)
        nodes = rng.permutation(self.n - cfg.n_hidden)
        layers = rng.permutation(self.k)
        return {"covs": [covs.covs[i][np.ix_(nodes, nodes)] for i in layers]}

    def warm_up(self, state):
        solvers.solve_joint_hidden(
            state["covs"], PenaltyWeights.tied(self.k, 0.1, 0.1, 0.05, 0.05),
            SolverConfig(max_iters=2))

    def _solver_config(self):
        return SolverConfig(max_iters=self.max_iters, tol_primal=self.tol, tol_dual=self.tol)

    def run_round(self, state):
        out = Round(len(self.settings), 0, [])
        for rho, beta, eta in self.settings:
            w = PenaltyWeights.tied(self.k, rho, beta, rho * eta, beta * eta)
            t0 = time.perf_counter()
            try:
                est = solvers.solve_joint_hidden(state["covs"], w, self._solver_config())
            except GgmError:
                out.failed += 1
                out.outputs.append(None)
                continue
            out.solve_s += time.perf_counter() - t0
            out.iterations += est.iterations
            out.outputs.append(est)
        return out

    def check(self, state, rounds, seed):
        covs = state["covs"]
        errors = []
        for n_round, rnd in enumerate(rounds):
            for (rho, beta, eta), est in zip(self.settings, rnd.outputs):
                if est is None:
                    continue
                # the fixed-point residual is costly; it runs on the first round
                errors += checks.check_joint_estimate(
                    est, covs, rho, beta, rho * eta, beta * eta, self.tol,
                    f"rho={rho} beta={beta} eta={eta}", residual=n_round == 0)
        errors += _fused_prox_sample(seed, (self.k,), 0.3, 0.15)
        return errors, 0.0, 0


class JointWide(JointSolves):
    name = "joint-wide"
    workers = 1
    n, k, p, instance_seed = 102, 4, 0.03, 3     # 100 observed nodes, sparse ER
    settings = ((0.1, 0.3, 1.0), (0.3, 0.3, 0.5))


class JointManyLayers(JointSolves):
    name = "joint-many-layers"
    workers = 1
    n, k, p, instance_seed = 30, 8, 0.15, 1      # 28 observed nodes
    settings = ((0.1, 0.1, 0.5), (0.3, 0.3, 0.5))


WORKLOADS = {w.name: w for w in (Tc1Sweep(), JointWide(), JointManyLayers())}
