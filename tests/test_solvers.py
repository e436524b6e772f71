import time
import tracemalloc

import numpy as np
import pytest

import ggm.prox as prox
import ggm.solvers as solvers
from ggm.errors import InvalidInput
from ggm.metrics import mean_normalized_error
from ggm.sampling import ObservedCovariances
from ggm.prox import _fused_columns, prox_fused_l1, soft_threshold, symmetric_fused_prox
from ggm.solvers import (
    _PD_FLOOR,
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

from _oracles import naive_joint_objective, random_pd_matrix, random_tiny_instance

TIGHT = SolverConfig(tol_primal=1e-8, tol_dual=1e-8, max_iters=20_000)


# ---------------------------------------------------------------------------
# joint_objective
# ---------------------------------------------------------------------------

def test_objective_identity_case():
    w = PenaltyWeights.tied(1, 0.0, 0.0)
    val = joint_objective([np.eye(2)], [np.zeros((2, 2))], [np.eye(2)], w)
    assert val == pytest.approx(2.0)    # tr(I) - logdet(I)


def test_objective_identical_layers_have_zero_pair_terms():
    rng = np.random.default_rng(0)
    s = random_pd_matrix(rng, 3)
    s = 0.5 * (s + s.T)
    p = np.zeros((3, 3))
    covs = [np.eye(3), np.eye(3)]
    base = joint_objective([s, s], [p, p], covs, PenaltyWeights.tied(2, 0.1, 0.1))
    fused = joint_objective([s, s], [p, p], covs, PenaltyWeights.tied(2, 0.1, 0.1, 5.0, 7.0))
    assert base == pytest.approx(fused)


def test_objective_infeasible_is_infinite():
    w = PenaltyWeights.tied(1, 0.1, 0.1)
    val = joint_objective([np.eye(2)], [2.0 * np.eye(2)], [np.eye(2)], w)
    assert val == np.inf


def test_objectives_and_oracle_reject_estimates_of_the_wrong_shape():
    rng = np.random.default_rng(16)
    c1, c2 = random_tiny_instance(rng, o=3, k=2)
    eye, zero = np.eye(3), np.zeros((3, 3))
    w = PenaltyWeights.tied(2, 0.1, 0.1)
    problem = GGLProblem((c1, c2), 0.1, 0.1)
    for wrong in ([eye], [eye, eye, eye], [np.eye(2)] * 2, [eye, np.eye(2)]):
        with pytest.raises(InvalidInput):
            ggl_objective(wrong, [c1, c2], 0.1, 0.1)        # not broadcast over layers
        with pytest.raises(InvalidInput):
            joint_objective(wrong, [zero, zero], [c1, c2], w)
        with pytest.raises(InvalidInput):
            joint_objective([eye, eye], wrong, [c1, c2], w)
        with pytest.raises(InvalidInput):
            reference_oracle(problem, budget=10, start=(wrong, [zero, zero]))
        with pytest.raises(InvalidInput):
            reference_oracle(JointProblem((c1, c2), w), budget=10, start=([eye, eye], wrong))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_objectives_reject_nonfinite_estimates(bad):
    c1, c2 = random_tiny_instance(np.random.default_rng(17), o=3, k=2)
    eye, zero = np.eye(3), np.zeros((3, 3))
    s = np.eye(3)
    s[0, 1] = s[1, 0] = bad
    w = PenaltyWeights.tied(2, 0.1, 0.1)
    with pytest.raises(InvalidInput, match="s has a non-finite entry"):
        joint_objective([eye, s], [zero, zero], [c1, c2], w)
    with pytest.raises(InvalidInput, match="p has a non-finite entry"):
        joint_objective([eye, eye], [zero, s], [c1, c2], w)
    with pytest.raises(InvalidInput, match="s has a non-finite entry"):
        ggl_objective([eye, s], [c1, c2], 0.1, 0.1)


def test_objective_matches_independent_evaluator():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        o = int(rng.integers(2, 5))
        s = [random_pd_matrix(rng, o) + 2 * np.eye(o) for _ in range(k)]
        s = [0.5 * (m + m.T) for m in s]
        p = [np.abs(rng.standard_normal()) * np.eye(o) for _ in range(k)]
        covs = [0.5 * (c + c.T) for c in (random_pd_matrix(rng, o) for _ in range(k))]
        rho = rng.uniform(0, 0.5, k)
        beta = rng.uniform(0, 0.5, k)
        rp = np.zeros((k, k))
        bp = np.zeros((k, k))
        iu = np.triu_indices(k, 1)
        rp[iu] = rng.uniform(0, 0.5, iu[0].size)
        bp[iu] = rng.uniform(0, 0.5, iu[0].size)
        rp, bp = rp + rp.T, bp + bp.T
        w = PenaltyWeights(rho, beta, rp, bp)
        ours = joint_objective(s, p, covs, w)
        naive = naive_joint_objective(s, p, covs, rho, beta, rp, bp)
        assert ours == pytest.approx(naive, rel=1e-10)


# ---------------------------------------------------------------------------
# solve_joint_hidden
# ---------------------------------------------------------------------------

def test_joint_identity_cov_recovers_identity():
    covs = ObservedCovariances((np.eye(4),))
    w = PenaltyWeights.tied(1, 0.0, 1e3)
    est = solve_joint_hidden(covs, w, TIGHT)
    assert np.linalg.norm(est.s_hat[0] - np.eye(4)) < 1e-3
    assert np.linalg.norm(est.p_hat[0]) < 1e-3


def test_joint_fusion_consensus_limit():
    rng = np.random.default_rng(2)
    c = random_pd_matrix(rng, 4)
    covs = ObservedCovariances((c, c))
    w = PenaltyWeights.tied(2, 0.05, 0.2, 1e4, 1e4)
    est = solve_joint_hidden(covs, w, TIGHT)
    assert np.linalg.norm(est.s_hat[0] - est.s_hat[1]) < 1e-6
    assert np.linalg.norm(est.p_hat[0] - est.p_hat[1]) < 1e-6


def test_joint_estimate_invariants():
    rng = np.random.default_rng(3)
    covs = ObservedCovariances(tuple(random_tiny_instance(rng, o=5, k=2, m=60)))
    w = PenaltyWeights.tied(2, 0.08, 0.15, 0.04, 0.05)
    cfg = SolverConfig()
    est = solve_joint_hidden(covs, w, cfg)
    assert est.converged
    for s, p in zip(est.s_hat, est.p_hat):
        assert np.array_equal(s, s.T) and np.array_equal(p, p.T)
        assert np.linalg.eigvalsh(p).min() >= -1e-8
        assert np.linalg.eigvalsh(s - p).min() >= _PD_FLOOR / 2
    recomputed = joint_objective(list(est.s_hat), list(est.p_hat), covs, w)
    assert est.objective == pytest.approx(recomputed, rel=1e-9)
    assert est.residual_history.shape == (est.iterations, 2)


def _covariance_users(good, cov):
    """Each entry point that takes covariances, called on layers (good, cov)
    (GL and LVGL on cov alone)."""
    cfg = SolverConfig(max_iters=2)
    w = PenaltyWeights.tied(2, 0.1, 0.1)
    return {
        "GL": lambda: solve_gl(cov, 0.1, cfg),
        "GGL": lambda: solve_ggl([good, cov], 0.1, 0.1, cfg),
        "LVGL": lambda: solve_lvgl(cov, 0.1, 0.1, cfg),
        "Joint": lambda: solve_joint_hidden([good, cov], w, cfg),
        "Oracle": lambda: reference_oracle(JointProblem((good, cov), w), budget=2),
        "joint_objective": lambda: joint_objective([good, good], np.zeros((2, 3, 3)),
                                                   [good, cov], w),
        "ggl_objective": lambda: ggl_objective([good, good], [good, cov], 0.1, 0.1),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["GL", "GGL", "LVGL", "Joint", "Oracle", "joint_objective",
                                    "ggl_objective"])
def test_solvers_reject_nonfinite_covariance(method, bad):
    cov = np.eye(3)
    cov[0, 2] = cov[2, 0] = bad
    layer = 0 if method in ("GL", "LVGL") else 1
    with pytest.raises(InvalidInput, match=f"layer {layer} has non-finite"):
        _covariance_users(np.eye(3), cov)[method]()


@pytest.mark.parametrize("method", ["GGL", "Joint", "Oracle", "joint_objective", "ggl_objective"])
def test_solvers_reject_covariances_of_different_sizes(method):
    with pytest.raises(InvalidInput, match="share one dimension"):
        _covariance_users(np.eye(3), np.eye(4))[method]()


def test_zero_variance_coordinate_fails_fast(tmp_path, capsys):
    # A constant variable zeroes row 2 of C. The diagonal of S is never
    # penalized, so S_22 would grow without bound and no minimizer exists.
    from ggm.cli import main
    from ggm.io import write_matrix_csv

    x = np.random.default_rng(5).standard_normal((5, 100))
    x[2] = 0.0
    cov = x @ x.T / 100
    with pytest.raises(InvalidInput, match="layer 0 has variance 0 <= 0 at variable 2"):
        solve_gl(cov, 0.1)
    with pytest.raises(InvalidInput, match="layer 1 has variance 0 <= 0 at variable 2"):
        solve_joint_hidden([np.eye(5), cov], PenaltyWeights.tied(2, 0.1, 0.1))
    path = tmp_path / "cov.csv"
    write_matrix_csv(cov, path)
    assert main(["solve", "--covs", str(path), "--out", str(tmp_path / "est")]) == 2
    assert "variance 0 <= 0 at variable 2" in capsys.readouterr().err


def test_non_psd_covariance_fails_fast(tmp_path, capsys):
    # Along S = I + t v v^T, v the eigenvector of C's eigenvalue -1,
    # tr(CS) - log det S + rho |S|_1 falls without bound for rho < 1.
    from ggm.cli import main
    from ggm.io import write_matrix_csv

    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(InvalidInput, match="layer 0 is not positive semidefinite"):
        solve_gl(cov, 0.1)
    with pytest.raises(InvalidInput, match="layer 1 is not positive semidefinite"):
        solve_joint_hidden([np.eye(2), cov], PenaltyWeights.tied(2, 0.1, 0.1))
    path = tmp_path / "cov.csv"
    write_matrix_csv(cov, path)
    assert main(["solve", "--covs", str(path), "--out", str(tmp_path / "est")]) == 2
    assert "smallest eigenvalue is -1" in capsys.readouterr().err


_NONFINITE_SETTINGS = {
    "rho nan": lambda: PenaltyWeights.tied(2, np.nan, 0.1),
    "beta inf": lambda: PenaltyWeights.tied(2, 0.1, np.inf),
    "rho_pair nan": lambda: PenaltyWeights.tied(2, 0.1, 0.1, np.nan, 0.0),
    "beta_pair inf": lambda: PenaltyWeights.tied(2, 0.1, 0.1, 0.0, np.inf),
    "tol_primal nan": lambda: SolverConfig(tol_primal=np.nan),
    "tol_dual inf": lambda: SolverConfig(tol_dual=np.inf),
    "pair weight nan": lambda: prox_fused_l1([1.0, 2.0, 0.5], 0.1, [np.nan, 0.2, 0.3]),
    "lambda1 nan": lambda: prox_fused_l1([1.0, 2.0], np.nan, 0.1),
    "lambda1 inf": lambda: prox_fused_l1([1.0, 2.0], [0.1, np.inf], 0.1),
    "gl lambda nan": lambda: solve_gl(np.eye(2), np.nan),
    "gl lambda inf": lambda: solve_gl(np.eye(2), np.inf),
    "ggl lambda1 nan": lambda: solve_ggl([np.eye(2)] * 2, np.nan, 0.1),
    "ggl lambda2 inf": lambda: solve_ggl([np.eye(2)] * 2, 0.1, np.inf),
    "soft_threshold nan": lambda: soft_threshold(np.ones((2, 2)), np.nan),
}


@pytest.mark.parametrize("make", _NONFINITE_SETTINGS.values(), ids=_NONFINITE_SETTINGS.keys())
def test_nonfinite_weights_and_settings_fail_fast(make):
    with pytest.raises(InvalidInput, match="finite"):
        make()


def test_penalty_weights_reject_zero_layers():
    with pytest.raises(InvalidInput, match="at least one layer"):
        PenaltyWeights(np.array([]), np.array([]), 0.0, 0.0)


_MALFORMED_SETTINGS = {
    "max_iters 2.5": (lambda: SolverConfig(max_iters=2.5), "max_iters must be an integer"),
    "budget 2.5": (lambda: reference_oracle(
        JointProblem((np.eye(2),), PenaltyWeights.tied(1, 0.1, 0.1)), budget=2.5),
        "budget must be a positive integer"),
    "tau nan": (lambda: prox.prox_logdet(np.eye(2), np.eye(2), np.nan), "tau must be positive"),
    "kappa nan": (lambda: prox.prox_psd_trace(np.eye(2), np.nan), "kappa must be nonnegative"),
    "kappa nan in a stack": (lambda: prox.prox_psd_trace(np.stack([np.eye(2)] * 2), [0.1, np.nan]),
                             "kappa must be nonnegative"),
}


@pytest.mark.parametrize("make, message", _MALFORMED_SETTINGS.values(),
                         ids=_MALFORMED_SETTINGS.keys())
def test_malformed_settings_fail_fast(make, message):
    with pytest.raises(InvalidInput, match=message):
        make()


@pytest.mark.parametrize("method", ["GL", "GGL", "LVGL", "Joint", "Oracle"])
def test_solvers_reject_empty_covariance(method):
    empty = np.zeros((0, 0))
    solve = {
        "GL": lambda: solve_gl(empty, 0.1),
        "GGL": lambda: solve_ggl([empty, empty], 0.1, 0.1),
        "LVGL": lambda: solve_lvgl(empty, 0.1, 0.1),
        "Joint": lambda: solve_joint_hidden([empty], PenaltyWeights.tied(1, 0.1, 0.1)),
        "Oracle": lambda: reference_oracle(GGLProblem((empty,), 0.1, 0.0)),
    }[method]
    with pytest.raises(InvalidInput, match="at least one row"):
        solve()


def test_joint_deterministic():
    # no solver state leaks from one call into the next or into the caller's arrays
    rng = np.random.default_rng(4)
    covs = ObservedCovariances(tuple(random_tiny_instance(rng, o=4, k=2)))
    before = [c.copy() for c in covs.covs]
    w = PenaltyWeights.tied(2, 0.1, 0.2, 0.05, 0.05)
    a = solve_joint_hidden(covs, w)
    b = solve_joint_hidden(covs, w)
    assert a.objective == b.objective
    for x, y in zip(a.s_hat + a.p_hat, b.s_hat + b.p_hat):
        assert np.array_equal(x, y)
    assert np.array_equal(a.residual_history, b.residual_history)
    assert all(np.array_equal(c, d) for c, d in zip(covs.covs, before))


def test_ggl_deterministic():
    covs = random_tiny_instance(np.random.default_rng(4), o=4, k=2)
    before = [c.copy() for c in covs]
    a = solve_ggl(covs, 0.1, 0.05)
    b = solve_ggl(covs, 0.1, 0.05)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(np.array_equal(c, d) for c, d in zip(covs, before))


# Iterations to tol 1e-7 on one tiny instance per engine, measured with the
# over-relaxed driver (plain ADMM takes 117 and 43). The ceiling is 10 % above.
_MEASURED_ITERATIONS = {
    "Joint": (79, lambda covs, cfg: solve_joint_hidden(
        covs, PenaltyWeights.tied(2, 0.1, 0.2, 0.05, 0.05), cfg)),
    "GGL": (31, lambda covs, cfg: solve_ggl(covs, 0.1, 0.05, cfg)),
}


@pytest.mark.parametrize("measured, solve", _MEASURED_ITERATIONS.values(),
                         ids=_MEASURED_ITERATIONS.keys())
def test_admm_iteration_ceilings(monkeypatch, measured, solve):
    runs = []
    admm = solvers._admm
    monkeypatch.setattr(solvers, "_admm", lambda *args: runs.append(admm(*args)) or runs[-1])
    covs = random_tiny_instance(np.random.default_rng(0), o=4, k=2, m=120)
    solve(covs, SolverConfig(max_iters=20_000, tol_primal=1e-7, tol_dual=1e-7))
    ((run,),) = runs
    assert run.converged and run.iterations <= 1.1 * measured


@pytest.mark.parametrize("tol", [1e-4, 1e-5])
def test_joint_restarted_from_its_end_state_stops_at_once(tol):
    from ggm.experiments import build_config, realize_cell

    cfg = build_config("tc1", {}, k_sweep=(2,), n_realizations=12, base_seed=0)
    covs, _ = realize_cell(cfg, 0, 12)
    w = PenaltyWeights.tied(2, 0.1, 0.2, 0.05, 0.1)
    solver_cfg = SolverConfig(max_iters=2000, tol_primal=tol, tol_dual=tol)
    (s_hat,), (p_hat,), (end,) = solvers._solve_joint(covs.covs[None], (w,), solver_cfg, (None,))
    public = solve_joint_hidden(covs, w, solver_cfg)
    assert end.converged and end.iterations > 10
    assert all(np.array_equal(a, b) for a, b in zip((*s_hat, *p_hat),
                                                    public.s_hat + public.p_hat))
    duals = [u.copy() for u in end.duals]
    _, _, (again,) = solvers._solve_joint(covs.covs[None], (w,), solver_cfg, (end,))
    assert again.converged and again.iterations == 1
    assert all(np.array_equal(u, v) for u, v in zip(end.duals, duals))   # start is not modified


# ---------------------------------------------------------------------------
# the problem axis: a batch of problems gives each one the bits of its solve alone
# ---------------------------------------------------------------------------

def _same_bits(batch, alone):
    """The estimates and AdmmRun of one problem of a batch equal those of
    its solve alone, bit for bit, and every array of both runs owns its
    memory rather than viewing the batch's."""
    (estimates, run), (estimates_alone, run_alone) = batch, alone
    assert all(np.array_equal(a, b) for a, b in zip(estimates, estimates_alone))
    assert (run.iterations, run.converged, run.sigma) == \
        (run_alone.iterations, run_alone.converged, run_alone.sigma)
    arrays, arrays_alone = ((r.x + r.z + r.duals + (r.residual_history,))
                            for r in (run, run_alone))
    for a, b in zip(arrays, arrays_alone):
        assert np.array_equal(a, b)
        assert a.base is None and b.base is None


def _held_out_cell(n_problems):
    """The (n_problems, K, o, o) stack of one held-out cell's covariances."""
    from ggm.experiments import build_config, realize_cell

    cfg = build_config("tc1", {}, n=10, p=0.2, n_hidden=1, k_sweep=(2,), m=50,
                       n_realizations=1, base_seed=7)
    return np.repeat(realize_cell(cfg, 0, 1)[0].covs[None], n_problems, axis=0)


def test_joint_batch_problems_equal_their_solves_alone():
    covs = _held_out_cell(5)
    # eta 0 gives pair weights 0 next to non-zero ones; at 120 iterations
    # the problems stop at 93, 79 (two together) and 49 and one is capped
    ws = [PenaltyWeights.tied(2, r, b, r * e, b * e) for r, b, e in
          [(0.3, 0.5, 1.0), (0.05, 0.1, 0.0), (0.05, 0.1, 0.0), (0.01, 0.02, 2.0), (0.1, 0.3, 0.5)]]
    cfg = SolverConfig(max_iters=120, tol_primal=1e-4, tol_dual=1e-4)
    s_hat, p_hat, runs = solvers._solve_joint(covs, ws, cfg, (None,) * len(ws))
    assert [(run.iterations, run.converged) for run in runs] == \
        [(93, True), (79, True), (79, True), (120, False), (49, True)]
    for i, w in enumerate(ws):
        (s1,), (p1,), (run1,) = solvers._solve_joint(covs[:1], (w,), cfg, (None,))
        _same_bits(((s_hat[i], p_hat[i]), runs[i]), ((s1, p1), run1))


def test_ggl_batch_problems_equal_their_solves_alone():
    covs = _held_out_cell(4)
    lambda1, lambda2 = [0.3, 0.05, 0.01, 0.1], [0.0, 0.1, 0.02, 0.0]
    cfg = SolverConfig(max_iters=35, tol_primal=1e-4, tol_dual=1e-4)
    s_hat, runs = solvers._solve_ggl(covs, lambda1, lambda2, cfg, (None,) * 4)
    assert [(run.iterations, run.converged) for run in runs] == \
        [(34, True), (35, False), (20, True), (31, True)]
    for i, (l1, l2) in enumerate(zip(lambda1, lambda2)):
        (s1,), (run1,) = solvers._solve_ggl(covs[:1], [l1], [l2], cfg, (None,))
        _same_bits(((s_hat[i],), runs[i]), ((s1,), run1))


def test_batch_of_one_layer_problems_over_the_einsum_buffer():
    # K = 1, O = 91: each problem's blocks hold 8,281 > 8,192 entries, past
    # the iterator buffer that a 2-D einsum sums each row in
    rng = np.random.default_rng(91)
    covs = np.stack([random_pd_matrix(rng, 91) for _ in range(3)])[:, None]
    ws = [PenaltyWeights.tied(1, r, b) for r, b in [(0.1, 0.2), (0.3, 0.1), (0.05, 0.5)]]
    cfg = SolverConfig(max_iters=4)
    s_hat, p_hat, runs = solvers._solve_joint(covs, ws, cfg, (None,) * 3)
    for i, w in enumerate(ws):
        (s1,), (p1,), (run1,) = solvers._solve_joint(covs[i:i + 1], (w,), cfg, (None,))
        _same_bits(((s_hat[i], p_hat[i]), runs[i]), ((s1, p1), run1))


@pytest.mark.parametrize("size", [8_192, 8_193, 2 * 8_192 + 5])
def test_norm_of_each_problem_is_its_norm_alone(size):
    rng = np.random.default_rng(size)
    blocks = [rng.standard_normal((6, size)) * rng.uniform(0.1, 10.0, (6, 1)) for _ in range(2)]
    norms = solvers._norm(blocks)
    for p in range(6):
        alone = np.sqrt(sum(np.einsum("i,i->", b[p], b[p]) for b in blocks))
        assert norms[p] == alone


def test_batch_warm_starts_equal_their_solves_alone():
    covs = _held_out_cell(2)
    cfg = SolverConfig(max_iters=300, tol_primal=1e-4, tol_dual=1e-4)
    first = [PenaltyWeights.tied(2, 0.3, b, 0.3 * e, b * e) for b, e in [(0.1, 1.0), (0.5, 0.0)]]
    _, _, starts = solvers._solve_joint(covs, first, cfg, (None, None))
    kept = [[a.copy() for a in run.z + run.duals] for run in starts]
    then = [PenaltyWeights.tied(2, 0.1, b, 0.1 * e, b * e) for b, e in [(0.1, 1.0), (0.5, 0.0)]]
    s_hat, p_hat, runs = solvers._solve_joint(covs, then, cfg, starts)
    for i, w in enumerate(then):
        (s1,), (p1,), (run1,) = solvers._solve_joint(covs[:1], (w,), cfg, (starts[i],))
        _same_bits(((s_hat[i], p_hat[i]), runs[i]), ((s1, p1), run1))
    for run, arrays in zip(starts, kept):   # the start runs are not modified
        assert all(np.array_equal(a, b) for a, b in zip(run.z + run.duals, arrays))
    cold = solvers._solve_joint(covs, then, cfg, (None, None))[2]
    assert sum(run.iterations for run in runs) < sum(run.iterations for run in cold)

    lambda1 = [0.1, 0.05]
    _, starts = solvers._solve_ggl(covs, [0.3, 0.3], [0.1, 0.0], cfg, (None, None))
    s_hat, runs = solvers._solve_ggl(covs, lambda1, [0.1, 0.0], cfg, starts)
    for i, l2 in enumerate([0.1, 0.0]):
        (s1,), (run1,) = solvers._solve_ggl(covs[:1], [lambda1[i]], [l2], cfg, (starts[i],))
        _same_bits(((s_hat[i],), runs[i]), ((s1,), run1))


def test_joint_rejects_mismatched_layers():
    covs = ObservedCovariances((np.eye(3), np.eye(3)))
    with pytest.raises(InvalidInput):
        solve_joint_hidden(covs, PenaltyWeights.tied(3, 0.1, 0.1))


def test_joint_more_iterations_never_worse():
    rng = np.random.default_rng(5)
    covs = ObservedCovariances(tuple(random_tiny_instance(rng, o=4, k=2)))
    w = PenaltyWeights.tied(2, 0.1, 0.2, 0.05, 0.05)
    short = solve_joint_hidden(covs, w, SolverConfig(max_iters=60))
    long = solve_joint_hidden(covs, w, SolverConfig(max_iters=120))
    assert long.objective <= short.objective + SolverConfig().tol_primal


def test_joint_nonuniform_weights_match_uniform_when_equal():
    # the minimum-cut fused prox must agree with the sort/isotonic one
    rng = np.random.default_rng(6)
    covs = ObservedCovariances(tuple(random_tiny_instance(rng, o=4, k=3)))
    uni = PenaltyWeights.tied(3, 0.1, 0.2, 0.05, 0.04)
    rho_pair = uni.rho_pair.copy()
    rho_pair[0, 1] = rho_pair[1, 0] = 0.05 + 1e-12   # break exact uniformity
    nonuni = PenaltyWeights(uni.rho, uni.beta, rho_pair, uni.beta_pair)
    cfg = SolverConfig(max_iters=200)
    a = solve_joint_hidden(covs, uni, cfg)
    b = solve_joint_hidden(covs, nonuni, cfg)
    assert abs(a.objective - b.objective) <= 1e-6 * abs(a.objective)


def test_joint_rejects_nonuniform_weights_beyond_eight_layers():
    covs = [np.eye(3)] * 9
    tied = PenaltyWeights.tied(9, 0.1, 0.2, 0.05, 0.04)
    skewed = tied.rho_pair.copy()
    skewed[0, 1] = skewed[1, 0] = 0.06
    rho = tied.rho.copy()
    rho[0] = 0.2
    for w in (PenaltyWeights(rho, tied.beta, tied.rho_pair, tied.beta_pair),
              PenaltyWeights(tied.rho, tied.beta, skewed, tied.beta_pair),
              PenaltyWeights(tied.rho, tied.beta, tied.rho_pair, skewed)):
        with pytest.raises(InvalidInput, match="PenaltyWeights.tied"):
            solve_joint_hidden(covs, w, SolverConfig(max_iters=2))
    # per-layer trace weights do not enter the fused prox
    beta = tied.beta.copy()
    beta[0] = 0.5
    solve_joint_hidden(covs, PenaltyWeights(tied.rho, beta, tied.rho_pair, tied.beta_pair),
                       SolverConfig(max_iters=2))
    # a single prox vector keeps the general path
    z = prox_fused_l1(np.arange(9.0), 0.1, skewed)
    assert np.all(np.isfinite(z))


def test_joint_nonuniform_weights_at_eight_layers():
    rng = np.random.default_rng(8)
    covs = [random_pd_matrix(rng, 28) for _ in range(8)]
    rho_pair = rng.uniform(0.02, 0.08, (8, 8))
    w = PenaltyWeights(rng.uniform(0.05, 0.15, 8), np.full(8, 0.1),
                       rho_pair + rho_pair.T, np.full((8, 8), 0.05))
    est = solve_joint_hidden(covs, w, SolverConfig(max_iters=3))
    assert est.iterations == 3 and np.isfinite(est.objective)


@pytest.mark.parametrize("k, diagonal", [(3, False), (3, True), (1, False)])
def test_symmetric_fused_prox_is_full_update_of_symmetric_part(k, diagonal):
    rng = np.random.default_rng(10 + k)
    o = 6
    v = rng.normal(0.0, 0.5, (k, o, o))            # not symmetric
    sym = (0.5 * (v + np.swapaxes(v, 1, 2))).reshape(k, -1)
    rho = np.full(k, 0.1)
    pair = np.full((k, k), 0.07)
    sigma = 0.8
    # S block: strict upper triangle, plus the diagonal when diagonal is set
    got = symmetric_fused_prox(rho, pair, o, diagonal)(v, sigma).reshape(k, -1)
    want = sym.copy()
    cols = np.ones(o * o, dtype=bool) if diagonal else ~np.eye(o, dtype=bool).ravel()
    want[:, cols] = _fused_columns(rho, pair, 8)(sym[:, cols], sigma)
    assert np.max(np.abs(got - want)) <= 1e-12
    # P block: upper triangle with the diagonal, no l1 weight
    got = symmetric_fused_prox(np.zeros(k), pair, o, True)(v, sigma).reshape(k, -1)
    assert np.max(np.abs(got - _fused_columns(np.zeros(k), pair, 8)(sym, sigma))) <= 1e-12


def test_fused_path_is_chosen_once_per_block(monkeypatch):
    # the fused prox of S and of P each choose their path once per solve,
    # not once per iteration
    calls = []
    is_uniform = prox._is_uniform
    monkeypatch.setattr(prox, "_is_uniform", lambda *a: calls.append(a) or is_uniform(*a))
    rng = np.random.default_rng(12)
    covs = random_tiny_instance(rng, o=4, k=3)
    cfg = SolverConfig(max_iters=30, tol_primal=1e-14, tol_dual=1e-14)
    est = solve_joint_hidden(covs, PenaltyWeights.tied(3, 0.1, 0.2, 0.05, 0.04), cfg)
    assert est.iterations == 30 and len(calls) == 2
    calls.clear()
    solve_lvgl(covs[0], 0.1, 0.2, cfg)
    assert len(calls) == 2


# (O, traced peak MiB, seconds) bounds for 3 iterations at K = 16. Measured
# on a 2-core x86-64 machine: 2.5 MiB and 0.05 s at O = 28; 125 MiB (the
# input stack is 4.9 MiB) and 1.1-1.4 s at O = 200.
@pytest.mark.parametrize("o, peak_mib, seconds", [(28, 16, 10.0), (200, 256, 30.0)],
                         ids=["28", "200"])
def test_joint_sixteen_layers_bounded_memory(o, peak_mib, seconds):
    # a fused prox exponential in K would need gigabytes here
    rng = np.random.default_rng(16)
    covs = [random_pd_matrix(rng, o) for _ in range(16)]
    w = PenaltyWeights.tied(16, 0.1, 0.1, 0.05, 0.05)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        est = solve_joint_hidden(covs, w, SolverConfig(max_iters=3))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.iterations == 3 and np.isfinite(est.objective)
    assert peak < peak_mib * 2 ** 20
    assert elapsed < seconds


# ---------------------------------------------------------------------------
# baselines and reduction identities
# ---------------------------------------------------------------------------

def test_gl_diagonal_covariance():
    c = np.diag([0.5, 2.0, 4.0])
    s = solve_gl(c, 0.3, TIGHT)
    assert np.allclose(s, np.diag([2.0, 0.5, 0.25]), atol=1e-6)


def test_gl_is_one_layer_ggl_without_group_weight():
    rng = np.random.default_rng(17)
    c = random_tiny_instance(rng, o=5, k=1, m=40)[0]
    assert np.array_equal(solve_gl(c, 0.1), solve_ggl([c], 0.1, 0.0)[0])


def test_gl_full_shrinkage():
    rng = np.random.default_rng(7)
    c = random_pd_matrix(rng, 4)
    s = solve_gl(c, 50.0, TIGHT)
    off = ~np.eye(4, dtype=bool)
    assert np.all(s[off] == 0.0)


def test_gl_matches_joint_with_huge_beta():
    rng = np.random.default_rng(8)
    c = 0.5 * (random_pd_matrix(rng, 4) + random_pd_matrix(rng, 4).T)
    c = 0.5 * (c + c.T)
    lam = 0.1
    s_gl = solve_gl(c, lam, TIGHT)
    est = solve_joint_hidden(
        ObservedCovariances((c,)),
        PenaltyWeights.tied(1, lam, 1e6), TIGHT)
    assert np.linalg.norm(s_gl - est.s_hat[0]) < 1e-3


def test_lvgl_equals_joint_k1():
    rng = np.random.default_rng(9)
    c = random_tiny_instance(rng, o=4, k=1)[0]
    s, p = solve_lvgl(c, 0.1, 0.2)
    est = solve_joint_hidden(
        ObservedCovariances((c,)), PenaltyWeights.tied(1, 0.1, 0.2))
    assert np.array_equal(s, est.s_hat[0])
    assert np.array_equal(p, est.p_hat[0])
    obj = joint_objective([s], [p], [c], PenaltyWeights.tied(1, 0.1, 0.2))
    assert abs(obj - est.objective) <= 1e-6 * abs(est.objective)


def test_lvgl_converges_at_small_weights_on_tc1():
    # a held-out tc1 cell where too strong an over-relaxation (1.6) hits the cap
    from ggm.experiments import build_config, realize_cell

    cfg = build_config("tc1", {}, k_sweep=(2,), n_realizations=12, base_seed=0)
    covs, _ = realize_cell(cfg, 0, 12)
    est = solve_joint_hidden([covs.covs[1]], PenaltyWeights.tied(1, 0.01, 0.01),
                             SolverConfig(max_iters=800, tol_primal=1e-4, tol_dual=1e-4))
    assert est.converged


def test_lvgl_huge_beta_reduces_to_gl():
    rng = np.random.default_rng(10)
    c = random_tiny_instance(rng, o=5, k=1)[0]
    s, p = solve_lvgl(c, 0.1, 1e6, TIGHT)
    assert np.max(np.abs(p)) <= 1e-4
    s_gl = solve_gl(c, 0.1, TIGHT)
    assert np.linalg.norm(s - s_gl) < 1e-3


def test_ggl_decouples_without_group_weight():
    rng = np.random.default_rng(11)
    covs = random_tiny_instance(rng, o=4, k=3, m=80)
    joint = solve_ggl(covs, 0.1, 0.0, TIGHT)
    singles = [solve_gl(c, 0.1, TIGHT) for c in covs]
    for a, b in zip(joint, singles):
        assert np.linalg.norm(a - b) < 1e-6


def test_ggl_identical_covariances_fuse():
    rng = np.random.default_rng(12)
    c = random_pd_matrix(rng, 4)
    out = solve_ggl([c, c], 0.05, 5.0, TIGHT)
    assert np.linalg.norm(out[0] - out[1]) < 1e-8


def test_ggl_rejects_negative_weights():
    with pytest.raises(InvalidInput):
        solve_ggl([np.eye(2)], -0.1, 0.0)


# ---------------------------------------------------------------------------
# reference oracle
# ---------------------------------------------------------------------------

def test_oracle_unpenalized_recovers_inverse():
    rng = np.random.default_rng(13)
    c = random_pd_matrix(rng, 3, min_eig=0.5)
    c = 0.5 * (c + c.T)
    sol = reference_oracle(GGLProblem((c,), 0.0, 0.0), budget=20_000)
    assert np.max(np.abs(sol.s_hat[0] - np.linalg.inv(c))) < 1e-3


def test_oracle_start_insensitive():
    rng = np.random.default_rng(14)
    covs = random_tiny_instance(rng, o=3, k=2)
    w = PenaltyWeights.tied(2, 0.1, 0.2, 0.05, 0.05)
    problem = JointProblem(tuple(covs), w)
    a = reference_oracle(problem, budget=20_000)
    start = ([3.0 * np.eye(3)] * 2, [0.5 * np.eye(3)] * 2)
    b = reference_oracle(problem, budget=20_000, start=start)
    assert abs(a.objective - b.objective) <= 2e-3 * max(1.0, abs(a.objective))


def test_oracle_output_feasible():
    rng = np.random.default_rng(15)
    covs = random_tiny_instance(rng, o=4, k=2)
    w = PenaltyWeights.tied(2, 0.2, 0.3, 0.1, 0.1)
    sol = reference_oracle(JointProblem(tuple(covs), w), budget=3000)
    for s, p in zip(sol.s_hat, sol.p_hat):
        assert np.linalg.eigvalsh(p).min() >= -1e-10
        assert np.linalg.eigvalsh(s - p).min() >= 1e-8 - 1e-10
    assert np.isfinite(sol.objective)
    assert sol.objective == joint_objective(sol.s_hat, sol.p_hat, covs, w)
    sol = reference_oracle(GGLProblem(tuple(covs), 0.2, 0.1), budget=3000)
    assert all(np.linalg.eigvalsh(s).min() >= 1e-8 - 1e-10 for s in sol.s_hat)
    assert all(not p.any() for p in sol.p_hat)
    assert np.isfinite(sol.objective)
    assert sol.objective == ggl_objective(sol.s_hat, covs, 0.2, 0.1)


def test_oracle_rejects_large_instances():
    with pytest.raises(InvalidInput):
        reference_oracle(GGLProblem((np.eye(6),), 0.1, 0.0))


def test_admm_matches_oracle_on_tiny_instances():
    rng = np.random.default_rng(16)
    for _ in range(3):
        covs = random_tiny_instance(rng, o=4, k=2, m=120)
        rho, beta = float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.4))
        rho_p, beta_p = float(rng.uniform(0.0, 0.15)), float(rng.uniform(0.0, 0.15))
        w = PenaltyWeights.tied(2, rho, beta, rho_p, beta_p)
        est = solve_joint_hidden(ObservedCovariances(tuple(covs)), w, TIGHT)
        oracle = reference_oracle(JointProblem(tuple(covs), w), budget=12_000)
        assert abs(est.objective - oracle.objective) <= 1e-3 * abs(oracle.objective)

        lam1, lam2 = float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.02, 0.2))
        s_ggl = solve_ggl(covs, lam1, lam2, TIGHT)
        obj_ggl = ggl_objective(s_ggl, covs, lam1, lam2)
        o_ggl = reference_oracle(GGLProblem(tuple(covs), lam1, lam2), budget=12_000)
        assert abs(obj_ggl - o_ggl.objective) <= 1e-3 * abs(o_ggl.objective)

        s_lv, p_lv = solve_lvgl(covs[0], rho, beta, TIGHT)
        obj_lv = joint_objective([s_lv], [p_lv], [covs[0]], PenaltyWeights.tied(1, rho, beta))
        o_lv = reference_oracle(
            JointProblem((covs[0],), PenaltyWeights.tied(1, rho, beta)), budget=12_000)
        assert abs(obj_lv - o_lv.objective) <= 1e-3 * abs(o_lv.objective)


# ---------------------------------------------------------------------------
# statistical premise: fusion helps at K=4 on rewired families
# ---------------------------------------------------------------------------

def test_joint_median_error_beats_lvgl_on_related_graphs():
    from ggm.experiments import build_config, realize_cell

    cfg = build_config(
        "tc1", {}, k_sweep=(4,), n_realizations=20, max_iters=600,
        tol_primal=1e-4, tol_dual=1e-4)
    joint_errs, lvgl_errs = [], []
    solver_cfg = cfg.solver_config()
    w = PenaltyWeights.tied(4, 0.0316, 0.316, 0.0316 * 0.5, 0.316 * 0.5)
    for r in range(20):
        covs, truths = realize_cell(cfg, 0, r)
        est = solve_joint_hidden(covs, w, solver_cfg)
        joint_errs.append(mean_normalized_error(list(est.s_hat), truths))
        lv = [solve_lvgl(c, 0.0316, 0.316, solver_cfg)[0] for c in covs.covs]
        lvgl_errs.append(mean_normalized_error(lv, truths))
    assert np.median(joint_errs) <= np.median(lvgl_errs)


def test_gl_objective_helpers():
    c = np.eye(3)
    assert ggl_objective([np.eye(3)], [c], 0.0, 0.0) == pytest.approx(3.0)
    assert ggl_objective([np.diag([1.0, -1.0, 1.0])], [np.eye(3)], 0.1, 0.0) == np.inf
