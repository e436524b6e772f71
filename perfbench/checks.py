"""Output checks that do not trust the program under test.

Each check recomputes what it needs by a route of its own: the fused-l1
prox from its dual (a bounded least-squares problem solved by scipy's
BVLS), log-determinants from Cholesky factors, nuclear norms from
singular values, and the normalised error from its definition. Every
check returns a list of failure messages; an empty list means the output
passed. ``selftest.py`` shows that each check rejects a perturbed output.
"""
from itertools import combinations

import numpy as np
from scipy.optimize import lsq_linear

# Slack of the fused-prox duality gap, relative to max(1, ||v||^2), and of
# the distance to the certificate's prox, relative to max(1, max |v|).
GAP_TOL = 64 * np.finfo(float).eps
PROX_TOL = 1e-10
# Slack of objective and error comparisons, relative to max(1, |value|).
VALUE_TOL = 1e-9
# The S-block fixed-point residual of a solve stopped at relative
# residual tol stays below RESIDUAL_FACTOR * tol.
RESIDUAL_FACTOR = 50.0


def _fused_operator(k, lam, pair_weight):
    """A = [lam I; w D] with D the (K choose 2) x K pairwise-difference matrix."""
    pairs = list(combinations(range(k), 2))
    diff = np.zeros((len(pairs), k))
    for row, (i, j) in enumerate(pairs):
        diff[row, i] = 1.0
        diff[row, j] = -1.0
    return np.vstack([lam * np.eye(k), pair_weight * diff])


def fused_primal(z, v, lam, pair_weight):
    """1/2 ||z - v||^2 + lam ||z||_1 + w sum_{i<j} |z_i - z_j|."""
    a = _fused_operator(len(v), lam, pair_weight)
    return 0.5 * float(np.sum((z - v) ** 2)) + float(np.abs(a @ z).sum())


def fused_certificate(v, lam, pair_weight):
    """Exact fused-l1 prox of v and the optimal dual value.

    The prox is min_z 1/2 ||z - v||^2 + ||A z||_1; its dual is
    max_{|u| <= 1} 1/2 ||v||^2 - 1/2 ||v - A^T u||^2, a bounded least-squares
    problem, and z = v - A^T u at the optimum.
    """
    v = np.asarray(v, dtype=float)
    a = _fused_operator(v.size, lam, pair_weight)
    u = lsq_linear(a.T, v, bounds=(-1.0, 1.0), method="bvls").x
    z = v - a.T @ u
    return z, 0.5 * float(v @ v) - 0.5 * float(z @ z)


def check_fused_prox(v_cols, z_cols, lam, pair_weight, label):
    """Duality gap of the program's prox output z_cols (K, n) at inputs v_cols.

    The gap bounds 1/2 ||z - prox(v)||^2, so it certifies z to about the
    square root of its slack; the distance to the certificate's own prox
    is checked as well, to the last digits.
    """
    errors = []
    for c in range(v_cols.shape[1]):
        v, z = v_cols[:, c], z_cols[:, c]
        z_cert, dual = fused_certificate(v, lam, pair_weight)
        gap = fused_primal(z, v, lam, pair_weight) - dual
        if not abs(gap) <= GAP_TOL * max(1.0, float(v @ v)):
            errors.append(f"{label}: fused prox column {c} has duality gap {gap:.3e}")
        dist = float(np.abs(z - z_cert).max())
        if not dist <= PROX_TOL * max(1.0, float(np.abs(v).max())):
            errors.append(f"{label}: fused prox column {c} is {dist:.3e} from the certificate")
    return errors


def _logdet_chol(m):
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(m)))))


def joint_objective(s, p, covs, rho, beta, rho_pair, beta_pair):
    """The joint problem's objective with tied weights, off-diagonal l1 on S."""
    k = len(covs)
    off = 1.0 - np.eye(covs[0].shape[0])
    total = 0.0
    for i in range(k):
        r = s[i] - p[i]
        total += float(np.sum(r * covs[i])) - _logdet_chol(r)
        total += rho * float(np.abs(s[i] * off).sum())
        total += beta * float(np.linalg.norm(p[i], "nuc"))
    for i in range(k):
        for j in range(i + 1, k):
            total += rho_pair * float(np.abs((s[i] - s[j]) * off).sum())
            total += beta_pair * float(np.abs(p[i] - p[j]).sum())
    return total


def s_block_residual(s, p, covs, rho, rho_pair):
    """||S - prox_g(S - (C - (S - P)^-1))|| / ||S|| over all layers.

    g is the S-part of the penalty: off-diagonal l1 plus fused l1, so
    prox_g acts entrywise across layers and leaves the diagonal alone.
    It is evaluated by the dual certificate, one upper-triangle entry at a
    time, and mirrored to the lower triangle.
    """
    s = np.stack(s)
    grad = np.stack([covs[i] - np.linalg.inv(s[i] - p[i]) for i in range(len(covs))])
    g = s - 0.5 * (grad + np.swapaxes(grad, 1, 2))
    prox = g.copy()
    for i, j in zip(*np.triu_indices(s.shape[1], 1)):
        z, _ = fused_certificate(g[:, i, j], rho, rho_pair)
        prox[:, i, j] = prox[:, j, i] = z
    return float(np.linalg.norm(s - prox) / np.linalg.norm(s))


def check_joint_estimate(est, covs, rho, beta, rho_pair, beta_pair, tol, label,
                         residual=True):
    """Convergence, feasibility, objective and (optionally) optimality of one solve."""
    errors = []
    if not est.converged:
        errors.append(f"{label}: solve did not converge in {est.iterations} iterations")
    for i, (s, p) in enumerate(zip(est.s_hat, est.p_hat)):
        p_min = float(np.linalg.eigvalsh(p).min())
        if p_min < -1e-10 * max(1.0, float(np.linalg.norm(p))):
            errors.append(f"{label}: P[{i}] is not PSD (min eigenvalue {p_min:.3e})")
        try:
            np.linalg.cholesky(s - p)
        except np.linalg.LinAlgError:
            errors.append(f"{label}: S[{i}] - P[{i}] is not positive definite")
    if errors:
        return errors
    own = joint_objective(est.s_hat, est.p_hat, covs, rho, beta, rho_pair, beta_pair)
    if not abs(own - est.objective) <= VALUE_TOL * max(1.0, abs(own)):
        errors.append(f"{label}: reported objective {est.objective!r} != recomputed {own!r}")
    if residual:
        res = s_block_residual(est.s_hat, est.p_hat, covs, rho, rho_pair)
        if not res <= RESIDUAL_FACTOR * tol:
            errors.append(f"{label}: S-block fixed-point residual {res:.3e} "
                          f"exceeds {RESIDUAL_FACTOR:g} x tol = {RESIDUAL_FACTOR * tol:.1e}")
    return errors


def normalized_error(estimates, truths):
    """(1/K) sum_k || E_k/||E_k||_F - T_k/||T_k||_F ||_F^2."""
    per_layer = [np.sum((e / np.linalg.norm(e) - t / np.linalg.norm(t)) ** 2)
                 for e, t in zip(estimates, truths)]
    return float(np.mean(per_layer))


def check_run_result(result, cfg, n_methods):
    """Invocation counts, error ranges and selected grid points of one sweep."""
    errors = []
    n_sweep = len(cfg.sweep)
    n_rho, n_beta, n_eta = len(cfg.rho_grid), len(cfg.beta_grid), len(cfg.eta_grid)
    per_value = n_rho + n_rho * n_rho + n_rho * n_beta + n_rho * n_beta * n_eta
    if result.selection_invocations != n_sweep * per_value:
        errors.append(f"selection_invocations {result.selection_invocations} "
                      f"!= {n_sweep * per_value}")
    expected_mc = n_methods * n_sweep * cfg.n_realizations
    if result.mc_invocations != expected_mc:
        errors.append(f"mc_invocations {result.mc_invocations} != {expected_mc}")
    raw = np.asarray(result.raw_errors)
    if raw.shape != (n_sweep, n_methods, cfg.n_realizations):
        errors.append(f"raw_errors has shape {raw.shape}")
        return errors
    if not np.all(np.isfinite(raw)) or raw.min() < 0.0 or raw.max() > 4.0:
        errors.append("raw errors are not all finite and within [0, 4]")
    if not np.allclose(result.table.errors, raw.mean(axis=2), rtol=1e-12, atol=0.0):
        errors.append("table errors are not the realization means of raw_errors")
    grids = {"gl_lam": cfg.rho_grid, "ggl_l1": cfg.rho_grid, "ggl_l2": cfg.rho_grid,
             "lv_rho": cfg.rho_grid, "lv_beta": cfg.beta_grid, "joint_rho": cfg.rho_grid,
             "joint_beta": cfg.beta_grid, "joint_eta": cfg.eta_grid}
    if sorted(result.selected) != sorted(cfg.sweep):
        errors.append(f"selected parameters cover {sorted(result.selected)}")
    for value, params in result.selected.items():
        for name, grid in grids.items():
            if getattr(params, name) not in grid:
                errors.append(f"selected[{value}].{name} = {getattr(params, name)} "
                              "is not a grid point")
    return errors


def check_cell_errors(table_errors, own_errors, label, methods):
    """A re-solved cell's own-formula errors against the sweep's raw errors."""
    errors = []
    for name, got, own in zip(methods, table_errors, own_errors):
        if not abs(got - own) <= VALUE_TOL * max(1.0, abs(own)):
            errors.append(f"{label}: {name} error {got!r} != recomputed {own!r}")
    return errors
