"""Estimators for multi-layer Gaussian graphical models with hidden nodes.

The main estimator recovers, for K related graphs, the observed block of
each precision matrix S_O plus a low-rank PSD term P that accounts for
marginalized hidden nodes, by minimizing

    sum_k  tr((S_O - P) C_O) - logdet(S_O - P) + rho_k ||S_O||_1
           + beta_k ||P||_*
    + sum_{k<k'}  rho_kk' ||S_O^k - S_O^k'||_1 + beta_kk' ||P^k - P^k'||_1

subject to P >= 0 and S_O - P > 0. It is solved by consensus ADMM: one
copy per objective term (log-det barrier, fused l1 on S, trace-plus-PSD
on P, fused l1 on P), tied to consensus variables (Z_S, Z_P) through the
linear map x = (Z_S - Z_P, Z_S, Z_P, Z_P). Each block's prox is one
stack kernel of `prox`: prox_logdet, symmetric_fused_prox (which also
picks the fused path and its layer limit) on S and on P, and
prox_psd_trace. The group graphical lasso (GGL) reuses the same kernels;
it and the joint estimator share one scaled-form ADMM loop, `_admm`, and
differ only in their prox steps and linear maps. The single-graph
baselines are their one-layer cases: the graphical lasso (GL) is GGL at
one layer with lambda2 = 0, and the latent-variable graphical lasso
(LVGL) is the joint estimator at K = 1.

A slow projected-subgradient reference solver for tiny instances is
provided as an independent check of the ADMM solutions.
"""
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInput, NumericalError
from .prox import (
    _pair_weight_matrix,
    fused_prox_stack,  # noqa: F401  (perfbench/spans.py wraps solvers.fused_prox_stack)
    prox_logdet,
    prox_psd_trace,
    soft_threshold,
    symmetric_fused_prox,
    symmetrize,
)
from .sampling import ObservedCovariances

_EPS = 1e-12
# Smallest eigenvalue of S - P that the solvers return and the oracle keeps.
_PD_FLOOR = 1e-8
# Residual balancing: the step grows or shrinks by _ADAPT_FACTOR when one
# relative residual exceeds the other by more than _ADAPT_RATIO.
_ADAPT_RATIO = 10.0
_ADAPT_FACTOR = 2.0


class AdmissibleSet(Enum):
    """Constraint set for the sparse estimates S_O."""

    SYMMETRIC = "symmetric"
    NONPOSITIVE_OFFDIAG = "nonpositive_offdiag"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and constraint set shared by all solvers.

    Every ADMM solve starts from step 1, which residual balancing then
    adapts, and floors the spectrum of its returned S - P at 1e-8.
    """

    max_iters: int = 2000
    tol_primal: float = 1e-5
    tol_dual: float = 1e-5
    admissible_set: AdmissibleSet = AdmissibleSet.SYMMETRIC

    def __post_init__(self):
        if isinstance(self.admissible_set, str):
            object.__setattr__(self, "admissible_set", AdmissibleSet(self.admissible_set.lower()))
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise InvalidInput(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (0 < self.tol_primal < np.inf and 0 < self.tol_dual < np.inf):
            raise InvalidInput("tolerances must be positive and finite")


@dataclass(frozen=True)
class PenaltyWeights:
    """Per-layer and per-pair regularization weights.

    rho/beta are length-K vectors (l1 on S, trace/nuclear on P);
    rho_pair/beta_pair are symmetric K x K matrices whose (k, k') entry
    weights the fused penalty between layers k and k' (a scalar serves
    every pair). All weights must be finite and nonnegative. The l1 and fused
    terms on S skip the diagonal unless penalize_diagonal is set; the
    fused term on P always covers all entries.
    """

    rho: np.ndarray
    beta: np.ndarray
    rho_pair: np.ndarray
    beta_pair: np.ndarray
    penalize_diagonal: bool = False

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        k = rho.size
        if k < 1:
            raise InvalidInput("weights need at least one layer")
        if beta.size != k:
            raise InvalidInput("rho and beta must have one entry per layer")
        if not (np.isfinite(rho).all() and np.isfinite(beta).all()):
            raise InvalidInput("rho and beta must be finite")
        if min(rho.min(), beta.min()) < 0:
            raise InvalidInput("all penalty weights must be nonnegative")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "rho_pair", _pair_weight_matrix(self.rho_pair, k, "rho_pair"))
        object.__setattr__(self, "beta_pair", _pair_weight_matrix(self.beta_pair, k, "beta_pair"))

    @classmethod
    def tied(cls, n_layers: int, rho: float, beta: float, rho_pair: float = 0.0,
             beta_pair: float = 0.0, penalize_diagonal: bool = False):
        """All layers share one rho/beta and all pairs one fusion weight."""
        return cls(np.full(n_layers, float(rho)), np.full(n_layers, float(beta)),
                   float(rho_pair), float(beta_pair), penalize_diagonal)

    @property
    def n_layers(self) -> int:
        return self.rho.size


@dataclass(frozen=True)
class JointEstimate:
    """Solution of the joint problem plus convergence diagnostics."""

    s_hat: tuple
    p_hat: tuple
    objective: float
    iterations: int
    converged: bool
    residual_history: np.ndarray   # (iterations, 2): relative primal/dual


def _as_cov_list(covs):
    if isinstance(covs, ObservedCovariances):
        return list(covs.covs)
    return [symmetrize(c) for c in covs]


def _cov_stack(covs):
    """The symmetrized covariances as one (K, o, o) stack, for the solvers.

    Raises InvalidInput when none is given, when they differ in
    dimension, when they are empty or when one has a non-finite entry.
    """
    cov_list = _as_cov_list(covs)
    if not cov_list:
        raise InvalidInput("need at least one covariance")
    if any(c.shape != cov_list[0].shape for c in cov_list):
        raise InvalidInput("covariances must share one dimension")
    if cov_list[0].size == 0:
        raise InvalidInput("covariances must have at least one row")
    stack = np.asarray(cov_list)
    if not np.isfinite(stack).all():
        bad = next(i for i, c in enumerate(cov_list) if not np.isfinite(c).all())
        raise InvalidInput(f"covariance of layer {bad} has non-finite entries")
    return stack


# ---------------------------------------------------------------------------
# Objective values
# ---------------------------------------------------------------------------

def _l1_off(a, penalize_diagonal):
    """l1 norm of each matrix in the stack a (..., o, o), skipping the
    diagonal unless penalize_diagonal is set."""
    total = np.abs(a).sum(axis=(-2, -1))
    if penalize_diagonal:
        return total
    return total - np.abs(np.diagonal(a, axis1=-2, axis2=-1)).sum(axis=-1)


def joint_objective(s, p, covs, w: PenaltyWeights) -> float:
    """Objective of the joint hidden-variable problem; +inf when any
    S^k - P^k is not positive definite.

    The nuclear norm of the symmetric P^k is evaluated as the sum of
    absolute eigenvalues, which reduces to the trace on the PSD cone.
    """
    cov_list = _as_cov_list(covs)
    k = len(cov_list)
    if len(s) != k or len(p) != k or w.n_layers != k:
        raise InvalidInput("s, p, covs and weights must agree on the number of layers")
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    r = s - p
    lam = np.linalg.eigvalsh(r)
    if lam.min() <= 0:
        return np.inf
    fit = (r * np.asarray(cov_list)).sum(axis=(1, 2)) - np.log(lam).sum(axis=1)
    l1 = _l1_off(s, w.penalize_diagonal)
    nuclear = np.abs(np.linalg.eigvalsh(p)).sum(axis=1)
    iu = [i for i in range(k) for _ in range(i + 1, k)]
    ju = [j for i in range(k) for j in range(i + 1, k)]
    l1_pair = _l1_off(s[iu] - s[ju], w.penalize_diagonal)
    l1_pair_p = np.abs(p[iu] - p[ju]).sum(axis=(1, 2))
    # summed layer by layer, then pair by pair, in a fixed order
    total = 0.0
    for i in range(k):
        total += float(fit[i])
        total += w.rho[i] * l1[i]
        total += w.beta[i] * float(nuclear[i])
    for n, (i, j) in enumerate(zip(iu, ju)):
        total += w.rho_pair[i, j] * l1_pair[n]
        total += w.beta_pair[i, j] * float(l1_pair_p[n])
    return total


def ggl_objective(s_list, covs, lambda1: float, lambda2: float,
                  penalize_diagonal: bool = False) -> float:
    """Group graphical lasso: per-layer graphical-lasso terms
    tr(S C) - logdet S + lambda1 ||S||_1 plus a cross-layer group-l2
    penalty on every (off-diagonal) entry; +inf when some S^k is not
    positive definite. At one layer with lambda2 = 0 this is the
    graphical-lasso objective."""
    stack = np.asarray(s_list, dtype=float)
    ev = np.linalg.eigvalsh(stack)
    if ev.min() <= 0:
        return np.inf
    terms = (stack * np.asarray(_as_cov_list(covs))).sum(axis=(-2, -1)) \
        - np.log(ev).sum(axis=-1) + lambda1 * _l1_off(stack, penalize_diagonal)
    total = 0.0
    for term in terms:
        total += term
        if not np.isfinite(total):
            return np.inf
    if not penalize_diagonal:
        off = ~np.eye(stack.shape[1], dtype=bool)
        stack = stack * off
    total += lambda2 * float(np.sqrt(np.sum(stack ** 2, axis=0)).sum())
    return total


# ---------------------------------------------------------------------------
# Shared pieces of the splitting loops
# ---------------------------------------------------------------------------

def _project_admissible(a, admissible_set):
    if admissible_set is AdmissibleSet.NONPOSITIVE_OFFDIAG:
        diag = np.diagonal(a, axis1=-2, axis2=-1).copy()
        a = np.minimum(a, 0.0)
        idx = np.arange(a.shape[-1])
        a[..., idx, idx] = diag
    return a


def _rebalance(sigma, duals, rp, rd):
    """Residual balancing (Boyd et al., ADMM, FnT-ML 2011, sec. 3.4.1):
    scale the step, and the scaled duals inversely, when one relative
    residual dominates the other."""
    if rp > _ADAPT_RATIO * rd and sigma * _ADAPT_FACTOR <= 1e6:
        sigma *= _ADAPT_FACTOR
        for u in duals:
            u /= _ADAPT_FACTOR
    elif rd > _ADAPT_RATIO * rp and sigma / _ADAPT_FACTOR >= 1e-6:
        sigma /= _ADAPT_FACTOR
        for u in duals:
            u *= _ADAPT_FACTOR
    return sigma


def _norm(*arrays):
    return float(np.sqrt(sum(np.sum(a * a) for a in arrays)))


def _admm(x_proxes, z_step, lift, z0, cfg, name):
    """Scaled-form ADMM for min sum_i f_i(x_i) + g(z) s.t. x = lift(z).

    x_proxes holds one function per x-block: x_proxes[i](v_i, sigma) is
    the prox of f_i / sigma at the anchor v_i = lift(z)_i - u_i (each
    anchor is formed just before its prox, so only one is alive at a
    time). z_step(t, sigma) returns the z minimizing g(z)
    + (sigma/2) ||lift(z) - t||^2 at t = x + u; lift is linear and maps
    the tuple z to the tuple of x-blocks. Stops when the primal and
    dual residuals, relative to the size of the iterates and of the
    duals, both fall below the tolerances (Boyd et al., sec. 3.3);
    otherwise rebalances the step.

    Returns (x, z, iterations, converged, residual_history), with the
    history an (iterations, 2) array of relative primal/dual residuals.

    Raises
    ------
    NumericalError
        If a residual becomes non-finite.
    """
    z = tuple(z0)
    lz = lift(z)
    duals = [np.zeros_like(v) for v in lz]
    sigma = 1.0
    history = []
    converged = False
    for it in range(cfg.max_iters):
        x = [prox(v - u, sigma) for prox, v, u in zip(x_proxes, lz, duals)]
        z_new = z_step([xi + u for xi, u in zip(x, duals)], sigma)
        dz = [new - old for new, old in zip(z_new, z)]
        z, lz = z_new, lift(z_new)
        gap = [xi - v for xi, v in zip(x, lz)]
        for u, g in zip(duals, gap):
            u += g
        prim = _norm(*gap)
        dual = sigma * _norm(*lift(dz))
        if not np.isfinite(prim) or not np.isfinite(dual):
            raise NumericalError(f"{name} diverged (non-finite residuals)")
        rp = prim / max(_norm(*x), _norm(*lz), _EPS)
        rd = dual / max(sigma * _norm(*duals), _EPS)
        history.append((rp, rd))
        if rp <= cfg.tol_primal and rd <= cfg.tol_dual:
            converged = True
            break
        sigma = _rebalance(sigma, duals, rp, rd)
    return x, z, it + 1, converged, np.asarray(history)


def _floor_spectrum(s, p):
    """Symmetrize the stack s (K, o, o) and shift each S^k by a multiple of
    the identity so that S^k - P^k (S^k when p is None) has no eigenvalue
    below _PD_FLOOR. A guard for capped exits; a no-op on converged ones."""
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    lam_min = np.linalg.eigvalsh(s if p is None else s - p).min(axis=-1)
    low = lam_min < _PD_FLOOR
    if low.any():
        s[low] += (_PD_FLOOR - lam_min[low])[:, None, None] * np.eye(s.shape[-1])
    return s


# ---------------------------------------------------------------------------
# Joint estimator
# ---------------------------------------------------------------------------

def solve_joint_hidden(covs, w: PenaltyWeights, cfg: SolverConfig = SolverConfig()) -> JointEstimate:
    """Jointly estimate (S_O^k, P^k) for all layers by consensus ADMM.

    Four x-blocks, one per objective term (log-det barrier, fused l1 on
    S, trace-plus-PSD on P, fused l1 on P), are tied to the consensus
    variables (Z_S, Z_P) by x = (Z_S - Z_P, Z_S, Z_P, Z_P). The returned
    s_hat carry the exact zeros of the l1 prox; p_hat are exactly PSD.

    Raises
    ------
    InvalidInput
        If a covariance is not finite, or, before the first iteration, if
        K > 8 and rho, rho_pair or beta_pair are not uniform across layers
        (see PenaltyWeights.tied): prox.symmetric_fused_prox builds the
        fused prox, which for non-uniform weights enumerates 2^K cuts.
    """
    cov_stack = _cov_stack(covs)
    k, o, _ = cov_stack.shape
    if w.n_layers != k:
        raise InvalidInput(f"weights describe {w.n_layers} layers but {k} covariances given")
    s_fused = symmetric_fused_prox(w.rho, w.rho_pair, o, w.penalize_diagonal)
    p_fused = symmetric_fused_prox(np.zeros(k), w.beta_pair, o, True)

    def s_prox(v, sigma):
        return _project_admissible(s_fused(v, sigma), cfg.admissible_set)

    x_proxes = (lambda v, sigma: prox_logdet(v, cov_stack, sigma), s_prox,
                lambda v, sigma: prox_psd_trace(v, w.beta / sigma), p_fused)

    def z_step(t, sigma):
        # least-squares consensus for x = (Z_S - Z_P, Z_S, Z_P, Z_P)
        ta, tb, tc, td = t
        return (2.0 * ta + 3.0 * tb + tc + td) / 5.0, (-ta + tb + 2.0 * tc + 2.0 * td) / 5.0

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)).copy(), np.zeros((k, o, o)))
    x, _, iterations, converged, history = _admm(
        x_proxes, z_step, lambda z: (z[0] - z[1], z[0], z[1], z[1]), z0, cfg, "joint solver")
    p_hat = 0.5 * (x[2] + np.swapaxes(x[2], 1, 2))
    s_hat = _floor_spectrum(x[1], p_hat)
    return JointEstimate(
        s_hat=tuple(s_hat),
        p_hat=tuple(p_hat),
        objective=joint_objective(s_hat, p_hat, cov_stack, w),
        iterations=iterations,
        converged=converged,
        residual_history=history,
    )


def solve_lvgl(cov, rho: float, beta: float, cfg: SolverConfig = SolverConfig(),
               penalize_diagonal: bool = False):
    """Latent-variable graphical lasso for a single graph.

    This is exactly the K = 1 instance of the joint problem (the fusion
    terms are vacuous), so it runs through the same engine. Returns
    (S_O, P).
    """
    w = PenaltyWeights.tied(1, rho, beta, penalize_diagonal=penalize_diagonal)
    est = solve_joint_hidden([cov], w, cfg)
    return est.s_hat[0], est.p_hat[0]


# ---------------------------------------------------------------------------
# Group graphical lasso: one x-block, with its own prox steps (kept
# independent of the joint prox steps so the reduction identities are
# meaningful cross-checks). The graphical lasso is its one-layer case.
# ---------------------------------------------------------------------------

def solve_ggl(covs, lambda1: float, lambda2: float, cfg: SolverConfig = SolverConfig(),
              penalize_diagonal: bool = False):
    """Group graphical lasso across layers.

    Elementwise l1 (lambda1) plus a cross-layer group-l2 penalty
    (lambda2) on each off-diagonal entry; the prox of the group term is
    a blockwise group soft-threshold applied after the elementwise one.
    """
    if not (0 <= lambda1 < np.inf and 0 <= lambda2 < np.inf):
        raise InvalidInput("lambda1 and lambda2 must be finite and nonnegative")
    cov_stack = _cov_stack(covs)
    k, o, _ = cov_stack.shape
    diag = np.eye(o, dtype=bool)

    def z_step(t, sigma):
        v = t[0]
        z = soft_threshold(v, lambda1 / sigma, penalize_diagonal)
        group = np.sqrt(np.sum(z * z, axis=0))
        z = z * np.maximum(0.0, 1.0 - (lambda2 / sigma) / np.maximum(group, 1e-300))
        if not penalize_diagonal:
            z[:, diag] = v[:, diag]
        return (_project_admissible(z, cfg.admissible_set),)

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)).copy(),)
    x_proxes = (lambda v, sigma: prox_logdet(v, cov_stack, sigma),)
    _, z, _, _, _ = _admm(x_proxes, z_step, lambda z: z, z0, cfg, "group graphical lasso")
    return list(_floor_spectrum(z[0], None))


def solve_gl(cov, lam: float, cfg: SolverConfig = SolverConfig(),
             penalize_diagonal: bool = False):
    """Graphical lasso tr(SC) - logdet S + lam ||S||_1 for a single graph.

    This is exactly the one-layer instance of the group graphical lasso
    with lambda2 = 0 (the group term is vacuous), so it runs through the
    same engine. Returns S.
    """
    return solve_ggl([cov], lam, 0.0, cfg, penalize_diagonal)[0]


# ---------------------------------------------------------------------------
# Reference oracle: projected subgradient on tiny instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointProblem:
    """Joint hidden-variable objective for the reference oracle."""

    covs: tuple
    weights: PenaltyWeights


@dataclass(frozen=True)
class GGLProblem:
    """Group graphical lasso objective (no latent part); one layer with
    lambda2 = 0 is the graphical lasso."""

    covs: tuple
    lambda1: float
    lambda2: float
    penalize_diagonal: bool = False


@dataclass(frozen=True)
class OracleSolution:
    s_hat: tuple
    p_hat: tuple
    objective: float


def _oracle_pieces(problem):
    """(cov_stack, objective(s_stack, p_stack), subgrad(s, p), has_latent)."""
    if isinstance(problem, JointProblem):
        cov_stack = _cov_stack(problem.covs)
        w = problem.weights
        k, o = cov_stack.shape[:2]
        offmask = np.ones((o, o)) if w.penalize_diagonal else 1.0 - np.eye(o)
        observed = ObservedCovariances(tuple(cov_stack), (1,) * k)
        rho = w.rho[:, None, None]
        beta_eye = w.beta[:, None, None] * np.eye(o)

        def objective(s, p):
            return joint_objective(s, p, observed, w)

        def subgrad(s, p, rinv):
            gs = cov_stack - rinv + rho * np.sign(s) * offmask
            gp = -cov_stack + rinv + beta_eye
            for i in range(k):
                for j in range(i + 1, k):
                    sg = np.sign(s[i] - s[j]) * offmask
                    gs[i] += w.rho_pair[i, j] * sg
                    gs[j] -= w.rho_pair[i, j] * sg
                    pg = np.sign(p[i] - p[j])
                    gp[i] += w.beta_pair[i, j] * pg
                    gp[j] -= w.beta_pair[i, j] * pg
            return gs, gp

        return cov_stack, objective, subgrad, True

    if isinstance(problem, GGLProblem):
        cov_stack = _cov_stack(problem.covs)
        k, o = cov_stack.shape[:2]
        offmask = np.ones((o, o)) if problem.penalize_diagonal else 1.0 - np.eye(o)
        observed = ObservedCovariances(tuple(cov_stack), (1,) * k)

        def objective(s, p):
            return ggl_objective(s, observed, problem.lambda1, problem.lambda2,
                                 problem.penalize_diagonal)

        def subgrad(s, p, rinv):
            gs = cov_stack - rinv + problem.lambda1 * np.sign(s) * offmask
            masked = s * offmask
            nrm = np.sqrt(np.sum(masked ** 2, axis=0))
            gs += problem.lambda2 * masked / np.maximum(nrm, 1e-300)
            return gs, np.zeros_like(gs)

        return cov_stack, objective, subgrad, False

    raise InvalidInput(f"unknown oracle problem type {type(problem).__name__}")


def reference_oracle(problem, budget: int = 100_000, start=None) -> OracleSolution:
    """Solve a tiny convex instance by projected subgradient descent.

    Normalized subgradient steps with a diminishing schedule: a step of
    0.5 for the first stage of 800 steps, shrunk by 0.7 between stages,
    each stage restarting from the best feasible iterate found so far.
    P is projected onto the PSD cone and S - P onto {min eig >= 1e-8}
    after every step. ``budget`` caps the total steps; ``start`` is an
    optional (s_list, p_list) starting point. Only instances with O <= 5
    and K <= 3 are accepted.
    """
    cov_stack, objective, subgrad, has_latent = _oracle_pieces(problem)
    k, o = cov_stack.shape[:2]
    if o > 5 or k > 3:
        raise InvalidInput(f"oracle accepts O <= 5 and K <= 3, got O={o}, K={k}")
    if not isinstance(budget, numbers.Integral) or budget < 1:
        raise InvalidInput(f"budget must be a positive integer, got {budget!r}")

    if start is None:
        s = np.broadcast_to(np.eye(o), (k, o, o)).copy()
        p = 0.01 * np.broadcast_to(np.eye(o), (k, o, o)).copy() if has_latent \
            else np.zeros((k, o, o))
    else:
        s = np.stack([symmetrize(m) for m in start[0]])
        p = np.stack([symmetrize(m) for m in start[1]])

    def project(s, p):
        if has_latent:
            g, q = np.linalg.eigh(p)
            p = (q * np.maximum(g, 0.0)[:, None, :]) @ np.swapaxes(q, 1, 2)
        r = s - p
        g, q = np.linalg.eigh(r)
        bad = g[:, 0] < _PD_FLOOR
        if np.any(bad):
            g = np.maximum(g, _PD_FLOOR)
            r = (q * g[:, None, :]) @ np.swapaxes(q, 1, 2)
            s = np.where(bad[:, None, None], p + r, s)
        return s, p

    s, p = project(s, p)
    best_s, best_p = s.copy(), p.copy()
    best_val = objective(s, p)
    step = 0.5
    spent = 0
    while spent < budget and step > 1e-10:
        for _ in range(min(800, budget - spent)):
            spent += 1
            rinv = np.linalg.inv(s - p)
            rinv = 0.5 * (rinv + np.swapaxes(rinv, 1, 2))
            gs, gp = subgrad(s, p, rinv)
            gn = _norm(gs, gp)
            if gn < 1e-14:
                return OracleSolution(tuple(best_s), tuple(best_p), best_val)
            s = s - step * gs / gn
            if has_latent:
                p = p - step * gp / gn
            s, p = project(s, p)
            val = objective(s, p)
            if val < best_val:
                best_val = val
                best_s, best_p = s.copy(), p.copy()
        s, p = best_s.copy(), best_p.copy()
        step *= 0.7
    return OracleSolution(tuple(best_s), tuple(best_p), best_val)
