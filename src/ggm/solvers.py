"""Estimators for multi-layer Gaussian graphical models with hidden nodes.

The main estimator recovers, for K related graphs, the observed block of
each precision matrix S_O plus a low-rank PSD term P that accounts for
marginalized hidden nodes, by minimizing

    sum_k  tr((S_O - P) C_O) - logdet(S_O - P) + rho_k ||S_O||_1
           + beta_k ||P||_*
    + sum_{k<k'}  rho_kk' ||S_O^k - S_O^k'||_1 + beta_kk' ||P^k - P^k'||_1

subject to P >= 0 and S_O - P > 0. The l1 and fused terms on S_O always
skip its diagonal; the fused term on P covers every entry. It is solved
by consensus ADMM: one copy per objective term (log-det barrier, fused
l1 on S, trace-plus-PSD on P, fused l1 on P), tied to consensus
variables (Z_S, Z_P) through the linear map x = (Z_S - Z_P, Z_S, Z_P,
Z_P). Each block's prox is one stack kernel of `prox`: prox_logdet,
symmetric_fused_prox (which also picks the fused path and its layer
limit) on S and on P, and prox_psd_trace. The group graphical lasso
(GGL) reuses the same kernels; it and the joint estimator share one
over-relaxed, scaled-form ADMM loop, `_admm`, and differ only in their
prox steps and linear maps. `_admm` can start from the state another
solve ended in, which the private engine entry points `_solve_joint` and
`_solve_ggl` pass through; the public solvers are those entry points
started cold. The single-graph baselines are their one-layer cases: the
graphical lasso (GL) is GGL at one layer with lambda2 = 0, and the
latent-variable graphical lasso (LVGL) is the joint estimator at K = 1.

Every solver, both objectives and the reference oracle take the
covariances as an ObservedCovariances or as a sequence of matrices,
which they pass through ObservedCovariances.of: the one place that
checks them and stacks them as (K, o, o).

A slow projected-subgradient reference solver for tiny instances is
provided as an independent check of the ADMM solutions.
"""
import math
import numbers
from dataclasses import dataclass

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
# Over-relaxation (Boyd et al., ADMM, FnT-ML 2011, sec. 3.4.3): the z-step
# and the dual update see _RELAX x + (1 - _RELAX) lift(z) in place of x.
# At 1.6 a held-out tc1 LVGL solve at rho = beta = 0.01 hits the sweeps'
# 800-iteration cap; at 1.5 it converges.
_RELAX = 1.5


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule shared by all solvers.

    Every ADMM solve starts from step 1, which residual balancing then
    adapts, and floors the spectrum of its returned S - P at 1e-8.
    """

    max_iters: int = 2000
    tol_primal: float = 1e-5
    tol_dual: float = 1e-5

    def __post_init__(self):
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
    terms on S skip the diagonal; the fused term on P covers all entries.
    """

    rho: np.ndarray
    beta: np.ndarray
    rho_pair: np.ndarray
    beta_pair: np.ndarray

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
             beta_pair: float = 0.0):
        """All layers share one rho/beta and all pairs one fusion weight."""
        return cls(np.full(n_layers, float(rho)), np.full(n_layers, float(beta)),
                   float(rho_pair), float(beta_pair))

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


@dataclass(frozen=True)
class AdmmState:
    """Where an ADMM solve ended: the consensus variables z, the scaled duals
    (one per x-block) and the step sigma. A solve of another problem of the
    same shape can start from it (see _admm)."""

    z: tuple
    duals: tuple
    sigma: float


def _estimate_stack(a, shape, name):
    """The estimates a as one float array; InvalidInput unless it has the
    covariance stack's shape (K, o, o) and finite entries."""
    try:
        a = np.asarray(a, dtype=float)
    except ValueError:   # layers of different sizes
        raise InvalidInput(f"{name} layers differ in shape; expected {shape}") from None
    if a.shape != shape:
        raise InvalidInput(f"{name} has shape {a.shape}; expected {shape}")
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} has a non-finite entry")
    return a


# ---------------------------------------------------------------------------
# Objective values
# ---------------------------------------------------------------------------

def _l1_off(a):
    """l1 norm of the off-diagonal entries of each matrix in the stack
    a (..., o, o)."""
    total = np.abs(a).sum(axis=(-2, -1))
    return total - np.abs(np.diagonal(a, axis1=-2, axis2=-1)).sum(axis=-1)


def joint_objective(s, p, covs, w: PenaltyWeights) -> float:
    """Objective of the joint hidden-variable problem; +inf when any
    S^k - P^k is not positive definite.

    The nuclear norm of the symmetric P^k is evaluated as the sum of
    absolute eigenvalues, which reduces to the trace on the PSD cone.
    """
    cov_stack = ObservedCovariances.of(covs).covs
    k = len(cov_stack)
    if w.n_layers != k:
        raise InvalidInput(f"weights describe {w.n_layers} layers but {k} covariances given")
    s = _estimate_stack(s, cov_stack.shape, "s")
    p = _estimate_stack(p, cov_stack.shape, "p")
    r = s - p
    lam = np.linalg.eigvalsh(r)
    if lam.min() <= 0:
        return np.inf
    fit = (r * cov_stack).sum(axis=(1, 2)) - np.log(lam).sum(axis=1)
    l1 = _l1_off(s)
    nuclear = np.abs(np.linalg.eigvalsh(p)).sum(axis=1)
    iu = [i for i in range(k) for _ in range(i + 1, k)]
    ju = [j for i in range(k) for j in range(i + 1, k)]
    l1_pair = _l1_off(s[iu] - s[ju])
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


def ggl_objective(s_list, covs, lambda1: float, lambda2: float) -> float:
    """Group graphical lasso: per-layer graphical-lasso terms
    tr(S C) - logdet S + lambda1 ||S||_1 plus a cross-layer group-l2
    penalty, both on the off-diagonal entries; +inf when some S^k is not
    positive definite. At one layer with lambda2 = 0 this is the
    graphical-lasso objective."""
    cov_stack = ObservedCovariances.of(covs).covs
    stack = _estimate_stack(s_list, cov_stack.shape, "s")
    ev = np.linalg.eigvalsh(stack)
    if ev.min() <= 0:
        return np.inf
    terms = (stack * cov_stack).sum(axis=(-2, -1)) \
        - np.log(ev).sum(axis=-1) + lambda1 * _l1_off(stack)
    total = 0.0
    for term in terms:
        total += term
        if not np.isfinite(total):
            return np.inf
    stack = stack * ~np.eye(stack.shape[1], dtype=bool)
    total += lambda2 * float(np.sqrt(np.sum(stack ** 2, axis=0)).sum())
    return total


# ---------------------------------------------------------------------------
# Shared pieces of the splitting loops
# ---------------------------------------------------------------------------

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


def _norm(arrays):
    """Frobenius norm of the arrays taken together, with no a * a
    temporaries (einsum, not BLAS dot, so the bits do not depend on the
    BLAS thread count)."""
    return math.sqrt(sum(float(np.einsum("i,i->", a.ravel(), a.ravel())) for a in arrays))


def _admm(x_proxes, z_step, lift, z0, cfg, name, start=None):
    """Over-relaxed, scaled-form ADMM for min sum_i f_i(x_i) + g(z) s.t.
    x = lift(z).

    x_proxes holds one function per x-block: x_proxes[i](v_i, sigma) is
    the prox of f_i / sigma at the anchor v_i = lift(z)_i - u_i (each
    anchor is formed just before its prox, so only one is alive at a
    time). z_step(t, sigma) returns the z minimizing g(z)
    + (sigma/2) ||lift(z) - t||^2 at t = x_hat + u, where x_hat =
    _RELAX x + (1 - _RELAX) lift(z) is the relaxed point (Boyd et al.,
    sec. 3.4.3); lift is linear and maps the tuple z to the tuple of
    x-blocks. The proxes and z_step must return fresh arrays and may not
    write into their inputs: the duals are updated in place, and lift
    may return the same array twice. Stops when the primal residual
    x - lift(z) and the dual residual sigma lift(z - z_prev), relative to
    the size of the iterates and of the duals, both fall below the
    tolerances (Boyd et al., sec. 3.3); otherwise rebalances the step.

    A cold solve starts at z0 with zero duals and step 1. start, an
    AdmmState that another solve of a problem of the same shape ended in,
    replaces all three: a path of problems that differ only in their
    weights, each started where the previous one ended, is a warm-started
    regularization path (Friedman, Hastie & Tibshirani, JSS 2010). start is
    not modified.

    Returns (x, end, iterations, converged, residual_history): end is the
    AdmmState the loop stopped in (z, the duals and sigma after the last
    update, so a solve restarted from it continues this one), and the
    history is an (iterations, 2) array of relative primal/dual residuals.

    Raises
    ------
    NumericalError
        If a residual becomes non-finite.
    """
    z = tuple(z0) if start is None else start.z
    lz = lift(z)
    if start is None:
        duals, sigma = [np.zeros_like(v) for v in lz], 1.0
    else:
        duals, sigma = [u.copy() for u in start.duals], start.sigma
    history = []
    converged = False
    for it in range(cfg.max_iters):
        x = [prox(v - u, sigma) for prox, v, u in zip(x_proxes, lz, duals)]
        # the duals become t = x_hat + u, then u + x_hat - lift(z_new)
        for u, xi, v in zip(duals, x, lz):
            u += _RELAX * xi
            u += (1.0 - _RELAX) * v
        z_new = z_step(duals, sigma)
        dz = [new - old for new, old in zip(z_new, z)]
        z, lz = z_new, lift(z_new)
        for u, v in zip(duals, lz):
            u -= v
        prim = _norm([xi - v for xi, v in zip(x, lz)])
        dual = sigma * _norm(lift(dz))
        if not math.isfinite(prim) or not math.isfinite(dual):
            raise NumericalError(f"{name} diverged (non-finite residuals)")
        rp = prim / max(_norm(x), _norm(lz), _EPS)
        rd = dual / max(sigma * _norm(duals), _EPS)
        history.append((rp, rd))
        if rp <= cfg.tol_primal and rd <= cfg.tol_dual:
            converged = True
            break
        sigma = _rebalance(sigma, duals, rp, rd)
    return x, AdmmState(z, tuple(duals), sigma), it + 1, converged, np.asarray(history)


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
    return _solve_joint(covs, w, cfg)[0]


def _solve_joint(covs, w: PenaltyWeights, cfg: SolverConfig, start=None):
    """solve_joint_hidden, started from the AdmmState start (None: cold);
    returns (estimate, the AdmmState the solve ended in)."""
    observed = ObservedCovariances.of(covs)
    cov_stack = observed.covs
    k, o, _ = cov_stack.shape
    if w.n_layers != k:
        raise InvalidInput(f"weights describe {w.n_layers} layers but {k} covariances given")
    s_fused = symmetric_fused_prox(w.rho, w.rho_pair, o, False)
    p_fused = symmetric_fused_prox(np.zeros(k), w.beta_pair, o, True)
    x_proxes = (lambda v, sigma: prox_logdet(v, cov_stack, sigma), s_fused,
                lambda v, sigma: prox_psd_trace(v, w.beta / sigma), p_fused)

    def z_step(t, sigma):
        # least-squares consensus for x = (Z_S - Z_P, Z_S, Z_P, Z_P)
        ta, tb, tc, td = t
        return (2.0 * ta + 3.0 * tb + tc + td) / 5.0, (-ta + tb + 2.0 * tc + 2.0 * td) / 5.0

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)).copy(), np.zeros((k, o, o)))
    x, end, iterations, converged, history = _admm(
        x_proxes, z_step, lambda z: (z[0] - z[1], z[0], z[1], z[1]), z0, cfg, "joint solver",
        start)
    p_hat = 0.5 * (x[2] + np.swapaxes(x[2], 1, 2))
    s_hat = _floor_spectrum(x[1], p_hat)
    return JointEstimate(
        s_hat=tuple(s_hat),
        p_hat=tuple(p_hat),
        objective=joint_objective(s_hat, p_hat, observed, w),
        iterations=iterations,
        converged=converged,
        residual_history=history,
    ), end


def solve_lvgl(cov, rho: float, beta: float, cfg: SolverConfig = SolverConfig()):
    """Latent-variable graphical lasso for a single graph.

    This is exactly the K = 1 instance of the joint problem (the fusion
    terms are vacuous), so it runs through the same engine. Returns
    (S_O, P).
    """
    est = solve_joint_hidden([cov], PenaltyWeights.tied(1, rho, beta), cfg)
    return est.s_hat[0], est.p_hat[0]


# ---------------------------------------------------------------------------
# Group graphical lasso: one x-block, with its own prox steps (kept
# independent of the joint prox steps so the reduction identities are
# meaningful cross-checks). The graphical lasso is its one-layer case.
# ---------------------------------------------------------------------------

def solve_ggl(covs, lambda1: float, lambda2: float, cfg: SolverConfig = SolverConfig()):
    """Group graphical lasso across layers.

    Elementwise l1 (lambda1) plus a cross-layer group-l2 penalty
    (lambda2) on each off-diagonal entry; the prox of the group term is
    a blockwise group soft-threshold applied after the elementwise one.
    """
    return _solve_ggl(covs, lambda1, lambda2, cfg)[0]


def _solve_ggl(covs, lambda1: float, lambda2: float, cfg: SolverConfig, start=None):
    """solve_ggl, started from the AdmmState start (None: cold); returns
    (estimates, converged, the AdmmState the solve ended in)."""
    if not (0 <= lambda1 < np.inf and 0 <= lambda2 < np.inf):
        raise InvalidInput("lambda1 and lambda2 must be finite and nonnegative")
    cov_stack = ObservedCovariances.of(covs).covs
    k, o, _ = cov_stack.shape
    diag = np.eye(o, dtype=bool)

    def z_step(t, sigma):
        v = t[0]
        z = soft_threshold(v, lambda1 / sigma)
        group = np.sqrt(np.sum(z * z, axis=0))
        z = z * np.maximum(0.0, 1.0 - (lambda2 / sigma) / np.maximum(group, 1e-300))
        z[:, diag] = v[:, diag]
        return (z,)

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)).copy(),)
    x_proxes = (lambda v, sigma: prox_logdet(v, cov_stack, sigma),)
    _, end, _, converged, _ = _admm(x_proxes, z_step, lambda z: z, z0, cfg,
                                    "group graphical lasso", start)
    return list(_floor_spectrum(end.z[0], None)), converged, end


def solve_gl(cov, lam: float, cfg: SolverConfig = SolverConfig()):
    """Graphical lasso tr(SC) - logdet S + lam ||S||_1 for a single graph.

    This is exactly the one-layer instance of the group graphical lasso
    with lambda2 = 0 (the group term is vacuous), so it runs through the
    same engine. Returns S.
    """
    return solve_ggl([cov], lam, 0.0, cfg)[0]


# ---------------------------------------------------------------------------
# Reference oracle: projected subgradient on tiny instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointProblem:
    """Joint hidden-variable objective for the reference oracle; covs is an
    ObservedCovariances or a sequence of matrices."""

    covs: object
    weights: PenaltyWeights


@dataclass(frozen=True)
class GGLProblem:
    """Group graphical lasso objective (no latent part); one layer with
    lambda2 = 0 is the graphical lasso. covs is as in JointProblem."""

    covs: object
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class OracleSolution:
    s_hat: tuple
    p_hat: tuple
    objective: float


def _oracle_pieces(problem):
    """(cov_stack, objective(s_stack, p_stack), subgrad(s, p), has_latent)."""
    if isinstance(problem, JointProblem):
        observed = ObservedCovariances.of(problem.covs)
        cov_stack = observed.covs
        w = problem.weights
        k, o = cov_stack.shape[:2]
        offmask = 1.0 - np.eye(o)
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
        observed = ObservedCovariances.of(problem.covs)
        cov_stack = observed.covs
        offmask = 1.0 - np.eye(cov_stack.shape[1])

        def objective(s, p):
            return ggl_objective(s, observed, problem.lambda1, problem.lambda2)

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
        s = np.stack([symmetrize(m) for m in _estimate_stack(start[0], cov_stack.shape, "start s")])
        p = np.stack([symmetrize(m) for m in _estimate_stack(start[1], cov_stack.shape, "start p")])

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
            gn = float(np.sqrt(np.sum(gs * gs) + np.sum(gp * gp)))
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
