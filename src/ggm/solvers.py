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
linear map x = (Z_S - Z_P, Z_S, Z_P, Z_P). The single-graph baselines
(GL, LVGL) and the group graphical lasso (GGL) reuse the same kernels,
and GL, GGL and the joint estimator share one scaled-form ADMM loop,
`_admm`, and differ only in their prox steps and linear maps.

A slow projected-subgradient reference solver for tiny instances is
provided as an independent check of the ADMM solutions.
"""
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidInput, NumericalError
from .prox import (
    _is_uniform,
    _pair_weight_matrix,
    fused_prox_cuts,
    fused_prox_stack,
    prox_logdet,
    prox_psd_trace,
    soft_threshold,
    symmetrize,
)
from .sampling import ObservedCovariances

_EPS = 1e-12
# Largest K for which solve_joint_hidden accepts non-uniform weights: their
# fused prox enumerates the 2^K cuts of every matrix entry's layer graph.
_MAX_GENERAL_LAYERS = 8
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
    """Operator-splitting knobs shared by all solvers."""

    step: float = 1.0
    max_iters: int = 2000
    tol_primal: float = 1e-5
    tol_dual: float = 1e-5
    admissible_set: AdmissibleSet = AdmissibleSet.SYMMETRIC
    pd_floor: float = 1e-8

    def __post_init__(self):
        if isinstance(self.admissible_set, str):
            object.__setattr__(self, "admissible_set", AdmissibleSet(self.admissible_set.lower()))
        if not (0 < self.step < np.inf and 0 < self.pd_floor < np.inf):
            raise InvalidInput("step and pd_floor must be positive and finite")
        if self.max_iters < 1:
            raise InvalidInput("max_iters must be at least 1")
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
    dimension or when one has a non-finite entry.
    """
    cov_list = _as_cov_list(covs)
    if not cov_list:
        raise InvalidInput("need at least one covariance")
    if any(c.shape != cov_list[0].shape for c in cov_list):
        raise InvalidInput("covariances must share one dimension")
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


def joint_objective_l0(s, p, covs, w: PenaltyWeights, max_hidden_rank: int,
                       tol: float = 1e-8) -> float:
    """Combinatorial counterpart of the joint objective, evaluation only.

    Counts nonzero entries where the convex program uses l1 norms and
    enforces rank(P^k) <= max_hidden_rank where the convex program
    minimizes the nuclear norm; +inf outside the feasible set. There is
    no solver for this objective; it documents what the convex
    relaxation replaces.
    """
    cov_list = _as_cov_list(covs)
    k = len(cov_list)
    if len(s) != k or len(p) != k or w.n_layers != k:
        raise InvalidInput("s, p, covs and weights must agree on the number of layers")

    def nnz_off(a):
        count = np.count_nonzero(np.abs(a) > tol)
        if not w.penalize_diagonal:
            count -= np.count_nonzero(np.abs(np.diag(a)) > tol)
        return count

    total = 0.0
    for i in range(k):
        r = s[i] - p[i]
        lam = np.linalg.eigvalsh(r)
        p_eigs = np.linalg.eigvalsh(p[i])
        if lam.min() <= 0 or p_eigs.min() < -tol:
            return np.inf
        if np.count_nonzero(p_eigs > tol) > max_hidden_rank:
            return np.inf
        total += float(np.sum(r * cov_list[i]) - np.sum(np.log(lam)))
        total += w.rho[i] * nnz_off(s[i])
    for i in range(k):
        for j in range(i + 1, k):
            total += w.rho_pair[i, j] * nnz_off(s[i] - s[j])
            total += w.beta_pair[i, j] * np.count_nonzero(np.abs(p[i] - p[j]) > tol)
    return total


def _gl_terms(s, cov, lam: float, penalize_diagonal: bool):
    """Graphical-lasso objective of each layer of the stacks s and cov
    (K, o, o), or None when some S^k is not positive definite."""
    ev = np.linalg.eigvalsh(s)
    if ev.min() <= 0:
        return None
    fit = (s * cov).sum(axis=(-2, -1)) - np.log(ev).sum(axis=-1)
    return fit + lam * _l1_off(s, penalize_diagonal)


def gl_objective(s, cov, lam: float, penalize_diagonal: bool = False) -> float:
    """Graphical-lasso objective tr(S C) - logdet S + lam ||S||_1."""
    terms = _gl_terms(np.asarray(s, dtype=float)[None], np.asarray(cov)[None], lam,
                      penalize_diagonal)
    return np.inf if terms is None else terms[0]


def ggl_objective(s_list, covs, lambda1: float, lambda2: float,
                  penalize_diagonal: bool = False) -> float:
    """Group graphical lasso: per-layer GL terms plus a cross-layer
    group-l2 penalty on every (off-diagonal) entry."""
    stack = np.asarray(s_list, dtype=float)
    terms = _gl_terms(stack, np.asarray(_as_cov_list(covs)), lambda1, penalize_diagonal)
    if terms is None:
        return np.inf
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

def _fused_update(v_cols, lam_vec, pair_mat, sigma, uniform):
    """Columnwise fused-l1 prox of v_cols (K, n) at penalty sigma.

    uniform is _is_uniform(lam_vec, pair_mat), which the caller computes
    once per solve.
    """
    k = v_cols.shape[0]
    if k == 1:
        return np.sign(v_cols) * np.maximum(np.abs(v_cols) - lam_vec[0] / sigma, 0.0)
    if uniform:
        return fused_prox_stack(v_cols, lam_vec[0] / sigma, float(pair_mat[0, 1]) / sigma)
    return fused_prox_cuts(v_cols, lam_vec / sigma, pair_mat / sigma)


def _triangle(o, offset):
    """Flat indices into an (o, o) matrix of the upper triangle
    np.triu_indices(o, offset) and of its mirror image."""
    i, j = np.triu_indices(o, offset)
    return i * o + j, j * o + i


def _mirrored_fused_update(v, upper, lower, lam_vec, pair_mat, sigma, uniform):
    """Fused-l1 prox over symmetric matrices of the stack v (K, o, o).

    The entries at the flat indices `upper` get the prox of the symmetric
    part (v + v^T) / 2 and are mirrored to `lower`; entries outside both
    (an unpenalized diagonal) keep the values of v. Since the penalty and
    the squared distance each count an off-diagonal pair twice, this is
    the exact prox over symmetric matrices.
    """
    flat = v.reshape(v.shape[0], -1)
    out = flat.copy()
    sym = 0.5 * (np.take(flat, upper, axis=1) + np.take(flat, lower, axis=1))
    z = _fused_update(sym, lam_vec, pair_mat, sigma, uniform)
    out[:, upper] = z
    out[:, lower] = z
    return out.reshape(v.shape)


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
    sigma = cfg.step
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


def _floor_spectrum(s, p, pd_floor):
    """Symmetrize the stack s (K, o, o) and shift each S^k by a multiple of
    the identity so that S^k - P^k (S^k when p is None) has no eigenvalue
    below pd_floor. A guard for capped exits; a no-op on converged ones."""
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    lam_min = np.linalg.eigvalsh(s if p is None else s - p).min(axis=-1)
    low = lam_min < pd_floor
    if low.any():
        s[low] += (pd_floor - lam_min[low])[:, None, None] * np.eye(s.shape[-1])
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
        If a covariance is not finite, or if K > 8 and rho, rho_pair or
        beta_pair are not uniform across layers (see PenaltyWeights.tied):
        the exact fused prox for non-uniform weights enumerates 2^K cuts.
    """
    cov_stack = _cov_stack(covs)
    k, o, _ = cov_stack.shape
    if w.n_layers != k:
        raise InvalidInput(f"weights describe {w.n_layers} layers but {k} covariances given")
    s_uniform = _is_uniform(w.rho, w.rho_pair)
    p_uniform = _is_uniform(np.zeros(k), w.beta_pair)
    if k > _MAX_GENERAL_LAYERS and not (s_uniform and p_uniform):
        raise InvalidInput(
            f"non-uniform rho, rho_pair or beta_pair need a fused prox exponential in K; "
            f"K={k} exceeds {_MAX_GENERAL_LAYERS} layers, use PenaltyWeights.tied")
    s_upper, s_lower = _triangle(o, 0 if w.penalize_diagonal else 1)
    p_upper, p_lower = _triangle(o, 0)

    def s_prox(v, sigma):
        a = _mirrored_fused_update(v, s_upper, s_lower, w.rho, w.rho_pair, sigma, s_uniform)
        return _project_admissible(a, cfg.admissible_set)

    def p_fused_prox(v, sigma):
        return _mirrored_fused_update(v, p_upper, p_lower, np.zeros(k), w.beta_pair, sigma,
                                      p_uniform)

    x_proxes = (lambda v, sigma: prox_logdet(v, cov_stack, sigma), s_prox,
                lambda v, sigma: prox_psd_trace(v, w.beta / sigma), p_fused_prox)

    def z_step(t, sigma):
        # least-squares consensus for x = (Z_S - Z_P, Z_S, Z_P, Z_P)
        ta, tb, tc, td = t
        return (2.0 * ta + 3.0 * tb + tc + td) / 5.0, (-ta + tb + 2.0 * tc + 2.0 * td) / 5.0

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)).copy(), np.zeros((k, o, o)))
    x, _, iterations, converged, history = _admm(
        x_proxes, z_step, lambda z: (z[0] - z[1], z[0], z[1], z[1]), z0, cfg, "joint solver")
    p_hat = 0.5 * (x[2] + np.swapaxes(x[2], 1, 2))
    s_hat = _floor_spectrum(x[1], p_hat, cfg.pd_floor)
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
# Baselines: one x-block each, with their own prox steps (kept independent
# of the joint prox steps so the reduction identities are meaningful
# cross-checks)
# ---------------------------------------------------------------------------

def _identity(z):
    return z


def solve_gl(cov, lam: float, cfg: SolverConfig = SolverConfig(),
             penalize_diagonal: bool = False):
    """Graphical lasso via ADMM on tr(SC) - logdet S + lam ||S||_1."""
    if lam < 0:
        raise InvalidInput(f"lambda must be nonnegative, got {lam}")
    c = _cov_stack([cov])[0]

    def z_step(t, sigma):
        s = soft_threshold(t[0], lam / sigma, penalize_diagonal)
        return (_project_admissible(s, cfg.admissible_set),)

    x_proxes = (lambda v, sigma: symmetrize(prox_logdet(v, c, sigma)),)
    _, z, _, _, _ = _admm(x_proxes, z_step, _identity, (np.eye(c.shape[0]),), cfg,
                          "graphical lasso")
    return _floor_spectrum(z[0][None], None, cfg.pd_floor)[0]


def solve_ggl(covs, lambda1: float, lambda2: float, cfg: SolverConfig = SolverConfig(),
              penalize_diagonal: bool = False):
    """Group graphical lasso across layers.

    Elementwise l1 (lambda1) plus a cross-layer group-l2 penalty
    (lambda2) on each off-diagonal entry; the prox of the group term is
    a blockwise group soft-threshold applied after the elementwise one.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise InvalidInput("lambda1 and lambda2 must be nonnegative")
    cov_stack = _cov_stack(covs)
    k, o, _ = cov_stack.shape
    diag = np.eye(o, dtype=bool)

    def z_step(t, sigma):
        v = t[0]
        z = np.sign(v) * np.maximum(np.abs(v) - lambda1 / sigma, 0.0)
        group = np.sqrt(np.sum(z * z, axis=0))
        z = z * np.maximum(0.0, 1.0 - (lambda2 / sigma) / np.maximum(group, 1e-300))
        if not penalize_diagonal:
            z[:, diag] = v[:, diag]
        return (_project_admissible(z, cfg.admissible_set),)

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)).copy(),)
    x_proxes = (lambda v, sigma: prox_logdet(v, cov_stack, sigma),)
    _, z, _, _, _ = _admm(x_proxes, z_step, _identity, z0, cfg, "group graphical lasso")
    return list(_floor_spectrum(z[0], None, cfg.pd_floor))


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
    """Group graphical lasso objective (no latent part)."""

    covs: tuple
    lambda1: float
    lambda2: float
    penalize_diagonal: bool = False


@dataclass(frozen=True)
class GLProblem:
    """Plain graphical lasso objective (no latent part)."""

    cov: np.ndarray
    lam: float
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

    if isinstance(problem, GLProblem):
        return _oracle_pieces(GGLProblem((problem.cov,), problem.lam, 0.0,
                                         problem.penalize_diagonal))
    raise InvalidInput(f"unknown oracle problem type {type(problem).__name__}")


def reference_oracle(problem, budget: int = 100_000, step0: float = 0.5,
                     stage_len: int = 800, pd_floor: float = 1e-8,
                     start=None) -> OracleSolution:
    """Solve a tiny convex instance by projected subgradient descent.

    Normalized subgradient steps with a diminishing schedule (constant
    within a stage, geometrically shrunk between stages, restarting each
    stage from the best feasible iterate found so far). P is projected
    onto the PSD cone and S - P onto {min eig >= pd_floor} after every
    step. Only instances with O <= 5 and K <= 3 are accepted.
    """
    cov_stack, objective, subgrad, has_latent = _oracle_pieces(problem)
    k, o = cov_stack.shape[:2]
    if o > 5 or k > 3:
        raise InvalidInput(f"oracle accepts O <= 5 and K <= 3, got O={o}, K={k}")
    if budget < 1:
        raise InvalidInput("budget must be positive")

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
        bad = g[:, 0] < pd_floor
        if np.any(bad):
            g = np.maximum(g, pd_floor)
            r = (q * g[:, None, :]) @ np.swapaxes(q, 1, 2)
            s = np.where(bad[:, None, None], p + r, s)
        return s, p

    s, p = project(s, p)
    best_s, best_p = s.copy(), p.copy()
    best_val = objective(s, p)
    step = step0
    spent = 0
    while spent < budget and step > 1e-10:
        for _ in range(min(stage_len, budget - spent)):
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
