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
prox steps and linear maps. `_admm` solves B independent problems of one
shape at once, on a leading problem axis, each with its own step and
stopping test and with the bits of its solve alone, and returns only
one AdmmRun per problem: its end iterate, the end state a warm solve can
start from, and its report. The private engine entry points
`_solve_joint` and `_solve_ggl` take one weight set and one start per
problem and stack their estimates from the runs; the public solvers are
those entry points at B = 1, started cold.
The single-graph baselines are their one-layer cases: the graphical
lasso (GL) is GGL at one layer with lambda2 = 0, and the latent-variable
graphical lasso (LVGL) is the joint estimator at K = 1.

Every public solver, both objectives and the reference oracle pass the
covariances (an ObservedCovariances or a sequence of matrices) through
ObservedCovariances.of, the one place that checks them and stacks them
as (K, o, o); the engine entry points take a (B, K, o, o) stack of such
checked stacks, one per problem (the public solvers pass covs[None]).

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
# np.getbufsize() at its default: the chunk in which einsum sums (see _norm)
_EINSUM_BUFFER = 8192


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
class AdmmRun:
    """One ADMM solve, the only result of _admm: the x-blocks, consensus
    variables z and scaled duals (one per x-block) after its last update,
    each the problem's own copy, the step sigma it ended in, and its
    report. A solve of another problem of the same shape can start from
    z, duals and sigma (see _admm); the estimates are read from x or z."""

    x: tuple
    z: tuple
    duals: tuple
    sigma: float
    iterations: int
    converged: bool
    residual_history: np.ndarray   # (iterations, 2): relative primal/dual


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
    lam = np.linalg.eigvalsh(s - p)
    if lam.min() <= 0:
        return np.inf
    return _joint_value(s, p, cov_stack, w, np.log(lam).sum(axis=1),
                        np.abs(np.linalg.eigvalsh(p)).sum(axis=1))


def _joint_value(s, p, cov_stack, w, logdet, nuclear):
    """joint_objective at checked stacks s and p with S^k - P^k positive
    definite, given logdet(S^k - P^k) and the nuclear norm of P^k per layer."""
    k = len(cov_stack)
    fit = ((s - p) * cov_stack).sum(axis=(1, 2)) - logdet
    l1 = _l1_off(s)
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
    return _ggl_value(stack, cov_stack, lambda1, lambda2, np.log(ev).sum(axis=-1))


def _ggl_value(stack, cov_stack, lambda1, lambda2, logdet):
    """ggl_objective at a checked, positive definite stack, given
    logdet(S^k) per layer."""
    terms = (stack * cov_stack).sum(axis=(-2, -1)) - logdet + lambda1 * _l1_off(stack)
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

def _each(values, ndim):
    """Per-problem values (B,) shaped to broadcast against (B, ...) arrays
    of ndim dimensions."""
    return values.reshape(values.shape + (1,) * (ndim - 1))


def _rebalance(sigma, duals, rp, rd, free):
    """Residual balancing (Boyd et al., ADMM, FnT-ML 2011, sec. 3.4.1):
    scale the step of each problem marked free, and its scaled duals
    inversely, when one relative residual dominates the other. Returns
    the new steps; the duals are scaled in place."""
    # rp, rd >= 0, so at most one residual dominates
    grow = free & (rp > _ADAPT_RATIO * rd) & (sigma * _ADAPT_FACTOR <= 1e6)
    shrink = free & (rd > _ADAPT_RATIO * rp) & (sigma / _ADAPT_FACTOR >= 1e-6)
    if grow.any():
        for u in duals:
            np.divide(u, _ADAPT_FACTOR, out=u, where=_each(grow, u.ndim))
        sigma = np.where(grow, sigma * _ADAPT_FACTOR, sigma)
    if shrink.any():
        for u in duals:
            np.multiply(u, _ADAPT_FACTOR, out=u, where=_each(shrink, u.ndim))
        sigma = np.where(shrink, sigma / _ADAPT_FACTOR, sigma)
    return sigma


def _norm(arrays):
    """Frobenius norm of each problem's blocks taken together: (B,) for
    arrays of shape (B, ...), with no a * a temporaries.

    Each problem's sum of squares has the bits of einsum("i,i->") on that
    problem's block alone (einsum, not BLAS dot, so the bits do not depend
    on the BLAS thread count). einsum sums a contiguous operand in chunks
    of its iterator buffer (numpy's default of _EINSUM_BUFFER elements),
    and a 2-D einsum("pi,pi->p") chunks each row the same way only while
    a row fits in one buffer; longer blocks are summed one problem at a
    time.
    """
    total = 0.0
    for a in arrays:
        a = a.reshape(len(a), -1)
        if a.shape[1] <= _EINSUM_BUFFER:
            total = total + np.einsum("pi,pi->p", a, a)
        else:
            total = total + np.array([np.einsum("i,i->", row, row) for row in a])
    return np.sqrt(total)


def _admm(steps, lift, z0, cfg, name, starts):
    """Over-relaxed, scaled-form ADMM for B independent problems of one
    shape, each min sum_i f_i(x_i) + g(z) s.t. x = lift(z).

    Every array carries the problems on its leading axis, and sigma is one
    step per problem, (B,). steps(on) returns (x_proxes, z_step) for the
    problems on, an index array into the batch, in that order; it is
    called before the first iteration and again whenever problems stop.
    x_proxes holds one function per x-block: x_proxes[i](v_i, sigma) is
    the prox of f_i / sigma at the anchor v_i = lift(z)_i - u_i (each
    anchor is formed just before its prox, so only one is alive at a
    time). z_step(t, sigma) returns the z minimizing g(z)
    + (sigma/2) ||lift(z) - t||^2 at t = x_hat + u, where x_hat =
    _RELAX x + (1 - _RELAX) lift(z) is the relaxed point (Boyd et al.,
    sec. 3.4.3); lift is linear and maps the tuple z to the tuple of
    x-blocks. The proxes and z_step must return fresh arrays and may not
    write into their inputs: the duals are updated in place, and lift
    may return the same array twice. Every step acts on each problem
    alone, so a problem gets the same bits in any batch as solved alone.

    A problem stops when the primal residual x - lift(z) and the dual
    residual sigma lift(z - z_prev), relative to the size of its iterates
    and of its duals, both fall below the tolerances (Boyd et al., sec.
    3.3), or at cfg.max_iters; until then its step is rebalanced. A
    stopped problem leaves the batch with copies of its state recorded,
    and the rest go on.

    starts holds one entry per problem. None starts a problem cold: at
    z0, the tuple of one problem's z-blocks, with zero duals and step 1.
    An AdmmRun of a solve of a problem of the same shape replaces all
    three by the state that solve ended in: a path of problems that
    differ only in their weights, each started where the previous one
    ended, is a warm-started regularization path (Friedman, Hastie &
    Tibshirani, JSS 2010). starts are not modified.

    Returns one AdmmRun per problem, whose x, z, duals and sigma are
    those after its last update, so a solve started from it continues
    this one.

    Raises
    ------
    NumericalError
        If a residual becomes non-finite.
    """
    n = len(starts)
    z = tuple(np.stack([block if start is None else start.z[i] for start in starts])
              for i, block in enumerate(z0))
    lz = lift(z)
    duals = [np.stack([np.zeros_like(v[0]) if start is None else start.duals[i]
                       for start in starts]) for i, v in enumerate(lz)]
    sigma = np.array([1.0 if start is None else start.sigma for start in starts])
    on = np.arange(n)
    x_proxes, z_step = steps(on)
    runs, rows, histories = [None] * n, [], [[] for _ in range(n)]
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
        if not (np.isfinite(prim).all() and np.isfinite(dual).all()):
            raise NumericalError(f"{name} diverged (non-finite residuals)")
        rp = prim / np.maximum(np.maximum(_norm(x), _norm(lz)), _EPS)
        rd = dual / np.maximum(sigma * _norm(duals), _EPS)
        rows.append((rp, rd))
        converged = (rp <= cfg.tol_primal) & (rd <= cfg.tol_dual)
        sigma = _rebalance(sigma, duals, rp, rd, ~converged)
        stop = converged | (it + 1 == cfg.max_iters)
        if not stop.any():
            continue
        segment = np.array(rows)     # (iterations, 2, active problems)
        for j, p in enumerate(on):
            histories[p].append(segment[:, :, j])
        rows = []
        for j in np.flatnonzero(stop):
            runs[on[j]] = AdmmRun(tuple(xi[j].copy() for xi in x), tuple(zi[j].copy() for zi in z),
                                  tuple(u[j].copy() for u in duals), float(sigma[j]), it + 1,
                                  bool(converged[j]), np.concatenate(histories[on[j]]))
        go = ~stop
        if not go.any():
            break
        on, sigma = on[go], sigma[go]
        z = tuple(zi[go] for zi in z)
        lz = lift(z)
        duals = [u[go] for u in duals]
        x_proxes, z_step = steps(on)
    return tuple(runs)


def _floor_spectrum(s, p):
    """Symmetrize the stack s (..., o, o) and shift each S^k by a multiple of
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
    observed = ObservedCovariances.of(covs)
    s_hat, p_hat, (run,) = _solve_joint(observed.covs[None], (w,), cfg, (None,))
    return JointEstimate(tuple(s_hat[0]), tuple(p_hat[0]),
                         joint_objective(s_hat[0], p_hat[0], observed, w),
                         run.iterations, run.converged, run.residual_history)


def _solve_joint(cov_stack, weights, cfg: SolverConfig, starts):
    """solve_joint_hidden's estimates for B problems at once: one
    PenaltyWeights per problem in weights, and one start per problem in
    starts (None: cold, else the AdmmRun to continue). cov_stack is the
    (B, K, o, o) stack of each problem's checked covariances
    (ObservedCovariances.covs). Returns (S stack, P stack, runs):
    (B, K, o, o) each and one AdmmRun per problem, each problem's bits
    those of its solve alone."""
    _, k, o, _ = cov_stack.shape
    for w in weights:
        if w.n_layers != k:
            raise InvalidInput(f"weights describe {w.n_layers} layers but {k} covariances given")
    rho, beta, rho_pair, beta_pair = (np.array([getattr(w, f) for w in weights])
                                      for f in ("rho", "beta", "rho_pair", "beta_pair"))

    def steps(on):
        covs = cov_stack[on]
        s_fused = symmetric_fused_prox(rho[on], rho_pair[on], o, False)
        p_fused = symmetric_fused_prox(np.zeros((on.size, k)), beta_pair[on], o, True)
        beta_on = beta[on]
        x_proxes = (lambda v, sigma: prox_logdet(v, covs, np.repeat(sigma[:, None], k, 1)),
                    s_fused, lambda v, sigma: prox_psd_trace(v, beta_on / sigma[:, None]),
                    p_fused)
        return x_proxes, z_step

    def z_step(t, sigma):
        # least-squares consensus for x = (Z_S - Z_P, Z_S, Z_P, Z_P)
        ta, tb, tc, td = t
        return (2.0 * ta + 3.0 * tb + tc + td) / 5.0, (-ta + tb + 2.0 * tc + 2.0 * td) / 5.0

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)), np.zeros((k, o, o)))
    runs = _admm(steps, lambda z: (z[0] - z[1], z[0], z[1], z[1]), z0, cfg, "joint solver",
                 starts)
    s_hat, p_hat = (np.stack([run.x[i] for run in runs]) for i in (1, 2))
    p_hat = 0.5 * (p_hat + np.swapaxes(p_hat, -1, -2))
    return _floor_spectrum(s_hat, p_hat), p_hat, runs


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
    s_hat, _ = _solve_ggl(ObservedCovariances.of(covs).covs[None], [lambda1], [lambda2], cfg,
                          (None,))
    return list(s_hat[0])


def _solve_ggl(cov_stack, lambda1, lambda2, cfg: SolverConfig, starts):
    """solve_ggl's estimates for B problems at once: lambda1 and lambda2
    hold one weight per problem, starts one start per problem, and
    cov_stack is as in _solve_joint. Returns (S stack, runs): (B, K, o, o)
    and one AdmmRun per problem, each problem's bits those of its solve
    alone."""
    lambda1, lambda2 = np.asarray(lambda1, dtype=float), np.asarray(lambda2, dtype=float)
    if not np.all((0 <= lambda1) & (lambda1 < np.inf) & (0 <= lambda2) & (lambda2 < np.inf)):
        raise InvalidInput("lambda1 and lambda2 must be finite and nonnegative")
    _, k, o, _ = cov_stack.shape
    diag = np.eye(o, dtype=bool)

    def steps(on):
        covs = cov_stack[on]
        l1, l2 = lambda1[on], lambda2[on]

        def z_step(t, sigma):
            v = t[0]
            z = soft_threshold(v, np.repeat((l1 / sigma)[:, None], k, 1))
            group = np.sqrt(np.sum(z * z, axis=1, keepdims=True))
            z = z * np.maximum(0.0, 1.0 - _each(l2 / sigma, 4) / np.maximum(group, 1e-300))
            z[..., diag] = v[..., diag]
            return (z,)

        return (lambda v, sigma: prox_logdet(v, covs, np.repeat(sigma[:, None], k, 1)),), z_step

    z0 = (np.broadcast_to(np.eye(o), (k, o, o)),)
    runs = _admm(steps, lambda z: z, z0, cfg, "group graphical lasso", starts)
    return _floor_spectrum(np.stack([run.z[0] for run in runs]), None), runs


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
    """(cov_stack, objective(s_stack, p_stack), value(s, p, logdet, trace_p),
    subgrad(s, p, rinv), has_latent). value is the objective at a feasible
    point, given logdet(S^k - P^k) and tr P^k per layer from the
    projection's eigendecompositions."""
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

        def value(s, p, logdet, trace_p):
            return _joint_value(s, p, cov_stack, w, logdet, trace_p)

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

        return cov_stack, objective, value, subgrad, True

    if isinstance(problem, GGLProblem):
        observed = ObservedCovariances.of(problem.covs)
        cov_stack = observed.covs
        offmask = 1.0 - np.eye(cov_stack.shape[1])

        def objective(s, p):
            return ggl_objective(s, observed, problem.lambda1, problem.lambda2)

        def value(s, p, logdet, trace_p):
            return _ggl_value(s, cov_stack, problem.lambda1, problem.lambda2, logdet)

        def subgrad(s, p, rinv):
            gs = cov_stack - rinv + problem.lambda1 * np.sign(s) * offmask
            masked = s * offmask
            nrm = np.sqrt(np.sum(masked ** 2, axis=0))
            gs += problem.lambda2 * masked / np.maximum(nrm, 1e-300)
            return gs, np.zeros_like(gs)

        return cov_stack, objective, value, subgrad, False

    raise InvalidInput(f"unknown oracle problem type {type(problem).__name__}")


def reference_oracle(problem, budget: int = 100_000, start=None) -> OracleSolution:
    """Solve a tiny convex instance by projected subgradient descent.

    Normalized subgradient steps with a diminishing schedule: a step of
    0.5 for the first stage of 800 steps, shrunk by 0.7 between stages,
    each stage restarting from the best feasible iterate found so far.
    P is projected onto the PSD cone and S - P onto {min eig >= 1e-8}
    after every step. The projection's eigendecompositions also give each
    iterate's log-determinant, tr P and the next step's (S - P)^-1, so a
    step costs two eigh and no other factorization. ``budget`` caps the
    total steps; ``start`` is an optional (s_list, p_list) starting
    point. Only instances with O <= 5 and K <= 3 are accepted. The
    returned objective is joint_objective or ggl_objective at the
    returned point.
    """
    cov_stack, objective, value, subgrad, has_latent = _oracle_pieces(problem)
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
        """The projected (s, p), the eigenvalues and eigenvectors of S - P,
        and the objective there."""
        trace_p = np.zeros(k)
        if has_latent:
            g, q = np.linalg.eigh(p)
            g = np.maximum(g, 0.0)
            p = (q * g[:, None, :]) @ np.swapaxes(q, 1, 2)
            trace_p = g.sum(axis=1)
        r = s - p
        g, q = np.linalg.eigh(r)
        bad = g[:, 0] < _PD_FLOOR
        if np.any(bad):
            g = np.maximum(g, _PD_FLOOR)
            r = (q * g[:, None, :]) @ np.swapaxes(q, 1, 2)
            s = np.where(bad[:, None, None], p + r, s)
        return s, p, g, q, value(s, p, np.log(g).sum(axis=1), trace_p)

    s, p, g, q, best_val = project(s, p)
    # iterates are replaced, never written into, so the best one is kept by reference
    best = s, p, g, q
    step, spent, stalled = 0.5, 0, False
    while spent < budget and step > 1e-10 and not stalled:
        for _ in range(min(800, budget - spent)):
            spent += 1
            rinv = (q / g[:, None, :]) @ np.swapaxes(q, 1, 2)
            rinv = 0.5 * (rinv + np.swapaxes(rinv, 1, 2))
            gs, gp = subgrad(s, p, rinv)
            gn = float(np.sqrt(np.sum(gs * gs) + np.sum(gp * gp)))
            if gn < 1e-14:
                stalled = True
                break
            s = s - step * gs / gn
            if has_latent:
                p = p - step * gp / gn
            s, p, g, q, val = project(s, p)
            if val < best_val:
                best_val, best = val, (s, p, g, q)
        s, p, g, q = best
        step *= 0.7
    return OracleSolution(tuple(best[0]), tuple(best[1]), objective(best[0], best[1]))
