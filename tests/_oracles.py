"""Independent oracles used by the tests.

Everything here recomputes expected values by a route different from the
package implementation: grid search, plain-loop objective evaluation,
SVD-based proxes, full-matrix inversion for the Schur identity, and the
fused-l1 prox by partition enumeration or from its bounded least-squares
dual.
"""
from itertools import combinations

import numpy as np
import scipy.linalg
from scipy.optimize import lsq_linear


def fused_brute_force(v, lam1, pair_w, target_cell=2.5e-4):
    """Grid search for the fused-l1 prox by box refinement.

    The minimizer lies in the box [min(0, min v), max(0, max v)], and the
    objective is convex, so the coarse-grid argmin is within one cell of
    the true minimizer; each round shrinks the box around it. 0 is kept
    in every axis grid because coordinates often land there exactly.
    """
    v = np.asarray(v, dtype=float)
    k = v.size
    lam = np.broadcast_to(np.asarray(lam1, dtype=float), (k,))
    w = np.asarray(pair_w, dtype=float)
    if w.ndim == 0:
        w = np.full((k, k), float(w))
        np.fill_diagonal(w, 0.0)
    lo = min(0.0, v.min()) - 0.05
    hi = max(0.0, v.max()) + 0.05
    centers = np.full(k, 0.5 * (lo + hi))
    span = 0.5 * (hi - lo)
    best = centers
    while True:
        axes = [np.unique(np.concatenate([np.linspace(c - span, c + span, 33), [0.0]]))
                for c in centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = 0.5 * np.sum((pts - v) ** 2, axis=1) + np.sum(lam * np.abs(pts), axis=1)
        for i in range(k):
            for j in range(i + 1, k):
                vals += w[i, j] * np.abs(pts[:, i] - pts[:, j])
        best = pts[np.argmin(vals)]
        cell = 2.0 * span / 32.0
        if cell <= target_cell:
            return best
        centers = best
        span = 3.0 * cell


def isotonic_by_partitions(v):
    """Decreasing isotonic fit along axis 0 of v (K, n) by enumeration.

    Tries all 2^(K-1) partitions of range(K) into contiguous blocks, fits
    the blockwise means, and keeps the cheapest monotone fit per column.
    Memory grows as 2^(K-1) K n, so this is a reference for small K only.
    """
    v = np.asarray(v, dtype=float)
    k, n = v.shape
    mats = []
    for cuts in range(2 ** (k - 1)):
        bounds = [0] + [i + 1 for i in range(k - 1) if (cuts >> i) & 1] + [k]
        m = np.zeros((k, k))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            m[lo:hi, lo:hi] = 1.0 / (hi - lo)
        mats.append(m)
    fits = np.einsum("pij,jn->pin", np.stack(mats), v)          # (P, K, n)
    feas = np.all(fits[:, :-1, :] >= fits[:, 1:, :] - 1e-12, axis=1)
    cost = np.where(feas, np.sum((fits - v[None]) ** 2, axis=1), np.inf)
    return fits[np.argmin(cost, axis=0), :, np.arange(n)].T


def fused_prox_by_partitions(v, lam1, pair_w):
    """Uniform-weight fused-l1 prox of each column of v (K, n): sort each
    column decreasingly, shift by the pairwise term's linear coefficients,
    fit by isotonic_by_partitions, unsort and soft-threshold."""
    v = np.asarray(v, dtype=float)
    k = v.shape[0]
    order = np.argsort(-v, axis=0, kind="stable")
    vs = np.take_along_axis(v, order, axis=0)
    shift = pair_w * (k + 1.0 - 2.0 * np.arange(1, k + 1))
    z = np.empty_like(v)
    np.put_along_axis(z, order, isotonic_by_partitions(vs - shift[:, None]), axis=0)
    return np.sign(z) * np.maximum(np.abs(z) - lam1, 0.0)


def fused_duality_gap(z, v, lam1, pair_w):
    """Duality gap of z as the fused-l1 prox of the vector v.

    lam1 is a scalar or one l1 weight per coordinate; pair_w a scalar or
    a symmetric (K, K) matrix of pair weights. The prox is
    min_z 1/2 ||z - v||^2 + ||A z||_1 with A = [diag(lam); W D], D the
    (K choose 2) x K pairwise-difference matrix and W its pair weights.
    Its dual, max_{|u| <= 1} 1/2 ||v||^2 - 1/2 ||v - A^T u||^2, is a
    bounded least-squares problem solved here by BVLS; the gap is zero
    exactly at the prox.
    """
    v = np.asarray(v, dtype=float)
    z = np.asarray(z, dtype=float)
    k = v.size
    pairs = list(combinations(range(k), 2))
    w = np.broadcast_to(np.asarray(pair_w, dtype=float), (k, k))
    diff = np.zeros((len(pairs), k))
    for row, (i, j) in enumerate(pairs):
        diff[row, i] = w[i, j]
        diff[row, j] = -w[i, j]
    a = np.vstack([np.diag(np.broadcast_to(np.asarray(lam1, dtype=float), (k,))), diff])
    u = lsq_linear(a.T, v, bounds=(-1.0, 1.0), method="bvls").x
    r = v - a.T @ u
    primal = 0.5 * float(np.sum((z - v) ** 2)) + float(np.abs(a @ z).sum())
    return primal - (0.5 * float(v @ v) - 0.5 * float(r @ r))


def fused_objective(z, v, lam1, pair_w):
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    k = v.size
    lam = np.broadcast_to(np.asarray(lam1, dtype=float), (k,))
    w = np.asarray(pair_w, dtype=float)
    if w.ndim == 0:
        w = np.full((k, k), float(w))
        np.fill_diagonal(w, 0.0)
    val = 0.5 * np.sum((z - v) ** 2) + np.sum(lam * np.abs(z))
    for i in range(k):
        for j in range(i + 1, k):
            val += w[i, j] * abs(z[i] - z[j])
    return val


def nuclear_prox_svd(a, kappa):
    """Generic nuclear-norm prox through the SVD (no PSD shortcut)."""
    u, s, vt = scipy.linalg.svd(np.asarray(a, dtype=float))
    return u @ np.diag(np.maximum(s - kappa, 0.0)) @ vt


def schur_marginal_via_inverse(s_full, observed):
    """(C_O)^{-1} for C = S^{-1}: invert S, slice, invert back."""
    cov = np.linalg.inv(s_full)
    cov_o = cov[np.ix_(observed, observed)]
    return np.linalg.inv(cov_o)


def naive_joint_objective(s_list, p_list, cov_list, rho, beta, rho_pair, beta_pair):
    """Term-by-term joint objective with plain loops, written from the
    problem statement rather than shared with the package. The l1 and
    fused terms on S skip the diagonal."""
    k = len(cov_list)
    o = cov_list[0].shape[0]
    total = 0.0
    for a in range(k):
        r = s_list[a] - p_list[a]
        sign, logdet = np.linalg.slogdet(r)
        if sign <= 0:
            return np.inf
        total += np.trace(r @ cov_list[a]) - logdet
        for i in range(o):
            for j in range(o):
                if i != j:
                    total += rho[a] * abs(s_list[a][i, j])
        total += beta[a] * np.sum(np.abs(np.linalg.eigvalsh(p_list[a])))
    for a in range(k):
        for b in range(a + 1, k):
            for i in range(o):
                for j in range(o):
                    if i != j:
                        total += rho_pair[a, b] * abs(s_list[a][i, j] - s_list[b][i, j])
                    total += beta_pair[a, b] * abs(p_list[a][i, j] - p_list[b][i, j])
    return total


def random_pd_matrix(rng, n, min_eig=0.2):
    """Well-conditioned random PD matrix."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.uniform(min_eig, min_eig + 2.0, n)
    return (q * lam) @ q.T


def random_tiny_instance(rng, o=4, k=2, h=1, m=100):
    """Observed sample covariances from a random hidden-node GMRF."""
    n = o + h
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    a = a + a.T
    w = -rng.uniform(0.5, 1.0, (n, n)) * a
    w = np.triu(w, 1) + np.triu(w, 1).T
    s = w + (abs(min(np.linalg.eigvalsh(w).min(), 0.0)) + 0.4) * np.eye(n)
    chol = np.linalg.cholesky(np.linalg.inv(s))
    covs = []
    for _ in range(k):
        x = chol @ rng.standard_normal((n, m))
        xo = x[:o]
        covs.append(xo @ xo.T / m)
    return covs
