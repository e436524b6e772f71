"""Dense symmetric linear algebra and proximal operators.

Every solver in the package is assembled from the kernels below: the
log-det barrier prox, elementwise soft-thresholding, the trace prox on
the PSD cone, and the prox of the K-coupled fused-l1 penalty. All
operators are pure functions: identical inputs give bit-identical
outputs.
"""
import numpy as np

from .errors import InvalidInput


def symmetrize(a):
    """Return the symmetric part (a + a.T) / 2 of a square array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def _check_stack(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be a square matrix or a stack of them, got shape {a.shape}")
    return a


def prox_logdet(a, c, tau: float):
    """Prox of the Gaussian log-likelihood barrier.

    Returns ``argmin_R tr(c R) - logdet(R) + (tau/2) ||R - a||_F^2``,
    computed from the eigendecomposition of ``a - c/tau`` with the
    eigenvalue map ``g -> (g + sqrt(g^2 + 4/tau)) / 2``. The result is
    strictly positive definite. ``a`` and ``c`` are symmetric matrices or
    stacks ``(..., o, o)`` of them, of one shape; only the lower triangle
    of ``a - c/tau`` is read, and the output is not symmetrized.
    """
    if tau <= 0:
        raise InvalidInput(f"tau must be positive, got {tau}")
    a = _check_stack(a, "a")
    c = _check_stack(c, "c")
    if a.shape != c.shape:
        raise InvalidInput(f"shape mismatch: {a.shape} vs {c.shape}")
    g, q = np.linalg.eigh(a - c / tau)
    phi = 0.5 * (g + np.sqrt(g * g + 4.0 / tau))
    return (q * phi[..., None, :]) @ np.swapaxes(q, -1, -2)


def soft_threshold(a, lam: float, penalize_diagonal: bool = False):
    """Elementwise l1 prox; the diagonal is left untouched unless requested."""
    if lam < 0:
        raise InvalidInput(f"lambda must be nonnegative, got {lam}")
    a = np.asarray(a, dtype=float)
    out = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
    if not penalize_diagonal and a.ndim == 2 and a.shape[0] == a.shape[1]:
        idx = np.diag_indices_from(a)
        out[idx] = a[idx]
    return out


def prox_psd_trace(a, kappa):
    """Prox of ``kappa * tr(.)`` restricted to the PSD cone.

    For PSD arguments the nuclear norm equals the trace, so this is the
    eigenvalue shift-and-clip ``Q max(L - kappa, 0) Q^T``. With
    ``kappa = 0`` it reduces to the PSD projection. ``a`` is a symmetric
    matrix or a stack ``(..., o, o)`` of them (only the lower triangle is
    read, and the output is not symmetrized); ``kappa`` is a scalar or
    one weight per matrix.
    """
    a = _check_stack(a, "a")
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape not in ((), a.shape[:-2]):
        raise InvalidInput(f"kappa must be a scalar or of shape {a.shape[:-2]}, got {kappa.shape}")
    if np.any(kappa < 0):
        raise InvalidInput(f"kappa must be nonnegative, got {kappa}")
    g, q = np.linalg.eigh(a)
    phi = np.maximum(g - kappa[..., None], 0.0)
    return (q * phi[..., None, :]) @ np.swapaxes(q, -1, -2)


# ---------------------------------------------------------------------------
# Fused-l1 prox across K coupled scalars:
#   argmin_z  1/2 ||z - v||^2 + sum_k lam_k |z_k| + sum_{k<k'} w_kk' |z_k - z_k'|
#
# Uniform pair weights admit an exact direct solution: the pairwise term,
# on vectors sorted in decreasing order, is linear with coefficients
# w*(K - 2k + 1), so the prox is an isotonic regression of the shifted
# sorted vector followed by soft-thresholding (the l1 part composes since
# soft-thresholding preserves coordinate ordering). The isotonic fit is the
# min-max formula fit_i = min_{j<=i} max_{l>=i} mean(v_j..v_l), evaluated
# for all columns at once in O(K^2) time and O(K) memory per column. The
# solvers apply it to the upper triangle of the symmetric part of each
# matrix and mirror the result, which is the exact prox over symmetric
# matrices. Non-uniform weights fall back to exact cyclic coordinate
# minimization with joint moves over subsets of tied coordinates;
# single-coordinate sweeps alone can stall on fused groups.
# ---------------------------------------------------------------------------


def _isotonic_decreasing_stack(v):
    """Exact decreasing isotonic fit along axis 0 of v with shape (K, n)."""
    k = v.shape[0]
    fit = np.full_like(v, np.inf)
    for j in range(k):
        # means of the blocks v_j..v_l for l >= j, then their max over l >= i
        means = np.cumsum(v[j:], axis=0) / np.arange(1, k - j + 1)[:, None]
        upper = np.maximum.accumulate(means[::-1], axis=0)[::-1]
        np.minimum(fit[j:], upper, out=fit[j:])
    return fit


def fused_prox_stack(v, lam1, pair_weight: float):
    """Vectorized fused-l1 prox along axis 0 with uniform pair weight.

    v has shape (K, n): n independent prox problems, one per column.
    lam1 is a scalar (or per-column array) l1 weight shared by all K
    coordinates of a column.
    """
    v = np.asarray(v, dtype=float)
    k = v.shape[0]
    if k == 1 or pair_weight == 0.0:
        return np.sign(v) * np.maximum(np.abs(v) - lam1, 0.0)
    order = np.argsort(-v, axis=0, kind="stable")
    vs = np.take_along_axis(v, order, axis=0)
    shift = pair_weight * (k - 2.0 * np.arange(1, k + 1) + 1.0)
    fit = _isotonic_decreasing_stack(vs - shift[:, None])
    z = np.empty_like(v)
    np.put_along_axis(z, order, fit, axis=0)
    return np.sign(z) * np.maximum(np.abs(z) - lam1, 0.0)


def _pair_weight_matrix(pair_weights, k: int):
    """Normalize pair weights to a symmetric (k, k) matrix with zero diagonal."""
    w = np.asarray(pair_weights, dtype=float)
    if w.ndim == 0:
        full = np.full((k, k), float(w))
        np.fill_diagonal(full, 0.0)
    elif w.ndim == 1:
        if w.size != k * (k - 1) // 2:
            raise InvalidInput(
                f"need {k * (k - 1) // 2} pair weights for K={k}, got {w.size}")
        full = np.zeros((k, k))
        iu = np.triu_indices(k, 1)
        full[iu] = w
        full = full + full.T
    elif w.shape == (k, k):
        if not np.array_equal(w, w.T):
            raise InvalidInput("pair weight matrix must be symmetric")
        full = w.copy()
        np.fill_diagonal(full, 0.0)
    else:
        raise InvalidInput(f"cannot interpret pair weights of shape {w.shape}")
    if np.any(full < 0):
        raise InvalidInput("pair weights must be nonnegative")
    return full


def _fused_coordinate_min(v_eff, lam_eff, anchors):
    """argmin_t 1/2 (t - v_eff)^2 + lam_eff |t| + sum_j w_j |t - a_j|.

    anchors is a list of (w_j, a_j). The objective is convex piecewise
    quadratic; the minimizer is either a stationary point inside one of
    the intervals between breakpoints or a breakpoint itself.
    """
    pts = sorted({0.0, *(a for _, a in anchors)})

    def val(t):
        out = 0.5 * (t - v_eff) ** 2 + lam_eff * abs(t)
        for wj, aj in anchors:
            out += wj * abs(t - aj)
        return out

    best_t, best_v = pts[0], val(pts[0])
    for p in pts[1:]:
        fv = val(p)
        if fv < best_v:
            best_t, best_v = p, fv
    edges = [pts[0] - 1.0] + [0.5 * (pts[i] + pts[i + 1]) for i in range(len(pts) - 1)] \
        + [pts[-1] + 1.0]
    for i, mid in enumerate(edges):
        t = v_eff - lam_eff * np.sign(mid) - sum(wj * np.sign(mid - aj) for wj, aj in anchors)
        lo = -np.inf if i == 0 else pts[i - 1]
        hi = np.inf if i == len(edges) - 1 else pts[i]
        if lo < t < hi:
            fv = val(t)
            if fv < best_v:
                best_t, best_v = t, fv
    return best_t


def _fused_objective(z, v, lam, w_full):
    obj = 0.5 * np.sum((z - v) ** 2) + np.sum(lam * np.abs(z))
    iu = np.triu_indices(len(v), 1)
    obj += np.sum(w_full[iu] * np.abs(z[iu[0]] - z[iu[1]]))
    return obj


def _fused_general(v, lam, w_full, max_sweeps=1000, tol=1e-10):
    """Exact fused-l1 prox for arbitrary nonnegative pair weights (small K)."""
    k = len(v)
    z = v.copy()
    for _ in range(max_sweeps):
        z_prev = z.copy()
        for i in range(k):
            anchors = [(w_full[i, j], z[j]) for j in range(k) if j != i and w_full[i, j] > 0]
            z[i] = _fused_coordinate_min(v[i], lam[i], anchors)
        # joint moves over subsets of tied coordinates: a fused group can
        # be stuck even though every single coordinate is 1-d optimal
        groups = {}
        for i in range(k):
            groups.setdefault(round(z[i], 12), []).append(i)
        for members in groups.values():
            if len(members) < 2:
                continue
            for mask in range(1, 2 ** len(members)):
                sub = [members[b] for b in range(len(members)) if (mask >> b) & 1]
                rest = [j for j in range(k) if j not in sub]
                q = len(sub)
                v_eff = float(np.mean(v[sub]))
                lam_eff = float(np.sum(lam[sub])) / q
                anchors = []
                for j in rest:
                    wj = float(np.sum(w_full[sub, j]))
                    if wj > 0:
                        anchors.append((wj / q, z[j]))
                t = _fused_coordinate_min(v_eff, lam_eff, anchors)
                trial = z.copy()
                trial[sub] = t
                if _fused_objective(trial, v, lam, w_full) < _fused_objective(z, v, lam, w_full) - 1e-15:
                    z = trial
        if np.max(np.abs(z - z_prev)) < tol:
            break
    return z


def prox_fused_l1(values, lambda1, pair_weights=0.0):
    """Prox of the K-coupled fused-l1 plus elementwise l1 penalty.

    Returns ``argmin_z 1/2 ||z - values||^2 + lambda1 ||z||_1
    + sum_{k<k'} w_kk' |z_k - z_k'|``. ``lambda1`` may be a scalar or a
    per-coordinate array; ``pair_weights`` a scalar, a condensed vector
    of length K(K-1)/2 ordered by (k, k') with k < k', or a full
    symmetric matrix.

    K = 1 reduces to soft-thresholding. Uniform weights (always the case
    for K = 2) use the exact sort/isotonic closed path; otherwise an
    exact coordinate method with tied-subset moves is used.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise InvalidInput("values must be a nonempty 1-d vector")
    k = v.size
    lam = np.broadcast_to(np.asarray(lambda1, dtype=float), (k,)).copy()
    if np.any(lam < 0):
        raise InvalidInput("lambda1 must be nonnegative")
    w_full = _pair_weight_matrix(pair_weights, k)
    if k == 1:
        return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
    offd = w_full[np.triu_indices(k, 1)]
    uniform = np.all(offd == offd[0]) and np.all(lam == lam[0])
    if uniform:
        return fused_prox_stack(v[:, None], lam[0], float(offd[0]))[:, 0]
    return _fused_general(v, lam, w_full)
