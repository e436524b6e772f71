"""Dense symmetric linear algebra and proximal operators.

Every solver in the package is assembled from the kernels below: the
log-det barrier prox, elementwise soft-thresholding (which, like every
l1 term on S in the package, leaves the diagonal unpenalized), the trace
prox on the PSD cone, and the prox of the K-coupled fused-l1 penalty. All
operators are pure functions: identical inputs give bit-identical
outputs.
"""
import numpy as np

from .errors import InvalidInput

# Largest K for which non-uniform weights are accepted. The cut kernel costs
# 2^K per column: prox_fused_l1 runs it on one column, a solve on every
# upper-triangle entry twice per iteration (one K = 8 call on the 5,050
# entries of O = 100 peaks at 23 MB).
_MAX_CUT_LAYERS = 16
_MAX_SOLVE_CUT_LAYERS = 8


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


def _per_matrix(value, shape, name):
    """value as a float array: a scalar, or one value per matrix of a stack
    whose leading shape is `shape`."""
    value = np.asarray(value, dtype=float)
    if value.shape not in ((), shape):
        raise InvalidInput(f"{name} must be a scalar or of shape {shape}, got {value.shape}")
    return value


def prox_logdet(a, c, tau):
    """Prox of the Gaussian log-likelihood barrier.

    Returns ``argmin_R tr(c R) - logdet(R) + (tau/2) ||R - a||_F^2``,
    computed from the eigendecomposition of ``a - c/tau`` with the
    eigenvalue map ``g -> (g + sqrt(g^2 + 4/tau)) / 2``. The result is
    strictly positive definite. ``a`` and ``c`` are symmetric matrices or
    stacks ``(..., o, o)`` of them, of one shape; only the lower triangle
    of ``a - c/tau`` is read, and the output is not symmetrized. ``tau``
    is a scalar or one step per matrix (shape ``a.shape[:-2]``); each
    matrix's result has the bits of a call on that matrix alone.
    """
    a = _check_stack(a, "a")
    c = _check_stack(c, "c")
    if a.shape != c.shape:
        raise InvalidInput(f"shape mismatch: {a.shape} vs {c.shape}")
    tau = _per_matrix(tau, a.shape[:-2], "tau")
    if not np.all((0 < tau) & (tau < np.inf)):
        raise InvalidInput(f"tau must be positive and finite, got {tau}")
    g, q = np.linalg.eigh(a - c / tau[..., None, None])
    phi = 0.5 * (g + np.sqrt(g * g + 4.0 / tau[..., None]))
    return (q * phi[..., None, :]) @ np.swapaxes(q, -1, -2)


def soft_threshold(a, lam):
    """Elementwise l1 prox; the diagonal of a square matrix, or of each
    matrix of a stack (..., o, o), is left untouched. lam is a scalar or,
    for a stack, one weight per matrix (shape a.shape[:-2]); each matrix's
    result has the bits of a call on that matrix alone."""
    a = np.asarray(a, dtype=float)
    square = a.ndim >= 2 and a.shape[-2] == a.shape[-1]
    lam = _per_matrix(lam, a.shape[:-2] if square else (), "lambda")
    if not np.all((0 <= lam) & (lam < np.inf)):
        raise InvalidInput(f"lambda must be finite and nonnegative, got {lam}")
    if lam.ndim:
        lam = lam[..., None, None]
    out = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
    if square:
        idx = np.arange(a.shape[-1])
        out[..., idx, idx] = a[..., idx, idx]
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
    kappa = _per_matrix(kappa, a.shape[:-2], "kappa")
    if not np.all(kappa >= 0):
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
# for all columns at once in O(K^2) time and O(K) memory per column.
# Per-coordinate l1 weights or non-uniform pair weights take the exact
# minimum-cut decomposition of fused_prox_cuts, batched over columns.
# _fused_columns makes that choice once per weight set, and
# symmetric_fused_prox, the solvers' kernel, applies it to the upper
# triangle of the symmetric part of each matrix and mirrors the result,
# which is the exact prox over symmetric matrices.
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


def fused_prox_stack(v, lam1, pair_weight):
    """Vectorized fused-l1 prox along axis 0 with one pair weight per column.

    v has shape (K, n): n independent prox problems, one per column.
    lam1 is the l1 weight shared by all K coordinates of a column and
    pair_weight the weight of each of its pairs, each a scalar or one
    value per column. Columns of pair weight 0 are soft-thresholded
    exactly; every column's result has the bits of a call on that column
    alone.
    """
    v = np.asarray(v, dtype=float)
    pair_weight = np.asarray(pair_weight, dtype=float)
    k = v.shape[0]
    z = v
    if k > 1 and pair_weight.any():
        order = (np.argsort(-v, axis=0, kind="stable"), np.arange(v.shape[1]))
        shift = (k - 2.0 * np.arange(1, k + 1) + 1.0)[:, None] * pair_weight
        z = np.empty_like(v)
        z[order] = _isotonic_decreasing_stack(v[order] - shift)
        if not pair_weight.all():
            z = np.where(pair_weight == 0.0, v, z)
    return np.sign(z) * np.maximum(np.abs(z) - lam1, 0.0)


def _pair_weight_matrix(pair_weights, k: int, name: str = "pair weights"):
    """Normalize pair weights (a scalar, a condensed vector or a symmetric
    matrix) to a (k, k) matrix with zero diagonal; all must be finite and
    nonnegative."""
    w = np.asarray(pair_weights, dtype=float)
    if not np.isfinite(w).all():
        raise InvalidInput(f"{name} must be finite")
    if w.ndim == 0:
        full = np.full((k, k), float(w))
        np.fill_diagonal(full, 0.0)
    elif w.ndim == 1:
        if w.size != k * (k - 1) // 2:
            raise InvalidInput(
                f"need {k * (k - 1) // 2} {name} for K={k}, got {w.size}")
        full = np.zeros((k, k))
        iu = np.triu_indices(k, 1)
        full[iu] = w
        full = full + full.T
    elif w.shape == (k, k):
        if not np.array_equal(w, w.T):
            raise InvalidInput(f"{name} must be symmetric")
        full = w.copy()
        np.fill_diagonal(full, 0.0)
    else:
        raise InvalidInput(f"cannot interpret {name} of shape {w.shape}")
    if np.any(full < 0):
        raise InvalidInput(f"{name} must be nonnegative")
    return full


def _is_uniform(lam, pair):
    """True when one l1 weight and one pair weight serve every coordinate."""
    offd = pair[np.triu_indices(len(lam), 1)]
    return bool(np.all(lam == lam[0]) and np.all(offd == offd[:1]))


def fused_prox_cuts(v, lam, pair):
    """Exact fused-l1 prox along axis 0 for any nonnegative weights.

    v has shape (K, n): n independent problems
    ``argmin_z 1/2 ||z - v||^2 + sum_k lam_k |z_k|
    + sum_{k<k'} pair_kk' |z_k - z_k'|``, with lam of shape (K,) and pair
    a symmetric (K, K) matrix with zero diagonal. Divide and conquer
    (Hochbaum, JACM 2001): an open group G of coordinates takes its
    all-equal fit t, and a minimum cut over the subsets of G either
    closes G at t or splits it into a part above t and a part below.
    Edges to coordinates already ranked above or below G act on it as
    linear terms. Only a proper subset of strictly negative cut cost
    splits, so each round closes or shrinks every open group and K
    rounds suffice, also on NaN input. At t = 0 the l1 kink splits three
    ways: the part above 0 from the right derivative, the part below from
    the mirrored problem, and the rest closes at 0. The cuts enumerate
    the 2^K subsets of all columns' groups at once, so time and memory
    grow as 2^K n.
    """
    k, n = v.shape
    bits = np.arange(k)
    member = ((np.arange(2 ** k) >> bits[:, None]) & 1).astype(float)  # (K, 2^K)
    # each subset's membership row, then the weight of the edges leaving it
    table = np.vstack([member, np.einsum("am,ab,bm->m", member, pair, 1.0 - member)])
    key = np.zeros((k, n), dtype=np.int64)     # one key per group; smaller keys rank above
    z = np.empty((k, n))
    done = np.zeros((k, n), dtype=bool)
    for _ in range(k):
        same = key[None] == key[:, None]                                # (K, K, n)
        above = np.einsum("kj,kjn->kn", pair, key[None] < key[:, None])
        below = np.einsum("kj,kjn->kn", pair, key[None] > key[:, None])
        leader = np.argmax(same, axis=1)
        jk, jc = np.nonzero(~done & (leader == bits[:, None]))          # one job per open group
        grp = same[jk, :, jc]                                           # (jobs, K) members
        size = grp.sum(axis=1)
        mean_v = np.where(grp, (v + above - below)[:, jc].T, 0.0).sum(axis=1) / size
        t = np.sign(mean_v) * np.maximum(np.abs(mean_v) - grp @ lam / size, 0.0)
        gmask = grp @ (1 << bits)
        jobs = np.arange(jk.size)
        # cost of each subset A of G = cut of A in the full graph + unary
        # terms: each member's derivative at t (the right one at t = 0; `down`
        # is the mirrored problem), less its edges leaving G. Non-members get
        # a cost no subset of G can offset.
        up = t[:, None] - (v + 2.0 * above)[:, jc].T + np.where(t < 0.0, -1.0, 1.0)[:, None] * lam
        down = (v - 2.0 * below)[:, jc].T + lam
        split = []
        for unary in (up, down):
            cost = np.hstack([np.where(grp, unary, 1e300), np.ones((jk.size, 1))]) @ table
            cost[jobs, gmask] = np.inf
            arg = np.argmin(cost, axis=1)
            split.append(np.where(cost[jobs, arg] < 0.0, arg, 0))
        hi, lo = split
        # below t: the mirrored cut at t = 0, else the rest of a split group
        lo = np.where(t == 0.0, lo & ~hi, np.where(hi > 0, gmask & ~hi, 0))
        # hand each group's result to its members
        job = np.zeros((k, n), dtype=np.int64)
        job[jk, jc] = jobs
        job = np.take_along_axis(job, leader, axis=0)
        part = 1 - (hi[job] >> bits[:, None] & 1) + (lo[job] >> bits[:, None] & 1)
        closing = ~done & (part == 1)
        z[closing] = t[job[closing]]
        done |= closing
        key = 3 * key + part    # above t, closed at t, below t; groups keep their order
        if done.all():
            break
    return z


def _fused_columns(lam, pair, max_cut_layers):
    """The fused-l1 prox f(v, sigma) of the columns of v (K, n) at l1
    weights lam / sigma and pair weights pair / sigma (a symmetric (K, K)
    matrix with zero diagonal), its path chosen once for these weights.

    Raises InvalidInput if the weights are not uniform and K exceeds
    max_cut_layers.
    """
    if _is_uniform(lam, pair):
        # the one pair weight; 0 at K = 1, where this is soft-thresholding
        lam1, pair_weight = lam[0], float(pair.max())
        return lambda v, sigma: fused_prox_stack(v, lam1 / sigma, pair_weight / sigma)
    if len(lam) > max_cut_layers:
        raise InvalidInput(f"non-uniform weights need a fused prox exponential in K; K={len(lam)} "
                           f"exceeds {max_cut_layers}, use PenaltyWeights.tied")
    return lambda v, sigma: fused_prox_cuts(v, lam / sigma, pair / sigma)


def symmetric_fused_prox(lam, pair, o: int, diagonal: bool):
    """The fused-l1 prox f(v, sigma) over symmetric matrices of B problems
    of K layers, at l1 weights lam / sigma and pair weights pair / sigma
    (as in _fused_columns). lam is (K,) or (B, K), pair (K, K) or (B, K,
    K), one weight set per problem; v is (K, o, o) or (B, K, o, o) to
    match, and sigma a scalar or one step per problem.

    The upper triangle (with the diagonal if `diagonal` is set) gets the
    prox of the symmetric part (v + v^T) / 2 and is mirrored to the lower
    one; an unpenalized diagonal keeps the values of v. Since the penalty
    and the squared distance each count an off-diagonal pair twice, this
    is the exact prox over symmetric matrices. The triangles of all
    problems are laid out as the columns of one (K, B n) array, so one
    fused_prox_stack call serves the batch when every problem's weights
    are uniform; otherwise each problem takes its own _fused_columns path.
    The index tables are built here, once per weight set.

    Raises InvalidInput if some problem's weights are not uniform and
    K > 8.
    """
    k = np.shape(lam)[-1]
    lam = np.reshape(lam, (-1, k))
    pair = np.reshape(pair, (-1, k, k))
    b = lam.shape[0]
    i, j = np.triu_indices(o, 0 if diagonal else 1)
    n = i.size
    # entry t of problem p's layer l sits in column p n + t, row l
    base = (np.arange(b) * k + np.arange(k)[:, None])[:, :, None] * (o * o)
    upper = (base + i * o + j).reshape(k, b * n)
    lower = (base + j * o + i).reshape(k, b * n)
    if all(_is_uniform(lam_p, pair_p) for lam_p, pair_p in zip(lam, pair)):
        # the one pair weight of each problem; 0 at K = 1, where this is soft-thresholding
        lam1, pair_weight = lam[:, 0], pair.max(axis=(1, 2))

        def fused(sym, sigma):
            return fused_prox_stack(sym, np.repeat(lam1 / sigma, n),
                                    np.repeat(pair_weight / sigma, n))
    else:
        paths = [_fused_columns(lam_p, pair_p, _MAX_SOLVE_CUT_LAYERS)
                 for lam_p, pair_p in zip(lam, pair)]

        def fused(sym, sigma):
            sigma = np.broadcast_to(sigma, (b,))
            return np.hstack([path(sym[:, p * n:(p + 1) * n], sigma[p])
                              for p, path in enumerate(paths)])

    def prox(v, sigma):
        flat = v.reshape(-1)
        out = flat.copy()
        z = fused(0.5 * (flat[upper] + flat[lower]), sigma)
        out[upper] = z
        out[lower] = z
        return out.reshape(v.shape)

    return prox


def prox_fused_l1(values, lambda1, pair_weights=0.0):
    """Prox of the K-coupled fused-l1 plus elementwise l1 penalty.

    Returns ``argmin_z 1/2 ||z - values||^2 + lambda1 ||z||_1
    + sum_{k<k'} w_kk' |z_k - z_k'|``. ``lambda1`` may be a scalar or a
    per-coordinate array; ``pair_weights`` a scalar, a condensed vector
    of length K(K-1)/2 ordered by (k, k') with k < k', or a full
    symmetric matrix.

    One l1 weight and one pair weight for all coordinates take the exact
    sort/isotonic path of fused_prox_stack; anything else takes the exact
    minimum-cut decomposition of fused_prox_cuts, whose cost grows as 2^K,
    and is rejected beyond K = 16.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise InvalidInput("values must be a nonempty 1-d vector")
    k = v.size
    lam = np.broadcast_to(np.asarray(lambda1, dtype=float), (k,))
    if not np.isfinite(lam).all() or np.any(lam < 0):
        raise InvalidInput("lambda1 must be finite and nonnegative")
    w_full = _pair_weight_matrix(pair_weights, k)
    return _fused_columns(lam, w_full, _MAX_CUT_LAYERS)(v[:, None], 1.0)[:, 0]
