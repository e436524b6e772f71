import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggm.errors import InvalidInput
from ggm.prox import (
    _pair_weight_matrix,
    fused_prox_cuts,
    fused_prox_stack,
    prox_fused_l1,
    prox_logdet,
    prox_psd_trace,
    soft_threshold,
    symmetrize,
)

from _oracles import (
    fused_brute_force,
    fused_duality_gap,
    fused_objective,
    fused_prox_by_partitions,
    nuclear_prox_svd,
)


def sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# symmetrize
# ---------------------------------------------------------------------------

def test_symmetrize_rejects_nonsquare():
    with pytest.raises(InvalidInput):
        symmetrize(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# prox_logdet
# ---------------------------------------------------------------------------

def test_prox_logdet_scalar_golden_ratio():
    # stationarity c - 1/r + tau (r - a) = 0 with a=1, c=0, tau=1: r^2 - r - 1 = 0
    r = prox_logdet(np.array([[1.0]]), np.array([[0.0]]), 1.0)
    assert abs(r[0, 0] - (1 + np.sqrt(5)) / 2) < 1e-12


def test_prox_logdet_scalar_sqrt2_over_2():
    r = prox_logdet(np.array([[1.0]]), np.array([[2.0]]), 2.0)
    assert abs(r[0, 0] - np.sqrt(2) / 2) < 1e-12
    residual = 2.0 - 1.0 / r[0, 0] + 2.0 * (r[0, 0] - 1.0)
    assert abs(residual) < 1e-12


def test_prox_logdet_large_tau_returns_input():
    r = prox_logdet(np.eye(2), np.zeros((2, 2)), 1e8)
    assert np.allclose(r, np.eye(2), atol=1e-6)


def test_prox_logdet_stationarity_random():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        a = sym(rng, n)
        c = sym(rng, n, 0.5)
        tau = float(rng.uniform(0.2, 5.0))
        r = prox_logdet(a, c, tau)
        assert np.linalg.eigvalsh(r).min() > 0
        station = c - np.linalg.inv(r) + tau * (r - a)
        assert np.linalg.norm(station) <= 1e-8 * n


def test_prox_logdet_rejects_bad_tau():
    with pytest.raises(InvalidInput):
        prox_logdet(np.eye(2), np.eye(2), 0.0)


# ---------------------------------------------------------------------------
# soft_threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_basic_entries():
    a = np.array([[0.0, 1.5], [1.5, 0.0]])
    assert np.allclose(soft_threshold(a, 1.0), [[0.0, 0.5], [0.5, 0.0]])
    b = np.array([[0.0, -0.3], [-0.3, 0.0]])
    assert np.allclose(soft_threshold(b, 0.5), 0.0)


def test_soft_threshold_zero_lambda_is_identity():
    rng = np.random.default_rng(2)
    a = sym(rng, 5)
    assert np.array_equal(soft_threshold(a, 0.0), a)


def test_soft_threshold_diagonal_convention():
    a = np.diag([2.0, -3.0])
    assert np.array_equal(soft_threshold(a, 1.0), a)
    assert np.allclose(soft_threshold(a, 1.0, penalize_diagonal=True), np.diag([1.0, -2.0]))


def test_soft_threshold_rejects_negative_lambda():
    with pytest.raises(InvalidInput):
        soft_threshold(np.eye(2), -0.1)


# ---------------------------------------------------------------------------
# prox_psd_trace
# ---------------------------------------------------------------------------

def test_prox_psd_trace_shift_and_clip():
    out = prox_psd_trace(np.diag([3.0, 1.0, -1.0]), 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0, 0.0]), atol=1e-12)


def test_prox_psd_trace_zero_kappa_is_psd_projection():
    out = prox_psd_trace(np.diag([2.0, -1.0]), 0.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_prox_psd_trace_matches_svd_nuclear_prox_on_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = rng.standard_normal((5, 5))
        a = b @ b.T + 0.8 * np.eye(5)       # PSD, min eigenvalue > kappa
        kappa = 0.5
        if np.linalg.eigvalsh(a).min() <= kappa:
            continue
        out = prox_psd_trace(a, kappa)
        assert np.allclose(out, a - kappa * np.eye(5), atol=1e-10)
        assert np.allclose(out, nuclear_prox_svd(a, kappa), atol=1e-8)


def test_prox_psd_trace_optimal_among_psd_perturbations():
    rng = np.random.default_rng(4)

    def objective(z, a, kappa):
        return 0.5 * np.linalg.norm(z - a) ** 2 + kappa * np.trace(z)

    for _ in range(5):
        a = sym(rng, 4, 2.0)
        kappa = float(rng.uniform(0.1, 1.0))
        out = prox_psd_trace(a, kappa)
        base = objective(out, a, kappa)
        for _ in range(100):
            pert = out + sym(rng, 4, 0.2)
            pert = prox_psd_trace(pert, 0.0)    # project back onto the cone
            assert base <= objective(pert, a, kappa) + 1e-10


def test_prox_psd_trace_rejects_negative_kappa():
    with pytest.raises(InvalidInput):
        prox_psd_trace(np.eye(2), -1.0)


# ---------------------------------------------------------------------------
# stacks of matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("o", [1, 5, 18])
def test_prox_logdet_stack_equals_per_matrix_calls(o):
    rng = np.random.default_rng(o)
    a = np.stack([sym(rng, o) for _ in range(4)])
    c = np.stack([sym(rng, o, 0.5) for _ in range(4)])
    out = prox_logdet(a, c, 1.7)
    assert out.shape == (4, o, o)
    for i in range(4):
        assert np.array_equal(out[i], prox_logdet(a[i], c[i], 1.7))


@pytest.mark.parametrize("o", [1, 5, 18])
def test_prox_psd_trace_stack_equals_per_matrix_calls(o):
    rng = np.random.default_rng(10 + o)
    a = np.stack([sym(rng, o, 2.0) for _ in range(4)])
    kappa = np.array([0.0, 0.3, 1.0, 2.5])
    out = prox_psd_trace(a, kappa)
    assert out.shape == (4, o, o)
    for i in range(4):
        assert np.array_equal(out[i], prox_psd_trace(a[i], kappa[i]))
    # a scalar kappa serves every matrix
    assert np.array_equal(prox_psd_trace(a, 0.3)[1], out[1])


def test_stack_kernels_reject_bad_arguments():
    a = np.broadcast_to(np.eye(3), (2, 3, 3))
    with pytest.raises(InvalidInput):
        prox_psd_trace(a, np.array([0.1, -0.1]))       # negative weight
    with pytest.raises(InvalidInput):
        prox_psd_trace(a, np.array([0.1, 0.2, 0.3]))   # not one weight per matrix
    with pytest.raises(InvalidInput):
        prox_logdet(a, np.eye(3), 1.0)                 # a and c differ in shape
    with pytest.raises(InvalidInput):
        prox_logdet(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), 1.0)


# ---------------------------------------------------------------------------
# prox_fused_l1
# ---------------------------------------------------------------------------

def test_fused_example_symmetric_pair():
    # frozen from grid brute force over (z1, z2)
    z = prox_fused_l1([2.0, 2.0], 0.5, 1.0)
    assert np.allclose(z, [1.5, 1.5], atol=1e-12)
    zb = fused_brute_force([2.0, 2.0], 0.5, 1.0)
    assert np.max(np.abs(z - zb)) < 2e-3


def test_fused_example_fuse_then_shrink():
    z = prox_fused_l1([4.0, 1.0], 0.0, 1.0)
    assert np.allclose(z, [3.0, 2.0], atol=1e-12)


def test_fused_k1_reduces_to_soft_threshold():
    assert np.allclose(prox_fused_l1([1.5], 1.0), [0.5])
    assert np.allclose(prox_fused_l1([-1.5], 1.0), [-0.5])


def test_fused_agrees_with_brute_force():
    rng = np.random.default_rng(5)
    for trial in range(100):
        k = int(rng.integers(1, 4))
        v = rng.normal(0.0, 1.5, k)
        lam = float(rng.uniform(0.0, 1.0))
        if trial % 2 == 0 or k < 3:
            w = float(rng.uniform(0.0, 1.0))
        else:
            w = np.zeros((k, k))
            iu = np.triu_indices(k, 1)
            w[iu] = rng.uniform(0.0, 1.0, iu[0].size)
            w = w + w.T
        z = prox_fused_l1(v, lam, w)
        zb = fused_brute_force(v, lam, w)
        assert np.max(np.abs(z - zb)) <= 2e-3, (v, lam, w, z, zb)
        # and never a worse objective than the grid point
        assert fused_objective(z, v, lam, w) <= fused_objective(zb, v, lam, w) + 1e-9


def test_fused_coordinate_descent_stall_case():
    # v=(5,5)-like starts fuse toward each other; plain per-coordinate
    # sweeps stall at (1,1) here while the optimum is (0,0)
    z = prox_fused_l1([0.0, 0.0], 0.0, 1.0)
    assert np.allclose(z, [0.0, 0.0])
    z = prox_fused_l1([1.0, -1.0], 0.0, 5.0)
    assert np.allclose(z, [0.0, 0.0], atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    values=st.lists(st.floats(-3, 3), min_size=2, max_size=5),
    lam=st.floats(0, 2),
    w=st.floats(0, 2),
    seed=st.integers(0, 10_000),
)
def test_fused_permutation_equivariance_and_range(values, lam, w, seed):
    v = np.asarray(values)
    z = prox_fused_l1(v, lam, w)
    assert z.min() >= min(0.0, v.min()) - 1e-9
    assert z.max() <= max(0.0, v.max()) + 1e-9
    perm = np.random.default_rng(seed).permutation(v.size)
    z_perm = prox_fused_l1(v[perm], lam, w)
    assert np.allclose(z_perm, z[perm], atol=1e-9)


def test_fused_rejects_negative_weights():
    with pytest.raises(InvalidInput):
        prox_fused_l1([1.0, 2.0], 0.1, -0.5)
    with pytest.raises(InvalidInput):
        prox_fused_l1([1.0, 2.0], -0.1, 0.5)
    # non-uniform weights beyond 16 coordinates: a 2^K cut table
    with pytest.raises(InvalidInput, match="exponential in K"):
        prox_fused_l1(np.arange(17.0), np.linspace(0.0, 1.0, 17), 0.5)
    assert np.all(np.isfinite(prox_fused_l1(np.arange(17.0), 0.1, 0.5)))


def test_fused_stack_matches_per_column():
    rng = np.random.default_rng(6)
    v = rng.normal(0.0, 2.0, (4, 30))
    out = fused_prox_stack(v, 0.3, 0.2)
    for i in range(v.shape[1]):
        assert np.allclose(out[:, i], prox_fused_l1(v[:, i], 0.3, 0.2), atol=1e-12)


def tied_columns(rng, k, n):
    """Normal (k, n) columns in which about half the entries copy another
    row of their column, so the ties the exact prox must fuse occur."""
    v = rng.standard_normal((k, n))
    tie = rng.random((k, n)) < 0.5
    return np.where(tie, v[rng.integers(0, k, size=k)], v)


@settings(deadline=None, max_examples=80)
@given(
    data=st.data(),
    k=st.integers(2, 10),
    n=st.integers(1, 4),
    lam=st.floats(0, 2),
    w=st.floats(0, 2),
)
def test_fused_stack_matches_partition_enumeration(data, k, n, lam, w):
    size = k * n
    v = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size)))
    src = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size)))
    tie = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    v = v.reshape(k, n)
    v = np.where(tie.reshape(k, n), np.take_along_axis(v, src.reshape(k, n), axis=0), v)
    out = fused_prox_stack(v, lam, w)
    assert np.max(np.abs(out - fused_prox_by_partitions(v, lam, w))) <= 1e-12


@pytest.mark.parametrize("k", [12, 16])
def test_fused_stack_dual_certificate_many_layers(k):
    rng = np.random.default_rng(k)
    v = tied_columns(rng, k, 24)
    for lam, w in [(0.3, 0.15), (0.0, 0.5), (1.0, 0.05)]:
        out = fused_prox_stack(v, lam, w)
        for c in range(v.shape[1]):
            gap = fused_duality_gap(out[:, c], v[:, c], lam, w)
            assert abs(gap) <= 64 * np.finfo(float).eps * max(1.0, float(v[:, c] @ v[:, c]))


def test_fused_stack_memory_bounded_at_sixteen_layers():
    v = tied_columns(np.random.default_rng(16), 16, 756)
    tracemalloc.start()
    try:
        fused_prox_stack(v, 0.3, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * v.nbytes


def random_pair_weights(rng, k):
    """Symmetric (k, k) pair weights drawn from [0.05, 1], about a third
    of them exactly 0, with a zero diagonal."""
    w = np.triu(rng.uniform(0.05, 1.0, (k, k)) * (rng.random((k, k)) < 0.7), 1)
    return w + w.T


@pytest.mark.parametrize("k", range(2, 9))
def test_fused_cuts_dual_certificate(k):
    rng = np.random.default_rng(100 + k)
    v = tied_columns(rng, k, 24)
    v[:, :2] = 0.0
    for _ in range(3):
        lam = rng.uniform(0.05, 1.0, k) * (rng.random(k) < 0.7)
        pair = random_pair_weights(rng, k)
        out = fused_prox_cuts(v, lam, pair)
        for c in range(v.shape[1]):
            gap = fused_duality_gap(out[:, c], v[:, c], lam, pair)
            assert abs(gap) <= 64 * np.finfo(float).eps * max(1.0, float(v[:, c] @ v[:, c]))


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    k=st.integers(2, 8),
    n=st.integers(1, 4),
    lam=st.floats(0, 2),
    w=st.floats(0, 2),
)
def test_fused_cuts_match_stack_on_uniform_weights(data, k, n, lam, w):
    size = k * n
    v = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size)))
    src = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size)))
    tie = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    v = v.reshape(k, n)
    v = np.where(tie.reshape(k, n), np.take_along_axis(v, src.reshape(k, n), axis=0), v)
    out = fused_prox_cuts(v, np.full(k, lam), _pair_weight_matrix(w, k))
    assert np.max(np.abs(out - fused_prox_stack(v, lam, w))) <= 1e-12


def test_fused_cuts_nan_column_returns():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((8, 5))
    v[3, 2] = np.nan
    out = fused_prox_cuts(v, rng.uniform(0.0, 1.0, 8), random_pair_weights(rng, 8))
    assert np.isnan(out[:, 2]).all()
    assert np.isfinite(np.delete(out, 2, axis=1)).all()


def test_fused_cuts_memory_bounded_at_eight_layers():
    rng = np.random.default_rng(8)
    v = tied_columns(rng, 8, 756)
    lam = rng.uniform(0.05, 1.0, 8)
    pair = random_pair_weights(rng, 8)
    tracemalloc.start()
    try:
        fused_prox_cuts(v, lam, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the cut enumeration holds about 2^K floats per open group
    assert peak < 2 ** 8 * v.nbytes / 2


def test_kernels_are_pure():
    rng = np.random.default_rng(7)
    a = sym(rng, 6)
    c = sym(rng, 6, 0.3)
    assert np.array_equal(prox_logdet(a, c, 1.3), prox_logdet(a, c, 1.3))
    assert np.array_equal(prox_psd_trace(a, 0.4), prox_psd_trace(a, 0.4))
    v = rng.normal(size=3)
    assert np.array_equal(prox_fused_l1(v, 0.2, 0.1), prox_fused_l1(v, 0.2, 0.1))
