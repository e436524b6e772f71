import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from ggm.errors import InvalidInput, NumericalError
from ggm.graphs import (
    BlockPartition,
    Graph,
    MultiLayerFamily,
    choose_hidden,
    gen_erdos_renyi,
    gen_rewired_family,
    marginal_precision,
    to_precision,
)
from ggm.sampling import ObservedCovariances, observed_sample_cov, sample_family, sample_gmrf


def identity_pg(n):
    return to_precision(Graph(n, np.zeros((n, n))), diag_margin=1.0, rng_seed=0)


def test_sample_identity_precision_covariance():
    x = sample_gmrf(np.eye(20), 100_000, 0)
    emp = x @ x.T / x.shape[1]
    assert np.max(np.abs(emp - np.eye(20))) < 0.03


def test_sample_scalar_variance():
    g = Graph(1, np.zeros((1, 1)))
    pg = to_precision(g, diag_margin=4.0, rng_seed=0)   # precision [[4]]
    assert pg.precision[0, 0] == 4.0
    x = sample_gmrf(pg, 100_000, 1)
    assert abs(np.var(x) - 0.25) < 0.01


def test_sample_deterministic():
    pg = to_precision(gen_erdos_renyi(6, 0.4, 0), rng_seed=1)
    a = sample_gmrf(pg, 50, 123)
    b = sample_gmrf(pg, 50, 123)
    assert np.array_equal(a, b)
    c = sample_gmrf(pg, 50, 124)
    assert not np.array_equal(a, c)


def test_sample_is_scipys_triangular_solve_bit_for_bit():
    # np.linalg.solve's LU of the upper-triangular Cholesky factor neither
    # pivots nor eliminates, so it is the same back substitution
    for n, m in ((4, 50), (30, 200), (102, 500)):
        pg = to_precision(gen_erdos_renyi(n, 0.15, n), rng_seed=n)
        z = np.random.Generator(np.random.PCG64(np.random.SeedSequence(n))).standard_normal((n, m))
        expected = scipy.linalg.solve_triangular(np.linalg.cholesky(pg.precision).T, z, lower=False)
        assert np.array_equal(sample_gmrf(pg, m, n), expected)


def test_sample_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        sample_gmrf(np.eye(3), 0, 0)
    with pytest.raises(InvalidInput):
        sample_gmrf(np.eye(2), 2.5, 1)
    with pytest.raises(NumericalError):
        sample_gmrf(np.diag([1.0, -1.0]), 5, 0)


def test_observed_cov_rank_one():
    part = choose_hidden(2, 0, 0)
    x = np.array([[1.0], [1.0]])
    assert np.array_equal(observed_sample_cov(x, part), np.ones((2, 2)))


def test_observed_cov_zero_signals():
    part = choose_hidden(3, 1, 0)
    assert np.array_equal(observed_sample_cov(np.zeros((3, 4)), part), np.zeros((2, 2)))


def test_observed_cov_dimension_mismatch():
    part = choose_hidden(3, 1, 0)
    with pytest.raises(InvalidInput):
        observed_sample_cov(np.zeros((4, 5)), part)


def test_observed_cov_law_of_large_numbers():
    part = choose_hidden(20, 0, 0)
    errs = []
    for seed in range(5):
        x = sample_gmrf(np.eye(20), 10_000, seed)
        errs.append(np.max(np.abs(observed_sample_cov(x, part) - np.eye(20))))
    assert np.mean(errs) < 0.05


def test_observed_cov_psd_and_rank():
    pg = to_precision(gen_erdos_renyi(8, 0.4, 2), rng_seed=3)
    part = choose_hidden(8, 2, 4)
    for m in (3, 6, 40):
        x = sample_gmrf(pg, m, m)
        c = observed_sample_cov(x, part)
        assert np.linalg.eigvalsh(c).min() >= -1e-10
        assert np.linalg.matrix_rank(c, tol=1e-10) == min(m, 6)


def test_consistency_error_shrinks_with_sqrt_m():
    pg = to_precision(gen_erdos_renyi(12, 0.25, 7), rng_seed=8)
    part = choose_hidden(12, 2, 9)
    k_o, p = marginal_precision(pg, part)
    cov_o_true = np.linalg.inv(k_o)    # (S^{-1})_O by the Schur identity
    med = {}
    for m in (1000, 4000):
        errs = []
        for seed in range(15):
            x = sample_gmrf(pg, m, 1000 * m + seed)
            errs.append(np.linalg.norm(observed_sample_cov(x, part) - cov_o_true))
        med[m] = np.median(errs)
    # sqrt(M) scaling predicts a factor 2, allow 30 percent slack
    assert med[4000] <= 0.65 * med[1000]


def test_sample_family_shapes_and_seeds():
    base = gen_erdos_renyi(10, 0.3, 0)
    graphs = gen_rewired_family(base, 3, 1, 1)
    pgs = tuple(to_precision(g, rng_seed=i) for i, g in enumerate(graphs))
    fam = MultiLayerFamily(pgs, choose_hidden(10, 2, 2))
    covs = sample_family(fam, 25, 77)
    assert covs.n_layers == 3 and covs.dim == 8
    # layer seeds are base_seed + k: layer 1 here equals layer 0 of base 78
    again = observed_sample_cov(sample_gmrf(pgs[1], 25, 78), fam.partition)
    assert np.array_equal(covs.covs[1], again)


def test_observed_covariances_validation():
    for bad in ((np.eye(2), np.eye(3)), (), (np.ones((2, 3)),), (np.zeros((0, 0)),),
                (np.eye(2), np.full((2, 2), np.nan)), (np.array([[1.0, 2.0], [2.0, 1.0]]),)):
        with pytest.raises(InvalidInput):
            ObservedCovariances(bad)
    # a singular sample covariance (fewer samples than variables) is PSD up to rounding
    x = np.random.default_rng(3).standard_normal((12, 4))
    assert ObservedCovariances((x @ x.T / 4,)).dim == 12
    # one read-only (K, o, o) float stack of the symmetric parts
    asym = np.array([[1.0, 0.25], [0.75, 1.0]])
    covs = ObservedCovariances((np.eye(2), asym, np.eye(2, dtype=int)))
    assert isinstance(covs.covs, np.ndarray)
    assert covs.covs.shape == (3, 2, 2) and covs.covs.dtype == float
    assert np.array_equal(covs.covs[1], [[1.0, 0.5], [0.5, 1.0]])
    assert not covs.covs.flags.writeable
    with pytest.raises(ValueError):
        covs.covs[0, 0, 0] = 2.0
    assert ObservedCovariances.of(covs) is covs
    assert np.array_equal(ObservedCovariances.of(list(covs.covs)).covs, covs.covs)


def test_importing_ggm_loads_no_scipy():
    # the package runs on NumPy alone; only the tests' oracles use SciPy
    code = "import sys, ggm; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"
