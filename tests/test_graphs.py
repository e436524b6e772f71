import numpy as np
import pytest

from ggm.errors import InvalidInput
from ggm.graphs import (
    BlockPartition,
    Graph,
    MultiLayerFamily,
    PrecisionGraph,
    block_view,
    choose_hidden,
    gen_erdos_renyi,
    gen_rewired_family,
    gen_small_world,
    marginal_precision,
    to_precision,
)

from _oracles import random_pd_matrix, schur_marginal_via_inverse


def pg_from_matrix(s):
    """Wrap a dense PD matrix whose support is taken from its nonzeros."""
    s = 0.5 * (s + s.T)
    n = s.shape[0]
    adj = np.abs(s) * (1 - np.eye(n))
    return PrecisionGraph(Graph(n, adj), s)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_er_empty_and_complete():
    assert gen_erdos_renyi(20, 0.0, 0).n_edges == 0
    assert gen_erdos_renyi(20, 1.0, 0).n_edges == 190


def test_er_mean_edge_count():
    counts = [gen_erdos_renyi(20, 0.15, seed).n_edges for seed in range(1000)]
    assert abs(np.mean(counts) - 28.5) <= 3.0   # binomial expectation 0.15 * 190


def test_er_rejects_bad_probability():
    with pytest.raises(InvalidInput):
        gen_erdos_renyi(10, 1.5, 0)


def test_sw_zero_rewire_is_ring_lattice():
    g = gen_small_world(20, 4, 0.0, 3)
    degrees = g.adjacency.sum(axis=0)
    assert np.all(degrees == 4)
    for i in range(20):
        for d in (1, 2):
            assert g.adjacency[i, (i + d) % 20] == 1


def test_sw_preserves_edge_count():
    for seed in range(30):
        assert gen_small_world(20, 4, 0.15, seed).n_edges == 40


def test_sw_rewired_fraction():
    lattice = gen_small_world(20, 4, 0.0, 0).edge_set()
    moved = []
    for seed in range(1000):
        edges = gen_small_world(20, 4, 0.15, seed).edge_set()
        moved.append(len(edges - lattice) / 40)
    assert abs(np.mean(moved) - 0.15) <= 0.03


def test_sw_rejects_bad_neighbors():
    with pytest.raises(InvalidInput):
        gen_small_world(4, 4, 0.1, 0)
    with pytest.raises(InvalidInput):
        gen_small_world(10, 3, 0.1, 0)


def test_rewired_family_trivial_cases():
    base = gen_erdos_renyi(15, 0.3, 1)
    fam = gen_rewired_family(base, 4, 0, 2)
    assert all(np.array_equal(g.adjacency, base.adjacency) for g in fam)
    assert len(gen_rewired_family(base, 1, 3, 2)) == 1


def test_rewired_family_counts_and_overlap():
    base = gen_erdos_renyi(20, 0.15, 5)
    n_edges = base.n_edges
    fam = gen_rewired_family(base, 5, 3, 7)
    base_edges = base.edge_set()
    for g in fam[1:]:
        assert g.n_edges == n_edges
        shared = len(g.edge_set() & base_edges)
        assert shared >= n_edges - 3
        # support difference vs base: 2 entries per moved edge, removed + added
        diff = np.count_nonzero((g.adjacency != 0) != (base.adjacency != 0))
        assert diff <= 4 * 3


def test_rewired_family_rejects_too_many():
    base = gen_erdos_renyi(10, 0.2, 0)
    with pytest.raises(InvalidInput):
        gen_rewired_family(base, 2, base.n_edges + 1, 0)


def test_generators_deterministic_and_seed_sensitive():
    a = gen_erdos_renyi(15, 0.3, 42)
    b = gen_erdos_renyi(15, 0.3, 42)
    assert np.array_equal(a.adjacency, b.adjacency)
    fingerprints = {gen_erdos_renyi(15, 0.3, s).adjacency.tobytes() for s in range(100)}
    assert len(fingerprints) == 100
    sw = {gen_small_world(20, 4, 0.3, s).adjacency.tobytes() for s in range(100)}
    assert len(sw) == 100


# ---------------------------------------------------------------------------
# to_precision
# ---------------------------------------------------------------------------

def test_to_precision_empty_graph():
    g = Graph(3, np.zeros((3, 3)))
    pg = to_precision(g, diag_margin=0.1, rng_seed=0)
    assert np.allclose(pg.precision, 0.1 * np.eye(3))


def test_to_precision_single_edge_hand_case():
    g = Graph(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    pg = to_precision(g, weight_range=(1.0, 1.0), diag_margin=0.1, rng_seed=0)
    assert np.allclose(pg.precision, [[1.1, -1.0], [-1.0, 1.1]])


def test_to_precision_pd_and_support_faithful():
    for seed in range(1000):
        g = gen_erdos_renyi(12, 0.3, seed)
        pg = to_precision(g, rng_seed=seed + 10_000)
        assert np.linalg.eigvalsh(pg.precision).min() >= 0.1 - 1e-9
        off = ~np.eye(12, dtype=bool)
        assert np.array_equal(pg.precision[off] != 0, g.adjacency[off] != 0)


def test_to_precision_rejects_bad_range():
    g = Graph(2, np.zeros((2, 2)))
    with pytest.raises(InvalidInput):
        to_precision(g, weight_range=(0.0, 1.0))
    with pytest.raises(InvalidInput):
        to_precision(g, weight_range=(2.0, 1.0))
    with pytest.raises(InvalidInput):
        to_precision(g, weight_range=(0.5, np.inf))
    with pytest.raises(InvalidInput):
        to_precision(g, diag_margin=np.nan)


# ---------------------------------------------------------------------------
# partitions and block views
# ---------------------------------------------------------------------------

def test_choose_hidden_sizes():
    part = choose_hidden(20, 2, 0)
    assert part.n_observed == 18 and part.n_hidden == 2
    empty = choose_hidden(5, 0, 0)
    assert empty.n_hidden == 0 and np.array_equal(empty.observed, np.arange(5))


def test_choose_hidden_is_permutation():
    for seed in range(50):
        part = choose_hidden(12, 3, seed)
        assert np.array_equal(np.sort(part.permutation), np.arange(12))


def test_choose_hidden_rejects_too_many():
    with pytest.raises(InvalidInput):
        choose_hidden(5, 5, 0)


def test_partition_warns_when_hidden_dominates():
    with pytest.warns(UserWarning):
        BlockPartition(np.array([0]), np.array([1, 2]))


def test_block_view_no_hidden():
    s = random_pd_matrix(np.random.default_rng(0), 4)
    s = 0.5 * (s + s.T)
    part = choose_hidden(4, 0, 0)
    s_o, s_oh, s_h = block_view(s, part)
    assert np.array_equal(s_o, s)
    assert s_oh.shape == (4, 0) and s_h.shape == (0, 0)


def test_block_view_last_node_hidden():
    s = np.arange(9, dtype=float).reshape(3, 3)
    s = 0.5 * (s + s.T)
    part = BlockPartition(np.array([0, 1]), np.array([2]))
    s_o, s_oh, s_h = block_view(s, part)
    assert np.array_equal(s_o, s[:2, :2])
    assert np.array_equal(s_oh, s[:2, 2:])
    assert np.array_equal(s_h, s[2:, 2:])


def test_block_view_round_trip():
    rng = np.random.default_rng(1)
    s = random_pd_matrix(rng, 6)
    s = 0.5 * (s + s.T)
    part = BlockPartition(np.array([0, 2, 3, 5]), np.array([1, 4]))
    s_o, s_oh, s_h = block_view(s, part)
    rebuilt = np.block([[s_o, s_oh], [s_oh.T, s_h]])
    perm = part.permutation
    assert np.array_equal(rebuilt, s[np.ix_(perm, perm)])


def test_block_view_rejects_dim_mismatch():
    with pytest.raises(InvalidInput):
        block_view(np.eye(4), BlockPartition(np.array([0, 1]), np.array([2])))


# ---------------------------------------------------------------------------
# marginal_precision
# ---------------------------------------------------------------------------

def test_marginal_precision_hand_case():
    s = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    part = BlockPartition(np.array([0, 1]), np.array([2]))
    k_o, p = marginal_precision(pg_from_matrix(s), part)
    assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(k_o, [[1.5, -0.5], [-0.5, 1.5]])


def test_marginal_precision_no_hidden():
    s = random_pd_matrix(np.random.default_rng(2), 5)
    part = choose_hidden(5, 0, 0)
    k_o, p = marginal_precision(pg_from_matrix(s), part)
    assert np.array_equal(p, np.zeros((5, 5)))
    assert np.allclose(k_o, s)


@pytest.mark.filterwarnings("ignore:.*hidden.*:UserWarning")
def test_marginal_precision_matches_inverse_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        h = int(rng.integers(0, min(4, n)))
        s = random_pd_matrix(rng, n)
        part = choose_hidden(n, h, int(rng.integers(0, 2**31)))
        k_o, p = marginal_precision(pg_from_matrix(s), part)
        oracle = schur_marginal_via_inverse(s, part.observed)
        assert np.linalg.norm(k_o - oracle) <= 1e-8
        # P factors through an h x h matrix
        if h > 0:
            rank = np.linalg.matrix_rank(p, tol=1e-8)
            assert rank <= h
            assert np.linalg.eigvalsh(p).min() >= -1e-10


def test_family_records_support_differences():
    base = gen_erdos_renyi(10, 0.3, 0)
    graphs = gen_rewired_family(base, 3, 2, 1)
    pgs = tuple(to_precision(g, rng_seed=i) for i, g in enumerate(graphs))
    fam = MultiLayerFamily(pgs, choose_hidden(10, 1, 2))
    assert fam.support_diff.shape == (3, 3) and fam.support_diff.dtype == int
    assert not fam.support_diff.diagonal().any()
    assert np.array_equal(fam.support_diff, fam.support_diff.T)
    assert fam.support_diff[0, 1] <= 4 * 2
    assert fam.support_diff[1, 2] <= 8 * 2   # variant-to-variant bound
