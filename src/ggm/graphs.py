"""Ground-truth graphs and precision matrices.

Random graph families (Erdos-Renyi, Watts-Strogatz, rewired multi-layer
variants), conversion of a support into a valid positive definite
precision matrix, hidden-node partitions, and the observed/hidden block
views of a matrix.
"""
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalError
from .prox import symmetrize


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; A_ij = 0 iff (i, j) is not an edge."""

    n_nodes: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if a.shape != (self.n_nodes, self.n_nodes):
            raise InvalidInput(f"adjacency shape {a.shape} != ({self.n_nodes}, {self.n_nodes})")
        if not np.array_equal(a, a.T):
            raise InvalidInput("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise InvalidInput("adjacency must have a zero diagonal")
        if np.any(a < 0):
            raise InvalidInput("edge weights must be positive")
        object.__setattr__(self, "adjacency", a)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.adjacency, 1)))

    def edge_set(self):
        """Edges as a frozenset of (i, j) with i < j."""
        iu = np.triu_indices(self.n_nodes, 1)
        present = self.adjacency[iu] != 0
        return frozenset(zip(iu[0][present].tolist(), iu[1][present].tolist()))


@dataclass(frozen=True)
class PrecisionGraph:
    """A graph together with a PD precision matrix sharing its support."""

    graph: Graph
    precision: np.ndarray

    def __post_init__(self):
        s = symmetrize(self.precision)
        n = self.graph.n_nodes
        if s.shape != (n, n):
            raise InvalidInput(f"precision shape {s.shape} != ({n}, {n})")
        if np.linalg.eigvalsh(s).min() <= 0:
            raise InvalidInput("precision must be strictly positive definite")
        off = ~np.eye(n, dtype=bool)
        if not np.array_equal(s[off] != 0, self.graph.adjacency[off] != 0):
            raise InvalidInput("off-diagonal support of precision must match the adjacency")
        object.__setattr__(self, "precision", s)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes


@dataclass(frozen=True)
class BlockPartition:
    """Ordered observed/hidden index sets; observed nodes come first."""

    observed: np.ndarray
    hidden: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=int)
        hid = np.asarray(self.hidden, dtype=int)
        n = obs.size + hid.size
        if obs.size < 1:
            raise InvalidInput("at least one observed node is required")
        union = np.concatenate([obs, hid])
        if not np.array_equal(np.sort(union), np.arange(n)):
            raise InvalidInput("observed and hidden must partition range(n)")
        if hid.size >= obs.size:
            warnings.warn(
                f"|hidden| = {hid.size} >= |observed| = {obs.size}; the estimators "
                "assume far more observed than hidden nodes", stacklevel=2)
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "hidden", hid)

    @property
    def n(self) -> int:
        return self.observed.size + self.hidden.size

    @property
    def n_observed(self) -> int:
        return self.observed.size

    @property
    def n_hidden(self) -> int:
        return self.hidden.size

    @property
    def permutation(self) -> np.ndarray:
        return np.concatenate([self.observed, self.hidden])


@dataclass(frozen=True)
class MultiLayerFamily:
    """K precision graphs over a common node set with a shared partition."""

    layers: tuple
    partition: BlockPartition

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise InvalidInput("family needs at least one layer")
        n = layers[0].n_nodes
        if any(g.n_nodes != n for g in layers):
            raise InvalidInput("all layers must share the node set")
        if self.partition.n != n:
            raise InvalidInput("partition size does not match the layers")
        object.__setattr__(self, "layers", layers)

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def _check_count(value, name: str, least: int):
    """InvalidInput unless value is an integer >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")


def _rng(seed) -> np.random.Generator:
    # PCG64 is the package-wide generator; see README for the RNG contract
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def gen_erdos_renyi(n: int, p: float, rng_seed: int) -> Graph:
    """Erdos-Renyi graph: each unordered pair is an edge with probability p."""
    _check_count(n, "n", 1)
    if not 0.0 <= p <= 1.0:
        raise InvalidInput(f"p must lie in [0, 1], got {p}")
    rng = _rng(rng_seed)
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    a[iu] = (rng.random(iu[0].size) < p).astype(float)
    return Graph(n, a + a.T)


def gen_small_world(n: int, neighbors: int, rewire_p: float, rng_seed: int) -> Graph:
    """Watts-Strogatz graph: ring lattice plus independent edge rewiring.

    Each node starts connected to ``neighbors`` ring neighbors
    (``neighbors/2`` on each side, so it must be even); every lattice
    edge is then rewired with probability ``rewire_p`` to a uniformly
    drawn endpoint, avoiding self-loops and duplicate edges. The edge
    count n * neighbors / 2 is preserved.
    """
    _check_count(n, "n", 1)
    if neighbors >= n:
        raise InvalidInput(f"neighbors = {neighbors} must be < n = {n}")
    if neighbors < 2 or neighbors % 2 != 0:
        raise InvalidInput(f"neighbors must be a positive even integer, got {neighbors}")
    if not 0.0 <= rewire_p <= 1.0:
        raise InvalidInput(f"rewire_p must lie in [0, 1], got {rewire_p}")
    rng = _rng(rng_seed)
    a = np.zeros((n, n))
    for i in range(n):
        for d in range(1, neighbors // 2 + 1):
            j = (i + d) % n
            a[i, j] = a[j, i] = 1.0
    for i in range(n):
        for d in range(1, neighbors // 2 + 1):
            j = (i + d) % n
            if a[i, j] == 0:      # already rewired away by an earlier step
                continue
            if rng.random() < rewire_p:
                candidates = np.flatnonzero((a[i] == 0) & (np.arange(n) != i))
                if candidates.size == 0:
                    continue
                w = int(rng.choice(candidates))
                a[i, j] = a[j, i] = 0.0
                a[i, w] = a[w, i] = 1.0
    return Graph(n, a)


def gen_rewired_family(base: Graph, k: int, n_rewire: int, rng_seed: int):
    """base plus k-1 variants, each with n_rewire edges moved elsewhere.

    Every variant keeps the edge count of ``base``; its support differs
    from the base in at most 4 * n_rewire matrix entries.
    """
    _check_count(k, "k", 1)
    _check_count(n_rewire, "n_rewire", 0)
    n = base.n_nodes
    iu = np.triu_indices(n, 1)
    edge_mask = base.adjacency[iu] != 0
    edges = np.flatnonzero(edge_mask)
    non_edges = np.flatnonzero(~edge_mask)
    if n_rewire > edges.size:
        raise InvalidInput(f"n_rewire = {n_rewire} exceeds the {edges.size} edges of the base")
    if n_rewire > non_edges.size:
        raise InvalidInput(f"not enough non-edges to insert {n_rewire} rewired edges")
    rng = _rng(rng_seed)
    layers = [base]
    for _ in range(k - 1):
        a = base.adjacency.copy()
        remove = rng.choice(edges, size=n_rewire, replace=False)
        insert = rng.choice(non_edges, size=n_rewire, replace=False)
        for flat in remove:
            i, j = iu[0][flat], iu[1][flat]
            a[i, j] = a[j, i] = 0.0
        for flat in insert:
            i, j = iu[0][flat], iu[1][flat]
            a[i, j] = a[j, i] = 1.0
        layers.append(Graph(n, a))
    return layers


def to_precision(g: Graph, weight_range=(0.5, 1.0), diag_margin: float = 0.1,
                 rng_seed: int = 0) -> PrecisionGraph:
    """Attach a PD precision matrix to a graph support.

    Off-diagonal entries are -w_ij with w_ij ~ Uniform(lo, hi) on edges
    (attractive GMRF convention) and zero elsewhere; the diagonal is set
    uniformly to |lambda_min(offdiagonal part)| + diag_margin, which
    makes the minimum eigenvalue at least diag_margin.
    """
    lo, hi = weight_range
    if not 0 < lo <= hi < np.inf:
        raise InvalidInput(f"weight range must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
    if not 0 < diag_margin < np.inf:
        raise InvalidInput(f"diag_margin must be positive and finite, got {diag_margin}")
    rng = _rng(rng_seed)
    n = g.n_nodes
    iu = np.triu_indices(n, 1)
    weights = rng.uniform(lo, hi, iu[0].size) * (g.adjacency[iu] != 0)
    s = np.zeros((n, n))
    s[iu] = -weights
    s = s + s.T
    lam_min = np.linalg.eigvalsh(s).min()
    s[np.diag_indices(n)] = abs(min(lam_min, 0.0)) + diag_margin
    return PrecisionGraph(g, s)


def choose_hidden(n: int, n_hidden: int, rng_seed: int) -> BlockPartition:
    """Uniformly random hidden set of the requested size; observed first."""
    _check_count(n, "n", 1)
    _check_count(n_hidden, "n_hidden", 0)
    if n_hidden >= n:
        raise InvalidInput(f"n_hidden = {n_hidden} must be < n = {n}")
    rng = _rng(rng_seed)
    hidden = np.sort(rng.choice(n, size=n_hidden, replace=False))
    observed = np.setdiff1d(np.arange(n), hidden)
    return BlockPartition(observed, hidden)


def block_view(s, part: BlockPartition):
    """(S_O, S_OH, S_H) blocks after permuting observed indices first."""
    s = symmetrize(s)
    if s.shape[0] != part.n:
        raise InvalidInput(f"matrix dim {s.shape[0]} != partition size {part.n}")
    perm = part.permutation
    sp = s[np.ix_(perm, perm)]
    o = part.n_observed
    return sp[:o, :o], sp[:o, o:], sp[o:, o:]


def marginal_precision(s: PrecisionGraph, part: BlockPartition):
    """Marginal precision of the observed block via the Schur complement.

    Returns (K_O, P) with P = S_OH S_H^{-1} S_HO and K_O = S_O - P;
    K_O equals the inverse of the observed block of the covariance, P is
    PSD with rank at most |hidden|.
    """
    s_o, s_oh, s_h = block_view(s.precision, part)
    if part.n_hidden == 0:
        return s_o, np.zeros_like(s_o)
    try:
        p = symmetrize(s_oh @ np.linalg.solve(s_h, s_oh.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"hidden block is singular: {exc}") from exc
    return s_o - p, p
