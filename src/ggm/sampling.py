"""GMRF signal sampling and observed sample covariances.

Signals are drawn i.i.d. from N(0, S^{-1}) per layer; the observed
sample covariance (1/M) X_O X_O^T feeds every solver. The RNG is
numpy's PCG64 with the Generator.standard_normal ziggurat method, which
is seedable and portable across platforms.
"""
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInput, NumericalError
from .graphs import BlockPartition, MultiLayerFamily, PrecisionGraph
from .prox import symmetrize


@dataclass(frozen=True)
class ObservedCovariances:
    """Per-layer observed sample covariances of common dimension."""

    covs: tuple
    counts: tuple

    def __post_init__(self):
        covs = tuple(symmetrize(c) for c in self.covs)
        if not covs:
            raise InvalidInput("need at least one covariance")
        dim = covs[0].shape[0]
        if any(c.shape[0] != dim for c in covs):
            raise InvalidInput("covariances must share one dimension")
        if len(self.counts) != len(covs) or any(m < 1 for m in self.counts):
            raise InvalidInput("one positive sample count per layer is required")
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "counts", tuple(int(m) for m in self.counts))

    @property
    def n_layers(self) -> int:
        return len(self.covs)

    @property
    def dim(self) -> int:
        return self.covs[0].shape[0]


def sample_gmrf(s, m: int, rng_seed: int) -> np.ndarray:
    """Draw m i.i.d. columns from N(0, S^{-1}).

    ``s`` is a PrecisionGraph or a PD matrix. Columns are generated by
    solving L^T x = z with L the Cholesky factor of S and z standard
    normal, so cov(x) = (L L^T)^{-1} = S^{-1}.
    """
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    prec = s.precision if isinstance(s, PrecisionGraph) else symmetrize(s)
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"precision matrix is not positive definite: {exc}") from exc
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    z = rng.standard_normal((prec.shape[0], m))
    return scipy.linalg.solve_triangular(chol.T, z, lower=False)


def observed_sample_cov(x: np.ndarray, part: BlockPartition) -> np.ndarray:
    """(1/M) X_O X_O^T over the observed rows; no mean subtraction."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != part.n:
        raise InvalidInput(f"signal rows {x.shape} do not match partition size {part.n}")
    xo = x[part.observed]
    return symmetrize(xo @ xo.T / x.shape[1])


def sample_family(family: MultiLayerFamily, m: int, base_seed: int) -> ObservedCovariances:
    """Sample m signals of every layer of a family and return its observed
    covariances.

    Layer k uses seed base_seed + k, so per-layer sampling may run
    concurrently with independent streams.
    """
    covs = tuple(observed_sample_cov(sample_gmrf(layer, m, base_seed + k), family.partition)
                 for k, layer in enumerate(family.layers))
    return ObservedCovariances(covs, (m,) * family.n_layers)
