"""GMRF signal sampling and observed sample covariances.

Signals are drawn i.i.d. from N(0, S^{-1}) per layer; the observed
sample covariance (1/M) X_O X_O^T feeds every solver. ObservedCovariances
is the one place that checks a set of layer covariances and stacks them
for the solvers. The RNG is numpy's PCG64 with the
Generator.standard_normal ziggurat method, which is seedable and
portable across platforms.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalError
from .graphs import BlockPartition, MultiLayerFamily, PrecisionGraph
from .prox import symmetrize


@dataclass(frozen=True, eq=False)
class ObservedCovariances:
    """Per-layer observed sample covariances C_O^k, checked once.

    The one place that validates covariances: ``covs`` is a sequence of
    K >= 1 square matrices of one dimension o >= 1 with finite entries,
    stored symmetrized as one read-only (K, o, o) float array. Every
    solver, objective and the reference oracle reads its covariances
    through ``of``.

    Raises
    ------
    InvalidInput
        If a matrix is not square, none is given, they differ in
        dimension, they are 0 x 0, or one has a non-finite entry, a
        diagonal entry <= 0 or an eigenvalue below -1e-10 times its
        largest. A variable of zero variance, or a direction of negative
        variance, makes every solver's problem unbounded, because the
        diagonal of S is never penalized.
    """

    covs: np.ndarray

    def __post_init__(self):
        mats = [symmetrize(c) for c in self.covs]
        if not mats:
            raise InvalidInput("need at least one covariance")
        if any(c.shape != mats[0].shape for c in mats):
            raise InvalidInput("covariances must share one dimension")
        if mats[0].size == 0:
            raise InvalidInput("covariances must have at least one row")
        for i, c in enumerate(mats):
            if not np.isfinite(c).all():
                raise InvalidInput(f"covariance of layer {i} has non-finite entries")
            low = np.flatnonzero(np.diagonal(c) <= 0)
            if low.size:
                raise InvalidInput(f"covariance of layer {i} has variance "
                                   f"{c[low[0], low[0]]:g} <= 0 at variable {low[0]}")
        stack = np.array(mats)
        for i, lam in enumerate(np.linalg.eigvalsh(stack)):   # ascending per layer
            if lam[0] < -1e-10 * lam[-1]:
                raise InvalidInput(f"covariance of layer {i} is not positive semidefinite: "
                                   f"its smallest eigenvalue is {lam[0]:g}")
        stack.flags.writeable = False
        object.__setattr__(self, "covs", stack)

    @classmethod
    def of(cls, covs) -> "ObservedCovariances":
        """covs itself if it is an ObservedCovariances, else one built from it."""
        return covs if isinstance(covs, cls) else cls(covs)

    @property
    def n_layers(self) -> int:
        return self.covs.shape[0]

    @property
    def dim(self) -> int:
        return self.covs.shape[1]


def sample_gmrf(s, m: int, rng_seed: int) -> np.ndarray:
    """Draw m i.i.d. columns from N(0, S^{-1}).

    ``s`` is a PrecisionGraph or a PD matrix. Columns are generated by
    solving L^T x = z with L the Cholesky factor of S and z standard
    normal, so cov(x) = (L L^T)^{-1} = S^{-1}. np.linalg.solve's LU of the
    upper-triangular L^T neither pivots nor eliminates: it back-substitutes.
    """
    if not isinstance(m, numbers.Integral) or m < 1:
        raise InvalidInput(f"m must be an integer >= 1, got {m!r}")
    prec = s.precision if isinstance(s, PrecisionGraph) else symmetrize(s)
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"precision matrix is not positive definite: {exc}") from exc
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    z = rng.standard_normal((prec.shape[0], m))
    return np.linalg.solve(chol.T, z)


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
    return ObservedCovariances(covs)
