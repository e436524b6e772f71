"""Evaluation of estimated precision matrices against ground truth."""
import numpy as np

from .errors import DegenerateInput, InvalidInput


def _unit(a, role):
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise DegenerateInput(f"{role} matrix has zero Frobenius norm")
    return a / norm


def per_layer_normalized_error(est, truth) -> np.ndarray:
    """Squared Frobenius distance between unit-normalized matrices, per layer."""
    if len(est) != len(truth):
        raise InvalidInput(f"{len(est)} estimates vs {len(truth)} truths")
    if not len(est):
        raise InvalidInput("need at least one layer")
    out = np.empty(len(est))
    for i, (e, t) in enumerate(zip(est, truth)):
        e = np.asarray(e, dtype=float)
        t = np.asarray(t, dtype=float)
        if e.shape != t.shape:
            raise InvalidInput(f"layer {i}: shape {e.shape} vs {t.shape}")
        out[i] = np.sum((_unit(e, "estimated") - _unit(t, "true")) ** 2)
    return out


def mean_normalized_error(est, truth) -> float:
    """Scale-invariant mean error (1/K) sum_k ||S^k/||S^k||_F - T^k/||T^k||_F||_F^2.

    Invariant to positive rescaling of any argument matrix and bounded
    by 4 per layer.
    """
    return float(per_layer_normalized_error(est, truth).mean())


def support_f1(est, truth, threshold: float = 0.1) -> float:
    """F1 score of off-diagonal edge detection.

    An estimated entry is declared an edge when its magnitude exceeds
    ``threshold`` times the largest off-diagonal magnitude of the
    estimate; the true support is taken as the exact nonzero pattern.
    With no predicted edges the score is 0 unless the truth is also
    empty.
    """
    if not 0 <= threshold < np.inf:
        raise InvalidInput(f"threshold must be finite and nonnegative, got {threshold}")
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise InvalidInput(f"shape mismatch: {est.shape} vs {truth.shape}")
    if est.ndim != 2 or est.shape[0] != est.shape[1]:
        raise InvalidInput(f"expected square matrices, got shape {est.shape}")
    if not (np.isfinite(est).all() and np.isfinite(truth).all()):
        raise InvalidInput("estimate and truth must be finite")
    iu = np.triu_indices(est.shape[0], 1)
    e = np.abs(est[iu])
    cut = threshold * e.max() if e.size else 0.0
    pred = e > cut
    true = truth[iu] != 0
    tp = int(np.sum(pred & true))
    fp = int(np.sum(pred & ~true))
    fn = int(np.sum(~pred & true))
    if tp + fp + fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)
