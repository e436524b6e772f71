import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggm.errors import DegenerateInput, InvalidInput
from ggm.metrics import mean_normalized_error, support_f1


def test_error_zero_when_equal():
    a = np.array([[1.0, 0.2], [0.2, 2.0]])
    assert mean_normalized_error([a], [a]) == 0.0


def test_error_scale_invariant_example():
    a = np.array([[1.0, 0.2], [0.2, 2.0]])
    assert mean_normalized_error([2.0 * a], [a]) <= 1e-12


def test_error_hand_value_two():
    est = np.eye(2)
    truth = np.array([[0.0, 1.0], [1.0, 0.0]])
    # orthogonal unit-norm matrices: ||(I - X)/sqrt(2)||_F^2 = 2
    assert abs(mean_normalized_error([est], [truth]) - 2.0) <= 1e-12


def test_error_symmetry_and_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        e_ab = mean_normalized_error([a], [b])
        e_ba = mean_normalized_error([b], [a])
        assert abs(e_ab - e_ba) <= 1e-12
        assert 0.0 <= e_ab <= 4.0


@settings(deadline=None, max_examples=50)
@given(c=st.floats(1e-6, 1e6), seed=st.integers(0, 1000))
def test_error_scale_invariance_property(c, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + np.eye(3)
    b = rng.standard_normal((3, 3)) + np.eye(3)
    assert abs(mean_normalized_error([c * a], [b]) - mean_normalized_error([a], [b])) <= 1e-12


def test_error_rejects_degenerate_and_mismatched():
    with pytest.raises(DegenerateInput):
        mean_normalized_error([np.zeros((2, 2))], [np.eye(2)])
    with pytest.raises(DegenerateInput):
        mean_normalized_error([np.eye(2)], [np.zeros((2, 2))])
    with pytest.raises(InvalidInput):
        mean_normalized_error([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(InvalidInput):
        mean_normalized_error([np.eye(2)], [np.eye(3)])


def test_error_averages_layers():
    a = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    val = mean_normalized_error([a, a], [a, x])
    assert abs(val - 1.0) <= 1e-12   # (0 + 2) / 2


def test_support_f1_perfect():
    truth = np.array([[2.0, -0.8, 0.0], [-0.8, 2.0, 0.5], [0.0, 0.5, 2.0]])
    assert support_f1(truth, truth, 0.1) == 1.0


def test_support_f1_empty_estimate():
    truth = np.array([[2.0, -0.8], [-0.8, 2.0]])
    assert support_f1(np.zeros((2, 2)), truth, 0.1) == 0.0
    assert support_f1(np.zeros((2, 2)), np.eye(2), 0.1) == 1.0   # nothing to find


def test_support_f1_rejects_bad_threshold():
    truth = np.array([[1.0, 0.5], [0.5, 1.0]])
    for threshold in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidInput):
            support_f1(truth, truth, threshold)


def test_support_f1_half():
    # truth has 4 edges; estimate recovers 2 of them plus 2 false ones
    n = 5
    truth = np.zeros((n, n))
    for i, j in [(0, 1), (0, 2), (1, 2), (3, 4)]:
        truth[i, j] = truth[j, i] = 1.0
    est = np.zeros((n, n))
    for i, j in [(0, 1), (0, 2), (0, 3), (2, 4)]:
        est[i, j] = est[j, i] = 1.0
    assert support_f1(est, truth, 0.1) == pytest.approx(0.5)
