import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.optimize import linear_sum_assignment

from dstl.errors import InputError
from dstl.metrics import (
    SCORES,
    accuracy,
    ari,
    contingency,
    f_score,
    hungarian_match,
    nmi,
    purity,
    scores,
)

from conftest import (
    accuracy_oracle,
    ari_oracle,
    contingency_oracle,
    f_score_oracle,
    hungarian_cost_oracle,
    nmi_oracle,
    purity_oracle,
)


def random_pair(rng, n_max=8, c_max=3):
    n = int(rng.integers(1, n_max + 1))
    pred = rng.integers(0, c_max, size=n)
    truth = rng.integers(0, c_max, size=n)
    return pred, truth


def test_accuracy_crossed_pair_example():
    assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5


def test_ari_crossed_pair_example():
    assert abs(ari([0, 0, 1, 1], [0, 1, 0, 1]) - (-0.5)) <= 1e-12
    assert abs(ari_oracle([0, 0, 1, 1], [0, 1, 0, 1]) - (-0.5)) <= 1e-12


def test_f_score_merge_example():
    # prediction merges two true clusters: precision 1/2, recall 1/3
    pred = [0, 0, 1, 1]
    truth = [0, 0, 0, 1]
    assert abs(f_score(pred, truth) - 0.4) <= 1e-12
    assert abs(f_score_oracle(pred, truth) - 0.4) <= 1e-12


def test_purity_majority_example():
    assert abs(purity([0, 0, 1], [0, 1, 1]) - 2.0 / 3.0) <= 1e-12


def test_perfect_clustering_scores_one():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, size=30)
    truth[:4] = [0, 1, 2, 3]
    relabeled = (truth + 2) % 4
    for metric in (accuracy, nmi, purity, ari, f_score):
        assert abs(metric(relabeled, truth) - 1.0) <= 1e-12


def test_single_cluster_conventions():
    ones = [0, 0, 0, 0]
    varied = [0, 1, 0, 1]
    assert nmi(ones, ones) == 1.0
    assert nmi(ones, varied) == 0.0
    assert ari(ones, ones) == 1.0
    assert ari(ones, varied) == 0.0
    assert f_score(ones, ones) == 1.0
    # all-singleton prediction yields no same-cluster pairs
    assert f_score([0, 1, 2, 3], varied) == 0.0


def test_relabeling_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pred, truth = random_pair(rng, n_max=30, c_max=4)
        shuffle = rng.permutation(4)
        renamed = shuffle[pred]
        for metric in (accuracy, nmi, purity, ari, f_score):
            assert abs(metric(pred, truth) - metric(renamed, truth)) <= 1e-12


def test_metrics_match_oracles_on_random_pairs():
    rng = np.random.default_rng(2)
    pairs = [
        (accuracy, accuracy_oracle),
        (ari, ari_oracle),
        (f_score, f_score_oracle),
        (nmi, nmi_oracle),
        (purity, purity_oracle),
    ]
    for _ in range(400):
        pred, truth = random_pair(rng)
        for fast, slow in pairs:
            assert abs(fast(pred, truth) - slow(pred.tolist(), truth.tolist())) <= 1e-12


def test_ari_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pred, truth = random_pair(rng, n_max=12, c_max=4)
        val = ari(pred, truth)
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_contingency_counts():
    table = contingency([0, 0, 1, 1, 1], [1, 1, 0, 1, 1])
    assert table.dtype == np.int64
    assert table.shape == (2, 2)
    assert table.sum() == 5
    assert table[0, 1] == 2  # cluster 0 overlaps class 1 twice
    assert table[1, 0] == 1
    assert np.array_equal(table.sum(axis=1), [2, 3])  # cluster sizes
    assert np.array_equal(table.sum(axis=0), [1, 4])  # class sizes


_LABEL_KINDS = ("dense", "gapped", "negative", "huge", "uint64", "int8", "bool", "float",
                "str")


def _labeling(rng, kind, n):
    """n labels of one kind: small non-negative codes ("dense", "int8"),
    codes whose table would have far more than n cells ("gapped", "huge",
    "uint64"), and labels the table cannot index ("negative", "bool",
    "float", "str")."""
    pick = {
        "dense": np.arange(5), "gapped": np.array([0, 3, 50]),
        "negative": np.arange(-3, 3), "huge": np.array([0, 2**62, 2**63 - 1]),
        "uint64": np.array([1, 7, 2**64 - 1], dtype=np.uint64),
        "int8": np.array([0, 2, 127], dtype=np.int8), "bool": np.array([False, True]),
        "float": np.array([0.0, 0.5, 2.0]), "str": np.array(["a", "b", "c"]),
    }[kind]
    return pick[rng.integers(pick.size, size=n)]


@settings(max_examples=300, deadline=None)
@given(
    n=hst.integers(1, 60),
    pred_kind=hst.sampled_from(_LABEL_KINDS),
    truth_kind=hst.sampled_from(_LABEL_KINDS),
    seed=hst.integers(0, 2**32 - 1),
)
@example(n=1, pred_kind="dense", truth_kind="dense", seed=0)
@example(n=40, pred_kind="dense", truth_kind="gapped", seed=1)
@example(n=30, pred_kind="int8", truth_kind="uint64", seed=2)
def test_contingency_matches_the_unique_coded_oracle(n, pred_kind, truth_kind, seed):
    rng = np.random.default_rng(seed)
    pred = _labeling(rng, pred_kind, n)
    truth = _labeling(rng, truth_kind, n)
    table = contingency(pred, truth)
    assert table.dtype == np.int64
    assert np.array_equal(table, contingency_oracle(pred, truth))


@settings(max_examples=200, deadline=None)
@given(
    n=hst.integers(1, 60),
    pred_kind=hst.sampled_from(_LABEL_KINDS),
    truth_kind=hst.sampled_from(_LABEL_KINDS),
    seed=hst.integers(0, 2**32 - 1),
)
@example(n=1, pred_kind="dense", truth_kind="dense", seed=0)
@example(n=40, pred_kind="str", truth_kind="huge", seed=3)
def test_scores_equal_the_five_indices_bit_for_bit(n, pred_kind, truth_kind, seed):
    rng = np.random.default_rng(seed)
    pred = _labeling(rng, pred_kind, n)
    truth = _labeling(rng, truth_kind, n)
    got = scores(pred, truth)
    assert tuple(got) == SCORES
    want = (accuracy(pred, truth), nmi(pred, truth), purity(pred, truth), ari(pred, truth),
            f_score(pred, truth))
    for value, expected in zip(got.values(), want):
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()


def test_hungarian_unique_minimum():
    cost = np.array([[1.0, 9.0, 9.0], [9.0, 1.0, 9.0], [9.0, 9.0, 1.0]])
    assert np.array_equal(hungarian_match(cost), np.array([0, 1, 2]))


def test_hungarian_matches_exhaustive_cost():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, size=(n, n))
        perm = hungarian_match(cost)
        got = float(cost[np.arange(n), perm].sum())
        assert abs(got - hungarian_cost_oracle(cost)) <= 1e-12


def test_hungarian_rectangular_pads():
    cost = np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 5.0]])
    perm = hungarian_match(cost)
    assert sorted(perm.tolist()) == [0, 1, 2]
    assert perm[0] == 0 and perm[1] == 1


@settings(max_examples=400, deadline=None)
@given(
    rows=hst.integers(0, 30),
    cols=hst.integers(0, 30),
    kind=hst.sampled_from(["counts", "signed", "binary", "zero", "constant"]),
    seed=hst.integers(0, 2**32 - 1),
)
@example(rows=0, cols=0, kind="counts", seed=0)
@example(rows=1, cols=1, kind="signed", seed=0)
@example(rows=30, cols=30, kind="constant", seed=0)
@example(rows=30, cols=30, kind="binary", seed=1)
@example(rows=7, cols=30, kind="counts", seed=2)
@example(rows=30, cols=4, kind="signed", seed=3)
@example(rows=12, cols=12, kind="zero", seed=4)
@example(rows=5, cols=9, kind="zero", seed=5)
def test_hungarian_total_matches_scipy_oracle(rows, cols, kind, seed):
    # integer tables: the optimal total is exact, so it must equal scipy's,
    # while a tie may pick another permutation of the same total
    rng = np.random.default_rng(seed)
    if kind == "counts":
        cost = -rng.integers(0, 1000, size=(rows, cols))
    elif kind == "signed":
        cost = rng.integers(-50, 51, size=(rows, cols))
    elif kind == "binary":
        cost = rng.integers(0, 2, size=(rows, cols))
    elif kind == "zero":
        cost = np.zeros((rows, cols), dtype=np.int64)
    else:  # all entries equal
        cost = np.full((rows, cols), int(rng.integers(-3, 4)))
    size = max(rows, cols)
    perm = hungarian_match(cost)
    assert perm.shape == (size,)
    assert np.array_equal(np.sort(perm), np.arange(size))
    padded = np.zeros((size, size))
    padded[:rows, :cols] = cost
    oracle_rows, oracle_cols = linear_sum_assignment(padded)
    assert padded[np.arange(size), perm].sum() == padded[oracle_rows, oracle_cols].sum()


def test_length_mismatch_and_empty_rejected():
    with pytest.raises(InputError):
        accuracy([0, 1], [0, 1, 2])
    with pytest.raises(InputError):
        nmi([], [])


def test_accuracy_with_unequal_cluster_counts():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 2, size=n)
        assert abs(accuracy(pred, truth)
                   - accuracy_oracle(pred.tolist(), truth.tolist())) <= 1e-12
