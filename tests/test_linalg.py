import numpy as np
import pytest

from dstl.errors import InputError, NumericError
from dstl.linalg import procrustes_max_trace, soft_threshold, thin_svd

from conftest import random_orthonormal


def test_thin_svd_reconstructs():
    rng = np.random.default_rng(0)
    for p, k in [(5, 3), (3, 5), (4, 4), (1, 1), (7, 2)]:
        a = rng.standard_normal((p, k))
        u, s, vh = thin_svd(a)
        r = min(p, k)
        assert u.shape == (p, r)
        assert vh.shape == (r, k)
        recon = (u * s) @ vh
        assert np.max(np.abs(recon - a)) <= 1e-10
        assert np.max(np.abs(u.T @ u - np.eye(r))) <= 1e-12
        assert np.max(np.abs(vh @ vh.T - np.eye(r))) <= 1e-12


def test_thin_svd_sigma_sorted_nonnegative():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 4))
    _, s, _ = thin_svd(a)
    assert np.all(s >= 0)
    assert np.all(np.diff(s) <= 0)


def test_thin_svd_identity():
    u, s, vh = thin_svd(np.eye(3))
    assert np.allclose(s, 1.0)
    assert np.max(np.abs((u * s) @ vh - np.eye(3))) <= 1e-12


def test_thin_svd_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 5))
    for x, y in zip(thin_svd(a), thin_svd(a.copy())):
        assert np.array_equal(x, y)


def test_thin_svd_rejects_bad_input():
    with pytest.raises(InputError):
        thin_svd(np.array([1.0, 2.0]))
    # non-finite entries are a numeric failure, caught by the solver's
    # per-iteration guard or here, never reported as bad user input
    with pytest.raises(NumericError):
        thin_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        thin_svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_procrustes_recovers_rotation():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = procrustes_max_trace(m)
    assert np.max(np.abs(w - m)) <= 1e-12


def test_procrustes_identity():
    assert np.max(np.abs(procrustes_max_trace(np.eye(4)) - np.eye(4))) <= 1e-12


def test_procrustes_zero_matrix():
    w = procrustes_max_trace(np.zeros((4, 2)))
    assert np.array_equal(w, np.eye(4, 2))


def test_procrustes_orthonormal_and_trace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, p + 1))
        m = rng.standard_normal((p, k))
        w = procrustes_max_trace(m)
        assert np.max(np.abs(w.T @ w - np.eye(k))) <= 1e-10
        sigma_sum = np.linalg.svd(m, compute_uv=False).sum()
        assert abs(np.trace(w.T @ m) - sigma_sum) <= 1e-8 * (1.0 + sigma_sum)


def test_procrustes_beats_sampled_competitors():
    # trace at the maximizer dominates 1000 random orthonormal candidates
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 3))
    w = procrustes_max_trace(m)
    best = float(np.trace(w.T @ m))
    for _ in range(1000):
        r = random_orthonormal(rng, 6, 3)
        assert np.trace(r.T @ m) <= best + 1e-9


def test_procrustes_first_order_certificate():
    # W^T M of the maximizer is symmetric positive semidefinite
    rng = np.random.default_rng(6)
    m = rng.standard_normal((7, 4))
    w = procrustes_max_trace(m)
    g = w.T @ m
    assert np.max(np.abs(g - g.T)) <= 1e-8
    assert np.min(np.linalg.eigvalsh((g + g.T) / 2)) >= -1e-8


def test_procrustes_rejects_wide_or_bad():
    with pytest.raises(InputError):
        procrustes_max_trace(np.zeros((2, 4)))
    with pytest.raises(NumericError):
        procrustes_max_trace(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_soft_threshold_examples():
    out = soft_threshold(np.array([[3.0, -2.0]]), 1.5)
    assert np.array_equal(out, np.array([[1.5, -0.5]]))
    below = soft_threshold(np.array([0.4, -0.9]), 1.0)
    assert np.array_equal(below, np.zeros(2))
    a = np.array([[1.0, -2.0], [0.0, 5.0]])
    assert np.array_equal(soft_threshold(a, 0.0), a)


def test_soft_threshold_shrinks_elementwise():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 6)) * 3
    gamma = 0.7
    s = soft_threshold(a, gamma)
    assert np.all(np.abs(s) <= np.abs(a) + 1e-15)
    assert np.all(np.abs(s - a) <= gamma + 1e-15)
    nz = s != 0
    assert np.all(np.sign(s[nz]) == np.sign(a[nz]))


def test_soft_threshold_prox_optimality():
    # gamma*|S|_1 + 0.5*|S - A|_F^2 is minimized at the output
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 5)) * 2
    gamma = 0.9

    def value(s):
        return gamma * np.abs(s).sum() + 0.5 * np.sum((s - a) ** 2)

    s0 = soft_threshold(a, gamma)
    v0 = value(s0)
    for _ in range(1000):
        cand = s0 + rng.standard_normal(s0.shape) * rng.choice([1e-3, 0.1, 1.0])
        assert v0 <= value(cand) + 1e-9


def test_soft_threshold_rejects_negative_gamma():
    with pytest.raises(InputError):
        soft_threshold(np.zeros((2, 2)), -0.1)
