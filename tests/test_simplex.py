import numpy as np
import pytest

from dstl.errors import InputError, NumericError
from dstl.simplex import project_columns

from conftest import project_columns_oracle, simplex_sort_oracle


def project(g):
    """Projection of a single vector through the column routine."""
    return project_columns(np.asarray(g, dtype=float)[:, None])[:, 0]


def test_point_already_on_simplex_is_fixed():
    g = np.array([0.2, 0.3, 0.5])
    assert np.max(np.abs(project(g) - g)) <= 1e-12


def test_interior_example():
    # (0.5, 0.5, 1.0) centers to (1/6, 1/6, 2/3), all coordinates active
    g = np.array([0.5, 0.5, 1.0])
    want = np.array([1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])
    assert np.max(np.abs(project(g) - want)) <= 1e-12
    assert np.max(np.abs(simplex_sort_oracle(g) - want)) <= 1e-12


def test_vertex_example():
    g = np.array([10.0, 0.0, 0.0])
    want = np.array([1.0, 0.0, 0.0])
    assert np.max(np.abs(project(g) - want)) <= 1e-12


def test_single_coordinate():
    assert np.array_equal(project(np.array([7.0])), np.array([1.0]))
    assert np.array_equal(project_columns(np.array([[-3.0, 0.0, 5.0]])),
                          np.ones((1, 3)))


def test_feasibility():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = rng.uniform(-10, 10, size=int(rng.integers(1, 40)))
        y = project(g)
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) <= 1e-12


def test_matches_oracle_on_10000_vectors():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10000):
        g = rng.uniform(-10, 10, size=int(rng.integers(1, 51)))
        worst = max(worst, float(np.max(np.abs(project(g) - simplex_sort_oracle(g)))))
    assert worst <= 1e-9


def test_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(500):
        g = rng.standard_normal(int(rng.integers(1, 20))) * rng.choice([0.01, 1, 100])
        assert np.max(np.abs(project(g) - simplex_sort_oracle(g))) <= 1e-12


def test_matches_oracle_across_scales():
    # exact and feasible whatever the spread of a column: no scale makes the
    # projection raise, and it agrees with the oracle relative to the scale
    rng = np.random.default_rng(9)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):
        for d in (2, 3, 7, 50):
            g = scale * (rng.standard_normal((d, 200)) + rng.uniform(-5, 5, size=200))
            y = project_columns(g)
            want = np.stack([simplex_sort_oracle(col) for col in g.T], axis=1)
            assert np.max(np.abs(y - want)) <= 1e-12 * max(1.0, scale)
            assert np.max(np.abs(y.sum(axis=0) - 1.0)) <= 1e-12
            assert y.min() >= 0.0


def test_translation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = rng.uniform(-5, 5, size=10)
        shift = float(rng.uniform(-100, 100))
        assert np.max(np.abs(project(g) - project(g + shift))) <= 1e-10


def test_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(100):
        y = project(rng.uniform(-3, 3, size=8))
        assert np.max(np.abs(project(y) - y)) <= 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    g = rng.uniform(-2, 2, size=12)
    perm = rng.permutation(12)
    assert np.max(np.abs(project(g[perm]) - project(g)[perm])) <= 1e-12


def test_projection_is_nearest_feasible_point():
    # squared distance from the shifted target beats 1000 sampled simplex points
    rng = np.random.default_rng(6)
    g = rng.uniform(-4, 4, size=6)
    v = g - g.mean() + 1.0 / 6.0
    y = project(g)
    d0 = np.sum((y - v) ** 2)
    for _ in range(1000):
        cand = rng.dirichlet(np.ones(6))
        assert d0 <= np.sum((cand - v) ** 2) + 1e-9


def test_batch_matches_single():
    rng = np.random.default_rng(7)
    gm = rng.uniform(-8, 8, size=(9, 40))
    out = project_columns(gm)
    for j in range(gm.shape[1]):
        assert np.max(np.abs(out[:, j] - project(gm[:, j]))) <= 1e-12


def test_batch_feasibility_and_shape():
    rng = np.random.default_rng(8)
    gm = rng.standard_normal((5, 17)) * 10
    out = project_columns(gm)
    assert out.shape == gm.shape
    assert np.all(out >= 0)
    assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 1e-12


def test_row_layout_matches_the_column_oracle_bit_for_bit():
    # random columns, columns with many ties (few distinct values, repeated
    # maxima) and columns at +-1e150, at the solver's shapes and smaller
    rng = np.random.default_rng(15)
    for d, n in ((2, 1), (3, 7), (5, 8000), (10, 4000), (17, 300)):
        for g in (rng.standard_normal((d, n)),
                  rng.integers(-2, 3, (d, n)) * 0.5,
                  np.repeat(rng.standard_normal((1, n)), d, axis=0),
                  rng.standard_normal((d, n)) * 1e150,
                  rng.integers(-1, 2, (d, n)) * -1e150 + rng.standard_normal((d, n))):
            assert np.array_equal(project_columns(g), project_columns_oracle(g))


def test_rejects_bad_input():
    with pytest.raises(InputError):
        project_columns(np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        project_columns(np.zeros((0, 3)))
    with pytest.raises(InputError):
        project_columns(np.zeros((3, 0)))
    # a non-finite column cannot be projected: numeric failure, not bad input
    with np.errstate(invalid="ignore"):
        for bad in (np.inf, np.nan):
            with pytest.raises(NumericError):
                project_columns(np.array([[bad], [1.0]]))
        # ... at one coordinate too, where every finite column projects to 1
        with pytest.raises(NumericError):
            project_columns(np.array([[np.nan, 1.0, -np.inf]]))
