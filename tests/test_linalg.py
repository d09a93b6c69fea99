import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dstl import linalg
from dstl.errors import InputError, NumericError
from dstl.linalg import procrustes_max_trace, soft_threshold, svt, thin_svd

from conftest import matrix_svt_oracle, random_orthonormal

EPS = np.finfo(float).eps


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


def random_basis(rng, d, r, complex_):
    """d x r matrix with orthonormal columns, real or complex."""
    g = rng.standard_normal((d, r))
    if complex_:
        g = g + 1j * rng.standard_normal((d, r))
    return np.linalg.qr(g)[0]


def spectral_matrix(rng, p, q, sigma, complex_):
    """p x q matrix with random singular vectors and singular values sigma."""
    r = len(sigma)
    return (random_basis(rng, p, r, complex_) * sigma) @ random_basis(rng, q, r, complex_).conj().T


def graded_matrix(rng, p, q, complex_):
    """p x q matrix with random singular vectors and singular values
    log-spaced from 1 down to 1e-12."""
    return spectral_matrix(rng, p, q, np.logspace(0, -12, min(p, q)), complex_)


def mixed_stack(rng, count, p, q, complex_):
    """count p x q matrices of six kinds in turn: random, orthogonal
    columns of the smaller side (a diagonal Gram matrix), zero, a repeated
    singular value, rank one, and graded from 1 to 1e-12."""
    r = min(p, q)

    def orthogonal():
        x = random_basis(rng, max(p, q), r, complex_) * rng.uniform(0.5, 2.0, r)
        return x if p >= q else x.T

    kinds = [
        lambda: rng.standard_normal((p, q)) + (1j * rng.standard_normal((p, q)) if complex_ else 0),
        orthogonal,
        lambda: np.zeros((p, q)),
        lambda: spectral_matrix(rng, p, q, np.array([1.3, 1.3, 0.4])[:r], complex_),
        lambda: spectral_matrix(rng, p, q, np.array([1.7, 0.0, 0.0])[:r], complex_),
        lambda: graded_matrix(rng, p, q, complex_),
    ]
    return np.stack([kinds[i % len(kinds)]() for i in range(count)]).astype(
        complex if complex_ else float)


def pad_to_eigh(a):
    """The stack with zero rows and columns appended to make each matrix at
    least 4 x 4, so that its Gram matrices are wide enough for eigh; the
    zeros change no singular value and stay zero under thresholding."""
    p, q = a.shape[-2:]
    return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(0, max(4 - p, 0)), (0, max(4 - q, 0))])


@settings(max_examples=400, deadline=None)
@given(
    p=hst.integers(1, 6),
    q=hst.integers(1, 6),
    complex_=hst.booleans(),
    tau_exp=hst.floats(-12, 0),
    seed=hst.integers(0, 2**32 - 1),
)
# just above 1e-8 sigma_max a singular value near 1e-8 is kept: sigma =
# sqrt(lambda) misses the 1e-10 norm bound there by 10x, column norms meet it
@example(p=6, q=4, complex_=True, tau_exp=-7.9, seed=26)
@example(p=6, q=6, complex_=True, tau_exp=-7.9, seed=18)
@example(p=4, q=6, complex_=False, tau_exp=-7.9, seed=17)
@example(p=6, q=2, complex_=False, tau_exp=-12.0, seed=1)
@example(p=5, q=6, complex_=True, tau_exp=-10.0, seed=3)
@example(p=1, q=1, complex_=False, tau_exp=0.0, seed=4)
def test_svt_graded_spectrum_matches_oracle(p, q, complex_, tau_exp, seed):
    # singular values down to 1e-12 of the largest, tau anywhere from
    # 1e-12 to 1 times it, tall and wide, real and complex
    a = graded_matrix(np.random.default_rng(seed), p, q, complex_)
    sigma_max = float(np.linalg.svd(a, compute_uv=False)[0])
    tau = 10.0**tau_exp * sigma_max
    # as it is, which takes the closed-form eigen step when min(p, q) <= 3,
    # and padded with zeros to at least 4 x 4, which takes eigh
    for a in (a, pad_to_eigh(a)):
        want = matrix_svt_oracle(a, tau)
        out, norm = svt(a, tau)
        assert out.shape == a.shape
        assert np.linalg.norm(out - want) <= 1e-8 * (1.0 + np.linalg.norm(want))
        got = float(np.linalg.svd(out, compute_uv=False).sum())
        bound = 1e-10 * (1.0 + norm)
        if tau < 1e-8 * sigma_max:
            # the resolution bound derived in the svt docstring, with c = 1
            bound += min(p, q) * np.sqrt(EPS) * sigma_max
        assert abs(norm - got) <= bound


@pytest.fixture
def both_branches(monkeypatch):
    """Runs a test body on a small stack as it is, whose Gram matrices take
    the closed-form eigen step when they have at most 3 columns, and, for
    such a stack, once more padded by pad_to_eigh, which takes eigh;
    checks through a spy on eigh that each went that way."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: calls.append(g) or eigh(g))

    def stacks(a):
        closed = min(a.shape[-2:]) <= 3
        yield a
        assert bool(calls) != closed
        calls.clear()
        if closed:
            yield pad_to_eigh(a)
            assert calls
            calls.clear()

    return stacks


def test_svt_stack_matches_per_matrix_oracle(both_branches):
    # the mixed stacks put matrices whose eigenvectors the closed form takes
    # from different adjugate columns and complement axes side by side, with
    # zero, diagonal, repeated and rank-one Gram matrices among them, so a
    # selection that leaks into a neighbouring matrix shows
    rng = np.random.default_rng(9)
    random_shapes = [(7, 5, 3), (4, 3, 5), (2, 3, 4, 4), (6, 1, 4), (5, 4, 1), (3, 2, 5, 3)]
    mixed_shapes = [(2001, 5, 3), (2001, 3, 5)]
    for shape in random_shapes + mixed_shapes:
        for complex_ in (False, True):
            if shape in mixed_shapes:
                stacks = [mixed_stack(rng, *shape, complex_)]
            else:
                a = rng.standard_normal(shape)
                if complex_:
                    a = a + 1j * rng.standard_normal(shape)
                stacks = both_branches(a)
            tau = float(rng.uniform(0.1, 1.5))
            for a in stacks:
                check_per_matrix(a, tau)


def test_svt_closed_form_does_not_depend_on_the_chunk_size(monkeypatch):
    # the closed form works through the batch in chunks; every step is
    # elementwise over the batch, so chunks of 7 matrices (a ragged last
    # one included) give the bits of a single chunk
    rng = np.random.default_rng(16)
    for shape in ((2001, 5, 3), (2001, 3, 5), (1000, 4, 2)):
        a = mixed_stack(rng, *shape, True)
        whole = svt(a, 0.4)
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", 7 * shape[1] * shape[2])
        for x, y in zip(svt(a, 0.4), whole):
            assert np.array_equal(x, y)
        monkeypatch.undo()


def check_per_matrix(a, tau):
    out, norms = svt(a, tau)
    assert out.shape == a.shape and norms.shape == a.shape[:-2]
    assert out.dtype == a.dtype
    for idx in np.ndindex(*a.shape[:-2]):
        want = matrix_svt_oracle(a[idx], tau)
        assert np.max(np.abs(out[idx] - want)) <= 1e-12
        sv = np.linalg.svd(a[idx], compute_uv=False)
        assert abs(norms[idx] - np.maximum(sv - tau, 0.0).sum()) <= 1e-12


def test_svt_power_of_two_scale_is_exact(both_branches):
    # the kernel's own scale is a power of two, so scaling the input and tau
    # by another one scales the result exactly, far past where A^H A
    # overflows (2**1000) or underflows (2**-1000) unscaled
    rng = np.random.default_rng(10)
    for a in both_branches(rng.standard_normal((9, 5, 3)) + 1j * rng.standard_normal((9, 5, 3))):
        out, norms = svt(a, 0.7)
        for e in (-1000, -500, 500, 1000):
            f = np.ldexp(1.0, e)
            big_out, big_norms = svt(a * f, 0.7 * f)
            assert np.array_equal(big_out, out * f)
            assert np.array_equal(big_norms, norms * f)


def test_svt_of_a_subnormal_stack_is_finite(both_branches):
    # a stack whose largest entry is subnormal is thresholded on the grid of
    # subnormals, not reported as a numeric failure
    rng = np.random.default_rng(12)
    tiny = np.ldexp(1.0, -1060)
    for shape in ((4, 3, 2), (4, 2, 3)):
        for a in both_branches(rng.standard_normal(shape) * tiny):
            out, norms = svt(a, 0.0)
            assert np.max(np.abs(out - a)) <= 64 * np.ldexp(1.0, -1074)
            assert np.all(np.isfinite(norms)) and np.all(norms > 0)
            out, norms = svt(a, 1.0)
            assert np.max(np.abs(out)) == 0.0 and np.max(norms) == 0.0


def test_svt_zero_and_annihilating_threshold(both_branches):
    for z in both_branches(np.zeros((3, 4, 2))):
        out, norms = svt(z, 0.5)
        assert np.array_equal(out, z) and np.array_equal(norms, np.zeros(len(z)))
    for a in both_branches(np.random.default_rng(11).standard_normal((3, 4, 2))):
        out, norms = svt(a, 1e3)
        assert np.max(np.abs(out)) == 0.0 and np.max(norms) == 0.0
        out, norms = svt(a, 0.0)
        assert np.max(np.abs(out - a)) <= 1e-14


def test_svt_rejects_bad_input():
    with pytest.raises(InputError):
        svt(np.array([1.0, 2.0]), 0.1)
    for tau in (-0.1, np.nan, np.inf):
        with pytest.raises(InputError):
            svt(np.eye(3), tau)
    # an empty stack, or matrices with no entries, have no scale to take
    for shape in ((0, 3, 2), (2, 0, 3), (3, 0)):
        with pytest.raises(InputError):
            svt(np.zeros(shape), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("complex_", [False, True])
def test_svt_non_finite_input_is_a_numeric_error(bad, complex_, both_branches):
    # like thin_svd: a LAPACK failure or non-finite singular values are a
    # numeric failure, never bad user input
    a = np.ones((3, 4, 2)) * (1.0 + 1j if complex_ else 1.0)
    a[1, 2, 0] = bad
    for b in (a, a.swapaxes(-1, -2)):
        for stack in both_branches(b):
            with np.errstate(all="ignore"), pytest.raises(NumericError):
                svt(stack, 0.1)


def hermitian_stack(rng, eigenvalues, complex_, count=500):
    """count Hermitian matrices with these eigenvalues and random
    eigenvectors, exactly Hermitian as stored."""
    q = len(eigenvalues)
    z = rng.standard_normal((count, q, q))
    if complex_:
        z = z + 1j * rng.standard_normal((count, q, q))
    basis = np.linalg.qr(z)[0]
    g = (basis * np.asarray(eigenvalues, dtype=float)) @ basis.conj().swapaxes(-1, -2)
    return (g + g.conj().swapaxes(-1, -2)) / 2


# exact and near-double eigenvalues (1e-9 and 1e-13 apart, at either end),
# exact and near-triple ones, a graded spectrum, rank one, zero, and a pair
# at 1e-300 of the largest or a whole matrix there
_EIGEN_SPECTRA = [
    (1, 1, .3), (1, .3, .3), (1, 1 + 1e-9, .3), (1, 1 + 1e-13, .3), (1, .3, .3 + 1e-9),
    (1, .3 + 1e-13, .3), (1, 1, 1), (1, 1 + 1e-9, 1 - 1e-9), (1, 1 + 1e-13, 1 - 1e-13),
    (1, 1e-12, 1e-24), (1, 0, 0), (0, 0, 0), (1, 1e-300, 1e-300),
    (1e-300, 1e-300 * (1 + 1e-13), .3e-300)]


@pytest.mark.parametrize("complex_", [False, True])
def test_closed_form_eigenvectors_have_a_backward_error_of_a_few_eps(complex_):
    # V from the closed-form eigen step diagonalizes each Gram matrix to
    # ||offdiag(V^H G V)|| <= 4 eps ||G|| with ||V^H V - I|| <= 8 eps (2-norms,
    # measured in extended precision), the constants the svt docstring's
    # precision argument states; 500 matrices per spectrum, 3 x 3 and
    # (its last two eigenvalues) 2 x 2, and 5 x q Gram matrices at q = 1, 2, 3
    rng = np.random.default_rng(14)
    stacks = [hermitian_stack(rng, lams[3 - q:], complex_)
              for lams in _EIGEN_SPECTRA for q in (2, 3)]
    for q in (1, 2, 3):
        a = rng.standard_normal((500, 5, q)) * (1.0 + 1j if complex_ else 1.0)
        stacks.append(a.conj().swapaxes(-1, -2) @ a)
    # eigenvalues 1e-78 apart around a double one: the adjugate columns
    # have squared norms near 1e-312, below the smallest normal number
    g = np.zeros((500, 3, 3), dtype=complex if complex_ else float)
    g[:, [0, 1, 2], [0, 1, 2]] = 0.75
    off = rng.standard_normal((500, 3)) * 1e-78 * (np.exp(0.3j) if complex_ else 1.0)
    g[:, [0, 0, 1], [1, 2, 2]], g[:, [1, 2, 2], [0, 0, 1]] = off, np.conjugate(off)
    stacks.append(g)
    # equal diagonal entries and a subnormal off-diagonal one, whose
    # modulus would be rounded on the grid of subnormals
    g = np.zeros((500, 2, 2), dtype=g.dtype)
    g[:, 0, 0] = g[:, 1, 1] = 0.75
    g[:, 0, 1] = rng.uniform(1, 2, 500) * 1e-315 * (np.exp(0.3j) if complex_ else 1.0)
    g[:, 1, 0] = np.conjugate(g[:, 0, 1])
    stacks.append(g)
    for g in stacks:
        q = g.shape[-1]
        v = linalg._gram_eigenvectors(np.moveaxis(g, (-2, -1), (0, 1)))
        v = np.moveaxis(v, (0, 1), (-2, -1)).astype(np.clongdouble)
        vh = v.conj().swapaxes(-1, -2)
        d = vh @ g.astype(np.clongdouble) @ v
        off_diag = np.linalg.norm((d * (1 - np.eye(q))).astype(complex), 2, axis=(-2, -1))
        assert np.all(off_diag <= 4 * EPS * np.linalg.norm(g, 2, axis=(-2, -1))), g[0]
        assert np.all(np.linalg.norm((vh @ v - np.eye(q)).astype(complex), 2, axis=(-2, -1))
                      <= 8 * EPS), g[0]


@pytest.mark.parametrize("phase", [1.0, pytest.param(np.exp(0.7j), id="complex")])
def test_svt_rotation_angle_neither_overflows_nor_divides_by_zero(phase):
    # 3-column Gram matrices, which take the closed form and its exact
    # rotation, with entries 1e150 times apart, where the cotangent of the
    # rotation angle, (g_jj - g_ii) / (2 |g_ij|), is about 1e165 and its
    # square overflows (first matrix), or where |g_ij|^2 and (g_jj -
    # g_ii)^2 both underflow to zero (second); each needs a rotation,
    # |g_ij| > eps sqrt(g_ii g_jj).  svt runs outside the solver's
    # errstate, so a floating-point warning would reach the caller
    tiny = 1e-150
    a = np.zeros((2, 4, 3), dtype=complex)
    a[0, 0, 0], a[0, 0, 1], a[0, 1, 1], a[0, 2, 2] = 1.0, 2.0 * EPS * tiny * phase, tiny, 0.5
    a[1, 0, 0], a[1, 1, 1], a[1, 1, 2], a[1, 2, 1], a[1, 2, 2] = 1.0, tiny, 0.1 * tiny * phase, \
        0.1 * tiny, tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, norms = svt(a, 0.25)
    for k in range(2):
        assert np.max(np.abs(out[k] - matrix_svt_oracle(a[k], 0.25))) <= 1e-12
        sv = np.linalg.svd(a[k], compute_uv=False)
        assert abs(norms[k] - np.maximum(sv - 0.25, 0.0).sum()) <= 1e-12


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
