import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dstl.errors import InputError, NumericError
from dstl.slimtensor import stack_rotate, tensor_nuclear_norm, tubal_shrinkage, unstack

from conftest import (
    FourierSlices,
    fft_mode3,
    ifft_mode3,
    matrix_svt_oracle,
    tnn_oracle,
    tubal_shrinkage_oracle,
)


def random_tensor(rng, k=None, m=None, n=None, scale=1.0):
    """Random (m, k, n) views-first stack."""
    k = k if k is not None else int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(1, 7))
    n = n if n is not None else int(rng.integers(1, 7))
    return rng.standard_normal((m, k, n)) * scale


def test_stack_rotate_entry_mapping():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((4, 6)) for _ in range(3)]
    t = stack_rotate(mats)
    assert t.shape == (3, 4, 6)
    for v in range(3):
        assert np.array_equal(t[v], mats[v])
    # entrywise: stack(v, i, j) is entry (i, j) of view v
    assert t[1, 2, 5] == mats[1][2, 5]


def test_stack_single_view():
    m0 = np.arange(6.0).reshape(2, 3)
    t = stack_rotate([m0])
    assert t.shape == (1, 2, 3)
    assert np.array_equal(t[0], m0)


def test_unstack_round_trip():
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((3, 5)) for _ in range(4)]
    back = unstack(stack_rotate(mats))
    assert len(back) == 4
    for a, b in zip(mats, back):
        assert np.array_equal(a, b)


def test_stack_rejects_mismatched_shapes():
    with pytest.raises(InputError):
        stack_rotate([np.zeros((2, 3)), np.zeros((3, 3))])
    with pytest.raises(InputError):
        stack_rotate([])


def test_slim_tensor_validation():
    # both spectral routines need a non-empty 3-d stack
    for bad in (np.zeros((2, 2)), np.zeros((2, 0, 3))):
        with pytest.raises(InputError):
            tensor_nuclear_norm(bad)
        for rho in (0.0, 0.5):
            with pytest.raises(InputError):
                tubal_shrinkage(bad, rho)


def test_fft_constant_tube():
    # a tensor constant along mode 3 concentrates in Fourier slice 0: n * M
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 4))
    n = 5
    t = np.repeat(m[:, :, None], n, axis=2)
    spec = fft_mode3(t)
    scale = np.max(np.abs(m))
    assert np.max(np.abs(spec.slices[:, :, 0] - n * m)) <= 1e-12 * n * scale
    for j in range(1, n):
        assert np.max(np.abs(spec.slices[:, :, j])) <= 1e-12 * n * scale


def test_fft_single_slice_is_identity():
    rng = np.random.default_rng(3)
    t = random_tensor(rng, n=1)
    spec = fft_mode3(t)
    assert spec.slices.shape == t.shape
    assert np.max(np.abs(spec.slices[:, :, 0] - t[:, :, 0])) <= 1e-14


def test_fft_ifft_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        t = random_tensor(rng)
        back = ifft_mode3(fft_mode3(t))
        assert np.max(np.abs(back - t)) <= 1e-10


def test_ifft_rejects_asymmetric_spectrum():
    rng = np.random.default_rng(5)
    slices = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    with pytest.raises(NumericError):
        ifft_mode3(FourierSlices(slices, real_origin=True))


def test_tnn_zero_and_homogeneity():
    assert tensor_nuclear_norm(np.zeros((2, 3, 4))) == 0.0
    rng = np.random.default_rng(6)
    t = random_tensor(rng)
    a = 3.7
    scaled = a * t
    assert abs(tensor_nuclear_norm(scaled) - a * tensor_nuclear_norm(t)) <= 1e-8 * (
        1.0 + tensor_nuclear_norm(scaled)
    )


def test_tnn_constant_tube_example():
    # constant-along-mode-3 tensor: norm is n * (matrix nuclear norm of M)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 4))
    n = 6
    t = np.repeat(m[:, :, None], n, axis=2)
    want = n * float(np.linalg.svd(m, compute_uv=False).sum())
    assert abs(tensor_nuclear_norm(t) - want) <= 1e-10 * (1.0 + want)


def test_tnn_matches_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        t = random_tensor(rng, scale=float(rng.choice([0.1, 1.0, 10.0])))
        want = tnn_oracle(t)
        got = tensor_nuclear_norm(t)
        assert abs(got - want) <= 1e-10 * (1.0 + want)


def test_tubal_shrinkage_zero_rho_is_identity():
    rng = np.random.default_rng(9)
    t = random_tensor(rng)
    out, _ = tubal_shrinkage(t, 0.0)
    assert np.array_equal(out, t)
    assert out is not t


def test_tubal_shrinkage_single_slice_equals_matrix_svt():
    # n = 1 reduces the operator to plain singular value thresholding
    rng = np.random.default_rng(10)
    for _ in range(50):
        t = random_tensor(rng, n=1)
        rho = float(rng.uniform(0.01, 2.0))
        out, _ = tubal_shrinkage(t, rho)
        want = matrix_svt_oracle(t[:, :, 0], rho)
        assert np.max(np.abs(out[:, :, 0] - want)) <= 1e-10


def test_tubal_shrinkage_matches_full_spectrum_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = random_tensor(rng)
        rho = float(rng.uniform(0.0, 1.5))
        out, _ = tubal_shrinkage(t, rho)
        want = tubal_shrinkage_oracle(t, rho)
        denom = 1.0 + np.linalg.norm(want)
        assert np.linalg.norm(out - want) <= 1e-8 * denom


def test_tubal_shrinkage_large_rho_annihilates():
    rng = np.random.default_rng(12)
    t = random_tensor(rng, k=4, m=3, n=5)
    out, norm = tubal_shrinkage(t, 1e6)
    assert np.max(np.abs(out)) == 0.0
    assert norm == 0.0


def test_tubal_shrinkage_output_real_and_norm_shrinks():
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = random_tensor(rng)
        rho = float(rng.uniform(0.0, 1.0))
        out, _ = tubal_shrinkage(t, rho)
        assert out.dtype == np.float64
        assert np.all(np.isfinite(out))
        assert tensor_nuclear_norm(out) <= tensor_nuclear_norm(t) + 1e-8


def test_tubal_shrinkage_prox_optimality():
    # rho*|K|_tnn + 0.5*|K - T|_F^2 is smallest at the shrinkage output
    rng = np.random.default_rng(14)
    t = random_tensor(rng, k=3, m=2, n=4)
    rho = 0.3

    def value(arr):
        return rho * tnn_oracle(arr) + 0.5 * np.sum((arr - t) ** 2)

    out, _ = tubal_shrinkage(t, rho)
    v0 = value(out)
    for _ in range(500):
        cand = out + rng.standard_normal(out.shape) * rng.choice(
            [1e-3, 0.1, 1.0]
        )
        assert v0 <= value(cand) + 1e-8


def test_tubal_shrinkage_rejects_negative_rho():
    with pytest.raises(InputError):
        tubal_shrinkage(np.zeros((2, 2, 2)), -1.0)


@settings(max_examples=300, deadline=None)
@given(
    k=hst.integers(1, 6),
    m=hst.integers(1, 6),
    n=hst.integers(1, 64),
    scale_exp=hst.integers(-6, 6),
    rho_kind=hst.sampled_from(["zero", "small", "tiny", "annihilate"]),
    rho_frac=hst.floats(1e-4, 0.5),
    tiny_exp=hst.floats(-14, -6),
    seed=hst.integers(0, 2**32 - 1),
)
@example(k=1, m=1, n=1, scale_exp=0, rho_kind="small", rho_frac=0.1, tiny_exp=-10, seed=0)
@example(k=6, m=6, n=64, scale_exp=6, rho_kind="small", rho_frac=1e-4, tiny_exp=-10, seed=1)
@example(k=6, m=5, n=63, scale_exp=-6, rho_kind="small", rho_frac=0.5, tiny_exp=-10, seed=2)
@example(k=5, m=3, n=2, scale_exp=0, rho_kind="zero", rho_frac=0.1, tiny_exp=-10, seed=3)
@example(k=2, m=6, n=33, scale_exp=3, rho_kind="annihilate", rho_frac=0.1, tiny_exp=-10,
         seed=4)
@example(k=6, m=6, n=64, scale_exp=6, rho_kind="tiny", rho_frac=0.1, tiny_exp=-14, seed=5)
@example(k=3, m=6, n=17, scale_exp=-6, rho_kind="tiny", rho_frac=0.1, tiny_exp=-6, seed=6)
def test_tubal_shrinkage_norm_is_the_output_norm(
    k, m, n, scale_exp, rho_kind, rho_frac, tiny_exp, seed
):
    # the norm read off the shrunk singular values is the nuclear norm of
    # the tensor actually returned, at every shape, parity of n and scale
    scale = 10.0 ** scale_exp
    data = np.random.default_rng(seed).standard_normal((m, k, n)) * scale
    # "small" shrinks part of the spectrum and "tiny" almost none of it,
    # down to thresholds far below the slices' largest singular values;
    # every Fourier slice's largest singular value is at most sum |data|,
    # so n * rho above it empties all
    rho = {
        "zero": 0.0,
        "small": rho_frac * scale,
        "tiny": 10.0**tiny_exp * scale,
        "annihilate": 2.0 * float(np.abs(data).sum()) / n,
    }[rho_kind]
    out, norm = tubal_shrinkage(data, rho)
    want = tnn_oracle(out)
    assert abs(norm - want) <= 1e-10 * (1.0 + norm)
    if rho_kind == "annihilate":
        assert norm == 0.0
        assert np.max(np.abs(out)) == 0.0
