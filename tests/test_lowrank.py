import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robuq.deploy import pack_ternary
from robuq.errors import FormatError, ValidationError
from robuq.hadamard import fold_into_weights, transform_tokens
from robuq.lowrank import (
    LowRankBranch,
    QuantLinearLayer,
    forward,
    forward_with_cache,
    init_layer,
    load_layer,
    reconstruct_weight,
    save_layer,
    truncated_svd,
)
from robuq.quant import (
    _BLOCK_ENTRIES,
    TernaryWeights,
    dequantize_codes,
    lloyd_max,
    ternarize,
    uniform_gauss_codebook,
)
from robuq.tensorio import save_matrix


def test_svd_diagonal_case():
    u, s, v = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-10)
    resid = np.diag([3.0, 2.0, 1.0]) - (u * s) @ v.T
    np.testing.assert_allclose(np.linalg.norm(resid), 1.0, atol=1e-8)


def test_svd_exact_rank_one():
    rng = np.random.default_rng(1)
    m = np.outer(rng.standard_normal(16), rng.standard_normal(16))
    u, s, v = truncated_svd(m, 1)
    assert np.linalg.norm(m - (u * s) @ v.T) < 1e-5 * np.linalg.norm(m)


@pytest.mark.parametrize("shape,r", [((16, 16), 4), ((24, 10), 3), ((10, 24), 5), ((64, 64), 16)])
def test_svd_matches_dense_oracle(shape, r):
    rng = np.random.default_rng(sum(shape) + r)
    m = rng.standard_normal(shape)
    u, s, v = truncated_svd(m, r)
    s_full = np.linalg.svd(m, compute_uv=False)
    assert np.all(s <= s_full[:r] + 1e-13 * s_full[0])  # Ritz values interlace
    err_mine = np.linalg.norm(m - (u * s) @ v.T)
    err_oracle = np.sqrt(np.sum(s_full[r:] ** 2))  # Eckart-Young optimum
    assert err_mine <= err_oracle * 1.01
    assert np.all(np.diff(s) <= 1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(r), atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(r), atol=1e-10)


def test_svd_zero_matrix_and_errors():
    u, s, v = truncated_svd(np.zeros((5, 4)), 2)
    assert not s.any()
    np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
    with pytest.raises(ValidationError):
        truncated_svd(np.ones((3, 3)), 4)


@pytest.mark.parametrize("shape", [(5, 7), (7, 5), (40, 24)], ids=["wide", "tall", "sketched"])
def test_svd_rank_0_keeps_no_triple(shape):
    # Rank 0 takes the steps of every rank and keeps none of the triples;
    # its overflow check still reads the top singular value.
    m = np.random.default_rng(19).standard_normal(shape)
    u, s, v = truncated_svd(m, 0)
    assert (u.shape, s.shape, v.shape) == ((shape[0], 0), (0,), (shape[1], 0))
    np.testing.assert_array_equal((u * s) @ v.T, np.zeros(shape), strict=True)
    with pytest.raises(ValidationError, match="top singular value overflows"):
        truncated_svd(np.full((3, 3), 1e308), 0)


@pytest.mark.parametrize("r", [2.5, 2.0, "2", True], ids=["fraction", "float", "text", "bool"])
def test_svd_rejects_a_non_integer_rank(r):
    # 2.5 raised numpy's TypeError and True returned a rank-1 triple
    with pytest.raises(ValidationError, match=r"rank .* not in 0\.\.min\(4, 4\)"):
        truncated_svd(np.eye(4), r)
    assert truncated_svd(np.eye(4), np.int64(2))[1].shape == (2,)


def test_svd_rank_deficient_nonzero():
    rng = np.random.default_rng(11)
    m = np.outer(rng.standard_normal(16), rng.standard_normal(12))
    u, s, v = truncated_svd(m, 4)
    np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)
    assert s[0] > 0.0
    assert np.all(s[1:] == 0.0)
    np.testing.assert_allclose((u * s) @ v.T, m, rtol=0, atol=1e-12 * np.linalg.norm(m))


def test_svd_deterministic_sign_rule():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((40, 24))
    first, second = truncated_svd(m, 6), truncated_svd(m, 6)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    u = first[0]
    assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(6)] > 0)


def test_svd_exact_on_flat_spectrum():
    # r + 16 = 192 columns: the sketch spans them all.
    rng = np.random.default_rng(13)
    m = rng.standard_normal((256, 192))
    _, s, _ = truncated_svd(m, 176)
    np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False)[:176], rtol=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_svd_values_at_extreme_magnitudes(scale):
    m = np.random.default_rng(14).standard_normal((40, 24))
    _, s_unit, _ = truncated_svd(m, 4)
    _, s, _ = truncated_svd(m * scale, 4)
    np.testing.assert_allclose(s, s_unit * scale, rtol=0, atol=1e-13 * s_unit[0] * scale)


@st.composite
def _any_rank_matrices(draw):
    rows = draw(st.integers(1, 80))
    cols = draw(st.integers(1, 80))
    r = draw(st.integers(1, min(rows, cols)))
    k = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return scale * rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols)), r


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_any_rank_matrices())
def test_svd_ritz_values_never_exceed_the_singular_values(case):
    m, r = case
    _, s, _ = truncated_svd(m, r)
    s_full = np.linalg.svd(m, compute_uv=False)
    assert np.all(s <= s_full[:r] + 1e-13 * s_full[0])


@pytest.mark.parametrize("shape,r,seeds", [((300, 300), 16, range(5)), ((300, 300), 30, range(5)),
                                           ((300, 400), 30, range(5)), ((1152, 1152), 16, [0])])
def test_svd_near_eckart_young_on_flat_gaussians(shape, r, seeds):
    # A flat spectrum has the smallest gaps, so subspace iteration converges
    # slowest there; the documented bound is 1.01 times the optimum.
    for seed in seeds:
        m = np.random.default_rng(seed).standard_normal(shape)
        u, s, v = truncated_svd(m, r)
        optimum = np.sqrt(np.sum(np.linalg.svd(m, compute_uv=False)[r:] ** 2))
        assert np.linalg.norm(m - (u * s) @ v.T) <= 1.01 * optimum


@st.composite
def _fully_sketched(draw):
    rows = draw(st.integers(1, 80))
    cols = draw(st.integers(1, 80))
    n = min(rows, cols)
    r = draw(st.integers(max(1, n - 16), n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((rows, cols)) * 10.0 ** draw(st.integers(-6, 6)), r


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_fully_sketched())
def test_svd_exact_when_the_sketch_spans_every_column(case):
    m, r = case
    u, s, v = truncated_svd(m, r)
    s_full = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(s, s_full[:r], rtol=0, atol=1e-13 * s_full[0])
    optimum = np.sqrt(np.sum(s_full[r:] ** 2))
    assert abs(np.linalg.norm(m - (u * s) @ v.T) - optimum) <= 1e-12 * s_full[0]


def test_svd_neither_reads_nor_advances_the_global_rng():
    m = np.random.default_rng(19).standard_normal((120, 90))  # sketched: 16 + 16 < 90
    results, saved = [], np.random.get_state()
    try:
        for seed in (0, 1):
            np.random.seed(seed)
            state = np.random.get_state()
            results.append(truncated_svd(m, 16))
            after = np.random.get_state()
            assert after[0] == state[0] and np.array_equal(after[1], state[1])
            assert after[2:] == state[2:]
    finally:
        np.random.set_state(saved)
    for first, second in zip(*results):
        assert np.array_equal(first, second)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)], ids=["tall", "wide"])
def test_svd_overflowing_top_singular_value_is_validation_error(shape):
    # Every entry is finite, but s_0 = sqrt(6) * 1e308 is not.
    with pytest.raises(ValidationError, match="top singular value overflows"):
        truncated_svd(np.full(shape, 1e308), 1)


def test_svd_top_singular_value_just_below_overflow():
    _, s, _ = truncated_svd(np.full((3, 2), 7e307), 1)
    np.testing.assert_allclose(s, [np.sqrt(6.0) * 7e307], rtol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svd_rejects_a_non_finite_entry(bad):
    m = np.random.default_rng(17).standard_normal((40, 24))
    m[-1, -1] = bad
    with pytest.raises(ValidationError, match="NaN or Inf"):
        truncated_svd(m, 2)


def _graded(shape, seed, ratio=2.0):
    """A matrix with singular values ratio^-i on random orthonormal factors."""
    rng = np.random.default_rng(seed)
    n = min(shape)
    u = np.linalg.qr(rng.standard_normal((shape[0], n)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], n)))[0]
    return (u * ratio ** -np.arange(n)) @ v.T


@pytest.mark.parametrize("shape", [(60, 45), (45, 60)])
def test_svd_graded_spectrum(shape):
    m = _graded(shape, 15)
    u, s, v = truncated_svd(m, 30)
    s_full = np.linalg.svd(m, compute_uv=False)
    s0 = s_full[0]
    resolved = s_full[:30] > 1e-6 * s0
    np.testing.assert_allclose(s[resolved], s_full[:30][resolved], rtol=0, atol=1e-12 * s0)
    optimum = np.sqrt(np.sum(s_full[30:] ** 2))  # Eckart-Young
    assert np.linalg.norm(m - (u * s) @ v.T) - optimum <= 1e-7 * s0


def test_svd_of_transpose_is_transposed():
    m = np.random.default_rng(16).standard_normal((50, 20))
    u, s, v = truncated_svd(m, 5)
    ut, st_, vt = truncated_svd(m.T, 5)
    s0 = np.linalg.norm(m, 2)
    np.testing.assert_allclose((ut * st_) @ vt.T, ((u * s) @ v.T).T, rtol=0, atol=1e-13 * s0)


# The test_sketched_svd inputs have min(dims) > r + 16, so the float32
# subspace iteration and its Cholesky-QR steps run on each of them.

def _assert_orthonormal(u, v):
    r = u.shape[1]
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(r), rtol=0, atol=1e-12)


def _assert_exact(m, r, rank):
    u, s, v = truncated_svd(m, r)
    _assert_orthonormal(u, v)
    assert np.all(s[rank:] == 0.0)
    np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False)[:r], rtol=0,
                               atol=1e-13 * np.abs(m).max())
    np.testing.assert_allclose((u * s) @ v.T, m, rtol=0, atol=1e-12 * np.linalg.norm(m))
    return u, s, v


def test_sketched_svd_of_a_zero_matrix():
    u, s, v = truncated_svd(np.zeros((64, 96)), 4)
    assert not s.any()
    _assert_orthonormal(u, v)


@pytest.mark.parametrize("r", [1, 8])
@pytest.mark.parametrize("kind", ["random", "ones"])
def test_sketched_svd_of_a_rank_one_product(kind, r):
    # A float32 Gram matrix of the all-ones sketch is not positive definite
    # even after the shift; the float64 one is.
    rng = np.random.default_rng(20)
    m = np.outer(rng.standard_normal(64), rng.standard_normal(96))
    _assert_exact(m if kind == "random" else np.ones((64, 96)), r, 1)


def test_sketched_svd_with_duplicated_columns():
    rng = np.random.default_rng(21)
    columns = rng.standard_normal((64, 5))
    _assert_exact(columns[:, rng.integers(0, 5, 96)], 8, 5)


def test_sketched_svd_of_a_single_nonzero_entry():
    m = np.zeros((64, 96))
    m[10, 20] = -3.5
    u, s, v = _assert_exact(m, 4, 1)
    assert s[0] == 3.5 and u[10, 0] == 1.0 and v[20, 0] == -1.0


def test_sketched_svd_with_an_entry_that_underflows_float32():
    # The float32 copy holds 1e-300 as 0; the value is below the rank
    # tolerance, so the exact answer is rank 1 all the same.
    m = np.zeros((64, 96))
    m[0, 0], m[1, 1] = 1.0, 1e-300
    _assert_exact(m, 2, 1)


def test_sketched_svd_of_a_subnormal_matrix():
    # Every entry is subnormal, so 1 / max|m| overflows. m * 2^1060 is
    # exact and has the same singular vectors; the singular values of m
    # are subnormal too, so they hold s * 2^-1060 to the nearest 2^-1074.
    m = np.ldexp(np.random.default_rng(22).standard_normal((40, 24)), -1060)
    u, s, v = truncated_svd(m, 4)
    _assert_orthonormal(u, v)
    u_up, s_up, v_up = truncated_svd(np.ldexp(m, 1060), 4)
    np.testing.assert_allclose(u, u_up, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v, v_up, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s, np.ldexp(s_up, -1060), rtol=0, atol=2.0**-1074)


@pytest.mark.parametrize("shape", [(64, 96), (96, 64), (300, 400)])
def test_sketched_svd_near_eckart_young_on_a_steep_spectrum(shape):
    m = _graded(shape, 23, ratio=10**0.5)  # s_i = 10^(-i/2): the optimum is about 1e-8
    u, s, v = truncated_svd(m, 16)
    _assert_orthonormal(u, v)
    s_full = np.linalg.svd(m, compute_uv=False)
    assert np.all(s <= s_full[:16] + 1e-13 * s_full[0])
    assert np.linalg.norm(m - (u * s) @ v.T) <= 1.01 * np.sqrt(np.sum(s_full[16:] ** 2))


def test_sketched_svd_overflowing_top_singular_value_is_validation_error():
    with pytest.raises(ValidationError, match="top singular value overflows"):
        truncated_svd(np.full((64, 96), 1e308), 4)
    _, s, _ = truncated_svd(np.full((64, 96), 1e306), 4)
    np.testing.assert_allclose(s[0], np.sqrt(64 * 96) * 1e306, rtol=1e-14)


@pytest.mark.parametrize("shape,r", [((64, 96), 4), ((96, 64), 4), ((8, 12), 4), ((12, 8), 4)])
def test_svd_factors_are_c_ordered(shape, r):
    # init_layer's B = V^T is then Fortran-ordered, which the QAT buffer
    # layout and the forward's xh @ B.T keep.
    u, _, v = truncated_svd(np.random.default_rng(24).standard_normal(shape), r)
    assert u.flags.c_contiguous and v.flags.c_contiguous


@st.composite
def _rank_k_products(draw):
    rows = draw(st.integers(1, 64))
    cols = draw(st.integers(1, 64))
    r = draw(st.integers(1, min(rows, cols)))
    k = draw(st.integers(0, r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols)), r, k


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_rank_k_products())
def test_property_rank_k_product(case):
    m, r, k = case
    u, s, v = truncated_svd(m, r)
    assert np.all(s[k:] == 0.0)
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(r), rtol=0, atol=1e-12)
    np.testing.assert_allclose((u * s) @ v.T, m, rtol=0, atol=1e-12 * np.linalg.norm(m))


def test_init_layer_zero_weight():
    layer = init_layer(np.zeros((8, 8)), r=4, codebook=uniform_gauss_codebook(4))
    assert not layer.wq.values.any()
    assert np.abs(layer.branch.matrix()).max() == 0.0
    np.testing.assert_array_equal(forward(layer, np.zeros((3, 8))), np.zeros((3, 8)))


@pytest.mark.parametrize("r", [2.5, 2.0, "2", True], ids=["fraction", "float", "text", "bool"])
def test_init_layer_rejects_a_non_integer_rank(r):
    # truncated_svd states the one rank rule
    with pytest.raises(ValidationError, match=r"rank .* not in 0\.\.min\(8, 8\)"):
        init_layer(np.eye(8), r=r)


def test_init_layer_overflowing_weight_is_validation_error():
    # At every rank, 0 included, the top singular value overflows.
    with pytest.raises(ValidationError, match="top singular value overflows"):
        init_layer(np.full((3, 2), 1e308), r=1)
    with pytest.raises(ValidationError, match="overflows float64"):
        init_layer(np.full((3, 2), 1e308), r=0)


@pytest.mark.parametrize("shape", [(1152, 256), (256, 1152)], ids=["tall", "wide"])
def test_init_layer_transient_memory_is_at_most_three_weights(shape):
    import tracemalloc

    w = np.random.default_rng(18).standard_normal(shape)
    init_layer(w, r=16)
    tracemalloc.start()
    try:
        init_layer(w, r=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # W H and the SVD's float32 copy, then W H and the A B product the
    # residual is written into; W H is released before ternarizing.
    assert peak <= 3 * w.nbytes


def test_init_layer_branch_captures_low_rank():
    rng = np.random.default_rng(2)
    w_low = rng.standard_normal((32, 8)) @ rng.standard_normal((8, 32))
    layer = init_layer(w_low, r=8, codebook=uniform_gauss_codebook(8))
    # Residual is numerically zero, so the ternary branch contributes nothing.
    assert layer.wq.alpha < 1e-12
    x = rng.standard_normal((16, 32))
    np.testing.assert_allclose(forward(layer, x), x @ w_low.T, atol=1e-8)


def test_init_layer_rank_0_ternarizes_the_whole_transformed_weight():
    # The 0-wide branch's product is zero, and W H^T - 0.0 is W H^T bit for
    # bit, -0.0 included.
    w = np.random.default_rng(20).standard_normal((6, 8))
    w[:, :2] = 0.0
    layer = init_layer(w, r=0)
    assert layer.branch.A.shape == (6, 0) and layer.branch.B.shape == (0, 8)
    expected = ternarize(fold_into_weights(w))
    np.testing.assert_array_equal(layer.wq.values, expected.values, strict=True)
    assert layer.wq.alpha == expected.alpha


def test_branch_strictly_helps_reconstruction():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((32, 32))
    with_branch = init_layer(w, r=16, codebook=uniform_gauss_codebook(4))
    without = init_layer(w, r=0, codebook=uniform_gauss_codebook(4))
    e_with = np.linalg.norm(w - reconstruct_weight(with_branch))
    e_without = np.linalg.norm(w - reconstruct_weight(without))
    assert e_with < e_without


def test_forward_near_lossless_limit():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((32, 32))
    layer = init_layer(w, r=32, codebook=uniform_gauss_codebook(8))
    x = rng.standard_normal((64, 32))
    y = forward(layer, x)
    dense = x @ w.T
    assert np.linalg.norm(y - dense) / np.linalg.norm(dense) < 0.01


def test_forward_ablation_at_b4():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((32, 32))
    x = rng.standard_normal((64, 32))
    dense = x @ w.T
    cb = uniform_gauss_codebook(4)
    err_branch = np.linalg.norm(forward(init_layer(w, r=16, codebook=cb), x) - dense)
    err_plain = np.linalg.norm(forward(init_layer(w, r=0, codebook=cb), x) - dense)
    assert err_branch < err_plain


def test_forward_dimension_error():
    layer = init_layer(np.eye(8), r=2, codebook=uniform_gauss_codebook(4))
    with pytest.raises(ValidationError):
        forward(layer, np.ones((3, 9)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_forward_rejects_non_finite_token(bad):
    rng = np.random.default_rng(2)
    layer = init_layer(rng.standard_normal((8, 16)), r=2, codebook=uniform_gauss_codebook(4))
    x = rng.standard_normal((4, 16))
    x[2, 7] = bad
    with pytest.raises(ValidationError, match="token 2"):
        forward(layer, x)


def test_reconstruct_zero_layer():
    layer = init_layer(np.zeros((4, 4)), r=2, codebook=uniform_gauss_codebook(4))
    np.testing.assert_array_equal(reconstruct_weight(layer), np.zeros((4, 4)))


def test_reconstruct_full_rank_recovers():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((16, 16))
    layer = init_layer(w, r=16, codebook=uniform_gauss_codebook(8))
    rec = reconstruct_weight(layer)
    assert np.linalg.norm(w - rec) / np.linalg.norm(w) < 1e-4


def test_orthogonal_invariance_of_error():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((24, 16))
    layer = init_layer(w, r=4, codebook=uniform_gauss_codebook(4))
    direct = np.linalg.norm(w - reconstruct_weight(layer))
    transformed = np.linalg.norm(
        fold_into_weights(w, layer.plan) - (layer.branch.matrix() + layer.wq.dequantize())
    )
    np.testing.assert_allclose(direct, transformed, rtol=1e-12)


def test_forward_consistent_with_reconstruct_at_b8():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((32, 32))
    layer = init_layer(w, r=16, codebook=uniform_gauss_codebook(8))
    x = rng.standard_normal((128, 32))
    y_fwd = forward(layer, x)
    y_rec = x @ reconstruct_weight(layer).T
    assert np.linalg.norm(y_fwd - y_rec) / np.linalg.norm(y_rec) < 0.005


def test_rank_above_min_dims_is_rejected():
    for r in (-1, 5):
        with pytest.raises(ValidationError, match=f"rank {r} not in"):
            init_layer(np.eye(4), r=r, codebook=uniform_gauss_codebook(4))
    layer = init_layer(np.eye(4), r=4, codebook=uniform_gauss_codebook(4))
    assert layer.branch.rank == 4


def test_residual_matches_ternarize_of_residual():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((16, 16))
    layer = init_layer(w, r=4, codebook=uniform_gauss_codebook(4))
    wh = fold_into_weights(w, layer.plan)
    expected = ternarize(wh - layer.branch.matrix())
    assert np.array_equal(layer.wq.values, expected.values)
    assert layer.wq.alpha == expected.alpha


@pytest.mark.parametrize("r", [0, 4])
def test_init_layer_residual_over_several_row_blocks_is_the_whole_matrix_formula(r):
    # 300 x 1152: ternarize works through 28-row blocks with a ragged last one.
    rng = np.random.default_rng(19)
    w = rng.standard_normal((300, 1152))
    layer = init_layer(w, r=r)
    residual = fold_into_weights(w) - layer.branch.matrix()
    gamma = float(np.mean(np.abs(residual)))
    expected = np.clip(np.rint(residual / (gamma + 1e-8)), -1, 1).astype(np.int8)
    np.testing.assert_array_equal(layer.wq.values, expected, strict=True)
    assert layer.wq.alpha.hex() == gamma.hex()


def test_layer_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    w = rng.standard_normal((16, 16))
    layer = init_layer(w, r=4, codebook=uniform_gauss_codebook(4), center=False)
    save_layer(layer, tmp_path / "layer")
    assert (tmp_path / "layer" / "layer.json").exists()
    back = load_layer(tmp_path / "layer")
    assert np.array_equal(back.wq.values, layer.wq.values)
    assert back.codebook.bits == 4 and back.codebook.is_uniform
    assert back.center is False and back.plan == layer.plan
    x = rng.standard_normal((8, 16))
    # A/B travel as float32, so the reloaded forward agrees to that precision.
    np.testing.assert_allclose(forward(back, x), forward(layer, x), atol=1e-4)


def test_layer_with_a_numpy_alpha_saves_and_reloads(tmp_path):
    # An np.float32 alpha made save_layer raise TypeError after it had
    # written the factor files and a truncated layer.json.
    layer = init_layer(np.random.default_rng(11).standard_normal((6, 8)), r=2)
    layer.wq = TernaryWeights(values=layer.wq.values, alpha=np.float32(0.5))
    save_layer(layer, tmp_path / "layer")
    back = load_layer(tmp_path / "layer")
    assert back.wq.alpha == 0.5
    np.testing.assert_array_equal(back.wq.values, layer.wq.values)


def test_layer_serialization_rank0(tmp_path):
    layer = init_layer(np.eye(8), r=0, codebook=uniform_gauss_codebook(2))
    save_layer(layer, tmp_path / "l0")
    back = load_layer(tmp_path / "l0")
    assert back.branch.rank == 0
    np.testing.assert_array_equal(back.wq.values, layer.wq.values)


@pytest.mark.parametrize("maker,bits", [(m, b) for m in (lloyd_max, uniform_gauss_codebook)
                                         for b in range(1, 9)])
def test_layer_json_rebuilds_codebook(tmp_path, maker, bits):
    # No codebook file: layer.json carries bits, and the uniform codebook is
    # solved again from it on load. A sidecar of an older layout holds no
    # format and raises FormatError: the layout before format 2 held
    # block_size, and the one before that also named the family as
    # "uniform", false for a Lloyd-Max layer.
    import json

    cb, d = uniform_gauss_codebook(bits), tmp_path / "cb"
    save_layer(init_layer(np.eye(8), r=0, codebook=cb), d)
    assert {p.name for p in d.iterdir()} == {"layer.json", "wq_values.rbqp"}
    meta = json.loads((d / "layer.json").read_text())
    assert meta["format"] == 2 and not {"block_size", "uniform"} & set(meta)
    assert load_layer(d).codebook is cb
    del meta["format"]
    meta["block_size"] = 8
    if maker is lloyd_max:
        meta["uniform"] = False
    (d / "layer.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=r"layer\.json: KeyError: 'format'"):
        load_layer(d)


def test_a_layer_rejects_a_lloyd_max_codebook():
    w = np.random.default_rng(12).standard_normal((8, 16))
    with pytest.raises(ValidationError, match="uniform grid"):
        init_layer(w, r=2, codebook=lloyd_max(4))
    layer = init_layer(w, r=2)
    with pytest.raises(ValidationError, match="uniform grid"):
        QuantLinearLayer(wq=layer.wq, branch=layer.branch, codebook=lloyd_max(3))


def _rank6_branch():
    rng = np.random.default_rng(19)
    return LowRankBranch(A=rng.standard_normal((4, 6)), B=rng.standard_normal((6, 8)))


@pytest.mark.parametrize("change,match", [
    ({"branch": _rank6_branch()}, r"rank 6 not in 0\.\.min\(4, 8\)"),
    ({"center": "no"}, "center must be a bool"),
], ids=["rank_above_min_dims", "center_text"])
def test_a_layer_rejects_what_init_layer_cannot_build(change, match):
    layer = init_layer(np.random.default_rng(19).standard_normal((4, 8)), r=1)
    with pytest.raises(ValidationError, match=match):
        QuantLinearLayer(**{**vars(layer), **change})


def test_load_layer_rejects_a_rank_above_min_dims(tmp_path):
    # A 4 x 8 directory whose sidecar and factor files agree on rank 6 loaded
    # as a rank-6 layer, which init_layer cannot build.
    import json

    d = tmp_path / "r6"
    save_layer(init_layer(np.random.default_rng(19).standard_normal((4, 8)), r=1), d)
    branch = _rank6_branch()
    save_matrix(branch.A, d / "A.rbq")
    save_matrix(branch.B, d / "B.rbq")
    meta = json.loads((d / "layer.json").read_text())
    (d / "layer.json").write_text(json.dumps({**meta, "rank": 6}))
    with pytest.raises(FormatError, match=r"layer\.json: rank 6 not in 0\.\.min\(4, 8\)"):
        load_layer(d)


@pytest.mark.parametrize("shape", [(7, 9), (5, 8), (1, 1)], ids=["63_values", "40_values", "1_value"])
def test_layer_serialization_packs_the_ternary_values(tmp_path, shape):
    layer = init_layer(np.random.default_rng(11).standard_normal(shape), r=1)
    save_layer(layer, tmp_path / "p")
    size = shape[0] * shape[1]
    assert (tmp_path / "p" / "wq_values.rbqp").stat().st_size == 12 + -(-size // 5)
    back = load_layer(tmp_path / "p")
    assert back.wq.values.dtype == np.int8
    np.testing.assert_array_equal(back.wq.values, layer.wq.values)
    assert back.wq.alpha == layer.wq.alpha


def test_layer_per_tensor_alpha_stays_scalar(tmp_path):
    import json

    layer = init_layer(np.random.default_rng(12).standard_normal((8, 8)), r=2)
    save_layer(layer, tmp_path / "pt")
    meta = json.loads((tmp_path / "pt" / "layer.json").read_text())
    assert meta["alpha"] == layer.wq.alpha and isinstance(meta["alpha"], float)
    assert load_layer(tmp_path / "pt").wq.alpha == layer.wq.alpha


def test_load_layer_alpha_length_mismatch_is_format_error(tmp_path):
    import json

    from robuq.errors import FormatError

    layer = init_layer(np.random.default_rng(13).standard_normal((8, 8)), r=2)
    save_layer(layer, tmp_path / "bad")
    path = tmp_path / "bad" / "layer.json"
    meta = json.loads(path.read_text())
    meta["alpha"] = [0.5] * 7
    path.write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        load_layer(tmp_path / "bad")


@pytest.mark.parametrize("bad", [0.5, -0.7, 256.0])
def test_load_layer_rejects_non_ternary_values(tmp_path, bad):
    layer = init_layer(np.random.default_rng(17).standard_normal((8, 8)), r=2)
    values = layer.wq.values.astype(np.float64)
    values[3, 5] = bad
    with pytest.raises(ValidationError):
        pack_ternary(values)  # the writer cannot store the bad value itself
    save_layer(layer, tmp_path / "nt")
    path = tmp_path / "nt" / "wq_values.rbqp"
    raw = bytearray(path.read_bytes())
    # so it can only show up as a corrupt byte: the one holding value [3, 5],
    # after the 12-byte header; a byte above 242 holds no five ternary digits
    raw[12 + (3 * 8 + 5) // 5] = 250
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="wq_values.rbqp"):
        load_layer(tmp_path / "nt")


@pytest.mark.parametrize("dims,match", [({"out_dim": 7}, "wq_values.rbqp: 64 values"),
                                        ({"out_dim": -8, "in_dim": -8}, "layer.json")],
                         ids=["out_dim_short", "both_negative"])
def test_load_layer_value_count_mismatch_is_format_error(tmp_path, dims, match):
    import json

    d = _saved_layer(tmp_path)
    meta = json.loads((d / "layer.json").read_text())
    meta.update(dims)
    (d / "layer.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=match):
        load_layer(d)


def _saved_layer(tmp_path, rank=2):
    layer = init_layer(np.random.default_rng(18).standard_normal((8, 8)), r=rank)
    save_layer(layer, tmp_path / "l")
    return tmp_path / "l"


@pytest.mark.parametrize("text", [
    '{"alpha": 0.5, "rank": 2',
    '[1, 2, 3]',
    '{"alpha": 0.5}',
], ids=["truncated", "not_an_object", "missing_keys"])
def test_load_layer_bad_sidecar_is_format_error(tmp_path, text):
    d = _saved_layer(tmp_path)
    (d / "layer.json").write_text(text)
    with pytest.raises(FormatError, match="layer.json"):
        load_layer(d)


@pytest.mark.parametrize("key,value", [
    ("rank", None), ("alpha", "x"), ("alpha", [[0.5]]), ("alpha", float("nan")),
    ("in_dim", "eight"), ("bits", [4]), ("out_dim", 7), ("rank", 1), ("rank", 3),
    ("alpha", "0.5"), ("alpha", True), ("alpha", 10**400),
    ("center", "no"), ("in_dim", 8.9), ("bits", 4.7), ("bits", True), ("bits", 9),
    ("format", None), ("format", 1), ("format", 3), ("format", "2"), ("format", 2.0),
    ("format", True),
], ids=["rank_missing", "alpha_text", "alpha_nested", "alpha_nan", "in_dim_text", "bits_list",
        "out_dim_wrong", "rank_below_factors", "rank_above_factors",
        "alpha_numeric_text", "alpha_bool", "alpha_int_beyond_float",
        "center_text", "in_dim_float", "bits_float", "bits_bool", "bits_above_8",
        "format_missing", "format_1", "format_3", "format_text", "format_float", "format_bool"])
def test_load_layer_bad_field_is_format_error(tmp_path, key, value):
    import json

    d = _saved_layer(tmp_path)
    meta = json.loads((d / "layer.json").read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    (d / "layer.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="layer.json"):
        load_layer(d)


@pytest.mark.parametrize("alpha", ["-0.5", "-1e-300", "Infinity", "-Infinity", "NaN"])
def test_load_layer_rejects_a_negative_or_non_finite_alpha(tmp_path, alpha):
    # An alpha of -0.5 loaded and ran forward before TernaryWeights checked it.
    import json

    d = _saved_layer(tmp_path)
    meta = json.loads((d / "layer.json").read_text())
    text = json.dumps({**meta, "alpha": "A"}).replace('"A"', alpha)
    (d / "layer.json").write_text(text)
    with pytest.raises(FormatError, match="layer.json.*alpha"):
        load_layer(d)


def test_load_layer_non_utf8_sidecar_is_format_error(tmp_path):
    d = _saved_layer(tmp_path)
    (d / "layer.json").write_bytes(b'{"alpha": "caf\xe9"}')
    with pytest.raises(FormatError, match="layer.json"):
        load_layer(d)


@pytest.mark.parametrize("name", ["A.rbq", "B.rbq"])
def test_load_layer_nan_factor_is_format_error_naming_it(tmp_path, name):
    # a NaN payload in a factor file was a ValidationError naming no file
    d = _saved_layer(tmp_path)
    raw = bytearray((d / name).read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    (d / name).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=rf"{name}: matrix contains NaN or Inf"):
        load_layer(d)


@pytest.mark.parametrize("name", ["A.rbq", "B.rbq", "wq_values.rbqp"])
def test_load_layer_missing_matrix_is_format_error(tmp_path, name):
    d = _saved_layer(tmp_path)
    (d / name).unlink()
    with pytest.raises(FormatError, match=name):
        load_layer(d)


# ---------------------------------------------------------------------------
# The forward on activation codes against the dequantized product
# ---------------------------------------------------------------------------

_OPERANDS = {"operand_f32", "operand_f64"}


def _oracle(layer, x, cache):
    """deq @ (alpha V)^T + xh B^T A^T with xh the float64 transform and deq
    formed explicitly from the forward's own codes, mu and sigma, and the
    same sum over absolute values, the scale of its rounding error."""
    xh = transform_tokens(x, layer.plan)
    deq = dequantize_codes(cache["codes"].astype(np.int64), layer.codebook, cache["mu"],
                           cache["sigma"], center=layer.center)
    wq, a, b = layer.wq.dequantize(), layer.branch.A, layer.branch.B
    ref = deq @ wq.T + xh @ b.T @ a.T
    scale = np.abs(deq) @ np.abs(wq).T + np.abs(xh) @ np.abs(b).T @ np.abs(a).T
    return ref, np.linalg.norm(scale)


def _assert_matches_oracle(layer, x):
    y, cache = forward_with_cache(layer, x)
    ref, scale = _oracle(layer, x, cache)
    assert np.linalg.norm(y - ref) <= 1e-12 * scale
    return y, cache


def _tokens(rng, t, c):
    x = rng.standard_normal((t, c)) * np.exp(rng.standard_normal((t, 1)))
    x += 3.0 * rng.standard_normal((t, 1))
    x[:, rng.choice(c, 2, replace=False)] *= 30.0
    # Two tokens that are constant after the transform, so degenerate: with
    # one 64-block, H (20 e_0) is 2.5 (1, ..., 1) up to one rounding.
    x[1] = 0.0
    x[1, 0] = 20.0
    x[2] = 0.0
    return x


@pytest.mark.parametrize("reload", [False, True], ids=["scalar", "reloaded"])
@pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("cb", [uniform_gauss_codebook(b) for b in range(1, 9)],
                         ids=[f"u{b}" for b in range(1, 9)])
def test_forward_matches_dequantized_oracle(tmp_path, cb, center, reload):
    rng = np.random.default_rng(cb.bits)
    w = rng.standard_normal((40, 64))
    layer = init_layer(w, r=4, codebook=cb, center=center)
    if reload:
        save_layer(layer, tmp_path / "l")
        layer = load_layer(tmp_path / "l")
    x = _tokens(rng, 12, 64)
    y, cache = _assert_matches_oracle(layer, x)
    assert set(cache) == {"xh", "codes", "mu", "sigma"}
    assert layer.plan.block_size == 64
    assert cache["sigma"][1] == cache["sigma"][2] == 0.0
    assert np.ptp(cache["xh"][1]) == 0.0
    assert cache["mu"][1] == (cache["xh"][1].mean() if center else 0.0)
    assert not y[2].any()
    assert set(vars(layer.wq)) & _OPERANDS == {"operand_f32"}


@pytest.mark.parametrize("cb", [uniform_gauss_codebook(3)], ids=["u3"])
def test_forward_rank0_width96(cb):
    rng = np.random.default_rng(31)
    w = rng.standard_normal((80, 96))
    layer = init_layer(w, r=0, codebook=cb)
    _assert_matches_oracle(layer, _tokens(rng, 9, 96))


def _random_layer(rng, in_dim, out_dim, rank, cb, center=True):
    """A layer with random ternary weights and factors, built without an SVD."""
    return QuantLinearLayer(
        wq=ternarize(rng.standard_normal((out_dim, in_dim))),
        branch=LowRankBranch(A=rng.standard_normal((out_dim, rank)),
                             B=rng.standard_normal((rank, in_dim))),
        codebook=cb, center=center,
    )


@pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("cb", [uniform_gauss_codebook(4)], ids=["u4"])
def test_forward_over_several_row_blocks_matches_the_oracle(cb, center):
    t, in_dim, out_dim = 48, 1024, 2048
    # the epilogue runs 16-row blocks here (the float32 coder's 128-row
    # blocks are covered in test_quant.py)
    assert _BLOCK_ENTRIES // out_dim == 16
    rng = np.random.default_rng(35)
    layer = _random_layer(rng, in_dim, out_dim, 3, cb, center)
    x = _tokens(rng, t, in_dim)
    x[40] = 0.0  # constant after the transform, in the last block of both
    x[40, 0] = 20.0
    y, cache = _assert_matches_oracle(layer, x)
    xh, codes, sigma = cache["xh"], cache["codes"], cache["sigma"]
    assert xh.dtype == np.float32
    assert np.ptp(xh[40]) == 0.0 and sigma[40] == 0.0
    live = sigma > 0
    assert live.sum() == t - 3
    # In float32 terms: the row means and standard deviations from float32
    # sums, and codes that are the threshold search on z except within
    # float32 rounding of a threshold, where they move one level.
    mean = xh.sum(axis=1) / np.float32(in_dim)
    dev = xh - mean[:, None]
    std = np.sqrt(np.square(dev).sum(axis=1) / np.float32(in_dim))
    np.testing.assert_array_equal(sigma[live], std[live])
    np.testing.assert_array_equal(cache["mu"], mean if center else 0.0)
    z = (dev if center else xh)[live] / std[live, None]
    expect = np.searchsorted(cb.thresholds, z)
    differ = codes[live] != expect
    assert differ.sum() <= 2
    assert (np.abs(codes[live][differ] - expect[differ]) == 1).all()
    tol = 4 * np.finfo(np.float32).eps * (np.abs(z[differ]) + cb.levels[-1])
    assert (np.abs(z[differ, None] - cb.thresholds).min(axis=1) <= tol).all()
    assert (codes[~live] == len(cb.levels) // 2).all()
    assert not y[2].any()


def test_forward_transient_memory_stays_within_the_design_arrays():
    import tracemalloc

    t, in_dim, out_dim, rank = 64, 128, 4096, 1
    rng = np.random.default_rng(36)
    layer = _random_layer(rng, in_dim, out_dim, rank, uniform_gauss_codebook(4))
    x = rng.standard_normal((t, in_dim))
    forward(layer, x)  # builds the cached float32 operand
    tracemalloc.start()
    try:
        y, cache = forward_with_cache(layer, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    transient = peak - y.nbytes - sum(a.nbytes for a in cache.values())
    # The float32 code product and codes, one float64 scratch block of
    # rows, the two (r + 1)-column factors of the rank-(r + 1) GEMM, and
    # numpy's buffer for casting the float32 rows into the scratch block.
    bound = (4 * t * out_dim + 4 * t * in_dim + 8 * (_BLOCK_ENTRIES // out_dim) * out_dim
             + 8 * (t + out_dim) * (rank + 1) + 8 * np.getbufsize())
    assert bound < 8 * t * out_dim  # leaves no room for a T x out_dim float64 array
    assert transient <= bound


@st.composite
def _layers_and_tokens(draw):
    out_dim = draw(st.integers(1, 24))
    in_dim = draw(st.sampled_from([1, 3, 8, 12, 16, 40]))
    rank = draw(st.integers(0, min(out_dim, in_dim)))
    cb = draw(st.sampled_from([uniform_gauss_codebook(b) for b in (1, 2, 4, 8)]))
    center = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    w = scale * rng.standard_normal((out_dim, in_dim))
    layer = init_layer(w, r=rank, codebook=cb, center=center)
    t = draw(st.integers(1, 6))
    x = scale * rng.standard_normal((t, in_dim)) + rng.standard_normal((t, 1))
    if draw(st.booleans()):
        x[rng.integers(t)] = scale
    return layer, x


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_layers_and_tokens())
def test_property_forward_matches_dequantized_oracle(case):
    layer, x = case
    _assert_matches_oracle(layer, x)


@st.composite
def _random_layers_and_tokens(draw):
    in_dim = draw(st.sampled_from([1, 3, 8, 12, 40, 96, 512, 1152]))
    cb = draw(st.sampled_from([uniform_gauss_codebook(b) for b in (1, 2, 4, 8)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out_dim = draw(st.integers(1, 24))
    rank = draw(st.integers(0, min(4, out_dim, in_dim)))  # a layer's rank is at most min(dims)
    layer = _random_layer(rng, in_dim, out_dim, rank, cb, center=draw(st.booleans()))
    t = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-30, 25))
    x = rng.standard_normal((t, in_dim)) + draw(st.sampled_from([0.0, 3.0, 1e3])) * (
        rng.standard_normal((t, 1)))
    if draw(st.booleans()):
        x[rng.integers(t)] = 1.0  # constant: its transform is a spike per block
    if draw(st.booleans()):
        x[rng.integers(t)] = 0.0
        x[rng.integers(t), 0] = 1.0  # a constant transform in every block
    return layer, scale * x


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_random_layers_and_tokens())
def test_property_forward_codes_keep_the_contract(codes_contract, case):
    # The float32 quantizer input against the float64 reference
    # quantize_tokens(transform_tokens(x)), with m_t from the float64
    # transformed token.
    layer, x = case
    y, cache = forward_with_cache(layer, x)
    assert cache["xh"].dtype == np.float32
    assert cache["codes"].dtype == np.float32
    codes_contract(transform_tokens(x, layer.plan), layer.codebook, layer.center,
                   cache["codes"], cache["mu"], cache["sigma"])
    ref, scale = _oracle(layer, x, cache)
    assert np.linalg.norm(y - ref) <= 1e-12 * scale


def test_forward_caches_the_float32_transform_at_the_input_scale():
    rng = np.random.default_rng(37)
    layer = _random_layer(rng, 96, 10, 2, uniform_gauss_codebook(4))
    x = 1e-20 * rng.standard_normal((5, 96))
    _, cache = forward_with_cache(layer, x)
    np.testing.assert_array_equal(cache["xh"], transform_tokens(x.astype(np.float32), layer.plan))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.floats(3.5e38, 1e300), st.integers(0, 3), st.integers(0, 63), st.booleans())
def test_forward_rejects_a_token_whose_float32_image_overflows(value, row, col, negative):
    rng = np.random.default_rng(38)
    layer = _random_layer(rng, 64, 8, 2, uniform_gauss_codebook(4))
    x = rng.standard_normal((4, 64))
    x[row, col] = -value if negative else value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"token {row}"):
            forward(layer, x)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.floats(float(np.finfo(np.float32).max) / 7.9, float(np.finfo(np.float32).max)),
       st.integers(0, 3))
def test_forward_rejects_a_token_whose_float32_transform_overflows(value, row):
    # Every entry fits float32, but H of a constant 64-block is 8 times it
    # in one entry.
    rng = np.random.default_rng(39)
    layer = _random_layer(rng, 64, 8, 2, uniform_gauss_codebook(4))
    x = rng.standard_normal((4, 64))
    x[row] = value
    assert np.isfinite(x.astype(np.float32)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"token {row}"):
            forward(layer, x)


@pytest.mark.parametrize("in_dim", [65_793, 65_794])
def test_float32_operand_up_to_the_exactness_bound(in_dim):
    # (2^8 - 1) * 65_793 = 2^24 - 1: the 8-bit code GEMM runs in one exact
    # float32 chunk up to this width, and in two beyond it.
    rng = np.random.default_rng(32)
    layer = init_layer(rng.standard_normal((3, in_dim)), r=0, codebook=uniform_gauss_codebook(8))
    _assert_matches_oracle(layer, rng.standard_normal((2, in_dim)))
    assert set(vars(layer.wq)) & _OPERANDS == {"operand_f32"}


def test_replacing_the_ternary_weights_changes_the_next_forward():
    rng = np.random.default_rng(33)
    w = rng.standard_normal((16, 32))
    layer = init_layer(w, r=2, codebook=uniform_gauss_codebook(4))
    x = rng.standard_normal((5, 32))
    y_first = forward(layer, x)
    residual = fold_into_weights(w, layer.plan) - layer.branch.matrix()
    layer.wq = ternarize(-residual)
    y_second, _ = _assert_matches_oracle(layer, x)
    assert not np.allclose(y_second, y_first)


def test_conversion_never_builds_the_gemm_operand(tmp_path):
    rng = np.random.default_rng(34)
    layer = init_layer(rng.standard_normal((24, 32)), r=4, codebook=uniform_gauss_codebook(4))
    save_layer(layer, tmp_path / "l")
    back = load_layer(tmp_path / "l")
    pack_ternary(layer.wq.values)
    reconstruct_weight(layer)
    assert not set(vars(layer.wq)) & _OPERANDS
    assert not set(vars(back.wq)) & _OPERANDS
