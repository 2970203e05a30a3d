import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robuq.errors import DimensionError, FormatError, ValidationError
from robuq.hadamard import fold_into_weights
from robuq.lowrank import (
    forward,
    init_layer,
    load_layer,
    reconstruct_weight,
    save_layer,
    truncated_svd,
)
from robuq.quant import ternarize, uniform_gauss_codebook


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
    np.testing.assert_allclose(s, s_full[:r], rtol=1e-4)
    err_mine = np.linalg.norm(m - (u * s) @ v.T)
    err_oracle = np.sqrt(np.sum(s_full[r:] ** 2))  # Eckart-Young optimum
    assert err_mine <= err_oracle * (1 + 1e-4)
    assert np.all(np.diff(s) <= 1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(r), atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(r), atol=1e-10)


def test_svd_zero_matrix_and_errors():
    u, s, v = truncated_svd(np.zeros((5, 4)), 2)
    assert not s.any()
    np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
    with pytest.raises(DimensionError):
        truncated_svd(np.ones((3, 3)), 4)


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
    rng = np.random.default_rng(13)
    m = rng.standard_normal((256, 192))
    _, s, _ = truncated_svd(m, 16)
    np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False)[:16], rtol=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_svd_values_at_extreme_magnitudes(scale):
    m = np.random.default_rng(14).standard_normal((40, 24))
    s_full = np.linalg.svd(m, compute_uv=False)
    _, s, _ = truncated_svd(m * scale, 4)
    np.testing.assert_allclose(s, s_full[:4] * scale, rtol=0, atol=1e-13 * s_full[0] * scale)


def _graded(shape, seed):
    """A matrix with singular values 2^-i on random orthonormal factors."""
    rng = np.random.default_rng(seed)
    n = min(shape)
    u = np.linalg.qr(rng.standard_normal((shape[0], n)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], n)))[0]
    return (u * 2.0 ** -np.arange(n)) @ v.T


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


def test_init_layer_branch_captures_low_rank():
    rng = np.random.default_rng(2)
    w_low = rng.standard_normal((32, 8)) @ rng.standard_normal((8, 32))
    layer = init_layer(w_low, r=8, codebook=uniform_gauss_codebook(8))
    # Residual is numerically zero, so the ternary branch contributes nothing.
    assert layer.wq.alpha < 1e-12
    x = rng.standard_normal((16, 32))
    np.testing.assert_allclose(forward(layer, x), x @ w_low.T, atol=1e-8)


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
    with pytest.raises(DimensionError):
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


def test_rank_clamped_with_warning():
    with pytest.warns(UserWarning, match="clamped"):
        layer = init_layer(np.eye(4), r=16, codebook=uniform_gauss_codebook(4))
    assert layer.branch.rank == 4


def test_residual_matches_ternarize_of_residual():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((16, 16))
    layer = init_layer(w, r=4, codebook=uniform_gauss_codebook(4))
    wh = fold_into_weights(w, layer.plan)
    expected = ternarize(wh - layer.branch.matrix())
    assert np.array_equal(layer.wq.values, expected.values)
    assert layer.wq.alpha == expected.alpha


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


def test_layer_serialization_rank0(tmp_path):
    layer = init_layer(np.eye(8), r=0, codebook=uniform_gauss_codebook(2))
    save_layer(layer, tmp_path / "l0")
    back = load_layer(tmp_path / "l0")
    assert back.branch.rank == 0
    np.testing.assert_array_equal(back.wq.values, layer.wq.values)


def test_layer_serialization_per_channel_alpha(tmp_path):
    from dataclasses import replace

    rng = np.random.default_rng(11)
    w = rng.standard_normal((12, 16))
    layer = init_layer(w, r=2)
    wh = fold_into_weights(w, layer.plan)
    layer = replace(layer, wq=ternarize(wh - layer.branch.matrix(), per_channel=True))
    save_layer(layer, tmp_path / "pc")
    back = load_layer(tmp_path / "pc")
    assert back.wq.alpha.dtype == np.float64
    np.testing.assert_array_equal(back.wq.alpha, layer.wq.alpha)
    np.testing.assert_array_equal(back.wq.values, layer.wq.values)


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
    from robuq.tensorio import load_matrix, save_matrix

    layer = init_layer(np.random.default_rng(17).standard_normal((8, 8)), r=2)
    save_layer(layer, tmp_path / "nt")
    path = tmp_path / "nt" / "wq_values.rbq"
    values = load_matrix(path)
    values[3, 5] = bad
    save_matrix(values, path)
    with pytest.raises(FormatError, match="wq_values.rbq"):
        load_layer(tmp_path / "nt")
