import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robuq import hadamard
from robuq.errors import ValidationError
from robuq.hadamard import (HadamardPlan, fold_into_weights, hadamard_matrix, inverse_tokens,
                            transform_tokens)


def _blockwise_oracle(x, block, inverse=False):
    """Each length-`block` segment s of each row mapped to H s, or to
    H^T s with ``inverse``."""
    rows = x.shape[0]
    h = hadamard_matrix(block)
    return (x.reshape(rows, -1, block) @ (h if inverse else h.T)).reshape(rows, -1)


def _transform(x, plan=None):
    """transform_tokens on one vector."""
    return transform_tokens(x[None, :], plan)[0]


def test_order_one_and_two():
    assert np.array_equal(hadamard_matrix(1), [[1.0]])
    h2 = hadamard_matrix(2)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(h2, [[s, s], [s, -s]], atol=1e-15)


def test_basis_vector_c2():
    np.testing.assert_allclose(_transform(np.array([1.0, 0.0])), [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_orthogonality_dense():
    h8 = hadamard_matrix(8)
    assert np.abs(h8.T @ h8 - np.eye(8)).max() < 1e-6


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 64, 256, 1024])
def test_fast_matches_dense_oracle(dim):
    rng = np.random.default_rng(dim)
    x = rng.standard_normal(dim)
    dense = hadamard_matrix(dim) @ x
    assert np.abs(_transform(x) - dense).max() < 1e-5


@pytest.mark.parametrize("dim", [2, 16, 129, 1152, 4096])
def test_involution(dim):
    rng = np.random.default_rng(dim)
    x = rng.standard_normal(dim)
    assert np.abs(inverse_tokens(_transform(x)[None, :])[0] - x).max() < 1e-5


def test_orthogonality_up_to_4096():
    for dim in (2, 64, 1024, 4096):
        h = transform_tokens(np.eye(dim))
        assert np.abs(h.T @ h - np.eye(dim)).max() < 1e-5


def test_plan_block_decomposition():
    plan = HadamardPlan(1152)
    assert plan.block_size == 128
    assert HadamardPlan(64).block_size == 64
    assert HadamardPlan(3).block_size == 1  # odd dim degrades to identity
    np.testing.assert_array_equal(_transform(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_block_transform_matches_blockdiag_matrix():
    plan = HadamardPlan(24)  # 3 blocks of 8
    rng = np.random.default_rng(24)
    x = rng.standard_normal(24)
    dense = _blockwise_oracle(x[None, :], plan.block_size)[0]
    np.testing.assert_allclose(_transform(x, plan), dense, atol=1e-12)


def test_transform_tokens_identity_rows():
    x = np.eye(4)
    y = transform_tokens(x)
    np.testing.assert_allclose(y, hadamard_matrix(4), atol=1e-12)


def test_transform_tokens_eigenstructure():
    # A token equal to a Hadamard row scaled by sqrt(C) maps to a one-hot row.
    c = 16
    h = hadamard_matrix(c)
    token = h[3] * np.sqrt(c)
    y = transform_tokens(token[None, :])
    expected = np.zeros(c)
    expected[3] = np.sqrt(c)
    np.testing.assert_allclose(y[0], expected, atol=1e-10)


def test_norm_preservation_per_token():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 256)) * 3.0
    y = transform_tokens(x)
    before = np.linalg.norm(x, axis=1)
    after = np.linalg.norm(y, axis=1)
    assert np.abs(after - before).max() / before.max() < 1e-6


def test_fold_identity_weight_gives_h():
    np.testing.assert_allclose(fold_into_weights(np.eye(8)), hadamard_matrix(8), atol=1e-12)


def test_fold_algebraic_identity():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((8, 8))
    x = rng.standard_normal(8)
    assert np.abs(fold_into_weights(w) @ _transform(x) - w @ x).max() < 1e-5


def test_fold_twice_recovers():
    # the inverse transform undoes the fold
    rng = np.random.default_rng(9)
    w = rng.standard_normal((6, 16))
    np.testing.assert_allclose(inverse_tokens(fold_into_weights(w)), w, atol=1e-12)


def test_dimension_errors():
    plan = HadamardPlan(8)
    with pytest.raises(ValidationError):
        fold_into_weights(np.ones((2, 4)), plan)
    with pytest.raises(ValidationError):
        transform_tokens(np.ones((2, 4)), plan)
    with pytest.raises(ValidationError):
        hadamard_matrix(12)
    with pytest.raises(ValidationError):
        HadamardPlan(0)


@pytest.mark.parametrize("dim", [4.0, "4", True, np.float64(8.0)],
                         ids=["float", "text", "bool", "numpy_float"])
def test_plan_rejects_a_non_integer_dim(dim):
    # 4.0 and "4" built a plan that raised TypeError on first use, and True
    # a 1-channel plan
    with pytest.raises(ValidationError, match="dim must be an integer >= 1"):
        HadamardPlan(dim)
    assert HadamardPlan(np.int64(96)).block_size == 32


@pytest.mark.parametrize("dim", [4.0, "4", True, np.float64(8.0)],
                         ids=["float", "text", "bool", "numpy_float"])
def test_hadamard_matrix_rejects_a_non_integer_dim(dim):
    # 4.0, "4" and 8.0 raised a stray TypeError, and True gave a 1 x 1 matrix
    with pytest.raises(ValidationError, match="dim must be an integer >= 1"):
        hadamard_matrix(dim)
    np.testing.assert_array_equal(hadamard_matrix(np.int64(4)), hadamard_matrix(4))


@pytest.mark.parametrize("dim", [2**k for k in range(13)] + [96, 1152, 4608])
def test_transform_tokens_matches_blockwise_dense_oracle(dim):
    # Blocks up to 128 take the dense product, larger ones the factored one;
    # the inverse is checked against H^T block by block as well.
    x = np.random.default_rng(dim).standard_normal((5, dim))
    block = HadamardPlan(dim).block_size
    assert np.abs(transform_tokens(x) - _blockwise_oracle(x, block)).max() <= 1e-12
    assert np.abs(inverse_tokens(x) - _blockwise_oracle(x, block, inverse=True)).max() <= 1e-12


def test_cached_factors_are_read_only():
    # factored as 16 x 32, with factors of the input's dtype
    for dtype in (np.float64, np.float32):
        x = np.random.default_rng(11).standard_normal((3, 512)).astype(dtype)
        before = transform_tokens(x)
        assert before.dtype == dtype
        for order in (16, 32):
            factor = hadamard._factor(order, np.dtype(dtype))
            assert factor.dtype == dtype
            with pytest.raises(ValueError):
                factor[0, 0] = 0.0
        np.testing.assert_array_equal(transform_tokens(x), before)


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.int8, np.bool_, np.longdouble])
@pytest.mark.parametrize("dim", [96, 512])
def test_every_dtype_but_float32_is_transformed_in_float64(dtype, dim):
    x = np.random.default_rng(dim).integers(-3, 4, size=(4, dim)).astype(dtype)
    y = transform_tokens(x)
    assert y.dtype == np.float64
    np.testing.assert_array_equal(y, transform_tokens(x.astype(np.float64)))


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
def test_fold_into_weights_stays_float64(dtype):
    w = np.random.default_rng(12).integers(-3, 4, size=(5, 512)).astype(dtype)
    folded = fold_into_weights(w)
    assert folded.dtype == np.float64
    np.testing.assert_array_equal(folded, fold_into_weights(w.astype(np.float64)))


@pytest.mark.parametrize("dim", [1, 3, 8, 96, 1152, 4608])
def test_float32_transform_is_the_float64_one_to_float32_accuracy(dim):
    x = np.random.default_rng(dim).standard_normal((5, dim)).astype(np.float32)
    y = transform_tokens(x)
    assert y.dtype == np.float32
    ref = transform_tokens(x.astype(np.float64))
    scale = np.linalg.norm(x.astype(np.float64), axis=1, keepdims=True)
    assert np.abs(y - ref).max() <= 16 * np.finfo(np.float32).eps * scale.max()


@st.composite
def _tokens(draw):
    # Widths 2^k * m with m odd: the block is 2^k, repeated m times per row.
    k = draw(st.integers(0, 12))
    m = draw(st.sampled_from([1, 3, 9]))
    rows = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal((rows, 2**k * m)), 2**k


_property = settings(derandomize=True, database=None, max_examples=50, deadline=None)


@_property
@given(_tokens())
def test_property_matches_dense_oracle(case):
    x, block = case
    assert np.abs(transform_tokens(x) - _blockwise_oracle(x, block)).max() <= 1e-12


@_property
@given(_tokens())
def test_property_involution(case):
    x, _ = case
    assert np.abs(inverse_tokens(transform_tokens(x)) - x).max() <= 1e-12
    assert np.abs(transform_tokens(inverse_tokens(x)) - x).max() <= 1e-12


@_property
@given(_tokens())
def test_property_folded_weight_cancels_transform(case):
    x, _ = case
    w = np.random.default_rng(x.shape[1]).standard_normal((3, x.shape[1]))
    lhs = transform_tokens(x) @ fold_into_weights(w).T  # (W H^T)(H x) per token
    np.testing.assert_allclose(lhs, x @ w.T, rtol=0, atol=1e-10)
