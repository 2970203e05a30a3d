"""The matrix rule, the same at every entry point that takes a matrix: a
bool, integer or float array, 2-D, with at least one column (exactly the
layer's or plan's width where one is set) and at least as many rows as the
entry point needs. Anything else raises ``ValidationError`` naming the
argument; a complex or text matrix is never converted."""

import warnings

import numpy as np
import pytest

from robuq.errors import ValidationError
from robuq.gaussanalysis import kl_tv_product_gaussian, mse_preservation, normality
from robuq.hadamard import HadamardPlan, fold_into_weights, inverse_tokens, transform_tokens
from robuq.lowrank import (LowRankBranch, QuantLinearLayer, forward, forward_with_cache, init_layer,
                           reconstruct_weight, truncated_svd)
from robuq.profiler import ToyData, ToyLayer
from robuq.quant import TernaryWeights, ternarize, token_codes, uniform_gauss_codebook
from robuq.tensorio import LayerSpec, SensitivityTable, save_matrix

_CB = uniform_gauss_codebook(3)
_LAYER = init_layer(np.random.default_rng(5).standard_normal((6, 8)), r=2)
_BATCH = np.random.default_rng(6).standard_normal((40, 8))


def _layer_with_values(values):
    # A layer's ternary values are held to the matrix rule by TernaryWeights,
    # which every layer's wq is.
    wq = TernaryWeights(values=values, alpha=1.0)
    rows, cols = wq.values.shape
    branch = LowRankBranch(A=np.zeros((rows, 0)), B=np.zeros((0, cols)))
    return QuantLinearLayer(wq=wq, branch=branch, codebook=_CB)


def _saved_bytes(m, d):
    save_matrix(m, d / "m.rbq")
    return (d / "m.rbq").read_bytes()


# name -> (the argument's name, the fewest rows, the call on a matrix m)
ENTRY_POINTS = {
    "transform_tokens": ("tokens", 0, lambda m, _: transform_tokens(m)),
    "transform_tokens_plan": ("tokens", 0, lambda m, _: transform_tokens(m, HadamardPlan(8))),
    "inverse_tokens": ("tokens", 0, lambda m, _: inverse_tokens(m)),
    "fold_into_weights": ("w", 1, lambda m, _: fold_into_weights(m)),
    "fold_into_weights_plan": ("w", 1, lambda m, _: fold_into_weights(m, HadamardPlan(8))),
    "init_layer": ("w", 1, lambda m, _: reconstruct_weight(init_layer(m, r=1))),
    "ternarize": ("w", 1, lambda m, _: vars(ternarize(m))),
    "token_codes": ("x", 0, lambda m, _: token_codes(m, _CB)),
    "truncated_svd": ("m", 1, lambda m, _: truncated_svd(m, 1)),
    "forward": ("x", 0, lambda m, _: forward(_LAYER, m)),
    "forward_with_cache": ("x", 0, lambda m, _: forward_with_cache(_LAYER, m)[0]),
    "layer_values": ("ternary values", 1, lambda m, _: reconstruct_weight(_layer_with_values(m))),
    "toy_layer": ("weight", 1, lambda m, _: ToyLayer(m).weight),
    "toy_data": ("val_inputs", 1, lambda m, _: ToyData(m).val_inputs),
    "save_matrix": ("m", 1, _saved_bytes),
    "delta_loss": ("delta_loss", 0,
                   lambda m, _: SensitivityTable([LayerSpec(f"l{i}") for i in range(len(m))],
                                                 list(range(1, 9)), m).delta_loss),
    "normality": ("activations", 2, lambda m, _: normality(m)),
    "covariance": ("covariance", 1, lambda m, _: kl_tv_product_gaussian(m, 2.0)),
    "quantizer_output": ("quantizer output", 1, lambda m, _: mse_preservation(_BATCH, lambda y: m)),
}

_BASE = np.random.default_rng(7).standard_normal((4, 8))
BAD = {
    "complex": _BASE * (1 + 5j),
    "text": _BASE.astype(str),
    "object": _BASE.astype(object),
    "1d": _BASE[0],
    "3d": _BASE[None],
    "no_columns": np.zeros((4, 0)),
    "no_rows": np.zeros((0, 8)),
    "one_row": np.ones((1, 8)),
    "ragged": [*_BASE[:3].tolist(), _BASE[3, :5].tolist()],
}


def _cases():
    for name, (_, rows, _) in ENTRY_POINTS.items():
        for bad, m in BAD.items():
            if (bad == "no_rows" and rows < 1) or (bad == "one_row" and rows < 2):
                continue
            yield pytest.param(name, m, id=f"{name}-{bad}")
    for name in ("transform_tokens_plan", "fold_into_weights_plan", "forward",
                 "forward_with_cache"):
        yield pytest.param(name, np.ones((4, 16)), id=f"{name}-wrong_width")


@pytest.mark.parametrize("name,m", _cases())
def test_every_entry_point_rejects_what_is_not_a_real_matrix(tmp_path, name, m):
    # A complex matrix was cast to its real part with a ComplexWarning, a
    # text one parsed, a ragged list raised numpy's ValueError, and the
    # other shapes raised numpy errors, warnings or nothing at all.
    arg, _, call = ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{arg} must be a real 2-D matrix"):
            call(m, tmp_path)
    assert not any(tmp_path.iterdir())


# the valid input of each entry point: small integers (40 x 8, the shape
# of _BATCH), which every real dtype holds exactly
_INTS = np.random.default_rng(8).integers(-3, 4, size=(40, 8))
VALID = {name: _INTS for name in ENTRY_POINTS}
VALID["layer_values"] = np.clip(_INTS, -1, 1)
VALID["covariance"] = np.diag(np.arange(1, 9))
DTYPES = [np.bool_, np.int8, np.int64, np.float16, np.float32, np.float64, np.longdouble]


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_accepts_every_real_dtype(tmp_path, name, dtype):
    # Each input but a float32 one gives bitwise its float64 cast's result;
    # a float32 batch takes the float32 activation path.
    call, m = ENTRY_POINTS[name][2], VALID[name].astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = call(m, tmp_path)
    if dtype is not np.float32:
        np.testing.assert_equal(result, call(m.astype(np.float64), tmp_path))


@pytest.mark.parametrize("name", ["transform_tokens", "token_codes", "forward"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_token_batch_may_have_no_rows(name, dtype):
    _, rows, call = ENTRY_POINTS[name]
    assert rows == 0
    out = call(np.zeros((0, 8), dtype=dtype), None)
    first = out[0] if isinstance(out, tuple) else out
    assert first.shape[0] == 0


def test_a_rank_0_layer_runs_its_empty_branch_through_the_inverse_transform():
    layer = init_layer(np.random.default_rng(9).standard_normal((6, 8)), r=0)
    assert layer.branch.B.shape == (0, 8)
    x = np.random.default_rng(10).standard_normal((5, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = forward(layer, x)
    codes, mu, sigma = token_codes(transform_tokens(x.astype(np.float32)), layer.codebook)
    # the rank-0 forward is the ternary branch alone
    xq = sigma[:, None] * layer.codebook.levels[codes.astype(np.int64)] + mu[:, None]
    np.testing.assert_allclose(y, xq @ layer.wq.dequantize().T, rtol=1e-9, atol=1e-9)
