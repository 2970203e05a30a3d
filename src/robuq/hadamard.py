"""Normalized Sylvester-Hadamard transforms along the channel axis.

The order-n matrix is built recursively from H_1 = (1) by

    H_2n = (1/sqrt(2)) [[H_n, H_n], [H_n, -H_n]]

so every entry is +-1/sqrt(n), H is symmetric, and H^T H = I. Because
H_2n = kron(H_2, H_n), Sylvester matrices factor as
H_{n1 n2} = kron(H_{n1}, H_{n2}) for powers of two n1, n2.

The fast path is dense matrix multiplication. A block of order b <= 128 is
one product with the dense H_b. A larger block, read row-major as an
n1 x n2 matrix X with n1 = 2^floor(log2(b) / 2) and n2 = b / n1, maps to
H_{n1} X H_{n2}: two small products costing n1 + n2 multiply-adds per
element. The factors are built once per order and dtype and cached
read-only.

The transform and its inverse are stated here once: ``transform_tokens``
maps each token x to H x, ``inverse_tokens`` maps it back by H^T, and
``fold_into_weights`` gives W H^T, which cancels the transform. Other
modules go through these three and rely on H^T H = I alone, never on H
being symmetric.

The dtype rule: ``transform_tokens`` and ``inverse_tokens`` keep a float32
input in float32, with float32 factors (the quantized forward's activation
path), and compute every other input in float64. ``fold_into_weights``
always computes in float64. Every input is first held to the package's one
matrix rule, ``quant._check_matrix``: a real dtype, 2-D, at least one
column (exactly the plan's dim when a plan is given), and at least one row
for a weight; a token batch may have none.

Channel counts that are not powers of two use a block-diagonal transform
whose block size is the largest power-of-two divisor of the dim. Each block
is orthogonal, so norm preservation and the inverse still hold exactly; the
transform simply mixes within blocks instead of globally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quant import _check_int, _check_matrix

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Largest block transformed by one dense product; larger ones are factored.
_DENSE_MAX = 128


@dataclass(frozen=True)
class HadamardPlan:
    """Immutable transform descriptor for ``dim`` channels.

    The block size is derived, never set: the largest power of two dividing
    ``dim``. A power-of-two dim gets one global transform; any other dim a
    block-diagonal one (an odd dim degrades to the identity). ``dim`` must
    be an integer >= 1 (``ValidationError`` otherwise).
    """

    dim: int

    def __post_init__(self):
        _check_int(self.dim, "dim")

    @property
    def block_size(self) -> int:
        return self.dim & -self.dim


@functools.cache
def _factor(order: int, dtype: np.dtype) -> np.ndarray:
    """Read-only dense H_order in ``dtype``, shared by every transform that
    uses it.

    Orders are powers of two of at most 128 or sqrt(2 b), and the dtypes
    float32 and float64, so the cache stays a few small entries.
    """
    h = hadamard_matrix(order).astype(dtype)
    h.flags.writeable = False
    return h


def _apply(x: np.ndarray, block: int) -> np.ndarray:
    # x: (rows, dim) float32 or float64. Returns a new array of x's dtype
    # holding every length-`block` segment of every row multiplied by
    # H_block (H is symmetric, so x H = H x).
    rows, dim = x.shape
    if block <= _DENSE_MAX:
        return (x.reshape(-1, block) @ _factor(block, x.dtype)).reshape(rows, dim)
    n1 = 1 << ((block.bit_length() - 1) // 2)
    n2 = block // n1
    z = (x.reshape(-1, n2) @ _factor(n2, x.dtype)).reshape(-1, n1, n2)
    return (_factor(n1, x.dtype) @ z).reshape(rows, dim)


def hadamard_matrix(dim: int) -> np.ndarray:
    """Dense normalized Sylvester matrix of a power-of-two order.

    Built by explicit Kronecker recursion. It is the oracle the fast path
    is tested against; the fast path multiplies by cached read-only copies
    of it, of order b for blocks up to 128 and of orders n1, n2 above.
    """
    _check_int(dim, "dim")
    if (dim & (dim - 1)) != 0:
        raise ValidationError(f"dim must be a power of two, got {dim}")
    h = np.array([[1.0]])
    k2 = np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2
    while h.shape[0] < dim:
        h = np.kron(k2, h)
    return h


def transform_tokens(x: np.ndarray, plan: HadamardPlan | None = None) -> np.ndarray:
    """Apply the transform to every row (token) of a T x C matrix: Y_t = H x_t.

    ``x`` is a real matrix with T >= 0 and C = ``plan.dim`` when a plan is
    given (``quant._check_matrix``). A float32 input is transformed in
    float32; any other in float64.
    """
    arr = _check_matrix(x, "tokens", rows=0, width=None if plan is None else plan.dim)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    return _apply(arr, HadamardPlan(arr.shape[1]).block_size)  # plan's, as C = plan.dim


def inverse_tokens(y: np.ndarray) -> np.ndarray:
    """Undo ``transform_tokens``: apply H^T to every row of a T x C matrix,
    X = Y H.

    H is symmetric, so H^T = H and the body is ``transform_tokens``: the
    one use of the symmetry outside the kernel. The width decides the
    plan, and the dtype and matrix rules are ``transform_tokens``'.
    """
    return transform_tokens(y)


def fold_into_weights(w: np.ndarray, plan: HadamardPlan | None = None) -> np.ndarray:
    """Fold the transform into a weight matrix along its input-feature axis.

    Returns W H^T, so that (W H^T)(H x) = W x exactly up to float rounding
    (H^T H = I); ``inverse_tokens`` maps it back to W. This is
    ``transform_tokens`` on W in float64, whatever W's real dtype: the rows
    of W are transformed as tokens are. W is checked by the matrix rule
    (``quant._check_matrix``, at least one row) before it is cast, so a
    complex or text W is rejected, not converted.
    """
    arr = _check_matrix(w, "w", width=None if plan is None else plan.dim)
    return transform_tokens(arr.astype(np.float64, copy=False), plan)
