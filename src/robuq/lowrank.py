"""SVD-initialized low-rank compensation and the combined quantized forward.

A layer is built from a dense weight W by transforming it (W H^T), capturing
the top-r singular structure in full-precision factors A = U_r S_r and
B = V_r^T, and ternarizing only the residual W H^T - A B. The subspace is
found by randomized subspace iteration with a fixed seed on a float32
copy, and one float64 QB step then gives the factors (LAPACK via numpy).
The Frobenius error of A B is within 1% of the Eckart-Young optimum,
measured on flat spectra, the hardest case, and exact whenever W has
rank at most r + 16. The forward then runs
the cheap ternary branch on Gauss-quantized transformed activations while
the low-rank branch consumes the unquantized transformed activations:

    W x ~ A (B (H x)) + alpha V . dequant(Q(H x))

Because H is orthogonal, the dense reconstruction error equals the residual
approximation error in the transformed domain exactly.

The quantizer input runs in float32: the tokens are cast once, and H x and
the per-token codes are computed in float32 (``quant.token_codes`` states
the codes' contract against the float64 reference). The low-rank branch
stays float64 and reads x through B H, the factor mapped back by the
inverse transform: B (H x) = (B H) x, so no float64 H x is formed.

The ternary branch never dequantizes. A layer codes its activations on
the uniform grid, levels[c] = o + s * c with (s, o) = (step, levels[0]),
so a token t of H x with codes q_t, mean mu_t (0 when centering is off)
and scale sigma_t dequantizes to sigma_t * (o + s * q_t) + mu_t, and the
branch is

    y_tern[t] = alpha . (sigma_t * s * (Q V^T)[t] + (mu_t + sigma_t * o) * rowsum(V))

The coder writes the codes Q, 0..n-1, as float32. Their GEMM against
{-1, 0, +1} runs over column chunks of at most (2^24 - 1) // (n - 1)
inputs, so every partial sum is an integer below 2^24 and each chunk's
float32 product is exact; the chunk products add exactly in float64. Below
8 bits, and at 8 bits up to in_dim 65,793, there is one chunk. The one
per-tensor alpha scales the whole ternary branch. Lloyd-Max codebooks
(``quant.lloyd_max``) are for analysis only: a layer rejects one.

The mean/offset term is an outer product, so it joins the low-rank branch
as one more rank, and the whole layer is

    y = [x (B H)^T | mu + sigma * o] @ [A | alpha . rowsum(V)]^T
        + (sigma * s) . (Q V^T) . alpha

The first term is one float64 GEMM that writes y. The code product Q V^T
is then scaled and added into y a row block of about 2^15 entries at a
time, through one reused float64 scratch block that stays in cache, so no
T x out_dim float64 temporary is ever formed.

The QAT profiler's quantized toy layers are these same layers, built by
``init_layer`` and run through ``forward_with_cache``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .deploy import load_packed, pack_ternary, save_packed, unpack_ternary
from .errors import FormatError, ValidationError
from .hadamard import HadamardPlan, fold_into_weights, inverse_tokens, transform_tokens
from .quant import (
    _BLOCK_ENTRIES,
    GaussCodebook,
    TernaryWeights,
    _check_matrix,
    _is_int,
    ternarize,
    token_codes,
    uniform_gauss_codebook,
)
from .tensorio import _field, _reading, load_matrix, save_matrix

DEFAULT_RANK = 16
# truncated_svd's sketch: r + _OVERSAMPLE columns, _POWER_STEPS rounds
_OVERSAMPLE = 16
_POWER_STEPS = 3
# _cholesky_qr's diagonal shift: _EPS32 * trace + _TINY32
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)
# bound on |k| for the 2^k that scales truncated_svd's thin factors
_SCALE_EXP = 1000


@dataclass
class LowRankBranch:
    """Full-precision factors A (out x r) and B (r x in)."""

    A: np.ndarray
    B: np.ndarray

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    def matrix(self) -> np.ndarray:
        return self.A @ self.B


@dataclass
class QuantLinearLayer:
    """Ternary main branch plus full-precision low-rank branch.

    ``wq`` quantizes the transformed residual; ``branch`` holds the factors
    of the transformed weight's dominant singular structure; ``codebook``
    quantizes the transformed activations per token. The dims and the
    transform plan follow from the shape of ``wq.values``.

    This constructor is the one validity rule for a layer, whether built
    by ``init_layer`` or read by ``load_layer``: ``wq.values`` is a real
    matrix with both dims >= 1 (``TernaryWeights`` holds it to
    ``quant._check_matrix``), the branch is out_dim x r and r x in_dim
    with r at most min(out_dim, in_dim), ``codebook`` is a uniform grid
    and ``center`` is a bool. Anything else raises ``ValidationError``.
    """

    wq: TernaryWeights
    branch: LowRankBranch
    codebook: GaussCodebook
    center: bool = True

    def __post_init__(self):
        if not self.codebook.is_uniform:
            raise ValidationError(f"a layer codes on the uniform grid, got {self.codebook}")
        if not isinstance(self.center, bool):
            raise ValidationError(f"center must be a bool, got {self.center!r}")
        r = self.branch.rank
        if r > min(self.out_dim, self.in_dim):
            raise ValidationError(f"rank {r} not in 0..min({self.out_dim}, {self.in_dim})")
        if self.branch.A.shape != (self.out_dim, r) or self.branch.B.shape != (r, self.in_dim):
            raise ValidationError("low-rank branch shapes inconsistent with layer dims")

    @property
    def out_dim(self) -> int:
        return self.wq.values.shape[0]

    @property
    def in_dim(self) -> int:
        return self.wq.values.shape[1]

    @property
    def plan(self) -> HadamardPlan:
        return HadamardPlan(self.in_dim)


def _cholesky_qr(y: np.ndarray) -> np.ndarray:
    """Basis of the column span of a float32 y, by two passes of shifted
    Cholesky-QR (Fukaya et al., SIAM J. Sci. Comput. 2020).

    Each pass factors the Gram matrix plus eps32 * trace on its diagonal,
    which keeps it positive definite when y is rank-deficient (tiny32 more
    for y = 0); the second pass restores the orthogonality that the first
    loses to float32 rounding. Directions of y below the shift come out
    shorter than unit length, but the span, which is all the power
    iteration needs, is that of y. The Gram matrix is formed in float64: a
    float32 one is off by up to about rows * eps32 * trace, more than the
    shift, and its Cholesky failed on np.ones((64, 96)).
    """
    for _ in range(2):
        y64 = y.astype(np.float64)
        g = y64.T @ y64
        g.flat[:: len(g) + 1] += _EPS32 * g.trace() + _TINY32
        y = y @ np.linalg.inv(np.linalg.cholesky(g)).T.astype(np.float32)
    return y


def _dominant_subspace(a: np.ndarray, peak: float, l: int) -> np.ndarray:
    """n x l float32 basis close to the top right singular subspace of the
    m x n matrix a, whose largest magnitude is ``peak``.

    Randomized subspace iteration (Halko, Martinsson & Tropp 2011, Alg.
    4.4) on a float32 copy of a / peak: a Gaussian sketch from
    ``np.random.default_rng(0)``, then _POWER_STEPS rounds of
    basis = cholesky_qr(a^T cholesky_qr(a basis)).
    """
    # One pass makes the copy. Dividing rather than multiplying by 1 / peak
    # keeps it finite when peak is subnormal, and the copy is the same
    # float32 matrix, up to float64 rounding, at every scale of a.
    a32 = np.divide(a, peak or 1.0, out=np.empty_like(a, dtype=np.float32), casting="same_kind")
    basis = np.random.default_rng(0).standard_normal((a.shape[1], l)).astype(np.float32)
    for _ in range(_POWER_STEPS):
        basis = _cholesky_qr(a32.T @ _cholesky_qr(a32 @ basis))
    return basis


def truncated_svd(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-r singular triple (U_r, S_r, V_r) of m (LAPACK via numpy).

    ``r`` is an integer in 0..min(dims), the one rank rule of the package;
    anything else raises ``ValidationError``. Rank 0 is no special case: it
    runs the same steps and keeps none of the triples, so U_0 is m x 0, S_0
    empty and V_0 n x 0, and U_0 S_0 V_0^T is the zero matrix.

    On the tall orientation a (n = min(dims) columns) an n x l basis, l =
    min(n, r + 16), locates the dominant right singular subspace. When
    l < n it comes from 3 rounds of randomized subspace iteration in
    float32 (``_dominant_subspace``, with Cholesky-QR between the steps);
    otherwise it is the identity. One float64 QB step (Halko et al. Alg.
    5.1) finishes: q = qr(a basis), then the thin SVD of q^T a gives the
    triples, of which the top r are kept. The sketch comes from
    ``np.random.default_rng(0)``, so conversion is deterministic and the
    global numpy RNG is neither read nor advanced. The constants: each
    round shrinks the pull of the spectrum below s_{l-1} on the basis by
    another power of (s_{l-1} / s_i)^2, and the 16 extra columns put
    s_{l-1} well below s_{r-1}. With 2 rounds a DiT-XL/2 block converted
    about 10% faster, but its reconstruction error moved 1.5 times as far
    from an exact solver's (+0.17% against +0.12%).

    Accuracy: the float32 sketch only chooses the subspace; every value and
    vector comes from the float64 step, whose q is orthonormal to float64
    rounding. So each S_r[i] is a Ritz value of a and never exceeds the true
    i-th singular value (Cauchy interlacing), and when rank(a) <= l (in
    particular when n <= r + 16) q spans the range of a and the result is
    an exact SVD to rounding: values within about eps * s_0. The
    reconstruction error ||m - U_r S_r V_r^T||_F is at most 1.01 times the
    Eckart-Young optimum on flat Gaussian matrices, the hardest case as
    their gaps are smallest: the worst measured excess is 6.6e-3 at
    300 x 400 and 2.3e-3 at 1152^2, r = 16 or 30. Decaying spectra
    converge faster: at s_i = 10^(-i/2) the error is within 1e-9 of the
    optimum. On a flat spectrum a single value can still be a few percent
    low (5.4% at 1152^2), which costs little reconstruction error since its
    neighbours are as large.
    All of this holds at any magnitude of m whose top singular value s_0 is
    representable in float64: the thin factors are scaled by powers of
    two, which is exact, and the scaling is undone exactly; when the top
    value overflows, ``ValidationError`` is raised. One max/min pass over
    m gives both the finiteness check and the scale.

    U_r and V_r have orthonormal columns; S_r is nonincreasing, nonnegative.
    Singular values at or below the rank tolerance s_0 * max(dims) * eps (the
    one ``np.linalg.matrix_rank`` uses) are set to exactly zero. Each pair
    (u_i, v_i) is sign-flipped so that the largest-magnitude entry of u_i is
    positive, which makes the factors deterministic. U_r and V_r are
    C-ordered, so B = V_r^T is Fortran-ordered. ``m`` is a real matrix
    (``quant._check_matrix``), read in float64.
    """
    arr = _check_matrix(m, "m").astype(np.float64, copy=False)
    if not (_is_int(r) and 0 <= r <= min(arr.shape)):
        raise ValidationError(f"rank {r!r} not in 0..min{arr.shape}")
    # max|m| = max(top, -bottom); NaN propagates through max and min.
    top, bottom = float(arr.max()), float(arr.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValidationError("matrix contains NaN or Inf")

    # numpy's LAPACK rather than scipy's: the scipy wheel bundles a second
    # OpenBLAS whose thread pool competes with numpy's, which made the many
    # small solves of QAT profiling slower on a 2-core machine.
    peak = max(top, -bottom)
    wide = arr.shape[0] < arr.shape[1]
    a = arr.T if wide else arr
    n = a.shape[1]
    l = min(n, r + _OVERSAMPLE)
    basis = _dominant_subspace(a, peak, l) if l < n else np.eye(n)
    # 2^k, k = -exponent(peak) clipped to +-1000, scales the thin factors
    # instead of a: a factor of magnitude <= 1 stays finite, and a 2^k peaks
    # within [2^-74, 2^24], so no product below over- or underflows.
    k = min(max(-math.frexp(peak)[1], -_SCALE_EXP), _SCALE_EXP)
    q = np.linalg.qr(a @ np.ldexp(basis, k, dtype=np.float64))[0]
    # a^T q is (q^T a)^T, whose left factor is V itself, C-ordered
    v, s, wt = np.linalg.svd(a.T @ np.ldexp(q, k), full_matrices=False)
    # The overflow check and the tolerance read the whole spectrum, whose
    # s_0 exists at every rank, 0 included; then the top r are kept.
    with np.errstate(over="ignore"):
        s = np.ldexp(s, -k)
    if math.isinf(s[0]):
        raise ValidationError("top singular value overflows float64")
    # s_0 * eps first, so the product cannot overflow where s_0 does not; it
    # equals s_0 * max(dims) * eps bit for bit while s_0 * max(dims) >= 2^-970.
    s[s <= s[0] * np.finfo(np.float64).eps * max(arr.shape)] = 0.0
    u, s, v = q @ wt[:r].T, s[:r], v[:, :r]
    if wide:
        u, v = v, u
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(r)])
    return u * signs, s, v * signs


def init_layer(
    w: np.ndarray,
    r: int = DEFAULT_RANK,
    codebook: GaussCodebook | None = None,
    center: bool = True,
) -> QuantLinearLayer:
    """Build a quantized layer from a dense weight matrix.

    Transforms W, splits off the top-r singular structure into the
    full-precision branch, and ternarizes the residual W H^T - A B. ``r``
    follows ``truncated_svd``'s rank rule, an integer in 0..min(dims), and
    a W that ``fold_into_weights`` rejects (``quant._check_matrix``: a real
    2-D matrix with both dims >= 1) raises ``ValidationError`` too. A rank
    above min(dims) is rejected, not clamped. At rank 0 the branch is
    0 wide (A is out x 0, B is 0 x in) and its product is zero, so the
    residual is W H^T bit for bit. The residual overwrites the A B product
    and the transformed weight is released before ternarizing, so the
    temporaries peak at about 2.0 float64 copies of W (W H^T and the A B
    product; the SVD's float32 copy adds only half a copy to W H^T).
    """
    if codebook is None:
        codebook = uniform_gauss_codebook(4)
    wh = fold_into_weights(w)
    u, s, v = truncated_svd(wh, r)
    branch = LowRankBranch(A=u * s, B=v.T)
    residual = branch.matrix()
    np.subtract(wh, residual, out=residual)
    del wh
    wq = ternarize(residual)
    return QuantLinearLayer(wq=wq, branch=branch, codebook=codebook, center=center)


# float32 holds every integer of magnitude at most 2^24 exactly
_FLOAT32_EXACT = 1 << 24


def forward_with_cache(layer: QuantLinearLayer, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Apply the layer to a T x in_dim activation batch; returns (y, cache).

    The tokens are cast to float32 once, and the transform and the token
    coder run in float32 (see the module docstring for the formula). The
    codes keep the contract that ``quant.token_codes`` states against the
    float64 reference ``quantize_tokens(transform_tokens(x))``, with m_t
    the largest magnitude of the transformed token. The low-rank branch
    and the epilogue stay float64 and read x through B H, so no float64
    transformed input is formed. A token with a NaN or Inf, or whose
    float32 image or transform overflows, raises ``ValidationError``
    naming it; ``x`` is a real matrix with T >= 0 rows and in_dim columns
    (``quant._check_matrix``). The cache keeps ``xh`` (the float32
    transformed tokens, at the input's scale), ``codes`` (always float32),
    ``mu`` and ``sigma``.
    """
    arr = _check_matrix(x, "x", rows=0, width=layer.in_dim).astype(np.float64, copy=False)
    with np.errstate(over="ignore"):  # an overflow is an Inf, which token_codes rejects
        xh = transform_tokens(arr.astype(np.float32), layer.plan)
    cb, wq = layer.codebook, layer.wq
    codes, mu, sigma = token_codes(xh, cb, center=layer.center)
    # codes @ V^T over column chunks whose partial sums are integers below
    # 2^24, each an exact float32 GEMM, added exactly in float64.
    v, row_sums = wq.operand_f32
    width = (_FLOAT32_EXACT - 1) // (len(cb.levels) - 1)
    g = codes[:, :width] @ v[:, :width].T
    for first in range(width, layer.in_dim, width):
        g = np.add(g, codes[:, first:first + width] @ v[:, first:first + width].T, dtype=np.float64)
    shift = mu + sigma * cb.levels[0]
    # B (H x) = (B H) x; B H is formed in float64 on every call because QAT
    # updates B in place.
    bh = inverse_tokens(np.asarray(layer.branch.B, dtype=np.float64))
    y = (np.column_stack((arr @ bh.T, shift))
         @ np.column_stack((layer.branch.A, wq.alpha * row_sums)).T)
    scale = sigma * cb.step
    rows = max(1, _BLOCK_ENTRIES // layer.out_dim)
    scratch = np.empty((min(rows, len(y)), layer.out_dim))
    for first in range(0, len(y), rows):
        part = slice(first, first + rows)
        block = scratch[: len(scale[part])]
        block[...] = g[part]  # casting first beats a mixed-dtype multiply
        block *= scale[part, None]
        block *= wq.alpha
        y[part] += block
    return y, {"xh": xh, "codes": codes, "mu": mu, "sigma": sigma}


def forward(layer: QuantLinearLayer, x: np.ndarray) -> np.ndarray:
    """Apply the layer to a T x in_dim activation batch (see ``forward_with_cache``)."""
    return forward_with_cache(layer, x)[0]


def reconstruct_weight(layer: QuantLinearLayer) -> np.ndarray:
    """Effective dense weight implied by the layer: (A B + alpha V) H, the
    inverse of the fold W H^T."""
    return inverse_tokens(layer.branch.matrix() + layer.wq.dequantize())


# ---------------------------------------------------------------------------
# Layer serialization: the packed ternary values, the RBQ1 factors and a
# JSON sidecar
# ---------------------------------------------------------------------------

_VALUES_FILE = "wq_values.rbqp"
# the layer.json layout; a sidecar with any other "format" is rejected
_FORMAT = 2


def save_layer(layer: QuantLinearLayer, dirpath) -> None:
    """Write ``layer`` to the directory ``dirpath`` (see ``load_layer``)."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    save_packed(pack_ternary(layer.wq.values), d / _VALUES_FILE)
    if layer.branch.rank:
        save_matrix(layer.branch.A, d / "A.rbq")
        save_matrix(layer.branch.B, d / "B.rbq")
    meta = {
        "format": _FORMAT,
        "alpha": layer.wq.alpha,
        "rank": layer.branch.rank,
        "bits": layer.codebook.bits,
        "center": layer.center,
        "in_dim": layer.in_dim,
        "out_dim": layer.out_dim,
    }
    with open(d / "layer.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_layer(dirpath) -> QuantLinearLayer:
    """Read a layer directory written by ``save_layer``.

    ``layer.json`` must be UTF-8 JSON whose ``format`` is the JSON integer
    2; a sidecar without it, such as one written before format 2, is
    rejected. Its ``in_dim``, ``out_dim`` and ``rank`` are JSON integers,
    ``alpha`` a JSON number, and ``rank`` and ``out_dim * in_dim`` must
    match the factor files and the value count of ``wq_values.rbqp``. The
    rest is ``QuantLinearLayer``'s rule, applied by building the layer:
    whatever that or any other constructor rejects (dims, rank, ``bits``,
    ``center``, ``alpha``) raises ``FormatError`` naming ``layer.json``.
    A file that is missing, or whose content its own reader rejects,
    raises ``FormatError`` naming that file (``tensorio._reading``); a
    factor file's error comes inside the sidecar's message.
    """
    d = Path(dirpath)

    def read(loader, name):
        try:
            return loader(d / name)
        except FileNotFoundError as exc:
            raise FormatError(f"{d / name}: missing") from exc

    raw, packed = read(Path.read_bytes, "layer.json"), read(load_packed, _VALUES_FILE)
    with _reading(d / "layer.json", "layer sidecar"):
        meta = json.loads(raw.decode("utf-8"))
        if _field(meta, "format", int) != _FORMAT:
            raise FormatError(f"format {meta['format']} is not {_FORMAT}")
        in_dim, out_dim, rank = (_field(meta, key, int) for key in ("in_dim", "out_dim", "rank"))
        if packed.count != out_dim * in_dim:
            raise FormatError(f"{_VALUES_FILE}: {packed.count} values do not fill "
                              f"out_dim {out_dim} x in_dim {in_dim}")
        if rank:
            branch = LowRankBranch(A=read(load_matrix, "A.rbq").astype(np.float64),
                                   B=read(load_matrix, "B.rbq").astype(np.float64))
        else:
            branch = LowRankBranch(A=np.zeros((out_dim, 0)), B=np.zeros((0, in_dim)))
        if branch.rank != rank:
            raise FormatError(f"rank {rank}, but A.rbq holds rank {branch.rank}")
        wq = TernaryWeights(values=unpack_ternary(packed).reshape(out_dim, in_dim),
                            alpha=float(_field(meta, "alpha", int, float)))
        return QuantLinearLayer(wq=wq, branch=branch, codebook=uniform_gauss_codebook(meta["bits"]),
                                center=meta["center"])
