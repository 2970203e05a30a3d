"""SVD-initialized low-rank compensation and the combined quantized forward.

A layer is built from a dense weight W by transforming it (W H), capturing
the top-r singular structure in full-precision factors A = U_r S_r and
B = V_r^T (randomized subspace iteration with a fixed seed, then one
Rayleigh-Ritz SVD; LAPACK via numpy), and ternarizing only the residual
W H - A B. The Frobenius error of A B is within 1% of the Eckart-Young
optimum, measured on flat spectra, the hardest case. The forward then runs
the cheap ternary branch on Gauss-quantized transformed activations while
the low-rank branch consumes the unquantized transformed activations:

    W x ~ A (B (H x)) + alpha V . dequant(Q(H x))

Because H is orthogonal, the dense reconstruction error equals the residual
approximation error in the transformed domain exactly.

The ternary branch never dequantizes. A token t of H x with codes q_t,
mean mu_t (0 when centering is off) and scale sigma_t dequantizes to
sigma_t * levels[q_t] + mu_t, so with levels[c] = o + s * c the branch is

    y_tern[t] = alpha . (sigma_t * s * (Q V^T)[t] + (mu_t + sigma_t * o) * rowsum(V))

For a uniform grid (Q, s, o) = (codes as float32, step, levels[0]): the
GEMM of codes 0..n-1 against {-1, 0, +1} is exact in float32 while
(n - 1) * in_dim < 2^24. Otherwise (a Lloyd-Max codebook, or a grid too
wide for that bound) (Q, s, o) = (levels[codes] as float64, 1, 0). The
one per-tensor alpha scales the whole ternary branch.

The mean/offset term is an outer product, so it joins the low-rank branch
as one more rank, and the whole layer is

    y = [xh B^T | mu + sigma * o] @ [A | alpha . rowsum(V)]^T
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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .deploy import load_packed, pack_ternary, save_packed, unpack_ternary
from .errors import DimensionError, FormatError, ValidationError
from .hadamard import HadamardPlan, fold_into_weights, transform_tokens
from .quant import (
    _BLOCK_ENTRIES,
    GaussCodebook,
    TernaryWeights,
    _is_int,
    lloyd_max,
    ternarize,
    token_codes,
    uniform_gauss_codebook,
)

DEFAULT_RANK = 16
# truncated_svd's sketch: r + _OVERSAMPLE columns, _POWER_STEPS rounds
_OVERSAMPLE = 16
_POWER_STEPS = 3


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
    """

    wq: TernaryWeights
    branch: LowRankBranch
    codebook: GaussCodebook
    center: bool = True

    def __post_init__(self):
        if self.wq.values.ndim != 2:
            raise DimensionError(f"ternary values must be 2-D, got shape {self.wq.values.shape}")
        r = self.branch.rank
        if self.branch.A.shape != (self.out_dim, r) or self.branch.B.shape != (r, self.in_dim):
            raise DimensionError("low-rank branch shapes inconsistent with layer dims")

    @property
    def out_dim(self) -> int:
        return self.wq.values.shape[0]

    @property
    def in_dim(self) -> int:
        return self.wq.values.shape[1]

    @property
    def plan(self) -> HadamardPlan:
        return HadamardPlan(self.in_dim)


def truncated_svd(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-r singular triple (U_r, S_r, V_r) of m (LAPACK via numpy).

    On the tall orientation a (n = min(dims) columns), scaled by an exact
    power of two, randomized subspace iteration (Halko, Martinsson & Tropp
    2011, Alg. 4.4) finds an orthonormal basis of l = min(n, r + 16)
    columns: a Gaussian sketch drawn from ``np.random.default_rng(0)``, then
    3 rounds of basis = qr(a^T qr(a basis)). One Rayleigh-Ritz step, the
    thin SVD of a @ basis, gives the triples, of which the top r are kept.
    The fixed generator keeps conversion deterministic, and the global
    numpy RNG is neither read nor advanced. The constants: each round
    shrinks the pull of the spectrum below s_{l-1} on the basis by another
    power of (s_{l-1} / s_i)^2, and the 16 extra columns put s_{l-1} well
    below s_{r-1}. With 2 rounds a DiT-XL/2 block converted about 10%
    faster, but its quantized output error moved 1.7 times as far from the
    exact solver's (+0.23% against +0.13%).

    Accuracy: each S_r[i] is a Ritz value of a, so it never exceeds the
    true i-th singular value (Cauchy interlacing). The reconstruction error
    ||m - U_r S_r V_r^T||_F is at most 1.01 times the Eckart-Young optimum
    on flat Gaussian matrices, the hardest case as their gaps are smallest:
    the worst measured excess is 9.0e-3 at 300 x 400 and 5.0e-3 at 1152^2,
    r = 16 or 30. Decaying spectra converge faster. On a flat spectrum a
    single value can still be a few percent low (6.6% at 1152^2), which
    costs little reconstruction error since its neighbours are as large.
    When n <= r + 16 the basis spans every column and the result is an
    exact SVD to rounding: values within about eps * s_0. All of this holds
    at any magnitude of m whose top singular value s_0 is representable in
    float64, since the scaling is undone exactly; when the top Ritz value
    overflows, ``ValidationError`` is raised. One max/min pass over m gives
    both the finiteness check and the scaling exponent.

    U_r and V_r have orthonormal columns; S_r is nonincreasing, nonnegative.
    Singular values at or below the rank tolerance s_0 * max(dims) * eps (the
    one ``np.linalg.matrix_rank`` uses) are set to exactly zero. Each pair
    (u_i, v_i) is sign-flipped so that the largest-magnitude entry of u_i is
    positive, which makes the factors deterministic.
    """
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    if r < 1 or r > min(arr.shape):
        raise DimensionError(f"rank {r} not in 1..min{arr.shape}")
    # max|m| = max(top, -bottom); NaN propagates through max and min.
    top, bottom = float(arr.max()), float(arr.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValidationError("matrix contains NaN or Inf")

    # numpy's LAPACK rather than scipy's: the scipy wheel bundles a second
    # OpenBLAS whose thread pool competes with numpy's, which made the many
    # small solves of QAT profiling slower on a 2-core machine. Measured on a
    # 2-vCPU Xeon against the earlier exact Gram solver: scipy's
    # eigh(subset_by_index, driver="evr") took one 1152^2 Gram from 198 to
    # 87 ms on its own, yet end to end it made dit-convert 10.1 -> 8.7
    # Mparam/s and toy-pipeline 798 -> 461 steps/s.
    wide = arr.shape[0] < arr.shape[1]
    a = arr.T if wide else arr
    # Scaling by a power of two is exact and keeps the products of the
    # iteration (up to rows * max|a|^2) clear of overflow and underflow.
    e = math.frexp(max(top, -bottom))[1]
    a = np.ldexp(a, -e)
    n = a.shape[1]
    basis = np.random.default_rng(0).standard_normal((n, min(n, r + _OVERSAMPLE)))
    for _ in range(_POWER_STEPS):
        basis = np.linalg.qr(a.T @ np.linalg.qr(a @ basis)[0])[0]
    u, s, qt = np.linalg.svd(a @ basis, full_matrices=False)
    u, s, v = u[:, :r], s[:r], basis @ qt[:r].T
    if wide:
        u, v = v, u
    with np.errstate(over="ignore"):
        s = np.ldexp(s, e)
    if math.isinf(s[0]):
        raise ValidationError("top singular value overflows float64")
    # s_0 * eps first, so the product cannot overflow where s_0 does not; it
    # equals s_0 * max(dims) * eps bit for bit while s_0 * max(dims) >= 2^-970.
    s[s <= s[0] * np.finfo(np.float64).eps * max(arr.shape)] = 0.0
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
    full-precision branch, and ternarizes the residual. ``r`` is clamped to
    min(dims) with a warning so small test matrices stay usable; r = 0
    disables the branch entirely. The residual overwrites the A B product
    and the transformed weight is released before ternarizing, so the
    temporaries peak at about 2.1 float64 copies of W.
    """
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D weight matrix, got shape {arr.shape}")
    out_dim, in_dim = arr.shape
    if not _is_int(r):
        raise ValidationError(f"rank must be an integer, got {r!r}")
    if codebook is None:
        codebook = uniform_gauss_codebook(4)
    max_rank = min(out_dim, in_dim)
    if r > max_rank:
        warnings.warn(f"rank {r} clamped to min(dims) = {max_rank}", stacklevel=2)
        r = max_rank

    wh = fold_into_weights(arr)
    if r == 0:
        branch = LowRankBranch(A=np.zeros((out_dim, 0)), B=np.zeros((0, in_dim)))
        residual = wh
    else:
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

    The low-rank branch reads the transformed tokens, the ternary branch
    their per-token Gauss codes; see the module docstring for the formula.
    The cache keeps ``xh``, ``codes``, ``mu`` and ``sigma``.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != layer.in_dim:
        raise DimensionError(f"expected T x {layer.in_dim} input, got shape {arr.shape}")
    xh = transform_tokens(arr, layer.plan)
    cb, wq = layer.codebook, layer.wq
    codes, mu, sigma = token_codes(xh, cb, center=layer.center)
    if cb.is_uniform and (len(cb.levels) - 1) * layer.in_dim < _FLOAT32_EXACT:
        # levels[c] = levels[0] + step * c, and codes @ V^T is an exact
        # float32 GEMM: every partial sum is an integer below 2^24.
        v, row_sums = wq.operand_f32
        g, step, offset = codes.astype(np.float32) @ v.T, cb.step, cb.levels[0]
    else:
        v, row_sums = wq.operand_f64
        g, step, offset = cb.levels[codes] @ v.T, 1.0, 0.0
    shift = (mu if layer.center else 0.0) + sigma * offset
    y = (np.column_stack((xh @ layer.branch.B.T, shift))
         @ np.column_stack((layer.branch.A, wq.alpha * row_sums)).T)
    scale = sigma * step
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
    """Effective dense weight implied by the layer: (A B + alpha V) H^T."""
    combined = layer.branch.matrix() + layer.wq.dequantize()
    return fold_into_weights(combined, layer.plan)  # H is symmetric: M H = M H^T


# ---------------------------------------------------------------------------
# Layer serialization: the packed ternary values, the RBQ1 factors and a
# JSON sidecar
# ---------------------------------------------------------------------------

_VALUES_FILE = "wq_values.rbqp"


def save_layer(layer: QuantLinearLayer, dirpath) -> None:
    from .tensorio import save_matrix

    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    save_packed(pack_ternary(layer.wq.values), d / _VALUES_FILE)
    if layer.branch.rank:
        save_matrix(layer.branch.A, d / "A.rbq")
        save_matrix(layer.branch.B, d / "B.rbq")
    meta = {
        "alpha": layer.wq.alpha,
        "rank": layer.branch.rank,
        "bits": layer.codebook.bits,
        "uniform": layer.codebook.is_uniform,
        "center": layer.center,
        "block_size": layer.plan.block_size,
        "in_dim": layer.in_dim,
        "out_dim": layer.out_dim,
    }
    with open(d / "layer.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


_JSON_TYPES = {int: "integer", float: "number", bool: "boolean"}


def _field(meta: dict, key: str, *kinds: type):
    """``meta[key]`` if its type is exactly one of ``kinds``: JSON true is
    a bool, not an integer, and 4.7 or 4.0 is a float."""
    value = meta[key]
    if type(value) not in kinds:
        raise TypeError(f"{key} {value!r} is not a JSON "
                        + " or ".join(_JSON_TYPES[k] for k in kinds))
    return value


def load_layer(dirpath) -> QuantLinearLayer:
    """Read a layer directory written by ``save_layer``.

    A missing file, a sidecar that is not UTF-8 JSON with every field of
    its JSON type and range (dims >= 1, bits in 1..8, ``block_size`` the
    largest power of two dividing ``in_dim``), a packed value file that
    does not hold out_dim * in_dim ternary values, or factors whose shapes
    disagree with the sidecar raise ``FormatError`` naming the file.
    """
    from .tensorio import load_matrix

    d = Path(dirpath)
    sidecar = d / "layer.json"

    def read(loader, name):
        try:
            return loader(d / name)
        except FileNotFoundError as exc:
            raise FormatError(f"{d / name}: missing") from exc

    try:
        meta = json.loads(sidecar.read_bytes().decode("utf-8"))
        in_dim, out_dim, rank, bits, block_size = (
            _field(meta, key, int) for key in ("in_dim", "out_dim", "rank", "bits", "block_size"))
        uniform, center = (_field(meta, key, bool) for key in ("uniform", "center"))
        alpha = float(_field(meta, "alpha", int, float))
    except FileNotFoundError as exc:
        raise FormatError(f"{d}: missing layer.json sidecar") from exc
    # JSON and UTF-8 decoding errors are ValueErrors too
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{sidecar}: not a layer sidecar ({type(exc).__name__}: {exc})") from exc
    if not math.isfinite(alpha):
        raise FormatError(f"{sidecar}: alpha is not finite")
    if min(out_dim, in_dim) < 1:
        raise FormatError(f"{sidecar}: out_dim {out_dim} and in_dim {in_dim} must be >= 1")
    if not 1 <= bits <= 8:
        raise FormatError(f"{sidecar}: bits {bits} not in 1..8")
    derived = HadamardPlan(in_dim).block_size
    if block_size != derived:
        raise FormatError(f"{sidecar}: block_size {block_size} is not {derived}, the largest "
                          f"power of two dividing in_dim {in_dim}")
    packed = read(load_packed, _VALUES_FILE)
    if packed.count != out_dim * in_dim:
        raise FormatError(f"{d / _VALUES_FILE}: {packed.count} values do not fill "
                          f"out_dim {out_dim} x in_dim {in_dim} from layer.json")
    wq = TernaryWeights(values=unpack_ternary(packed).reshape(out_dim, in_dim), alpha=alpha)
    if rank:
        branch = LowRankBranch(A=read(load_matrix, "A.rbq").astype(np.float64),
                               B=read(load_matrix, "B.rbq").astype(np.float64))
        if (branch.A.shape, branch.B.shape) != ((out_dim, rank), (rank, in_dim)):
            raise FormatError(f"{d}: factor shapes {branch.A.shape} and {branch.B.shape} do not "
                              f"match rank {rank} in layer.json")
    else:
        branch = LowRankBranch(A=np.zeros((out_dim, 0)), B=np.zeros((0, in_dim)))
    maker = uniform_gauss_codebook if uniform else lloyd_max
    return QuantLinearLayer(wq=wq, branch=branch, codebook=maker(bits), center=center)
