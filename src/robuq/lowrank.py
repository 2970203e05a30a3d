"""SVD-initialized low-rank compensation and the combined quantized forward.

A layer is built from a dense weight W by transforming it (W H), capturing
the top-r singular structure in full-precision factors A = U_r S_r and
B = V_r^T (the top-r eigenvectors of the small Gram matrix, refined by one
Rayleigh-Ritz SVD; LAPACK via numpy), and ternarizing only the residual
W H - A B. The forward then runs the cheap ternary branch on
Gauss-quantized transformed activations while the low-rank branch consumes
the unquantized transformed activations:

    W x ~ A (B (H x)) + alpha V . dequant(Q(H x))

Because H is orthogonal, the dense reconstruction error equals the residual
approximation error in the transformed domain exactly.

The QAT profiler's quantized toy layers are these same layers, built by
``init_layer`` and run through ``forward_with_cache``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, ValidationError
from .hadamard import HadamardPlan, fold_into_weights, transform_tokens
from .quant import (
    GaussCodebook,
    TernaryWeights,
    gauss_dequantize_token,
    is_ternary,
    lloyd_max,
    quantize_tokens,
    ternarize,
    uniform_gauss_codebook,
)

DEFAULT_RANK = 16


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
    quantizes the transformed activations per token.
    """

    wq: TernaryWeights
    branch: LowRankBranch
    codebook: GaussCodebook
    plan: HadamardPlan
    in_dim: int
    out_dim: int
    center: bool = True

    def __post_init__(self):
        if self.wq.values.shape != (self.out_dim, self.in_dim):
            raise DimensionError(
                f"ternary values shape {self.wq.values.shape} != ({self.out_dim}, {self.in_dim})"
            )
        r = self.branch.rank
        if self.branch.A.shape != (self.out_dim, r) or self.branch.B.shape != (r, self.in_dim):
            raise DimensionError("low-rank branch shapes inconsistent with layer dims")


def truncated_svd(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-r singular triple (U_r, S_r, V_r) of m (LAPACK via numpy).

    On the tall orientation a (n = min(dims) columns), scaled by an exact
    power of two, the top-r eigenvectors of the n x n Gram matrix a^T a span
    the dominant right singular subspace; one Rayleigh-Ritz step, the thin
    SVD of the r-column matrix a @ basis, then gives the triples (Halko,
    Martinsson & Tropp 2011, "subspace, then small SVD").

    Accuracy: forming a^T a squares the condition number. Singular values
    above sqrt(eps) * s_0 match an exact SVD to about eps * s_0; smaller ones
    only to about sqrt(eps) * s_0. The vectors of a value s_i are off by an
    angle of about eps * (s_0 / s_i)^2, so they too are resolved only above
    sqrt(eps) * s_0. The reconstruction error ||m - U_r S_r V_r^T|| is within
    about sqrt(eps) * s_0 of the Eckart-Young optimum. All of this holds at
    any finite magnitude of m, since the scaling is undone exactly.

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
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains NaN or Inf")

    # numpy's LAPACK rather than scipy's: the scipy wheel bundles a second
    # OpenBLAS whose thread pool competes with numpy's, which made the many
    # small solves of QAT profiling slower on a 2-core machine.
    wide = arr.shape[0] < arr.shape[1]
    a = arr.T if wide else arr
    # Scaling by a power of two is exact and keeps the Gram matrix's entries
    # (up to rows * max|a|^2) clear of overflow and underflow.
    e = int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a, -e)
    basis = np.linalg.eigh(a.T @ a)[1][:, -r:]
    # Rayleigh-Ritz: the squared condition number of the Gram matrix only
    # blurs the subspace; the values and vectors come from a @ basis itself.
    u, s, qt = np.linalg.svd(a @ basis, full_matrices=False)
    v = basis @ qt.T
    if wide:
        u, v = v, u
    s = np.ldexp(s, e)
    s[s <= s[0] * max(arr.shape) * np.finfo(np.float64).eps] = 0.0
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
    disables the branch entirely.
    """
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D weight matrix, got shape {arr.shape}")
    out_dim, in_dim = arr.shape
    plan = HadamardPlan.for_dim(in_dim)
    if codebook is None:
        codebook = uniform_gauss_codebook(4)
    max_rank = min(out_dim, in_dim)
    if r > max_rank:
        warnings.warn(f"rank {r} clamped to min(dims) = {max_rank}", stacklevel=2)
        r = max_rank

    wh = fold_into_weights(arr, plan)
    if r == 0:
        branch = LowRankBranch(A=np.zeros((out_dim, 0)), B=np.zeros((0, in_dim)))
    else:
        u, s, v = truncated_svd(wh, r)
        branch = LowRankBranch(A=u * s, B=v.T)
    wq = ternarize(wh - branch.matrix())
    return QuantLinearLayer(
        wq=wq, branch=branch, codebook=codebook, plan=plan,
        in_dim=in_dim, out_dim=out_dim, center=center,
    )


def forward_with_cache(
    layer: QuantLinearLayer,
    x: np.ndarray,
    tokens: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, dict]:
    """Apply the layer to a T x in_dim activation batch; returns (y, cache).

    Each token is transformed once; the low-rank branch consumes it
    unquantized, the ternary branch its per-token Gauss dequantization.
    ``tokens = (codes, mu, sigma)`` replays an earlier call's quantizer
    decisions. The cache keeps ``xh``, ``deq``, ``wq``, ``codes``, ``mu`` and
    ``sigma`` for a straight-through backward.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != layer.in_dim:
        raise DimensionError(f"expected T x {layer.in_dim} input, got shape {arr.shape}")
    xh = transform_tokens(arr, layer.plan)
    if tokens is None:
        deq, codes, mu, sigma = quantize_tokens(xh, layer.codebook, center=layer.center)
    else:
        codes, mu, sigma = tokens
        deq = gauss_dequantize_token(codes, layer.codebook, mu[:, None], sigma[:, None],
                                     center=layer.center)
    wq = layer.wq.dequantize()
    y = deq @ wq.T
    if layer.branch.rank:
        y += xh @ layer.branch.B.T @ layer.branch.A.T
    return y, {"xh": xh, "deq": deq, "wq": wq, "codes": codes, "mu": mu, "sigma": sigma}


def forward(layer: QuantLinearLayer, x: np.ndarray) -> np.ndarray:
    """Apply the layer to a T x in_dim activation batch (see ``forward_with_cache``)."""
    return forward_with_cache(layer, x)[0]


def reconstruct_weight(layer: QuantLinearLayer) -> np.ndarray:
    """Effective dense weight implied by the layer: (A B + alpha V) H^T."""
    combined = layer.branch.matrix() + layer.wq.dequantize()
    return fold_into_weights(combined, layer.plan)  # H is symmetric: M H = M H^T


# ---------------------------------------------------------------------------
# Layer serialization: a directory of RBQ1 files plus a JSON sidecar
# ---------------------------------------------------------------------------

def save_layer(layer: QuantLinearLayer, dirpath) -> None:
    from .tensorio import save_matrix

    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    save_matrix(layer.wq.values.astype(np.float32), d / "wq_values.rbq")
    if layer.branch.rank:
        save_matrix(layer.branch.A, d / "A.rbq")
        save_matrix(layer.branch.B, d / "B.rbq")
    meta = {
        "alpha": np.asarray(layer.wq.alpha).tolist(),  # a number, or one per output row
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


def load_layer(dirpath) -> QuantLinearLayer:
    from .tensorio import load_matrix

    d = Path(dirpath)
    try:
        with open(d / "layer.json") as fh:
            meta = json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(f"{d}: missing layer.json sidecar") from exc
    values = load_matrix(d / "wq_values.rbq")
    # Check before the int8 cast, which would turn 0.5 or 256 into 0.
    if not is_ternary(values):
        raise FormatError(f"{d / 'wq_values.rbq'}: ternary values must lie in {{-1, 0, +1}}")
    values = values.astype(np.int8)
    in_dim, out_dim = int(meta["in_dim"]), int(meta["out_dim"])
    alpha = np.asarray(meta["alpha"], dtype=np.float64)
    if alpha.ndim and alpha.shape != (out_dim,):
        raise FormatError(f"{d}: per-channel alpha has shape {alpha.shape}, expected ({out_dim},)")
    wq = TernaryWeights(values=values, alpha=alpha if alpha.ndim else float(alpha))
    rank = int(meta["rank"])
    if rank:
        branch = LowRankBranch(
            A=load_matrix(d / "A.rbq").astype(np.float64),
            B=load_matrix(d / "B.rbq").astype(np.float64),
        )
    else:
        branch = LowRankBranch(A=np.zeros((out_dim, 0)), B=np.zeros((0, in_dim)))
    maker = uniform_gauss_codebook if meta["uniform"] else lloyd_max
    cb = maker(int(meta["bits"]))
    plan = HadamardPlan(dim=in_dim, block_size=int(meta["block_size"]))
    return QuantLinearLayer(
        wq=wq, branch=branch, codebook=cb, plan=plan,
        in_dim=in_dim, out_dim=out_dim, center=bool(meta["center"]),
    )
