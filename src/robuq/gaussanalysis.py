"""Statistical checks behind Hadamard Gaussianization.

Executable forms of the second-moment identities, covariance-decay and
KL/TV bounds, an empirical normality measurement against the quantitative
CLT rate, channel-independence via normalized mutual information, and the
orthogonality argument that quantization MSE is unchanged by the transform.

Everything here is pure analysis over immutable inputs; random pair
subsampling is seeded so reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .hadamard import HadamardPlan, inverse_tokens, transform_tokens
from .quant import _check_int, _check_matrix, _check_real, _is_int

BERRY_ESSEEN_CONST = 0.56  # published constant for non-identical summands
_KS_GRID_POINTS = 1024
_COV_MAX_PAIRS = 4096  # sampled channel pairs of offdiag_cov_bound above C = 128
_NMI_MAX_PAIRS = 2048  # sampled channel pairs of nmi_channels above C = 64
_KL_COORDS = 16  # leading transformed coordinates whose covariance build_report's KL uses


@dataclass
class GaussReport:
    """All statistics emitted by the analysis pipeline for one batch."""

    per_coord_var: list[float]
    sigma_t2: float
    max_offdiag_cov: float
    offdiag_bound: float
    ks_distance: float
    be_bound: float
    kl_exact: float
    kl_approx: float
    tv_bound: float
    mean_nmi: float


def _as_batch(x: np.ndarray) -> np.ndarray:
    """The float64 T x C batch every analysis reads: a real matrix with at
    least 2 tokens (``quant._check_matrix``), all finite
    (``ValidationError`` otherwise)."""
    arr = _check_matrix(x, "activations", rows=2).astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("activations contain NaN or Inf")
    return arr


def variance_identity(
    x: np.ndarray, plan: HadamardPlan | None = None
) -> tuple[np.ndarray, float]:
    """Per-coordinate variances after the transform, and their target.

    The transform equalizes variances within each block of b =
    ``block_size`` channels (b = C at a power-of-two width): for
    independent channels every transformed coordinate of a block has
    variance the mean of that block's per-channel variances. The returned
    sigma_t^2 is the mean over all C channels, so it is every coordinate's
    target only under the premise that each block has the same mean
    channel variance, which holds at a power-of-two width (one block). At
    a block-diagonal width whose block means differ, each coordinate
    follows its own block's mean instead.
    Returns (empirical per-coordinate variances across tokens, sigma_t2).
    """
    arr = _as_batch(x)
    y = transform_tokens(arr, plan)
    per_coord = y.var(axis=0)
    sigma_t2 = float(arr.var(axis=0).mean())
    return per_coord, sigma_t2


def offdiag_cov_bound(
    x: np.ndarray,
    plan: HadamardPlan | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Largest sample off-diagonal covariance vs its theoretical bound.

    The transform mixes channels only within blocks of b = ``block_size``
    (b = C at a power-of-two width). For independent channels the
    covariance of two transformed coordinates is 0 across blocks and,
    within a block, a signed average (1/b) sum_j s_j delta_j of the
    deviations delta_j = sigma_j^2 - mean(sigma_blk^2) from the block's
    mean channel variance. Hence |Cov| <= max over blocks of
    ||delta_blk||_2 / sqrt(b). The bound holds whatever the block means;
    the premise that every block has the same mean channel variance
    enters only where the diagonal is compared with one sigma_t^2
    (``variance_identity``, ``normality`` and the KL of ``build_report``).
    All pairs are measured up to C = 128; larger dims use a random pair
    subsample seeded by ``seed``, an integer >= 0.
    """
    _check_int(seed, "seed", least=0)
    arr = _as_batch(x)
    y = transform_tokens(arr, plan)
    t, c = y.shape
    yc = y - y.mean(axis=0)
    if c <= 128:
        cov = (yc.T @ yc) / t
        off = cov[~np.eye(c, dtype=bool)]
        max_off = float(np.max(np.abs(off))) if off.size else 0.0
    else:
        rng = np.random.default_rng(seed)
        n_pairs = min(_COV_MAX_PAIRS, c * (c - 1) // 2)
        ii = rng.integers(0, c, size=n_pairs)
        jj = (ii + rng.integers(1, c, size=n_pairs)) % c  # distinct by construction
        covs = np.einsum("ti,ti->i", yc[:, ii], yc[:, jj]) / t
        max_off = float(np.max(np.abs(covs)))
    block = HadamardPlan(c).block_size
    blocks = arr.var(axis=0).reshape(-1, block)
    delta = blocks - blocks.mean(axis=1, keepdims=True)
    bound = float(np.linalg.norm(delta, axis=1).max() / np.sqrt(block))
    return max_off, bound


def normality(
    x: np.ndarray,
    plan: HadamardPlan | None = None,
    token: int | None = None,
) -> tuple[float, float]:
    """Kolmogorov distance of transformed coordinates to N(0, sigma_t^2),
    next to the computed Berry-Esseen bound K * M3 / (sigma_t^3 sqrt(b))
    with K = ``BERRY_ESSEEN_CONST``.

    A transformed coordinate sums the b = ``block_size`` channels of its
    block (b = C at a power-of-two width), so b, not C, is the number of
    summands in the bound. sigma_t^2 is the mean variance over all C
    channels, which is each coordinate's variance only when every block
    has the same mean channel variance; the bound assumes that.

    The empirical CDF pools all transformed coordinates (of one token row
    when ``token``, an integer in 0..T-1, is given, else of every row —
    valid when tokens share channel statistics, as in i.i.d.-channel
    batches) and is compared to the normal CDF on a fixed 1024-point grid.
    """
    arr = _as_batch(x)
    if token is not None and not (_is_int(token) and 0 <= token < len(arr)):
        raise ValidationError(f"token must be an integer in 0..{len(arr) - 1}, got {token!r}")
    y = transform_tokens(arr, plan)
    block = HadamardPlan(arr.shape[1]).block_size
    channel_var = arr.var(axis=0)
    sigma_t = float(np.sqrt(channel_var.mean()))
    if sigma_t == 0.0:
        raise ValidationError("all channels are constant; normality is undefined")
    centered = arr - arr.mean(axis=0)
    m3 = float(np.max(np.mean(np.abs(centered) ** 3, axis=0)))
    be_bound = BERRY_ESSEEN_CONST * m3 / (sigma_t**3 * np.sqrt(block))

    pooled = np.sort((y[token] if token is not None else y).ravel())
    grid = np.linspace(-8.0 * sigma_t, 8.0 * sigma_t, _KS_GRID_POINTS)
    ecdf = np.searchsorted(pooled, grid, side="right") / pooled.size
    normal_cdf = np.array([0.5 * math.erfc(-z / math.sqrt(2.0)) for z in grid / sigma_t])
    ks = float(np.max(np.abs(ecdf - normal_cdf)))
    return ks, float(be_bound)


def kl_tv_product_gaussian(
    sigma: np.ndarray, sigma_t2: float
) -> tuple[float, float, float]:
    """KL and TV distance of N(0, Sigma) from the product N(0, sigma_t^2 I).

    With E the off-diagonal part of Sigma (the decomposition
    Sigma = sigma_t^2 I + E with zero-diagonal E):

        KL = -1/2 ln det(I + E / sigma_t^2)
        KL ~ 1/4 ||E||_F^2 / sigma_t^4      (small ||E||)
        TV <= sqrt(KL / 2)                  (Pinsker)

    ``sigma_t2`` is a finite real > 0, and ``sigma`` a real matrix
    (``quant._check_matrix``) that is square, finite, symmetric and
    positive definite.
    """
    sigma_t2 = _check_real(sigma_t2, "sigma_t2", least=0, strict=True)
    mat = _check_matrix(sigma, "covariance").astype(np.float64, copy=False)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("covariance contains NaN or Inf")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValidationError("covariance must be symmetric")
    if np.linalg.eigvalsh(mat)[0] <= 0:
        raise ValidationError("covariance must be positive definite")
    e = mat.copy()
    np.fill_diagonal(e, 0.0)
    sign, logdet = np.linalg.slogdet(np.eye(mat.shape[0]) + e / sigma_t2)
    if sign <= 0:
        raise ValidationError("I + E/sigma_t^2 is not positive definite")
    kl_exact = max(0.0, -0.5 * logdet)
    kl_approx = 0.25 * float(np.sum(e * e)) / sigma_t2**2
    tv_bound = float(np.sqrt(0.5 * kl_exact))
    return float(kl_exact), float(kl_approx), tv_bound


def _equal_freq_bins(col: np.ndarray, bins: int) -> np.ndarray:
    edges = np.quantile(col, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.searchsorted(edges, col, side="right")


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def nmi_channels(x: np.ndarray, bins: int = 16, seed: int = 0) -> float:
    """Mean pairwise normalized mutual information across channels.

    Histogram MI on ``bins`` >= 2 equal-frequency bins (avoids empty-bin
    artifacts), normalized by sqrt(H_i H_j). All pairs are enumerated when
    C <= 64; otherwise a random sample of 2048 pairs seeded by ``seed``, an
    integer >= 0, is used.
    """
    _check_int(bins, "bins", least=2)
    _check_int(seed, "seed", least=0)
    arr = _as_batch(x)
    t, c = arr.shape
    if t < 10 * bins:
        raise ValidationError(f"need at least 10*bins={10 * bins} tokens, got {t}")
    if c < 2:
        raise ValidationError("need at least two channels")
    binned = np.stack([_equal_freq_bins(arr[:, j], bins) for j in range(c)], axis=1)
    if c <= 64:
        pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
    else:
        rng = np.random.default_rng(seed)
        target = min(_NMI_MAX_PAIRS, c * (c - 1) // 2)
        seen = set()
        while len(seen) < target:
            i, j = rng.integers(0, c, size=2)
            if i != j:
                seen.add((min(i, j), max(i, j)))
        pairs = sorted(seen)
    total = 0.0
    for i, j in pairs:
        joint = np.bincount(binned[:, i] * bins + binned[:, j], minlength=bins * bins)
        hi = _entropy(np.bincount(binned[:, i], minlength=bins))
        hj = _entropy(np.bincount(binned[:, j], minlength=bins))
        hij = _entropy(joint)
        mi = max(0.0, hi + hj - hij)
        denom = np.sqrt(hi * hj)
        total += mi / denom if denom > 0 else 0.0
    return total / len(pairs)


def mse_preservation(
    x: np.ndarray,
    quantizer: Callable[[np.ndarray], np.ndarray],
    plan: HadamardPlan | None = None,
) -> tuple[float, float]:
    """Both sides of the MSE identity for any quantizer Q:

        E ||X - H^T Q(H X)||^2  ==  E ||H X - Q(H X)||^2

    The identity is orthogonality alone, so it holds for arbitrary Q, not
    just the Gauss codebooks. Returns (mse_direct, mse_transformed) as mean
    squared error per element. A quantizer output that is not a real
    matrix (``quant._check_matrix``), is of another shape, or holds a NaN
    or Inf, raises ``ValidationError``.
    """
    arr = _as_batch(x)
    y = transform_tokens(arr, plan)
    qy = _check_matrix(quantizer(y), "quantizer output").astype(np.float64, copy=False)
    if qy.shape != y.shape:
        raise ValidationError(f"quantizer changed the shape: {y.shape} -> {qy.shape}")
    if not np.isfinite(qy).all():
        raise ValidationError("quantizer output contains NaN or Inf")
    x_rec = inverse_tokens(qy)
    mse_direct = float(np.mean((arr - x_rec) ** 2))
    mse_transformed = float(np.mean((y - qy) ** 2))
    return mse_direct, mse_transformed


def build_report(x: np.ndarray, bins: int = 16, seed: int = 0) -> tuple[GaussReport, dict]:
    """Run the full analysis suite on one activation batch.

    Returns the report plus a metadata dict (C, T, seed, bins, K_BE) for
    reproducibility. The KL/TV numbers use the sample covariance of the
    first 16 transformed coordinates (all of them when C < 16). ``bins``
    and ``seed`` follow ``nmi_channels``' rule.
    """
    arr = _as_batch(x)
    plan = HadamardPlan(arr.shape[1])
    per_coord, sigma_t2 = variance_identity(arr, plan)
    max_off, bound = offdiag_cov_bound(arr, plan, seed=seed)
    ks, be = normality(arr, plan)
    m = min(_KL_COORDS, arr.shape[1])
    y = transform_tokens(arr, plan)[:, :m]
    cov = np.cov(y, rowvar=False, bias=True)
    kl_exact, kl_approx, tv = kl_tv_product_gaussian(cov, sigma_t2)
    nmi = nmi_channels(arr, bins=bins, seed=seed)
    report = GaussReport(
        per_coord_var=[float(v) for v in per_coord],
        sigma_t2=sigma_t2,
        max_offdiag_cov=max_off,
        offdiag_bound=bound,
        ks_distance=ks,
        be_bound=be,
        kl_exact=kl_exact,
        kl_approx=kl_approx,
        tv_bound=tv,
        mean_nmi=nmi,
    )
    meta = {"T": arr.shape[0], "C": arr.shape[1], "seed": seed, "bins": bins,
            "K_BE": BERRY_ESSEEN_CONST}
    return report, meta
