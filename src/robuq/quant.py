"""Scalar quantizers: ternary weights, per-token min-max codes, and
standard-normal codebooks (uniform grid and Lloyd-Max).

The weight quantizer maps a tensor W to alpha * RoundClip(W / (gamma + eps), -1, 1)
with gamma = alpha = mean(|W|); eps = 1e-8 guards the all-zero tensor. The
activation side offers a plain per-token min-max affine quantizer and the
per-token Gauss quantizer: normalize a (Hadamard-transformed) token by its
own statistics, then quantize against a codebook precomputed for N(0, 1).

Codebooks are solved offline by numeric integration of the standard-normal
density (Gauss-Legendre on [-8, 8]; the tail mass beyond 8 sigma is below
float precision), either by Lloyd-Max fixed-point iteration or by a 1-D
golden-section search over the step of a symmetric uniform grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConvergenceError, FormatError, ValidationError

TERNARY_EPS = 1e-8
_SUPPORT = 8.0
_MIN_QUAD_NODES = 2048


# ---------------------------------------------------------------------------
# Ternary weights
# ---------------------------------------------------------------------------

@dataclass
class TernaryWeights:
    """{-1, 0, +1} values plus the real scale recovered at dequantization.

    ``alpha`` is a scalar for per-tensor quantization or a per-output-row
    vector for the channel-wise variant.
    """

    values: np.ndarray
    alpha: float | np.ndarray

    def __post_init__(self):
        v = self.values = np.asarray(self.values)
        if not ((v == 0) | (np.abs(v) == 1)).all():
            raise ValidationError("ternary values must lie in {-1, 0, +1}")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def dequantize(self) -> np.ndarray:
        if np.ndim(self.alpha) == 0:
            return float(self.alpha) * self.values.astype(np.float64)
        return np.asarray(self.alpha)[:, None] * self.values.astype(np.float64)


def _round_clip(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.minimum(np.maximum(np.rint(x), lo), hi)


def ternarize(w: np.ndarray, per_channel: bool = False) -> TernaryWeights:
    """Quantize a weight matrix to scaled ternary values.

    Per-tensor by default: the divisor gamma and the scale alpha are both the
    mean absolute value of the whole tensor. ``per_channel=True`` computes
    them per output row instead. An all-zero tensor yields all-zero values
    with alpha = 0, the only degenerate case.
    """
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"expected a nonempty 2-D weight matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("weights contain NaN or Inf")
    if per_channel:
        gamma = np.mean(np.abs(arr), axis=1, keepdims=True)
        values = _round_clip(arr / (gamma + TERNARY_EPS), -1, 1).astype(np.int8)
        return TernaryWeights(values=values, alpha=gamma[:, 0].copy())
    gamma = float(np.mean(np.abs(arr)))
    values = _round_clip(arr / (gamma + TERNARY_EPS), -1, 1).astype(np.int8)
    return TernaryWeights(values=values, alpha=gamma)


# ---------------------------------------------------------------------------
# Per-token min-max affine quantizer
# ---------------------------------------------------------------------------

@dataclass
class UniformAffineQuant:
    """b-bit affine codes for one token: x ~ (codes - zero_point) * scale + offset.

    ``offset`` is zero except for the degenerate constant token, where the
    grid collapses (scale would be 0) and the constant is carried verbatim.
    """

    bits: int
    scale: float
    zero_point: int
    codes: np.ndarray
    offset: float = 0.0


def minmax_quantize(x: np.ndarray, bits: int) -> UniformAffineQuant:
    """Per-token min-max quantization to ``bits``-wide unsigned codes.

    scale = (max - min) / (2^b - 1), zero_point = -floor(min / scale),
    codes = clamp(floor(x / scale) + zero_point, 0, 2^b - 1).
    """
    if not 1 <= bits <= 8:
        raise ValidationError(f"bits must be in 1..8, got {bits}")
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValidationError("token must be nonempty and finite")
    lo, hi = float(arr.min()), float(arr.max())
    n_codes = (1 << bits) - 1
    if hi == lo:
        return UniformAffineQuant(
            bits=bits, scale=1.0, zero_point=0,
            codes=np.zeros(arr.size, dtype=np.int64), offset=lo,
        )
    scale = (hi - lo) / n_codes
    zero_point = -int(math.floor(lo / scale))
    codes = np.clip(np.floor(arr / scale) + zero_point, 0, n_codes).astype(np.int64)
    return UniformAffineQuant(bits=bits, scale=scale, zero_point=zero_point, codes=codes)


def minmax_dequantize(q: UniformAffineQuant) -> np.ndarray:
    return (q.codes.astype(np.float64) - q.zero_point) * q.scale + q.offset


# ---------------------------------------------------------------------------
# Standard-normal codebooks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussCodebook:
    """Quantization levels and decision thresholds for the standard normal.

    Levels are strictly increasing and antisymmetric about 0; thresholds sit
    between consecutive levels (at midpoints for both variants here).
    ``expected_mse`` is the mean squared error against N(0, 1).
    """

    bits: int
    levels: np.ndarray
    thresholds: np.ndarray
    is_uniform: bool
    expected_mse: float

    def __post_init__(self):
        n = 1 << self.bits
        if self.levels.shape != (n,) or self.thresholds.shape != (n - 1,):
            raise ValidationError("codebook sizes do not match bit width")
        if np.any(np.diff(self.levels) <= 0):
            raise ValidationError("levels must be strictly increasing")
        if np.any(self.thresholds <= self.levels[:-1]) or np.any(self.thresholds >= self.levels[1:]):
            raise ValidationError("thresholds must interleave levels")


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def _cell_moments(edges: np.ndarray, nodes_per_cell: int):
    """Zeroth/first/second moments of the N(0,1) density over each cell.

    Cells are the intervals between consecutive ``edges`` clipped to the
    [-8, 8] support; each cell gets its own mapped Gauss-Legendre rule.
    """
    xi, wi = _leggauss(nodes_per_cell)
    lo = np.clip(edges[:-1], -_SUPPORT, _SUPPORT)
    hi = np.clip(edges[1:], -_SUPPORT, _SUPPORT)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * xi[None, :]
    w = half[:, None] * wi[None, :]
    dens = _phi(x)
    p = np.sum(w * dens, axis=1)
    m1 = np.sum(w * x * dens, axis=1)
    m2 = np.sum(w * x * x * dens, axis=1)
    return p, m1, m2


def _codebook_mse(levels: np.ndarray, thresholds: np.ndarray, nodes_per_cell: int) -> float:
    edges = np.concatenate(([-_SUPPORT], thresholds, [_SUPPORT]))
    p, m1, m2 = _cell_moments(edges, nodes_per_cell)
    return float(np.sum(m2 - 2.0 * levels * m1 + levels * levels * p))


def _nodes_per_cell(n_levels: int) -> int:
    # Spectral accuracy needs few nodes per smooth cell; the floor keeps the
    # union above _MIN_QUAD_NODES for every supported bit width.
    return max(_MIN_QUAD_NODES // n_levels, 64)


_CODEBOOK_CACHE: dict[tuple[int, bool], GaussCodebook] = {}


def lloyd_max(bits: int, tol: float = 1e-7, max_iter: int = 10_000) -> GaussCodebook:
    """Lloyd-Max codebook for N(0, 1): the MSE-optimal scalar quantizer.

    Alternates the two optimality conditions until the largest level
    movement drops below ``tol``: thresholds at level midpoints, levels at
    the conditional mean of the density over their cell. Codebooks are
    immutable, so solutions at the default settings are cached and shared.
    """
    if not 1 <= bits <= 8:
        raise ValidationError(f"bits must be in 1..8, got {bits}")
    default = (tol, max_iter) == (1e-7, 10_000)
    if default and (bits, False) in _CODEBOOK_CACHE:
        return _CODEBOOK_CACHE[(bits, False)]
    n = 1 << bits
    nodes = _nodes_per_cell(n)
    # Equal-probability start: symmetric and close to the fixed point.
    levels = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    prev_delta = None
    for _ in range(max_iter):
        thresholds = 0.5 * (levels[:-1] + levels[1:])
        edges = np.concatenate(([-_SUPPORT], thresholds, [_SUPPORT]))
        p, m1, _ = _cell_moments(edges, nodes)
        new_levels = m1 / p
        delta = new_levels - levels
        move = float(np.max(np.abs(delta)))
        levels = new_levels
        if move < tol:
            break
        # The map is contractive and near-linear close to its fixed point, so
        # sum the implied geometric tail; fall back to the plain update when
        # the jump would break level ordering.
        if prev_delta is not None:
            denom = float(prev_delta @ prev_delta)
            rho = float(delta @ prev_delta) / denom if denom > 0 else 0.0
            if 0.0 < rho < 0.999:
                jumped = new_levels + delta * (rho / (1.0 - rho))
                if np.all(np.diff(jumped) > 0):
                    levels = jumped
                    prev_delta = None
                    continue
        prev_delta = delta
    else:
        raise ConvergenceError(
            f"Lloyd-Max for b={bits} did not converge in {max_iter} iterations",
            last_iterate=levels,
        )
    levels = 0.5 * (levels - levels[::-1])  # pin antisymmetry to the float digit
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    mse = _codebook_mse(levels, thresholds, nodes)
    cb = GaussCodebook(bits=bits, levels=levels, thresholds=thresholds,
                       is_uniform=False, expected_mse=mse)
    if default:
        _CODEBOOK_CACHE[(bits, False)] = cb
    return cb


def _uniform_levels(n: int, step: float) -> np.ndarray:
    return step * (np.arange(n) - (n - 1) / 2.0)


def uniform_gauss_codebook(bits: int) -> GaussCodebook:
    """Symmetric arithmetic-grid codebook with the MSE-optimal step for N(0, 1).

    The step is found by golden-section search over (0, 4]; the expected MSE
    is unimodal in the step, so the search brackets the optimum.
    """
    if not 1 <= bits <= 8:
        raise ValidationError(f"bits must be in 1..8, got {bits}")
    if (bits, True) in _CODEBOOK_CACHE:
        return _CODEBOOK_CACHE[(bits, True)]
    n = 1 << bits
    nodes = _nodes_per_cell(n)

    def mse_of(step: float) -> float:
        levels = _uniform_levels(n, step)
        thresholds = 0.5 * (levels[:-1] + levels[1:])
        return _codebook_mse(levels, thresholds, nodes)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-4, 4.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = mse_of(c), mse_of(d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = mse_of(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = mse_of(d)
    step = 0.5 * (lo + hi)
    levels = _uniform_levels(n, step)
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    cb = GaussCodebook(bits=bits, levels=levels, thresholds=thresholds,
                       is_uniform=True, expected_mse=mse_of(step))
    _CODEBOOK_CACHE[(bits, True)] = cb
    return cb


# ---------------------------------------------------------------------------
# Per-token Gauss quantizer
# ---------------------------------------------------------------------------

def gauss_quantize_token(
    x: np.ndarray,
    cb: GaussCodebook,
    center: bool = True,
    scale: float | None = None,
) -> tuple[np.ndarray, float, float]:
    """Quantize one (Hadamard-transformed) token against a normal codebook.

    Returns (codes, mu_t, sigma_t). sigma_t is the token's population
    standard deviation unless ``scale`` overrides it; mu_t is the token mean
    when ``center`` is set, else 0. A constant token is degenerate: the
    stored sigma_t is 0 so dequantization reproduces the constant (centered)
    or zero exactly, and the emitted codes sit at the middle level.
    """
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValidationError("token must be nonempty and finite")
    mu = float(arr.mean()) if center else 0.0
    sigma = float(arr.std()) if scale is None else float(scale)
    if scale is not None and sigma <= 0:
        raise ValidationError("explicit scale must be positive")
    if np.ptp(arr) == 0.0 or sigma == 0.0:
        codes = np.full(arr.size, len(cb.levels) // 2, dtype=np.int64)
        return codes, mu, 0.0
    z = (arr - mu) / sigma
    codes = np.searchsorted(cb.thresholds, z).astype(np.int64)
    return codes, mu, sigma


def gauss_dequantize_token(
    codes: np.ndarray,
    cb: GaussCodebook,
    mu_t: float = 0.0,
    sigma_t: float = 1.0,
    center: bool = True,
) -> np.ndarray:
    """Invert gauss_quantize_token: sigma_t * levels[codes] (+ mu_t if centered)."""
    idx = np.asarray(codes)
    if idx.size and (idx.min() < 0 or idx.max() >= len(cb.levels)):
        raise ValidationError(f"codes out of range for a {cb.bits}-bit codebook")
    out = sigma_t * cb.levels[idx]
    if center:
        out = out + mu_t
    return out


def quantize_tokens(
    x: np.ndarray, cb: GaussCodebook, center: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-row quantize + dequantize for a T x C matrix.

    Returns (dequantized, codes, mu, sigma) with mu/sigma per token.
    Matches gauss_quantize_token row by row, including the degenerate path.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a T x C matrix, got shape {arr.shape}")
    mu = arr.mean(axis=1) if center else np.zeros(arr.shape[0])
    sigma = arr.std(axis=1)
    degenerate = (np.ptp(arr, axis=1) == 0.0) | (sigma == 0.0)
    safe_sigma = np.where(degenerate, 1.0, sigma)
    z = (arr - mu[:, None]) / safe_sigma[:, None]
    codes = np.searchsorted(cb.thresholds, z.ravel()).reshape(arr.shape).astype(np.int64)
    codes[degenerate] = len(cb.levels) // 2
    sigma = np.where(degenerate, 0.0, sigma)
    deq = sigma[:, None] * cb.levels[codes]
    if center:
        deq = deq + mu[:, None]
    return deq, codes, mu, sigma


# ---------------------------------------------------------------------------
# Codebook serialization
# ---------------------------------------------------------------------------

def save_codebook(cb: GaussCodebook, path) -> None:
    """CSV with a metadata comment line, then level,threshold pairs."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# bits={cb.bits} uniform={int(cb.is_uniform)} mse={cb.expected_mse!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["level", "threshold"])
        for i, lev in enumerate(cb.levels):
            thr = repr(float(cb.thresholds[i])) if i < len(cb.thresholds) else ""
            writer.writerow([repr(float(lev)), thr])


def load_codebook(path) -> GaussCodebook:
    with open(path, newline="") as fh:
        meta = fh.readline().strip()
        rows = list(csv.reader(fh))
    if not meta.startswith("# "):
        raise FormatError(f"{path}: missing metadata comment line")
    fields = dict(part.split("=", 1) for part in meta[2:].split())
    try:
        bits = int(fields["bits"])
        uniform = bool(int(fields["uniform"]))
        mse = float(fields["mse"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad metadata line {meta!r}") from exc
    if not rows or rows[0] != ["level", "threshold"]:
        raise FormatError(f"{path}: missing level,threshold header")
    levels, thresholds = [], []
    for row in rows[1:]:
        if not row:
            continue
        levels.append(float(row[0]))
        if len(row) > 1 and row[1].strip() != "":
            thresholds.append(float(row[1]))
    return GaussCodebook(
        bits=bits,
        levels=np.array(levels),
        thresholds=np.array(thresholds),
        is_uniform=uniform,
        expected_mse=mse,
    )
