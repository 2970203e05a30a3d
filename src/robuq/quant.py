"""Scalar quantizers: ternary weights, per-token min-max codes, and
standard-normal codebooks (uniform grid and Lloyd-Max).

The weight quantizer maps a tensor W to alpha * RoundClip(W / (gamma + eps), -1, 1)
with gamma = alpha = mean(|W|); eps = 1e-8 guards the all-zero tensor. The
activation side offers a plain per-token min-max affine quantizer and the
per-token Gauss quantizer: normalize a (Hadamard-transformed) token by its
own statistics, then quantize against a codebook precomputed for N(0, 1).

Codebooks are solved once per bit width from the closed-form moments of
N(0, 1) over each cell, which need only ``math.erfc``: Lloyd-Max levels by
Newton's method on the centroid condition, and the step of a symmetric
uniform grid by bisection on its stationarity condition. Both are exact to
about 1e-13, which plain fixed-point iteration does not reach at 8 bits.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConvergenceError, FormatError, ValidationError

TERNARY_EPS = 1e-8


def _check_bits(bits) -> None:
    if not (isinstance(bits, numbers.Integral) and 1 <= bits <= 8):
        raise ValidationError(f"bits must be in 1..8, got {bits}")


# ---------------------------------------------------------------------------
# Ternary weights
# ---------------------------------------------------------------------------

def is_ternary(values) -> bool:
    """True when every entry is -1, 0 or +1 (NaN, 0.5, 256 and int8 -128 are not)."""
    v = np.asarray(values)
    return bool(((v == 0) | (np.abs(v) == 1)).all())


@dataclass
class TernaryWeights:
    """{-1, 0, +1} values plus the real scale recovered at dequantization.

    ``alpha`` is a scalar for per-tensor quantization or a per-output-row
    vector for the channel-wise variant.
    """

    values: np.ndarray
    alpha: float | np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if not is_ternary(self.values):
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
    _check_bits(bits)
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
        _check_bits(self.bits)
        n = 1 << self.bits
        if self.levels.shape != (n,) or self.thresholds.shape != (n - 1,):
            raise ValidationError("codebook sizes do not match bit width")
        if not (np.isfinite(self.levels).all() and np.isfinite(self.thresholds).all()):
            raise ValidationError("levels and thresholds must be finite")
        if np.any(np.diff(self.levels) <= 0):
            raise ValidationError("levels must be strictly increasing")
        if np.any(self.thresholds <= self.levels[:-1]) or np.any(self.thresholds >= self.levels[1:]):
            raise ValidationError("thresholds must interleave levels")


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NEWTON_STEPS = 20


def _cell_moments(thresholds: np.ndarray):
    """Closed-form N(0, 1) moments over the cells cut by ``thresholds``.

    The cells are (-inf, t_0], [t_0, t_1], ..., [t_last, inf). Returns the
    per-cell mass p = Phi(b) - Phi(a), first moment m1 = phi(a) - phi(b) and
    second moment m2 = p + a phi(a) - b phi(b), plus phi(x) and x phi(x) at
    every edge (both 0 at +-inf). p is a difference of tails on the cell's
    own side of 0, so a small cell far from 0 keeps its digits.
    """
    t = np.asarray(thresholds, dtype=np.float64)
    phi_t = np.exp(-0.5 * t * t) * _INV_SQRT_2PI
    phi = np.concatenate(([0.0], phi_t, [0.0]))
    xphi = np.concatenate(([0.0], t * phi_t, [0.0]))
    # tail[j] = P(X > |x_j|) = P(X < -|x_j|) for the edges x = (-inf, t, inf)
    tail = np.array([0.0] + [0.5 * math.erfc(abs(x) / math.sqrt(2.0)) for x in t] + [0.0])
    a = np.concatenate(([-np.inf], t))
    b = np.concatenate((t, [np.inf]))
    p = np.where(a >= 0, tail[:-1] - tail[1:],
                 np.where(b <= 0, tail[1:] - tail[:-1], 1.0 - tail[:-1] - tail[1:]))
    m1 = phi[:-1] - phi[1:]
    m2 = p + xphi[:-1] - xphi[1:]
    return p, m1, m2, phi, xphi


def _codebook(bits: int, levels: np.ndarray, uniform: bool) -> GaussCodebook:
    """Midpoint thresholds and the closed-form expected MSE for ``levels``."""
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    p, m1, m2, _, _ = _cell_moments(thresholds)
    mse = float(np.sum(m2 - 2.0 * levels * m1 + levels * levels * p))
    return GaussCodebook(bits=bits, levels=levels, thresholds=thresholds,
                         is_uniform=uniform, expected_mse=mse)


_CODEBOOK_CACHE: dict[tuple[int, bool], GaussCodebook] = {}


def lloyd_max(bits: int) -> GaussCodebook:
    """Lloyd-Max codebook for N(0, 1): the MSE-optimal scalar quantizer.

    Solves F(y) = y - G(y) = 0 by Newton's method, where G maps the levels
    to the centroids m1/p of their midpoint cells (Max 1960; Lloyd 1982).
    The Jacobian of G is tridiagonal: dG_i/db_i = phi(b_i)(b_i - G_i)/p_i and
    dG_i/da_i = phi(a_i)(G_i - a_i)/p_i at the cell edges, each halved
    through the midpoint thresholds. Starts from the equal-probability
    levels and stops at max|F| < 1e-12; raises ``ConvergenceError`` if that
    takes more than a fixed small number of steps. Codebooks are immutable,
    so every solution is cached and shared.
    """
    _check_bits(bits)
    if (bits, False) in _CODEBOOK_CACHE:
        return _CODEBOOK_CACHE[(bits, False)]
    n = 1 << bits
    levels = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    for _ in range(_NEWTON_STEPS):
        levels = 0.5 * (levels - levels[::-1])  # pin antisymmetry to the float digit
        p, m1, _, phi, xphi = _cell_moments(0.5 * (levels[:-1] + levels[1:]))
        g = m1 / p
        f = levels - g
        if np.max(np.abs(f)) < 1e-12:
            break
        d_hi = (xphi[1:] - g * phi[1:]) / p  # dG_i/db_i; 0 on the open outer edge
        d_lo = (g * phi[:-1] - xphi[:-1]) / p  # dG_i/da_i
        jac = np.eye(n) - 0.5 * (np.diag(d_lo + d_hi) + np.diag(d_lo[1:], -1)
                                 + np.diag(d_hi[:-1], 1))
        levels = levels - np.linalg.solve(jac, f)
    else:
        raise ConvergenceError(
            f"Lloyd-Max for b={bits} did not converge in {_NEWTON_STEPS} Newton steps",
            last_iterate=levels,
        )
    cb = _CODEBOOK_CACHE[(bits, False)] = _codebook(bits, levels, uniform=False)
    return cb


def uniform_gauss_codebook(bits: int) -> GaussCodebook:
    """Symmetric arithmetic-grid codebook with the MSE-optimal step for N(0, 1).

    With levels step * c_i (c_i = i - (2^b - 1)/2) and midpoint thresholds,
    the MSE is stationary where step * sum(c_i^2 p_i) = sum(c_i m1_i). That
    difference is negative at step 0 and positive at step 4, and bisection
    narrows the bracket until no float lies strictly inside it.
    """
    _check_bits(bits)
    if (bits, True) in _CODEBOOK_CACHE:
        return _CODEBOOK_CACHE[(bits, True)]
    c = np.arange(1 << bits) - ((1 << bits) - 1) / 2.0

    def stationarity(step: float) -> float:
        p, m1, _, _, _ = _cell_moments(step * 0.5 * (c[:-1] + c[1:]))
        return step * float((c * c) @ p) - float(c @ m1)

    lo, hi = 0.0, 4.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if stationarity(mid) < 0:
            lo = mid
        else:
            hi = mid
    step = min((lo, hi), key=lambda s: abs(stationarity(s)))
    cb = _CODEBOOK_CACHE[(bits, True)] = _codebook(bits, step * c, uniform=True)
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
    Matches gauss_quantize_token row by row, including the degenerate path;
    like it, raises ``ValidationError`` on a row with a NaN or Inf.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a T x C matrix, got shape {arr.shape}")
    # sigma is non-finite exactly when its row holds a NaN or Inf (or its
    # spread overflows), so one O(T) test covers the whole batch.
    with np.errstate(invalid="ignore", over="ignore"):
        mu = arr.mean(axis=1) if center else np.zeros(arr.shape[0])
        sigma = arr.std(axis=1)
    if not np.isfinite(sigma).all():
        bad = int(np.argmin(np.isfinite(sigma)))
        raise ValidationError(f"token {bad} is not finite (NaN, Inf or overflowing spread)")
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
    try:
        fields = dict(part.split("=", 1) for part in meta[2:].split())
        bits = int(fields["bits"])
        uniform = bool(int(fields["uniform"]))
        mse = float(fields["mse"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad metadata line {meta!r}") from exc
    if not rows or rows[0] != ["level", "threshold"]:
        raise FormatError(f"{path}: missing level,threshold header")
    levels, thresholds = [], []
    try:
        for row in rows[1:]:
            if not row:
                continue
            levels.append(float(row[0]))
            if len(row) > 1 and row[1].strip() != "":
                thresholds.append(float(row[1]))
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric level or threshold ({exc})") from exc
    try:
        return GaussCodebook(
            bits=bits,
            levels=np.array(levels),
            thresholds=np.array(thresholds),
            is_uniform=uniform,
            expected_mse=mse,
        )
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
