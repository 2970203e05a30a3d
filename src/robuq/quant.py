"""Scalar quantizers: ternary weights and per-token codes against
standard-normal codebooks (uniform grid and Lloyd-Max).

The weight quantizer maps a tensor W to alpha * RoundClip(W / (gamma + eps), -1, 1)
with gamma = alpha = mean(|W|); eps = 1e-8 guards the all-zero tensor. With
d = gamma + eps it is the threshold rule: +1 where w > d/2, -1 where
w < -d/2, else 0, which equals the rounded quotient bit for bit because
fl(w / d) > 1/2 exactly when w > d/2 (and rint takes 1/2 to 0). The
activation quantizer is per-token: ``token_codes`` normalizes each
(Hadamard-transformed) token by its own statistics and codes it against a
codebook precomputed for N(0, 1); ``dequantize_codes`` maps the codes back.
The reference coder runs in float64: its codes are
``searchsorted(thresholds, z)`` on z standardized by numpy's row mean and
std. A float32 input on a uniform grid, the quantized forward's, takes the
float32 coder, which keeps a stated contract against the reference with
one constant K = 64 (see ``token_codes``); every other input takes the
reference.

A codebook is its bit width and its family, uniform grid or Lloyd-Max
(``GaussCodebook(bits, is_uniform)``), so no invalid one can be built; the
factories share one per (bits, family). Its levels are solved from the
closed-form moments of N(0, 1) over each cell, which need only
``math.erfc``: Lloyd-Max levels by Newton's method on the centroid
condition, and the step of a symmetric uniform grid by bisection on its
stationarity condition. Both are exact to about 1e-13, which plain
fixed-point iteration does not reach at 8 bits. A quantized layer codes on
the uniform grid only; Lloyd-Max, the MSE-optimal codebook, is for
analysis.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ValidationError

TERNARY_EPS = 1e-8
# the activation width that means full precision: the layer has no quantizer
FP_BITS = 32
# The float64 token_codes (and the quantized forward's epilogue) work
# through the rows in blocks of about this many entries, so that a block's
# temporaries (256 KiB each) stay in cache: at 256 x 4608 token_codes took
# 15 ms against 43 ms for whole-matrix passes on a 2-vCPU Xeon.
_BLOCK_ENTRIES = 1 << 15
# The float32 token coder's blocks: its three block arrays (1.5 MiB) still
# fit a 2 MiB L2, and fewer blocks save per-call overhead: 2.0 against
# 2.7 ms at 256 x 4608 on a 2-vCPU Xeon.
_BLOCK_ENTRIES32 = 1 << 17
_EPS32 = float(np.finfo(np.float32).eps)
# K of the float32 token coder's contract (see token_codes)
_CODES_K = 64
# the float32 coder codes in float32 only rows with sigma in [this, 1 / this]
_SIGMA_MIN32 = 2.0**-63


def _is_int(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(value, name: str, least: int = 1) -> None:
    """The package's one rule for a count, size or seed: a non-bool integer
    (numpy integers included) >= ``least``; ``ValidationError`` naming
    ``name`` otherwise."""
    if not _is_int(value) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_bits(bits, full_precision: bool = False, name: str = "bits") -> bool:
    """The package's one activation-width rule: ``bits`` is a non-bool
    integer (numpy integers included) in 1..8, or exactly ``FP_BITS`` where
    ``full_precision`` allows it. Raises ``ValidationError`` naming ``name``
    otherwise; returns whether ``bits`` is ``FP_BITS``."""
    if _is_int(bits) and (1 <= bits <= 8 or (full_precision and bits == FP_BITS)):
        return bits == FP_BITS
    allowed = f"1..8 or {FP_BITS}" if full_precision else "1..8"
    raise ValidationError(f"{name} must be an integer in {allowed}, got {bits!r}")


def _check_widths(bits, name: str) -> tuple[int, ...]:
    """The package's one rule for a set of activation widths: at least one
    width, each passing ``_check_bits(full_precision=True)``, none given
    twice. Returns them sorted, as plain ints; ``ValidationError`` naming
    ``name`` otherwise, a set that is not iterable included."""
    if not isinstance(bits, Iterable):
        raise ValidationError(f"{name} must be a set of widths, got {bits!r}")
    for b in bits:
        _check_bits(b, full_precision=True, name=f"{name} entry")
    widths = tuple(sorted(map(int, bits)))
    if not widths:
        raise ValidationError(f"{name} must hold at least one width")
    repeated = sorted({a for a, b in zip(widths, widths[1:]) if a == b})
    if repeated:
        raise ValidationError(f"{name} must not repeat a width, got {repeated} more than once")
    return widths


def _check_real(value, name: str, least: float = -math.inf, strict: bool = False) -> float:
    """The package's one rule for a real number: a ``numbers.Real`` that is
    not a bool (numpy reals included, text not), finite as a float64 (an
    integer too large for one is rejected) and >= ``least``, or > ``least``
    when ``strict``. Returns it as a Python float; ``ValidationError``
    naming ``name`` otherwise."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer beyond float64's range
        number = math.nan
    if math.isfinite(number) and (number > least if strict else number >= least):
        return number
    bound = "" if least == -math.inf else f" {'>' if strict else '>='} {least}"
    raise ValidationError(f"{name} must be a finite real{bound}, got {value!r}")


def _asarray(x, name: str, kind: str = "real 2-D matrix") -> np.ndarray:
    """``np.asarray(x)``, or ``ValidationError`` saying that ``name`` must be
    a ``kind`` when ``x`` is a ragged nested sequence, which numpy cannot
    make an array of."""
    try:
        return np.asarray(x)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise ValidationError(f"{name} must be a {kind}, got a ragged sequence") from exc


def _check_matrix(x, name: str, rows: int = 1, width: int | None = None) -> np.ndarray:
    """The package's one rule for a matrix argument: ``np.asarray(x)`` has a
    bool, integer or float dtype (a complex, text, object, datetime or void
    array is rejected, never converted), is 2-D, and has at least ``rows``
    rows and at least one column, exactly ``width`` when given. Returns the
    array in its own dtype, which each caller casts as it needs;
    ``ValidationError`` naming ``name``, the dtype and the shape otherwise,
    or naming ``name`` for a ragged nested sequence (``_asarray``)."""
    arr = _asarray(x, name)
    if (arr.dtype.kind in "biuf" and arr.ndim == 2 and arr.shape[0] >= rows
            and arr.shape[1] >= 1 and width in (None, arr.shape[1])):
        return arr
    cols = ">= 1" if width is None else f"exactly {width}"
    raise ValidationError(f"{name} must be a real 2-D matrix with >= {rows} rows and {cols} "
                          f"columns, got a {arr.dtype} array of shape {arr.shape}")


# ---------------------------------------------------------------------------
# Ternary weights
# ---------------------------------------------------------------------------

def is_ternary(values) -> bool:
    """True when ``values`` has a real dtype (bool, integer or float, as in
    ``_check_matrix``) and every entry is -1, 0 or +1 (NaN, 0.5, 256, int8
    -128 and the complex unit 1j are not)."""
    v = np.asarray(values)
    if v.dtype.kind in "biu":
        # Integers hold no NaN or fraction: two reductions, no temporaries.
        return v.size == 0 or bool(v.min() >= -1 and v.max() <= 1)
    return v.dtype.kind == "f" and bool(((v == 0) | (np.abs(v) == 1)).all())


@dataclass
class TernaryWeights:
    """{-1, 0, +1} values plus the one real scale ``alpha`` of the tensor:
    a real number (not a bool), finite and >= 0, stored as a Python float.
    ``values`` is a real matrix with both dims >= 1 (``_check_matrix``).
    Anything else raises ``ValidationError``.

    The quantized forward multiplies the float32 activation codes by
    ``values`` as a GEMM operand, ``operand_f32``: the values as float32
    plus their float64 row sums. It is built on first use and then kept, so
    ``values`` must not be modified in place afterwards; assign a new
    instance instead. Ternarizing, saving, loading and packing never build
    it.
    """

    values: np.ndarray
    alpha: float

    def __post_init__(self):
        self.values = _check_matrix(self.values, "ternary values")
        if not is_ternary(self.values):
            raise ValidationError("ternary values must lie in {-1, 0, +1}")
        self.alpha = _check_real(self.alpha, "alpha", least=0)

    @functools.cached_property
    def operand_f32(self) -> tuple[np.ndarray, np.ndarray]:
        """(values as float32, their row sums as float64); the sums are exact
        while a row has at most 2^24 entries."""
        v = self.values.astype(np.float32)
        return v, v.sum(axis=1).astype(np.float64)

    def dequantize(self) -> np.ndarray:
        return self.alpha * self.values.astype(np.float64)


def ternarize(w: np.ndarray) -> TernaryWeights:
    """Quantize a weight matrix to scaled ternary values.

    The divisor gamma and the scale alpha are both the mean absolute value
    of the whole tensor. An all-zero tensor yields all-zero values with
    alpha = 0, the only degenerate case. ``w`` is a real matrix with at
    least one row (``_check_matrix``) and is ternarized in float64. A NaN or
    Inf, or a sum of |W| that overflows float64, raises ``ValidationError``.
    """
    arr = _check_matrix(w, "w").astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        gamma = float(np.mean(np.abs(arr)))
    # A NaN or Inf entry always makes gamma non-finite, so only then is
    # the tensor scanned.
    if not math.isfinite(gamma):
        if not np.isfinite(arr).all():
            raise ValidationError("weights contain NaN or Inf")
        raise ValidationError("mean |W| overflows float64: the sum of |W| is not representable")
    # clip(rint(w / d), -1, 1) as two comparisons with d / 2, which is exact
    # as d >= eps (see the module docstring); the values keep w's memory order.
    half = 0.5 * (gamma + TERNARY_EPS)
    values = np.greater(arr, half).view(np.int8)
    values -= np.less(arr, -half)
    return TernaryWeights(values=values, alpha=gamma)


# ---------------------------------------------------------------------------
# Standard-normal codebooks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussCodebook:
    """The codebook for N(0, 1) of width ``bits`` in one family: the
    uniform grid (``is_uniform``) or Lloyd-Max.

    These two fields are the whole codebook: they alone set equality and
    the hash, and they are what ``layer.json`` stores. The rest is derived
    once, when the codebook is built: ``levels``, strictly increasing and
    antisymmetric about 0, ``thresholds`` at their midpoints, and
    ``expected_mse``, the closed-form mean squared error against N(0, 1).
    A uniform codebook's levels are the grid step * (i - (2^b - 1)/2) by
    construction, which the float32 coder's nearest-level rounding relies
    on. ``levels`` and ``thresholds`` are built read-only.
    """

    bits: int
    is_uniform: bool

    def __post_init__(self):
        _check_bits(self.bits)
        if not isinstance(self.is_uniform, bool):
            raise ValidationError(f"is_uniform must be a bool, got {self.is_uniform!r}")
        # a plain int, which layer.json can hold, even from a numpy width
        object.__setattr__(self, "bits", int(self.bits))
        levels = (_uniform_levels if self.is_uniform else _lloyd_max_levels)(self.bits)
        thresholds = 0.5 * (levels[:-1] + levels[1:])
        p, m1, m2, _, _ = _cell_moments(thresholds)
        levels.flags.writeable = thresholds.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "expected_mse",
                           float(np.sum(m2 - 2.0 * levels * m1 + levels * levels * p)))

    @functools.cached_property
    def step(self) -> float:
        """Spacing of the levels' grid (meaningful for a uniform codebook)."""
        return float(self.levels[-1] - self.levels[0]) / (len(self.levels) - 1)


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


def _lloyd_max_levels(bits: int) -> np.ndarray:
    """The Lloyd-Max levels for N(0, 1): the MSE-optimal scalar quantizer.

    Solves F(y) = y - G(y) = 0 by Newton's method, where G maps the levels
    to the centroids m1/p of their midpoint cells (Max 1960; Lloyd 1982).
    The Jacobian of G is tridiagonal: dG_i/db_i = phi(b_i)(b_i - G_i)/p_i and
    dG_i/da_i = phi(a_i)(G_i - a_i)/p_i at the cell edges, each halved
    through the midpoint thresholds. Starts from the equal-probability
    levels and stops at max|F| < 1e-12. The 8 widths are the only inputs,
    and they stop after 1, 3, 4, 4, 5, 5, 5 and 5 Newton steps (b = 1..8)
    of the ``_NEWTON_STEPS`` allowed, so no input reaches the cap and no
    error is raised for it; ``test_lloyd_centroid_condition_every_width``
    fails if a width's levels miss the centroid condition.
    """
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
    return levels


def _uniform_levels(bits: int) -> np.ndarray:
    """The symmetric arithmetic grid with the MSE-optimal step for N(0, 1).

    With levels step * c_i (c_i = i - (2^b - 1)/2) and midpoint thresholds,
    the MSE is stationary where step * sum(c_i^2 p_i) = sum(c_i m1_i). That
    difference is negative at step 0 and positive at step 4, and bisection
    narrows the bracket until no float lies strictly inside it.
    """
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
    return step * c


# Codebooks are immutable, so the factories hand out one per (bits, family).
_shared_codebook = functools.cache(GaussCodebook)


def lloyd_max(bits: int) -> GaussCodebook:
    """The shared Lloyd-Max codebook of width ``bits`` (see
    ``_lloyd_max_levels``)."""
    _check_bits(bits)  # before the cache, where 4.0 would find 4
    return _shared_codebook(int(bits), False)


def uniform_gauss_codebook(bits: int) -> GaussCodebook:
    """The shared uniform-grid codebook of width ``bits`` (see
    ``_uniform_levels``)."""
    _check_bits(bits)  # before the cache, where 4.0 would find 4
    return _shared_codebook(int(bits), True)


# ---------------------------------------------------------------------------
# Per-token Gauss quantizer
# ---------------------------------------------------------------------------


def _code_rows(arr, cb, center):
    """``token_codes`` on a block of float64 rows, the reference coder:
    returns the block's (codes, mu, sigma). sigma is non-finite exactly
    when its row holds a NaN or Inf or its spread overflows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu, sigma = arr.mean(axis=1), arr.std(axis=1)
        z = ((arr - mu[:, None]) if center else arr) / sigma[:, None]
    codes = np.searchsorted(cb.thresholds, z)
    # a constant row of Infs, or one whose sum overflows, keeps its
    # non-finite sigma for token_codes to reject
    degenerate = ((arr == arr[:, :1]).all(axis=1) | (sigma == 0.0)) & np.isfinite(sigma)
    codes[degenerate], sigma[degenerate] = len(cb.levels) // 2, 0.0
    return codes, (mu if center else np.zeros_like(mu)), sigma


def _code_rows32(arr, cb, center, codes, mu, sigma):
    """``token_codes`` on a block of float32 rows and a uniform grid,
    written into the block's slices ``codes``, ``mu`` and ``sigma`` of the
    outputs: the float32 coder whose contract ``token_codes`` states."""
    c, n = arr.shape[1], len(cb.levels)
    # The deviations, then z / step + (n - 1) / 2, go straight into the
    # float32 codes, which are the forward's GEMM operand.
    with np.errstate(invalid="ignore", over="ignore"):
        mean = arr.sum(axis=1) / np.float32(c)
        np.subtract(arr, mean[:, None], out=codes)
        sigma[:] = np.sqrt(np.square(codes).sum(axis=1) / np.float32(c))
        mu[:] = mean
        # Outside [2^-63, 2^63] float32 squares may lose digits to underflow
        # or overflow (as may the sum of a row near float32's range): such
        # rows, and those with sigma 0 or NaN, take the float64 reference's
        # codes, mu and sigma below.
        odd = np.flatnonzero(~((sigma >= _SIGMA_MIN32) & (sigma <= 1.0 / _SIGMA_MIN32)))
        # A constant row's float32 mean is within c * eps32 / 2 of its value,
        # so only rows with sigma that small can be constant.
        degenerate = np.flatnonzero(sigma <= c * _EPS32 * np.abs(mu))
        if degenerate.size:
            degenerate = degenerate[(arr[degenerate] == arr[degenerate, :1]).all(axis=1)]
            sigma[degenerate] = 0.0
        inv = 1.0 / (np.where(sigma > 0.0, sigma, 1.0) * cb.step)
        np.multiply(codes if center else arr, inv.astype(np.float32)[:, None], out=codes)
        # the nearest level: rint(z / step + (n - 1) / 2), clipped
        codes += np.float32((n - 1) / 2)
        np.rint(codes, out=codes)
        np.clip(codes, 0, n - 1, out=codes)
    codes[degenerate] = n // 2
    if not center:
        mu[:] = 0.0
    if odd.size:
        codes[odd], mu[odd], sigma[odd] = _code_rows(arr[odd].astype(np.float64), cb, center)


def token_codes(
    x: np.ndarray,
    cb: GaussCodebook,
    center: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token Gauss codes for a T x C matrix: returns (codes, mu, sigma).
    ``x`` is a real matrix with T >= 0 (``_check_matrix``).

    Row t is standardized as z = (x_t - mu_t) / sigma_t and encoded against
    ``cb``. sigma_t is the row's population standard deviation; mu_t is the
    row mean when ``center`` is set, else 0. A constant row is degenerate:
    its sigma_t is 0, so dequantization reproduces the constant (centered)
    or zero exactly, and its codes sit at the middle level. Raises
    ``ValidationError`` naming the first row with a NaN or Inf or whose
    float64 spread overflows. mu and sigma are float64.

    A float32 input on a uniform grid is coded in float32; every other
    input, a Lloyd-Max codebook's included, is coded in float64 by the
    reference rule: mu_t and sigma_t are numpy's row mean and std, and the
    int64 codes are ``searchsorted(thresholds, z)``. The float32 coder
    takes mu_t and sigma_t from float32 pairwise sums of the row and of its
    squared deviations, and z is the deviations times a float32
    1 / sigma_t. A row whose float32 sigma_t falls outside [2^-63, 2^63],
    where float32 squares or sums could underflow or overflow, takes the
    float64 reference's codes, mu_t and sigma_t instead, so every finite
    float32 row is coded. The code is the nearest level,
    clip(rint(z / step + (n - 1)/2), 0, n - 1), returned as float32, the
    quantized forward's GEMM operand.
    Against the float64 coder on the same values the float32 coder keeps
    this contract, with m_t = max|x_t| and K = 64 (``_CODES_K``; the
    largest factor measured on random tokens from 1 to 8192 wide, and on
    the quantized forward, was about 14):

    * mu_t and sigma_t differ by at most K * (eps32 * m_t + tiny32);
    * codes differ only where the float64 z lies within
      delta_t = K * (eps32 * m_t + tiny32) / sigma_t of a threshold, and by
      at most the number of thresholds within delta_t of it: one level
      wherever delta_t is below half the smallest gap between thresholds.

    ``lowrank.forward_with_cache`` holds its codes to the same contract
    against ``quantize_tokens(transform_tokens(x))`` in float64, with x_t
    the transformed token.
    """
    arr = _check_matrix(x, "x", rows=0)
    single = arr.dtype == np.float32 and cb.is_uniform
    if not single:
        arr = arr.astype(np.float64, copy=False)
    codes = np.empty(arr.shape, dtype=np.float32 if single else np.int64)
    mu, sigma = np.empty(arr.shape[0]), np.empty(arr.shape[0])
    rows = max(1, (_BLOCK_ENTRIES32 if single else _BLOCK_ENTRIES) // arr.shape[1])
    for first in range(0, arr.shape[0], rows):
        part = slice(first, first + rows)
        if single:
            _code_rows32(arr[part], cb, center, codes[part], mu[part], sigma[part])
        else:
            codes[part], mu[part], sigma[part] = _code_rows(arr[part], cb, center)
        if not np.isfinite(sigma[part]).all():
            bad = first + int(np.argmin(np.isfinite(sigma[part])))
            raise ValidationError(f"token {bad} is not finite (NaN, Inf or overflowing spread)")
    return codes, mu, sigma


def dequantize_codes(
    codes: np.ndarray,
    cb: GaussCodebook,
    mu: np.ndarray,
    sigma: np.ndarray,
    center: bool = True,
) -> np.ndarray:
    """Invert ``token_codes`` on T x C codes with per-token ``mu`` and
    ``sigma``: row t is sigma_t * levels[codes_t] (+ mu_t when centered).
    Codes that are not a 2-D integer array of indices of levels of ``cb``,
    or ``mu`` and ``sigma`` not of length T, raise ``ValidationError``."""
    codes, mu, sigma = np.asarray(codes), np.asarray(mu), np.asarray(sigma)
    if codes.ndim != 2 or codes.dtype.kind not in "iu":
        raise ValidationError(f"codes must be a 2-D integer array, got {codes.dtype} {codes.shape}")
    if codes.size and (codes.min() < 0 or codes.max() >= len(cb.levels)):
        raise ValidationError(f"codes out of range for a {cb.bits}-bit codebook")
    if mu.shape != (len(codes),) or sigma.shape != (len(codes),):
        raise ValidationError(f"mu and sigma must have length T = {len(codes)}")
    out = sigma[:, None] * cb.levels[codes]
    if center:
        out += mu[:, None]
    return out


def quantize_tokens(
    x: np.ndarray, cb: GaussCodebook, center: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-token quantize + dequantize for a T x C matrix: returns
    (dequantized, codes, mu, sigma), ``token_codes`` followed by
    ``dequantize_codes`` (on the codes as integers, where a float32 input
    gave float32 codes). The quantized forward needs only the codes and
    calls ``token_codes`` directly.
    """
    codes, mu, sigma = token_codes(x, cb, center)
    deq = dequantize_codes(codes.astype(np.int64, copy=False), cb, mu, sigma, center)
    return deq, codes, mu, sigma
