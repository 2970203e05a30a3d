import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robuq
from robuq.errors import FormatError, ValidationError
from robuq.quant import (
    GaussCodebook,
    TernaryWeights,
    gauss_dequantize_token,
    gauss_quantize_token,
    lloyd_max,
    load_codebook,
    minmax_dequantize,
    minmax_quantize,
    quantize_tokens,
    save_codebook,
    ternarize,
    uniform_gauss_codebook,
)


# ---------------------------------------------------------------------------
# Ternary weights
# ---------------------------------------------------------------------------

def test_ternarize_hand_case():
    w = np.array([[0.5, -0.5], [0.5, 0.5]])
    t = ternarize(w)
    assert t.alpha == 0.5
    assert np.array_equal(t.values, np.sign(w))
    np.testing.assert_allclose(t.dequantize(), w)


def test_ternarize_zero_matrix():
    t = ternarize(np.zeros((3, 4)))
    assert not t.values.any()
    assert t.alpha == 0.0


def test_ternarize_identity():
    t = ternarize(np.eye(2))
    assert t.alpha == 0.5
    assert np.array_equal(t.values, np.eye(2))
    np.testing.assert_allclose(t.dequantize(), 0.5 * np.eye(2))


def test_ternarize_idempotent_on_own_output():
    rng = np.random.default_rng(0)
    v = rng.integers(-1, 2, size=(12, 12))
    while not v.any():
        v = rng.integers(-1, 2, size=(12, 12))
    t = ternarize(0.37 * v)
    assert np.array_equal(t.values, v)


def test_ternarize_per_channel():
    w = np.array([[1.0, -1.0], [10.0, 10.0]])
    t = ternarize(w, per_channel=True)
    np.testing.assert_allclose(t.alpha, [1.0, 10.0])
    np.testing.assert_allclose(t.dequantize(), w)


def test_ternarize_validation():
    with pytest.raises(ValidationError):
        ternarize(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValidationError):
        ternarize(np.ones(4))


@pytest.mark.parametrize(
    "values",
    [
        np.array([[0.5, 1.0]]),
        np.array([[np.nan, 0.0]]),
        np.array([[2.0, -1.0]]),
        np.array([[-128, 1]], dtype=np.int8),  # |-128| wraps to -128 in int8
        np.array([[255, 0]], dtype=np.uint8),
    ],
    ids=["half", "nan", "two", "int8_min", "uint8_max"],
)
def test_ternary_weights_reject_non_ternary(values):
    with pytest.raises(ValidationError):
        TernaryWeights(values=values, alpha=1.0)


@pytest.mark.parametrize("dtype", [np.float64, np.int8, np.bool_])
def test_ternary_weights_accept_ternary(dtype):
    values = np.array([[-1, 0, 1]]) if dtype != np.bool_ else np.array([[0, 1, 1]])
    TernaryWeights(values=values.astype(dtype), alpha=1.0)


# ---------------------------------------------------------------------------
# Min-max affine quantizer
# ---------------------------------------------------------------------------

def test_minmax_identity_grid():
    q = minmax_quantize([0.0, 1.0, 2.0, 3.0], 2)
    assert q.scale == 1.0
    assert q.zero_point == 0
    assert q.codes.tolist() == [0, 1, 2, 3]


def test_minmax_one_bit_endpoints():
    q = minmax_quantize([-1.0, 1.0], 1)
    assert q.scale == 2.0
    assert q.codes.min() == 0 and q.codes.max() == 1
    deq = minmax_dequantize(q)
    assert abs(deq[0] - (-1.0)) <= q.scale
    assert abs(deq[1] - 1.0) <= q.scale


def test_minmax_constant_token():
    q = minmax_quantize([5.0, 5.0, 5.0], 3)
    assert not q.codes.any()
    np.testing.assert_array_equal(minmax_dequantize(q), [5.0, 5.0, 5.0])


def test_minmax_codes_in_range_and_error_bound():
    rng = np.random.default_rng(3)
    for bits in (1, 2, 4, 8):
        x = rng.standard_normal(257) * rng.uniform(0.1, 10)
        q = minmax_quantize(x, bits)
        assert q.codes.min() >= 0 and q.codes.max() <= 2**bits - 1
        assert np.abs(minmax_dequantize(q) - x).max() <= q.scale + 1e-12


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------

def test_lloyd_b1_closed_form():
    cb = lloyd_max(1)
    target = math.sqrt(2 / math.pi)  # two-level optimum is +-E|X|
    np.testing.assert_allclose(cb.levels, [-target, target], atol=1e-3)


def test_uniform_b1_matches_lloyd():
    u = uniform_gauss_codebook(1)
    l = lloyd_max(1)
    np.testing.assert_allclose(u.levels, l.levels, atol=1e-3)
    step = u.levels[1] - u.levels[0]
    np.testing.assert_allclose(step, 2 * math.sqrt(2 / math.pi), atol=1e-3)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
def test_levels_antisymmetric(bits):
    for cb in (lloyd_max(bits), uniform_gauss_codebook(bits)):
        assert np.abs(cb.levels + cb.levels[::-1]).max() < 1e-9


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_lloyd_conditions(bits):
    from scipy.integrate import quad

    cb = lloyd_max(bits)
    mid = 0.5 * (cb.levels[:-1] + cb.levels[1:])
    assert np.abs(cb.thresholds - mid).max() < 1e-7
    # Conditional-mean condition via an independent adaptive quadrature.
    dens = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    edges = np.concatenate(([-np.inf], cb.thresholds, [np.inf]))
    for i, level in enumerate(cb.levels):
        num = quad(lambda t: t * dens(t), edges[i], edges[i + 1])[0]
        den = quad(dens, edges[i], edges[i + 1])[0]
        assert abs(level - num / den) < 1e-6


def _oracle_moments(thresholds):
    """Cell mass and first moment from scipy's ndtr, tails taken on the cell's side of 0."""
    from scipy.special import ndtr

    a = np.concatenate(([-np.inf], thresholds))
    b = np.concatenate((thresholds, [np.inf]))
    p = np.where(a >= 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    dens = lambda x: np.array([0.0 if math.isinf(t) else math.exp(-0.5 * t * t) for t in x])
    m1 = (dens(a) - dens(b)) / math.sqrt(2 * math.pi)
    return p, m1


def test_lloyd_centroid_condition_every_width():
    residual = {}
    for bits in range(1, 9):
        cb = lloyd_max(bits)
        p, m1 = _oracle_moments(cb.thresholds)
        residual[bits] = float(np.abs(cb.levels - m1 / p).max())
    assert max(residual.values()) <= 1e-12, residual


def test_uniform_step_stationary_every_width():
    # dMSE/dstep = 0  <=>  step * sum(c^2 p) = sum(c m1) over the grid indices c.
    residual = {}
    for bits in range(1, 9):
        cb = uniform_gauss_codebook(bits)
        c = np.arange(1 << bits) - ((1 << bits) - 1) / 2
        step = cb.levels[1] - cb.levels[0]
        p, m1 = _oracle_moments(cb.thresholds)
        residual[bits] = abs(step * (c * c) @ p - c @ m1) / (c @ m1)
    assert max(residual.values()) <= 1e-12, residual


def test_one_bit_codebooks_are_the_closed_form():
    target = math.sqrt(2 / math.pi)
    for cb in (lloyd_max(1), uniform_gauss_codebook(1)):
        np.testing.assert_allclose(cb.levels, [-target, target], rtol=0, atol=1e-15)
        np.testing.assert_allclose(cb.expected_mse, 1 - 2 / math.pi, rtol=1e-15)


def test_codebooks_import_no_scipy():
    code = (
        "import sys, robuq\n"
        "from robuq.quant import lloyd_max, uniform_gauss_codebook\n"
        "for b in range(1, 9):\n"
        "    lloyd_max(b); uniform_gauss_codebook(b)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(robuq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _mc_mse(cb: GaussCodebook, z: np.ndarray) -> float:
    idx = np.searchsorted(cb.thresholds, z)
    return float(np.mean((z - cb.levels[idx]) ** 2))


def test_nonuniform_beats_uniform_monte_carlo():
    rng = np.random.default_rng(12345)
    z = rng.standard_normal(10**6)
    for bits in (2, 3, 4):
        lm, un = lloyd_max(bits), uniform_gauss_codebook(bits)
        m_l, m_u = _mc_mse(lm, z), _mc_mse(un, z)
        # 3-sigma margin on the paired MC estimate of the MSE difference.
        d = (z - lm.levels[np.searchsorted(lm.thresholds, z)]) ** 2 - (
            z - un.levels[np.searchsorted(un.thresholds, z)]
        ) ** 2
        margin = 3 * d.std() / math.sqrt(d.size)
        assert m_l <= m_u + margin
        assert lm.expected_mse < un.expected_mse


def test_expected_mse_matches_monte_carlo():
    rng = np.random.default_rng(99)
    z = rng.standard_normal(10**6)
    for cb in (lloyd_max(2), uniform_gauss_codebook(3), lloyd_max(4)):
        mc = _mc_mse(cb, z)
        se = 3 * ((z - cb.levels[np.searchsorted(cb.thresholds, z)]) ** 2).std() / 1000.0
        assert abs(mc - cb.expected_mse) < se


def test_nonuniform_expected_mse_dominates_every_width():
    for bits in range(1, 9):
        assert lloyd_max(bits).expected_mse <= uniform_gauss_codebook(bits).expected_mse + 1e-12


def test_uniform_step_unimodal_probe():
    # Doubling the step away from the optimum strictly increases the MC MSE.
    rng = np.random.default_rng(7)
    z = rng.standard_normal(200_000)
    cb = uniform_gauss_codebook(3)
    step = cb.levels[1] - cb.levels[0]

    def grid_mse(s):
        levels = s * (np.arange(8) - 3.5)
        thr = 0.5 * (levels[:-1] + levels[1:])
        return np.mean((z - levels[np.searchsorted(thr, z)]) ** 2)

    base = grid_mse(step)
    assert grid_mse(2 * step) > base
    assert grid_mse(0.5 * step) > base


# ---------------------------------------------------------------------------
# Per-token Gauss quantizer
# ---------------------------------------------------------------------------

def test_fixed_points_with_explicit_scale():
    cb = uniform_gauss_codebook(4)
    x = 2.0 * cb.levels
    codes, mu, sigma = gauss_quantize_token(x, cb, center=False, scale=2.0)
    assert np.array_equal(codes, np.arange(16))
    rec = gauss_dequantize_token(codes, cb, mu, sigma, center=False)
    np.testing.assert_array_equal(rec, x)


def test_zero_token_degenerate():
    cb = uniform_gauss_codebook(3)
    codes, mu, sigma = gauss_quantize_token(np.zeros(16), cb)
    assert sigma == 0.0
    assert np.all(codes == len(cb.levels) // 2)
    np.testing.assert_array_equal(gauss_dequantize_token(codes, cb, mu, sigma), np.zeros(16))


def test_constant_token_centered_roundtrip():
    cb = lloyd_max(2)
    x = np.full(8, 3.25)
    codes, mu, sigma = gauss_quantize_token(x, cb, center=True)
    np.testing.assert_array_equal(gauss_dequantize_token(codes, cb, mu, sigma, center=True), x)


def test_roundtrip_mse_near_expected():
    rng = np.random.default_rng(11)
    cb = uniform_gauss_codebook(4)
    sigma_true = 2.7
    x = rng.standard_normal(200_000) * sigma_true
    codes, mu, sigma = gauss_quantize_token(x, cb, center=False)
    rec = gauss_dequantize_token(codes, cb, mu, sigma, center=False)
    mse = np.mean((x - rec) ** 2) / sigma**2
    assert abs(mse - cb.expected_mse) / cb.expected_mse < 0.10


def test_scale_equivariance():
    rng = np.random.default_rng(4)
    cb = lloyd_max(3)
    x = rng.standard_normal(64)
    c1, _, s1 = gauss_quantize_token(x, cb, center=False)
    for c in (0.5, 3.0, 170.0):
        c2, _, s2 = gauss_quantize_token(c * x, cb, center=False)
        assert np.array_equal(c1, c2)
        d1 = gauss_dequantize_token(c1, cb, 0.0, s1, center=False)
        d2 = gauss_dequantize_token(c2, cb, 0.0, s2, center=False)
        np.testing.assert_allclose(d2, c * d1, rtol=1e-12)


def test_dequantize_rejects_bad_codes():
    cb = uniform_gauss_codebook(2)
    with pytest.raises(ValidationError):
        gauss_dequantize_token(np.array([17]), cb)


def test_vectorized_matches_per_token():
    rng = np.random.default_rng(21)
    cb = uniform_gauss_codebook(4)
    x = rng.standard_normal((40, 32))
    x[5] = -1.25  # constant row exercises the degenerate path
    deq, codes, mu, sigma = quantize_tokens(x, cb, center=True)
    for t in range(x.shape[0]):
        ct, mt, st = gauss_quantize_token(x[t], cb, center=True)
        assert np.array_equal(ct, codes[t])
        assert (mt, st) == (mu[t], sigma[t])
        np.testing.assert_array_equal(gauss_dequantize_token(ct, cb, mt, st), deq[t])


def test_middle_codes_dequantize_to_middle_level():
    cb = lloyd_max(3)
    codes = np.full(5, 4)
    out = gauss_dequantize_token(codes, cb, 0.0, 1.0, center=False)
    np.testing.assert_array_equal(out, np.full(5, cb.levels[4]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [lloyd_max, uniform_gauss_codebook])
def test_solvers_reject_non_integer_bits(maker):
    with pytest.raises(ValidationError):
        maker(2.5)


@pytest.mark.parametrize("bits", [0, 9, -1])
def test_codebook_rejects_bits_out_of_range(bits):
    n = 1 << bits if bits >= 0 else 2
    levels = np.arange(n) - (n - 1) / 2
    with pytest.raises(ValidationError):
        GaussCodebook(bits=bits, levels=levels, thresholds=0.5 * (levels[:-1] + levels[1:]),
                      is_uniform=True, expected_mse=0.1)


@pytest.mark.parametrize("where", ["level", "threshold"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_codebook_rejects_non_finite(where, bad):
    levels = np.array([-1.5, -0.5, 0.5, 1.5])
    thresholds = np.array([-1.0, 0.0, 1.0])
    if where == "level":
        levels[-1] = bad
    else:
        thresholds[-1] = bad
    with pytest.raises(ValidationError):
        GaussCodebook(bits=2, levels=levels, thresholds=thresholds,
                      is_uniform=True, expected_mse=0.1)


_GOOD_CSV = "# bits=1 uniform=1 mse=0.36\nlevel,threshold\n-0.8,0.0\n0.8,\n"


@pytest.mark.parametrize(
    "text",
    [
        _GOOD_CSV.replace(" mse=0.36", " mse=0.36 stray"),
        _GOOD_CSV.replace("0.8,\n", "high,\n"),
        "# bits=-1 uniform=1 mse=0.36\nlevel,threshold\n-0.8,0.0\n0.8,\n",
        "# bits=0 uniform=1 mse=0.36\nlevel,threshold\n0.0,\n",
        _GOOD_CSV.replace("0.8,\n", "nan,\n"),
    ],
    ids=["token_without_equals", "non_numeric_level", "negative_bits", "zero_bits", "nan_level"],
)
def test_load_codebook_malformed_is_format_error(tmp_path, text):
    path = tmp_path / "cb.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match="cb.csv"):
        load_codebook(path)


@pytest.mark.parametrize("maker,bits", [(lloyd_max, 3), (uniform_gauss_codebook, 4)])
def test_codebook_csv_roundtrip(tmp_path, maker, bits):
    cb = maker(bits)
    path = tmp_path / "cb.csv"
    save_codebook(cb, path)
    first = path.read_text().splitlines()[0]
    assert first.startswith(f"# bits={bits} uniform={int(cb.is_uniform)} mse=")
    back = load_codebook(path)
    assert back.bits == cb.bits and back.is_uniform == cb.is_uniform
    np.testing.assert_array_equal(back.levels, cb.levels)
    np.testing.assert_array_equal(back.thresholds, cb.thresholds)
    assert back.expected_mse == cb.expected_mse
