import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robuq
from robuq.allocator import AllocationProblem
from robuq.deploy import FlopsEntry, pack_ternary, weighted_flops
from robuq.errors import ValidationError
from robuq.profiler import TrainConfig
from robuq.quant import (
    _BLOCK_ENTRIES,
    TERNARY_EPS,
    GaussCodebook,
    TernaryWeights,
    dequantize_codes,
    is_ternary,
    lloyd_max,
    quantize_tokens,
    ternarize,
    token_codes,
    uniform_gauss_codebook,
)
from robuq.tensorio import LayerSpec, SensitivityTable


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


def test_ternarize_validation():
    with pytest.raises(ValidationError):
        ternarize(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValidationError):
        ternarize(np.ones(4))


def _whole_matrix_ternarize(w):
    """The ternarizer as one whole-matrix formula: (values, alpha)."""
    arr = np.asarray(w, dtype=np.float64)
    gamma = float(np.mean(np.abs(arr)))
    return np.clip(np.rint(arr / (gamma + TERNARY_EPS)), -1, 1).astype(np.int8), gamma


def _assert_matches_whole_matrix_formula(w):
    t = ternarize(w)
    values, alpha = _whole_matrix_ternarize(w)
    assert t.values.dtype == np.int8
    assert (t.values.flags.c_contiguous, t.values.flags.f_contiguous) == (
        values.flags.c_contiguous, values.flags.f_contiguous)
    np.testing.assert_array_equal(t.values, values, strict=True)
    assert t.alpha.hex() == alpha.hex()
    return t


@pytest.mark.parametrize(
    "shape,order",
    [((300, 1152), "C"), ((300, 1152), "F"), ((1, 40_000), "C"), ((5000, 3), "C"), ((1, 1), "C")],
    ids=["ragged_row_blocks", "fortran", "row_wider_than_a_block", "narrow_rows", "one_entry"],
)
def test_ternarize_matches_the_whole_matrix_formula(shape, order):
    # 300 rows of 1152 are ten blocks of 28 rows and a last block of 20.
    rng = np.random.default_rng(60)
    w = np.asarray(rng.standard_normal(shape) * rng.uniform(0.5, 3.0, shape[1]), order=order)
    _assert_matches_whole_matrix_formula(w)


def test_ternarize_rounds_exact_half_ties_to_even():
    # Half the entries are +-2^33 and half +-1.5 * 2^34, so mean|w| is 2^34
    # exactly and eps vanishes beside it: w / d is exactly +-0.5 or +-1.5.
    # rint rounds both halves to even, so +-0.5 gives 0 and +-1.5 clips to +-1.
    rng = np.random.default_rng(61)
    shape = (64, 1152)
    half = rng.permutation(np.arange(np.prod(shape)) % 2 == 0).reshape(shape)
    w = np.where(half, 2.0**33, 1.5 * 2.0**34) * rng.choice([-1.0, 1.0], shape)
    t = _assert_matches_whole_matrix_formula(w)
    assert t.alpha == 2.0**34
    np.testing.assert_array_equal(t.values, np.where(half, 0, np.sign(w)))


@st.composite
def _ternarize_inputs(draw):
    """Weight matrices from 1e-300 to 1e300 in C and F order, some with one
    spike that carries most of the mass, and with entries planted at
    +-(gamma + eps)/2 and one ulp either side for the matrix's own gamma:
    they are re-planted until gamma stops moving."""
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = 10.0 ** draw(st.integers(-300, 300)) * rng.standard_normal(shape)
    if draw(st.booleans()):
        spike = rng.integers(w.size)
        w.flat[spike] = min(abs(w.flat[spike]), 1e298) * 1e8
    planted = rng.permutation(w.size)[: draw(st.integers(1, min(w.size, 12)))]
    signs = rng.choice([-1.0, 1.0], planted.size)
    ulps = rng.integers(-1, 2, planted.size)
    # the fixed point gamma = (S + k (gamma + eps) / 2) / n of the k planted
    # entries among n, where S sums the others' |w|
    w.flat[planted] = 0.0
    k, n = planted.size, w.size
    gamma = (2.0 * float(np.sum(np.abs(w))) + k * TERNARY_EPS) / (2 * n - k)
    for _ in range(100):
        half = 0.5 * (gamma + TERNARY_EPS)
        at = np.where(ulps < 0, np.nextafter(half, 0.0),
                      np.where(ulps > 0, np.nextafter(half, np.inf), half))
        w.flat[planted] = signs * at
        planted_for, gamma = gamma, float(np.mean(np.abs(w)))
        if gamma == planted_for:
            break
    else:
        raise AssertionError("gamma did not settle")
    return np.asarray(w, order=draw(st.sampled_from("CF")))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_ternarize_inputs())
def test_ternarize_matches_the_whole_matrix_formula_at_every_scale(w):
    _assert_matches_whole_matrix_formula(w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ternarize_rejects_a_non_finite_last_entry(bad):
    w = np.random.default_rng(62).standard_normal((300, 1152))
    w[-1, -1] = bad
    with pytest.raises(ValidationError, match="NaN or Inf"):
        ternarize(w)


def test_ternarize_overflowing_mean_is_validation_error():
    # Every entry is finite, but the sum of |W| that the mean needs is not.
    with pytest.raises(ValidationError, match="overflows float64"):
        ternarize(np.full((2, 2), 1e308))


def test_ternarize_transient_memory_is_one_copy_plus_values_and_one_block():
    import tracemalloc

    w = np.random.default_rng(63).standard_normal((300, 1152))
    ternarize(w)
    tracemalloc.start()
    try:
        t = ternarize(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One float64 |W| for the mean, the int8 values, one float64 scratch
    # block of rows, and numpy's buffer for casting a block into the values.
    bound = w.nbytes + t.values.nbytes + 8 * _BLOCK_ENTRIES + 8 * np.getbufsize()
    assert bound < 2 * w.nbytes  # leaves no room for a second float64 copy
    assert peak <= bound


@pytest.mark.parametrize(
    "values",
    [
        np.array([[0.5, 1.0]]),
        np.array([[np.nan, 0.0]]),
        np.array([[2.0, -1.0]]),
        np.array([[-128, 1]], dtype=np.int8),  # |-128| wraps to -128 in int8
        np.array([[255, 0]], dtype=np.uint8),
        [[1, 0], [1]],  # numpy cannot make an array of a ragged list
    ],
    ids=["half", "nan", "two", "int8_min", "uint8_max", "ragged"],
)
def test_ternary_weights_reject_non_ternary(values):
    with pytest.raises(ValidationError):
        TernaryWeights(values=values, alpha=1.0)


def test_complex_values_are_not_ternary():
    # np.abs(1j) == 1 made a complex unit ternary, and dequantizing or
    # packing such values cast them to real with a ComplexWarning.
    values = np.ones((2, 2)) * 1j
    assert not is_ternary(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="ternary values"):
            TernaryWeights(values=values, alpha=1.0)
        with pytest.raises(ValidationError, match="values must all lie"):
            pack_ternary(values)


_INTEGER_DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64,
                   np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def _ternary_check_inputs(draw):
    """Mostly-ternary arrays of every integer dtype and of float64, salted
    with the values a shortcut could misjudge."""
    dtype = draw(st.sampled_from(_INTEGER_DTYPES + [np.float64]))
    if dtype == np.bool_:
        pool = [False, True]
    elif dtype == np.float64:
        pool = [-1.0, 0.0, 1.0, np.nan, 0.5, -0.5, 2.0, np.inf, -np.inf]
    else:
        info = np.iinfo(dtype)
        pool = [int(x) for x in (-128, -2, -1, 0, 1, 2, 255, 256, info.min, info.max)
                if info.min <= x <= info.max]
    shape = draw(st.tuples(st.integers(0, 4), st.integers(0, 5)))
    size = shape[0] * shape[1]
    ternary = [x for x in pool if x in (-1, 0, 1)]
    entries = draw(st.lists(st.sampled_from(ternary), min_size=size, max_size=size))
    salt = draw(st.lists(st.tuples(st.integers(0, max(size - 1, 0)), st.sampled_from(pool)),
                         max_size=2 if size else 0))
    for i, x in salt:
        entries[i] = x
    return np.array(entries, dtype=dtype).reshape(shape)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_ternary_check_inputs())
def test_is_ternary_matches_the_elementwise_rule(v):
    with np.errstate(invalid="ignore"):
        expected = bool(((v == 0) | (abs(v) == 1)).all())
    assert is_ternary(v) is expected


@pytest.mark.parametrize("dtype", [np.float64, np.int8, np.bool_])
def test_ternary_weights_accept_ternary(dtype):
    values = np.array([[-1, 0, 1]]) if dtype != np.bool_ else np.array([[0, 1, 1]])
    TernaryWeights(values=values.astype(dtype), alpha=1.0)


@pytest.mark.parametrize("alpha", [-0.5, -1e-300, -1.0, math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="1e400")])
def test_ternary_weights_reject_a_negative_or_non_finite_alpha(alpha):
    with pytest.raises(ValidationError, match="alpha"):
        TernaryWeights(values=np.eye(3, dtype=np.int8), alpha=alpha)


@pytest.mark.parametrize("alpha", [0.0, 5e-324, 0.5, np.float64(2.0), 3, np.float32(0.5),
                                   np.int64(3)])
def test_ternary_weights_accept_a_finite_alpha_of_at_least_zero(alpha):
    # stored as a Python float: an np.float32 alpha made save_layer fail
    stored = TernaryWeights(values=np.eye(3, dtype=np.int8), alpha=alpha).alpha
    assert type(stored) is float and stored == alpha


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), 3],
                         ids=["numpy_float32", "numpy_int64", "int"])
@pytest.mark.parametrize("site", ["alpha", "learning_rate", "flops_weight", "target_avg_bits",
                                  "fp_gflops", "flops_entry"])
def test_every_real_parameter_accepts_numpy_reals_and_stores_a_python_float(site, value):
    table = SensitivityTable([LayerSpec("a")], [1, 2, 3, 4], np.zeros((1, 4)))
    stored = {
        "alpha": lambda: TernaryWeights(values=np.eye(3, dtype=np.int8), alpha=value).alpha,
        "learning_rate": lambda: TrainConfig(learning_rate=value).learning_rate,
        "flops_weight": lambda: LayerSpec("a", flops_weight=value).flops_weight,
        "target_avg_bits": lambda: AllocationProblem(table, value).target_avg_bits,
        "fp_gflops": lambda: weighted_flops(value, 32, 32),  # passed through at W = A = 32
        "flops_entry": lambda: FlopsEntry("a", value).fp_gflops,
    }[site]()
    assert type(stored) is float and stored == value


@pytest.mark.parametrize("alpha", [True, np.True_, "0.5"], ids=["bool", "numpy_bool", "text"])
def test_ternary_weights_reject_an_alpha_that_is_not_a_real_number(alpha):
    # True built a layer whose saved "alpha": true its own loader rejected,
    # and "0.5" raised a stray TypeError
    with pytest.raises(ValidationError, match="alpha must be a finite real >= 0"):
        TernaryWeights(values=np.eye(3, dtype=np.int8), alpha=alpha)


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

def test_zero_token_degenerate():
    cb = uniform_gauss_codebook(3)
    codes, mu, sigma = token_codes(np.zeros((1, 16)), cb)
    assert sigma[0] == 0.0
    assert np.all(codes == len(cb.levels) // 2)
    np.testing.assert_array_equal(dequantize_codes(codes, cb, mu, sigma)[0], np.zeros(16))


def test_constant_token_centered_roundtrip():
    cb = lloyd_max(2)
    x = np.full((1, 8), 3.25)
    codes, mu, sigma = token_codes(x, cb, center=True)
    np.testing.assert_array_equal(dequantize_codes(codes, cb, mu, sigma, center=True), x)


def test_roundtrip_mse_near_expected():
    rng = np.random.default_rng(11)
    cb = uniform_gauss_codebook(4)
    sigma_true = 2.7
    x = rng.standard_normal(200_000) * sigma_true
    codes, mu, sigma = token_codes(x[None, :], cb, center=False)
    rec = dequantize_codes(codes, cb, mu, sigma, center=False)[0]
    mse = np.mean((x - rec) ** 2) / sigma[0]**2
    assert abs(mse - cb.expected_mse) / cb.expected_mse < 0.10


def test_scale_equivariance():
    rng = np.random.default_rng(4)
    cb = lloyd_max(3)
    x = rng.standard_normal((1, 64))
    c1, m1, s1 = token_codes(x, cb, center=False)
    for c in (0.5, 3.0, 170.0):
        c2, m2, s2 = token_codes(c * x, cb, center=False)
        assert np.array_equal(c1, c2)
        d1 = dequantize_codes(c1, cb, m1, s1, center=False)
        d2 = dequantize_codes(c2, cb, m2, s2, center=False)
        np.testing.assert_allclose(d2, c * d1, rtol=1e-12)


def test_dequantize_rejects_bad_codes():
    cb = uniform_gauss_codebook(2)
    two = np.array([[0, 3], [1, 2]])
    for codes, mu, sigma, match in [
        (np.array([[17]]), np.zeros(1), np.ones(1), "out of range"),
        (np.array([[-1]]), np.zeros(1), np.ones(1), "out of range"),
        (np.arange(4), np.zeros(4), np.ones(4), "2-D integer"),  # 1-D codes
        (two.astype(np.float64), np.zeros(2), np.ones(2), "2-D integer"),
        (two, np.zeros(1), np.ones(2), "length T = 2"),  # would broadcast
        (two, np.zeros(2), np.ones(1), "length T = 2"),
        (two, 0.0, np.ones(2), "length T = 2"),  # scalar mu
    ]:
        with pytest.raises(ValidationError, match=match):
            dequantize_codes(codes, cb, mu, sigma)


def test_vectorized_matches_per_token():
    rng = np.random.default_rng(21)
    cb = uniform_gauss_codebook(4)
    x = rng.standard_normal((40, 32))
    x[5] = -1.25  # constant row exercises the degenerate path
    deq, codes, mu, sigma = quantize_tokens(x, cb, center=True)
    for t in range(x.shape[0]):
        ct, mt, st = token_codes(x[t][None, :], cb, center=True)
        assert np.array_equal(ct[0], codes[t])
        assert (mt[0], st[0]) == (mu[t], sigma[t])
        np.testing.assert_array_equal(dequantize_codes(ct, cb, mt, st)[0], deq[t])


def test_gauss_quantize_token_rejects_overflowing_spread():
    cb = uniform_gauss_codebook(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="token 0"):
            token_codes(np.array([[1e200, -1e200, 0.0]]), cb)
        with pytest.raises(ValidationError, match="token 1"):
            quantize_tokens(np.array([[1.0, 2.0, 3.0], [1e200, -1e200, 0.0]]), cb)
        x = np.ones((50, 1500))
        x[47, 3] = np.nan  # in a later block of rows
        with pytest.raises(ValidationError, match="token 47"):
            token_codes(x, cb)
        # constant rows, which are not degenerate when their spread is not finite
        for row in ([np.inf] * 3, [-np.inf] * 3, [1.5e308] * 3):
            with pytest.raises(ValidationError, match="token 1"):
                token_codes(np.array([[1.0, 2.0, 3.0], row]), cb)


def _reference_codes(x, cb, center):
    """The row-by-row definition: std, mean and a threshold search."""
    codes = np.empty(x.shape, dtype=np.int64)
    mu, sigma = np.zeros(len(x)), np.zeros(len(x))
    for t, row in enumerate(x):
        m = row.mean() if center else 0.0
        s = row.std()
        if np.ptp(row) == 0.0 or s == 0.0:
            codes[t], mu[t] = len(cb.levels) // 2, m
            continue
        codes[t] = np.searchsorted(cb.thresholds, (row - m) / s)
        mu[t], sigma[t] = m, s
    return codes, mu, sigma


def _near_threshold_row(cb, width):
    """A row of mean 0 and population std 1 up to rounding that holds the
    thresholds nearest 0, so that its z lie within a few ulps of them."""
    t = cb.thresholds[np.argsort(np.abs(cb.thresholds), kind="stable")]
    k = min(len(t), width // 2)
    k -= 1 - k % 2  # odd: 0 and pairs +-t_i, so the row stays symmetric
    pairs = (width - k) // 2
    c = math.sqrt((width - t[:k] @ t[:k]) / (2 * pairs))
    return np.concatenate([t[:k], np.full(pairs, c), np.full(pairs, -c),
                           np.zeros(width - k - 2 * pairs)])


@pytest.mark.parametrize("shape", [(24, 40), (50, 1500)])  # one block, several blocks
@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("cb", [uniform_gauss_codebook(b) for b in (1, 2, 4, 8)]
                         + [lloyd_max(3)], ids=["u1", "u2", "u4", "u8", "lm3"])
def test_token_codes_match_rowwise_reference(cb, center, shape):
    rng = np.random.default_rng(22)
    x = rng.standard_normal(shape) * np.exp(3 * rng.standard_normal((shape[0], 1)))
    x += 50 * rng.standard_normal((shape[0], 1))
    # Constant rows are degenerate; over 1500 columns the mean of 0.3 is
    # inexact, so only the constant-row test catches that one.
    x[3] = 0.3
    x[7] = 0.0
    x[11] = _near_threshold_row(cb, shape[1])
    got = token_codes(x, cb, center=center)
    for a, b in zip(got, _reference_codes(x, cb, center)):
        np.testing.assert_array_equal(a, b)
    assert got[0].dtype == np.int64
    assert got[2][3] == got[2][7] == 0.0


# ---------------------------------------------------------------------------
# The float32 token coder
# ---------------------------------------------------------------------------

_CODEBOOKS = [uniform_gauss_codebook(b) for b in range(1, 9)]
_float32_property = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def _float32_tokens(draw):
    """Float32 token batches from subnormal to large magnitudes, with mean
    offsets, outlier channels and one constant, spike or near-constant row."""
    t = draw(st.integers(1, 8))
    c = draw(st.sampled_from([1, 2, 3, 8, 40, 96, 512, 1152]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-44, 30))
    x = rng.standard_normal((t, c)) * np.exp(rng.standard_normal((t, 1)))
    x += draw(st.sampled_from([0.0, 3.0, 1e4])) * rng.standard_normal((t, 1))
    x[:, rng.integers(c)] *= draw(st.sampled_from([1.0, 30.0, 1e6]))
    row = rng.integers(t)
    kind = draw(st.sampled_from(["plain", "constant", "spike", "near_constant"]))
    if kind == "constant":
        x[row] = x[row, 0]
    elif kind == "spike":
        x[row] = 0.0
        x[row, rng.integers(c)] = 1.0
    elif kind == "near_constant":
        x[row] = 1.0 + 1e-7 * rng.standard_normal(c)
    # the contract is for finite tokens: an outlier at the largest scale
    # can pass float32's range
    assume(np.abs(scale * x).max() <= np.finfo(np.float32).max)
    return (scale * x).astype(np.float32)


@_float32_property
@given(_float32_tokens(), st.sampled_from(_CODEBOOKS), st.booleans())
def test_float32_coder_keeps_its_contract(codes_contract, x, cb, center):
    codes, mu, sigma = token_codes(x, cb, center)
    assert codes.dtype == np.float32
    assert mu.dtype == sigma.dtype == np.float64
    codes_contract(x, cb, center, codes, mu, sigma)


def test_float32_coder_moves_few_codes_and_only_by_one_level(codes_contract):
    rng = np.random.default_rng(23)
    x = (rng.standard_normal((256, 1152)) * np.exp(rng.standard_normal((256, 1)))
         + 3.0 * rng.standard_normal((256, 1))).astype(np.float32)
    for cb in (uniform_gauss_codebook(4), uniform_gauss_codebook(8)):
        codes, mu, sigma = token_codes(x, cb)
        moved = codes_contract(x, cb, True, codes, mu, sigma)
        ref = token_codes(x.astype(np.float64), cb)[0]
        assert moved <= 1e-4 * x.size
        assert np.abs(codes - ref).max() <= 1


@_float32_property
@given(st.floats(width=32, allow_nan=False, allow_infinity=False), st.integers(1, 1200),
       st.sampled_from(_CODEBOOKS), st.booleans())
def test_float32_constant_token_is_degenerate(value, c, cb, center):
    x = np.random.default_rng(c).standard_normal((3, c)).astype(np.float32)
    x[1] = value
    codes, mu, sigma = token_codes(x, cb, center)
    assert sigma[1] == 0.0 and (codes[1] == len(cb.levels) // 2).all()
    if center:
        assert abs(mu[1] - value) <= c * np.finfo(np.float32).eps * abs(value)
    else:
        assert mu[1] == 0.0


def test_float32_lloyd_max_input_takes_the_float64_reference():
    # The float32 coder is for the uniform grid only: a Lloyd-Max codebook
    # codes a float32 input exactly as its float64 image.
    rng = np.random.default_rng(26)
    x = (rng.standard_normal((300, 1152)) * np.exp(rng.standard_normal((300, 1)))
         + 3.0 * rng.standard_normal((300, 1))).astype(np.float32)
    for center in (True, False):
        got = token_codes(x, lloyd_max(3), center)
        ref = token_codes(x.astype(np.float64), lloyd_max(3), center)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_float32_coder_rejects_a_non_finite_token(bad):
    cb = uniform_gauss_codebook(4)
    x = np.ones((300, 1152), dtype=np.float32)
    x[250, 3] = bad  # in a later block of rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="token 250"):
            token_codes(x, cb)
        x[250] = bad  # a constant row
        with pytest.raises(ValidationError, match="token 250"):
            token_codes(x, cb)


@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("cb", [uniform_gauss_codebook(4), lloyd_max(3)], ids=["u4", "lm3"])
def test_float32_coder_codes_rows_near_the_float32_range(cb, center):
    # The float32 sums of the near-range rows overflow, their squares
    # underflow, or their sigma lies above 2^63; they take the float64
    # reference's codes, mu and sigma. The ordinary rows between them keep
    # the float32 coder's own codes.
    big = np.float32(3e38)
    near = [[big, big, -big, 0.0], [big, big, big, big], [1e-40, -1e-40, 2e-40, 0.0],
            [3e19, -3e19, 1e19, 0.0]]
    ordinary = [[1.0, 2.0, 3.0, 4.0], [-1.0, 0.5, 2.0, 7.0], [1e3, 1e3 + 1.0, 999.0, 1e3],
                [0.25, -3.0, 0.0, 0.125]]
    x = np.array([row for pair in zip(near, ordinary) for row in pair], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = token_codes(x, cb, center)
        ref = token_codes(x[0::2].astype(np.float64), cb, center)
        own = token_codes(x[1::2], cb, center)
    assert got[0].dtype == (np.float32 if cb.is_uniform else np.int64)
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a[0::2], b)
    for a, b in zip(got, own):
        np.testing.assert_array_equal(a[1::2], b, strict=True)


def test_float32_coder_forms_no_int64_code_array():
    import tracemalloc

    from robuq.quant import _BLOCK_ENTRIES32

    x = np.random.default_rng(24).standard_normal((256, 4096)).astype(np.float32)
    cb = uniform_gauss_codebook(4)
    token_codes(x, cb)
    tracemalloc.start()
    try:
        codes, mu, sigma = token_codes(x, cb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.dtype == np.float32
    transient = peak - codes.nbytes - mu.nbytes - sigma.nbytes
    # the squares of one block of rows and row-sized vectors, far below the
    # 8 MiB of an int64 code array
    assert transient <= 4 * _BLOCK_ENTRIES32 + 64 * 1024
    assert transient < 8 * x.size // 10


def test_quantize_tokens_on_float32_dequantizes_the_float32_codes():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((20, 96)).astype(np.float32)
    for cb in (uniform_gauss_codebook(3), lloyd_max(3)):
        deq, codes, mu, sigma = quantize_tokens(x, cb)
        np.testing.assert_array_equal(codes, token_codes(x, cb)[0])
        np.testing.assert_array_equal(
            deq, dequantize_codes(codes.astype(np.int64), cb, mu, sigma))


def test_middle_codes_dequantize_to_middle_level():
    cb = lloyd_max(3)
    codes = np.full((1, 5), 4)
    out = dequantize_codes(codes, cb, np.zeros(1), np.ones(1), center=False)[0]
    np.testing.assert_array_equal(out, np.full(5, cb.levels[4]))


# ---------------------------------------------------------------------------
# Codebook validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [lloyd_max, uniform_gauss_codebook])
def test_solvers_reject_non_integer_bits(maker):
    # bits=True would make a codebook whose layer.json holds "bits": true,
    # which load_layer rejects
    for bits in (2.5, True):
        with pytest.raises(ValidationError):
            maker(bits)


@pytest.mark.parametrize("bits", [0, 9, -1])
def test_codebook_rejects_bits_out_of_range(bits):
    with pytest.raises(ValidationError):
        GaussCodebook(bits, True)


def test_codebook_is_its_width_and_family():
    cb = GaussCodebook(4, True)
    assert cb == uniform_gauss_codebook(4)
    assert hash(cb) == hash(uniform_gauss_codebook(4))
    assert cb != GaussCodebook(4, False)
    assert len({cb, uniform_gauss_codebook(4), lloyd_max(4)}) == 2
    with pytest.raises(ValidationError, match="is_uniform"):
        GaussCodebook(4, 1)


def test_factories_share_one_read_only_codebook_per_width():
    cb = uniform_gauss_codebook(4)
    assert uniform_gauss_codebook(np.int64(4)) is cb
    assert type(cb.bits) is int
    for arr in (cb.levels, cb.thresholds):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("bits", range(1, 9))
def test_uniform_codebooks_are_grids(bits):
    cb = uniform_gauss_codebook(bits)
    c = np.arange(1 << bits) - ((1 << bits) - 1) / 2
    assert np.max(np.abs(cb.levels - cb.step * c)) <= 4 * np.spacing(cb.levels[-1])
