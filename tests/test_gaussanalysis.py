import json
from dataclasses import asdict

import numpy as np
import pytest

from robuq import cli
from robuq.errors import ValidationError
from robuq.gaussanalysis import (
    build_report,
    kl_tv_product_gaussian,
    mse_preservation,
    nmi_channels,
    normality,
    offdiag_cov_bound,
    variance_identity,
)
from robuq.hadamard import HadamardPlan, hadamard_matrix
from robuq.quant import quantize_tokens, uniform_gauss_codebook
from robuq.tensorio import save_matrix


# ---------------------------------------------------------------------------
# variance_identity
# ---------------------------------------------------------------------------

def test_variance_identity_iid_normal():
    rng = np.random.default_rng(0)
    t = 20000
    x = rng.standard_normal((t, 64))
    per_coord, sigma_t2 = variance_identity(x)
    tol = 5 * np.sqrt(2.0 / t)
    assert np.abs(per_coord - 1.0).max() < tol
    assert abs(sigma_t2 - 1.0) < tol


def test_variance_identity_heterogeneous_c2():
    rng = np.random.default_rng(1)
    t = 200000
    x = rng.standard_normal((t, 2)) * np.array([1.0, np.sqrt(3.0)])
    per_coord, sigma_t2 = variance_identity(x)
    # Expectation is exactly 2 for both transformed coordinates.
    assert np.abs(per_coord - 2.0).max() < 5 * 2.0 * np.sqrt(2.0 / t)
    assert abs(sigma_t2 - 2.0) < 0.05


def test_variance_identity_constant_input():
    x = np.full((100, 8), 3.0)
    per_coord, sigma_t2 = variance_identity(x)
    assert per_coord.max() < 1e-20  # rounding dust only
    assert sigma_t2 == 0.0


def test_variance_identity_needs_two_tokens():
    with pytest.raises(ValidationError):
        variance_identity(np.ones((1, 8)))


def test_variance_spread_shrinks_for_heterogeneous_channels():
    rng = np.random.default_rng(19)
    stds = np.linspace(0.2, 3.0, 64)
    x = rng.standard_normal((20000, 64)) * stds
    per_coord, _ = variance_identity(x)
    pre_spread = np.ptp(x.var(axis=0))
    post_spread = np.ptp(per_coord)
    assert post_spread < pre_spread / 4


# ---------------------------------------------------------------------------
# offdiag_cov_bound
# ---------------------------------------------------------------------------

def test_offdiag_equal_variance_bound_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20000, 16))
    x /= x.std(axis=0)  # exactly equal sample variances -> delta == 0
    max_off, bound = offdiag_cov_bound(x)
    assert bound < 1e-12
    assert max_off < 5 / np.sqrt(x.shape[0])  # sample noise only


def test_offdiag_single_hot_channel_exact():
    # One active channel of variance 4: every off-diagonal equals
    # sign(H_c0 H_c'0) * 4 / C = +1 for the all-plus first column.
    rng = np.random.default_rng(3)
    t = 200000
    x = np.zeros((t, 4))
    x[:, 0] = 2.0 * rng.standard_normal(t)
    max_off, bound = offdiag_cov_bound(x)
    assert abs(max_off - 1.0) < 0.05
    delta = np.array([3.0, -1.0, -1.0, -1.0])
    np.testing.assert_allclose(bound, np.linalg.norm(delta) / 2.0, rtol=0.05)


def test_offdiag_bound_scaling_in_c():
    # Fixed per-channel deviation pattern; the bound scales as ||delta||_2/sqrt(C).
    rng = np.random.default_rng(4)
    bounds = {}
    for c in (16, 64, 256):
        scales = np.ones(c)
        scales[: c // 2] = np.sqrt(2.0)  # half the channels at variance 2
        x = rng.standard_normal((4000, c)) * scales
        _, bound = offdiag_cov_bound(x)
        bounds[c] = bound
    # ||delta||_2 = 0.5*sqrt(C) -> bound = 0.5 independent of C here; check the formula directly
    for c, bound in bounds.items():
        assert abs(bound - 0.5) < 0.05


def test_offdiag_bound_uses_the_block_at_a_block_diagonal_width():
    # C = 96 mixes blocks of 32. Channels 32-47 at variance 9 make the middle
    # block's deviations +-4 from its mean 5, so the bound is 4 * sqrt(32) /
    # sqrt(32) = 4, and the coordinate pair whose sign product is sixteen
    # +1 then sixteen -1 reaches it.
    rng = np.random.default_rng(23)
    x = rng.standard_normal((20000, 96))
    x[:, 32:48] *= 3.0
    max_off, bound = offdiag_cov_bound(x)
    np.testing.assert_allclose(bound, 4.0, rtol=0.05)
    np.testing.assert_allclose(max_off, bound, rtol=0.05)


# ---------------------------------------------------------------------------
# normality
# ---------------------------------------------------------------------------

def test_normality_gaussian_input():
    rng = np.random.default_rng(5)
    ks, be = normality(rng.standard_normal((10000, 256)))
    assert ks < 0.02
    assert be > 0


def test_normality_uniform_channels():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, size=(10000, 256))
    ks, be = normality(x)
    assert ks < be
    assert ks < 0.05


def test_normality_bimodal_rate():
    rng = np.random.default_rng(7)
    ks_values = []
    for c in (16, 64, 256, 1024):
        x = rng.choice([-1.0, 1.0], size=(4096, c))
        ks, be = normality(x)
        assert ks < be
        ks_values.append(ks)
    assert all(a > b for a, b in zip(ks_values, ks_values[1:]))


@pytest.mark.parametrize("c", [96, 1152])
def test_normality_bound_counts_the_block_at_a_block_diagonal_width(c):
    # a transformed coordinate sums b = 32 or 128 channels, not C
    x = np.random.default_rng(4).choice([-1.0, 1.0], size=(4096, c))
    ks, be = normality(x)
    assert ks < be, f"C={c}: KS {ks:.4f} above the computed bound {be:.4f}"


def test_normality_single_token_mode():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((64, 1024))
    ks_all, _ = normality(x)
    ks_one, _ = normality(x, token=3)
    assert ks_one >= ks_all  # one token has far fewer pooled samples


def test_be_bound_c_scaling_exact():
    # Same channel law at two widths: the bound halves when C quadruples.
    rng = np.random.default_rng(9)
    x1 = rng.choice([-1.0, 1.0], size=(5000, 64))
    x2 = rng.choice([-1.0, 1.0], size=(5000, 256))
    _, be1 = normality(x1)
    _, be2 = normality(x2)
    np.testing.assert_allclose(be1 / be2, 2.0, rtol=0.01)


# ---------------------------------------------------------------------------
# kl_tv_product_gaussian
# ---------------------------------------------------------------------------

def test_kl_product_case_zero():
    kl, kla, tv = kl_tv_product_gaussian(2.5 * np.eye(4), 2.5)
    assert kl == kla == tv == 0.0


def test_kl_2x2_closed_form():
    for e, s2 in [(0.1, 1.0), (0.3, 2.0), (-0.25, 0.5)]:
        sigma = np.array([[s2, e], [e, s2]])
        kl, kla, tv = kl_tv_product_gaussian(sigma, s2)
        expected = -0.5 * np.log(1 - e**2 / s2**2)
        np.testing.assert_allclose(kl, expected, rtol=1e-12)
        np.testing.assert_allclose(kla, 0.5 * e**2 / s2**2, rtol=1e-12)
        np.testing.assert_allclose(tv, np.sqrt(kl / 2), rtol=1e-12)
        # Second-order expansion agrees to O(e^3).
        assert abs(kl - kla) < 2.0 * (e**2 / s2**2) ** 1.5


def test_kl_third_order_remainder():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        m = 6
        e = rng.standard_normal((m, m)) * 0.02
        e = 0.5 * (e + e.T)
        np.fill_diagonal(e, 0.0)
        sigma = np.eye(m) + e
        kl, kla, _ = kl_tv_product_gaussian(sigma, 1.0)
        fro = np.linalg.norm(e)
        worst = max(worst, abs(kl - kla) / fro**3)
    assert worst < 0.5  # remainder is cubic with a modest constant


def test_tv_bound_sign_cases():
    # Zero for any diagonal covariance (diagonal deviations are excluded from
    # the zero-diagonal decomposition and reported separately), positive as
    # soon as an off-diagonal appears.
    diag = np.diag([1.3, 0.8, 1.1])
    kl, _, tv = kl_tv_product_gaussian(diag, 1.0)
    assert kl == 0.0 and tv == 0.0
    off = diag.copy()
    off[0, 1] = off[1, 0] = 0.05
    kl, _, tv = kl_tv_product_gaussian(off, 1.0)
    assert kl > 0.0 and tv > 0.0


def test_kl_rejects_bad_input():
    with pytest.raises(ValidationError):
        kl_tv_product_gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)  # not PD
    with pytest.raises(ValidationError):
        kl_tv_product_gaussian(np.array([[1.0, 0.1], [0.2, 1.0]]), 1.0)  # asymmetric


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_kl_rejects_non_finite_covariance_before_symmetry(bad):
    with pytest.raises(ValidationError, match="NaN or Inf"):
        kl_tv_product_gaussian(np.array([[1.0, bad], [bad, 1.0]]), 1.0)


@pytest.mark.parametrize("sigma_t2", [np.nan, np.inf, True, "1", 0.0, -1.0],
                         ids=["nan", "inf", "bool", "text", "zero", "negative"])
def test_kl_rejects_a_sigma_t2_that_is_not_a_finite_real_above_zero(sigma_t2):
    # NaN returned (0.0, nan, 0.0) with a RuntimeWarning, Inf returned zeros
    with pytest.raises(ValidationError, match="sigma_t2 must be a finite real > 0"):
        kl_tv_product_gaussian(np.eye(3), sigma_t2)


# ---------------------------------------------------------------------------
# nmi_channels
# ---------------------------------------------------------------------------

def test_nmi_independent_channels():
    rng = np.random.default_rng(11)
    assert nmi_channels(rng.standard_normal((10000, 16)), bins=16) < 0.05


def test_nmi_duplicated_pair():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(10000)
    x = np.column_stack([a, a])
    assert nmi_channels(x, bins=16) > 0.95


def test_nmi_shuffle_control():
    rng = np.random.default_rng(13)
    a = rng.standard_normal(10000)
    coupled = np.column_stack([a, a + 0.1 * rng.standard_normal(10000)])
    coupled_nmi = nmi_channels(coupled, bins=16)
    shuffled = coupled.copy()
    for j in range(shuffled.shape[1]):
        rng.shuffle(shuffled[:, j])
    indep = rng.standard_normal((10000, 2))
    baseline = nmi_channels(indep, bins=16)
    shuffled_nmi = nmi_channels(shuffled, bins=16)
    assert coupled_nmi > 10 * shuffled_nmi
    assert abs(shuffled_nmi - baseline) < 0.02


def test_nmi_needs_enough_tokens():
    with pytest.raises(ValidationError):
        nmi_channels(np.ones((100, 4)), bins=16)


@pytest.mark.parametrize("bins", [1, 16.0, True], ids=["one", "float", "bool"])
def test_nmi_rejects_bins_that_are_not_an_integer_from_2(bins):
    with pytest.raises(ValidationError, match="bins must be an integer >= 2"):
        nmi_channels(np.random.default_rng(0).standard_normal((200, 4)), bins=bins)


@pytest.mark.parametrize("token", [300, -1, 1.5, True], ids=["past_end", "negative", "float", "bool"])
def test_normality_rejects_a_token_outside_the_batch(token):
    # 300 and 1.5 raised IndexError, -1 read the last token and True the
    # whole batch
    x = np.random.default_rng(0).standard_normal((300, 8))
    with pytest.raises(ValidationError, match=r"token must be an integer in 0\.\.299"):
        normality(x, token=token)
    assert normality(x, token=np.int64(299)) == normality(x, token=299)


@pytest.mark.parametrize("seed", [1.5, -1, True], ids=["float", "negative", "bool"])
@pytest.mark.parametrize("analysis", [offdiag_cov_bound, nmi_channels, build_report],
                         ids=["offdiag_cov_bound", "nmi_channels", "build_report"])
def test_seeded_analyses_reject_a_seed_that_is_not_an_integer_from_0(analysis, seed):
    # at 160 channels both subsamples draw pairs: 1.5 raised TypeError and -1
    # numpy's ValueError
    x = np.random.default_rng(0).standard_normal((200, 160))
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        analysis(x, seed=seed)


# ---------------------------------------------------------------------------
# mse_preservation
# ---------------------------------------------------------------------------

def test_mse_preservation_identity_quantizer():
    rng = np.random.default_rng(14)
    d, t = mse_preservation(rng.standard_normal((100, 32)), lambda y: y)
    assert t == 0.0
    assert d < 1e-25  # inverse transform reintroduces rounding dust only


def test_mse_preservation_gauss_codebook():
    rng = np.random.default_rng(15)
    cb = uniform_gauss_codebook(4)
    x = rng.standard_normal((500, 64)) * 2.0
    d, t = mse_preservation(x, lambda y: quantize_tokens(y, cb)[0])
    assert abs(d - t) / d < 1e-6


def test_mse_preservation_adversarial_quantizer():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((200, 32))

    def zero_half(y):
        out = y.copy()
        out[:, ::2] = 0.0
        return out

    d, t = mse_preservation(x, zero_half)
    assert d > 0
    assert abs(d - t) / d < 1e-6


def test_mse_preservation_nonpow2_dim():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((64, 48))  # block-diagonal path
    d, t = mse_preservation(x, lambda y: np.round(y))
    assert abs(d - t) / max(d, 1e-30) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mse_preservation_rejects_a_non_finite_quantizer_output(bad):
    x = np.random.default_rng(19).standard_normal((50, 16))
    with pytest.raises(ValidationError, match="quantizer output contains NaN or Inf"):
        mse_preservation(x, lambda y: y * bad)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_build_report_roundtrips_to_json(tmp_path):
    rng = np.random.default_rng(18)
    # float32 values, so the matrix file holds exactly the analysed batch
    x = rng.standard_normal((2000, 32)).astype(np.float32).astype(np.float64)
    report, meta = build_report(x, bins=16, seed=7)
    assert meta == {"T": 2000, "C": 32, "seed": 7, "bins": 16, "K_BE": 0.56}
    assert report.tv_bound >= 0.0
    assert len(report.per_coord_var) == 32
    src, out = tmp_path / "x.rbq", tmp_path / "gauss.json"
    save_matrix(x, src)
    assert cli.main(["gauss-report", "--activations", str(src), "--bins", "16", "--seed", "7",
                     "--out", str(out)]) == 0
    payload = {"meta": meta, **asdict(report)}
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert json.loads(out.read_text()) == payload


# ---------------------------------------------------------------------------
# non-finite activations
# ---------------------------------------------------------------------------

def _mse_preservation(x):
    return mse_preservation(x, lambda y: quantize_tokens(y, uniform_gauss_codebook(4))[0])


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("analysis", [
    variance_identity,
    offdiag_cov_bound,
    normality,
    nmi_channels,
    _mse_preservation,
    build_report,
], ids=["variance_identity", "offdiag_cov_bound", "normality", "nmi_channels",
        "mse_preservation", "build_report"])
def test_every_analysis_rejects_a_non_finite_activation(analysis, bad):
    x = np.random.default_rng(0).standard_normal((300, 8))
    x[5, 3] = bad
    with pytest.raises(ValidationError, match="NaN or Inf"):
        analysis(x)
