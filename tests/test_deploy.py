import json
from importlib import resources

import numpy as np
import pytest

from robuq.deploy import (
    FlopsConfig,
    FlopsEntry,
    PackedTernary,
    load_packed,
    model_flops,
    pack_ternary,
    packed_compression_ratio,
    save_packed,
    unpack_ternary,
    weighted_flops,
)
from robuq.errors import FormatError, ValidationError


def test_pack_all_zero_group():
    assert pack_ternary([0, 0, 0, 0, 0]).data == bytes([121])  # 1+3+9+27+81


def test_pack_extreme_digits():
    assert pack_ternary([-1] * 5).data == bytes([0])
    assert pack_ternary([1] * 5).data == bytes([242])


def test_pack_digit_order_little_endian():
    # First value is the least-significant base-3 digit.
    assert pack_ternary([1, -1, -1, -1, -1]).data == bytes([2])
    assert pack_ternary([-1, -1, -1, -1, 1]).data == bytes([162])  # 2*81


def test_pack_roundtrip_random():
    rng = np.random.default_rng(0)
    v = rng.integers(-1, 2, size=1000).astype(np.int8)
    p = pack_ternary(v)
    assert len(p.data) == 200
    np.testing.assert_array_equal(unpack_ternary(p), v)


def test_pack_padding_truncated_on_unpack():
    p = pack_ternary([1, 0, -1])
    assert p.count == 3
    assert len(p.data) == 1
    np.testing.assert_array_equal(unpack_ternary(p), [1, 0, -1])


def test_pack_bijection_all_bytes():
    for byte in range(243):
        vals = unpack_ternary(PackedTernary(data=bytes([byte]), count=5))
        assert pack_ternary(vals).data == bytes([byte])


def test_pack_rejects_nonternary():
    for values in ([0, 2, 1], [0.5, 0, 1], [np.nan, 1, -1], [256, 0, 0]):
        with pytest.raises(ValidationError):
            pack_ternary(values)


def test_unpack_rejects_bad_byte():
    with pytest.raises(FormatError):
        unpack_ternary(PackedTernary(data=bytes([243]), count=5))


def test_packed_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    v = rng.integers(-1, 2, size=333).astype(np.int8)
    p = pack_ternary(v)
    path = tmp_path / "w.rbqp"
    save_packed(p, path)
    raw = path.read_bytes()
    assert raw[:4] == b"RBQP"
    assert len(raw) == 12 + len(p.data)
    back = load_packed(path)
    assert back.count == 333
    np.testing.assert_array_equal(unpack_ternary(back), v)


def test_packed_file_bad_magic(tmp_path):
    path = tmp_path / "bad.rbqp"
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_packed(path)


def test_compression_ratio():
    assert packed_compression_ratio() == 20.0
    p = pack_ternary(np.zeros(1000, dtype=np.int8))
    assert 1000 / len(p.data) == 5.0  # five weights per byte


# ---------------------------------------------------------------------------
# Weighted FLOPs
# ---------------------------------------------------------------------------

def test_ternary_a4_is_one_eighth():
    np.testing.assert_allclose(weighted_flops(114.52, "ternary", 4), 114.52 / 8)


def test_ternary_a32_passthrough():
    assert weighted_flops(7.0, "ternary", 32) == 7.0


def test_weight_act_row_from_fp():
    np.testing.assert_allclose(weighted_flops(6.9213 * 8, "ternary", 4), 6.9213)


def test_symmetric_classes():
    np.testing.assert_allclose(weighted_flops(2.0266, 8, 8), 1.0133)
    assert weighted_flops(5.0, 32, 32) == 5.0


def test_unsupported_combination():
    with pytest.raises(ValidationError):
        weighted_flops(1.0, 32, 8)
    with pytest.raises(ValidationError):
        weighted_flops(1.0, 3, 4)
    with pytest.raises(ValidationError):
        weighted_flops(1.0, "ternary", 16)


def test_linearity_in_fp_and_bits():
    base = weighted_flops(10.0, "ternary", 2)
    assert weighted_flops(20.0, "ternary", 2) == 2 * base
    assert weighted_flops(10.0, "ternary", 4) == 2 * base


def _fixture_config() -> FlopsConfig:
    text = resources.files("robuq.fixtures").joinpath("dit_xl2_flops.json").read_text()
    return FlopsConfig.from_json(text)


def test_fixture_reproduces_quoted_classes():
    result = model_flops(_fixture_config())
    quoted = {
        "embedding": 0.0016,
        "low_rank_branch": 2.0312,
        "act_act_matmul": 1.0133,
        "weight_act_matmul": 6.9213,
        "final_layer": 0.1268,
    }
    for name, value in quoted.items():
        np.testing.assert_allclose(result["classes"][name], value, rtol=1e-12)
    np.testing.assert_allclose(result["total_gflops"], sum(quoted.values()), rtol=1e-12)


def test_all_fp_config_sums_plainly():
    cfg = FlopsConfig(entries=[FlopsEntry("a", 1.5), FlopsEntry("b", 2.5)])
    assert model_flops(cfg)["total_gflops"] == 4.0


def test_halving_activation_bits_halves_only_that_class():
    cfg4 = _fixture_config()
    cfg2 = FlopsConfig.from_json(cfg4.to_json())
    for e in cfg2.entries:
        if e.name == "weight_act_matmul":
            e.a_bits = 2
    r4, r2 = model_flops(cfg4), model_flops(cfg2)
    np.testing.assert_allclose(
        r2["classes"]["weight_act_matmul"], r4["classes"]["weight_act_matmul"] / 2
    )
    for name in r4["classes"]:
        if name != "weight_act_matmul":
            assert r2["classes"][name] == r4["classes"][name]


def test_total_permutation_invariant():
    cfg = _fixture_config()
    reversed_cfg = FlopsConfig(entries=list(reversed(cfg.entries)))
    assert model_flops(cfg)["total_gflops"] == model_flops(reversed_cfg)["total_gflops"]


def test_config_json_roundtrip():
    cfg = _fixture_config()
    back = FlopsConfig.from_json(cfg.to_json())
    assert [e.name for e in back.entries] == [e.name for e in cfg.entries]
    assert model_flops(back) == model_flops(cfg)
    payload = json.loads(cfg.to_json())
    assert {e["name"] for e in payload["entries"]} == {e.name for e in cfg.entries}
