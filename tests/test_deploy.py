import json
from dataclasses import asdict, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robuq.deploy import (
    FlopsConfig,
    FlopsEntry,
    PackedTernary,
    load_packed,
    model_flops,
    pack_ternary,
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


def _pack_by_matmul(values) -> bytes:
    """Five base-3 digits per byte as one integer matmul by their powers."""
    digits = (np.asarray(values).ravel() + 1).astype(np.uint8)
    digits = np.concatenate([digits, np.ones(-digits.size % 5, dtype=np.uint8)])
    return (digits.reshape(-1, 5) @ np.array([1, 3, 9, 27, 81], dtype=np.uint8)).tobytes()


@pytest.mark.parametrize("shape", [(n,) for n in range(12)] + [(4608, 1152)],
                         ids=[f"count_{n}" for n in range(12)] + ["4608x1152"])
def test_pack_matches_the_base3_matmul_formula(shape):
    values = np.random.default_rng(64).integers(-1, 2, size=shape).astype(np.int8)
    p = pack_ternary(values)
    assert p.data == _pack_by_matmul(values)
    np.testing.assert_array_equal(unpack_ternary(p), values.ravel(), strict=True)


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
    for values in ([0, 2, 1], [0.5, 0, 1], [np.nan, 1, -1], [256, 0, 0], [[1], [0, 1]]):
        with pytest.raises(ValidationError):
            pack_ternary(values)


def test_unpack_rejects_bad_byte():
    # an in-memory value: only a file's reader turns this into FormatError
    with pytest.raises(ValidationError, match="byte value 243 exceeds 242"):
        unpack_ternary(PackedTernary(data=bytes([243]), count=5))


def test_packed_ternary_rejects_a_negative_count():
    with pytest.raises(ValidationError):
        PackedTernary(data=b"", count=-1)


@pytest.mark.parametrize("count", [1.5, True, np.float64(5.0), "5"],
                         ids=["fraction", "bool", "numpy_float", "text"])
def test_packed_ternary_rejects_a_count_that_is_not_an_integer(count):
    # 1.5 built, and unpacking it raised a stray TypeError
    with pytest.raises(ValidationError, match="count must be an integer >= 0"):
        PackedTernary(data=b"\x79", count=count)


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


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1, 0, 1]), max_size=60))
def test_property_packed_file_roundtrip(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("packed") / "w.rbqp"
    save_packed(pack_ternary(np.array(values, dtype=np.int8)), path)
    back = unpack_ternary(load_packed(path))
    assert back.dtype == np.int8
    np.testing.assert_array_equal(back, np.array(values, dtype=np.int8))


def test_every_truncation_of_a_packed_file_is_format_error(tmp_path):
    v = np.random.default_rng(2).integers(-1, 2, size=23).astype(np.int8)
    path = tmp_path / "w.rbqp"
    save_packed(pack_ternary(v), path)
    raw = path.read_bytes()
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(FormatError):
            unpack_ternary(load_packed(path))


@pytest.mark.parametrize("byte", [243, 250, 255])
def test_packed_file_bad_byte_is_format_error_naming_the_file(tmp_path, byte):
    path = tmp_path / "w.rbqp"
    save_packed(pack_ternary(np.zeros(10, dtype=np.int8)), path)
    raw = bytearray(path.read_bytes())
    raw[-1] = byte
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"w.rbqp: byte value {byte} exceeds 242"):
        load_packed(path)


def test_packed_file_bad_magic(tmp_path):
    path = tmp_path / "bad.rbqp"
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_packed(path)


def test_compression_ratio():
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


@pytest.mark.parametrize("fp_gflops", [True, "1", np.nan, -1.0,
                                       pytest.param(10**400, id="1e400")])
def test_weighted_flops_rejects_a_bad_fp_gflops(fp_gflops):
    # True was taken as 1 GFLOP
    with pytest.raises(ValidationError, match="fp_gflops must be a finite real >= 0"):
        weighted_flops(fp_gflops, "ternary", 4)


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


def _fixture_text() -> str:
    return resources.files("robuq.fixtures").joinpath("dit_xl2_flops.json").read_text()


def _fixture_config() -> FlopsConfig:
    return FlopsConfig.from_json(_fixture_text())


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
    cfg2 = FlopsConfig([replace(e, a_bits=2) if e.name == "weight_act_matmul" else e
                        for e in cfg4.entries])
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
    # Every field of the fixture comes back with its JSON value and type.
    cfg = _fixture_config()
    assert [asdict(e) for e in cfg.entries] == json.loads(_fixture_text())["entries"]
    assert [type(e.fp_gflops) for e in cfg.entries] == [float] * len(cfg.entries)


def test_config_missing_widths_are_full_precision():
    cfg = FlopsConfig.from_json('{"entries": [{"name": "x", "fp_gflops": 2}]}')
    assert (cfg.entries[0].w_bits, cfg.entries[0].a_bits) == (32, 32)
    assert model_flops(cfg)["total_gflops"] == 2.0


def _entry(**fields) -> str:
    return json.dumps({"entries": [{"name": "x", "fp_gflops": 1.0, "w_bits": "ternary",
                                    "a_bits": 4, **fields}]})


@pytest.mark.parametrize(
    "text",
    ['{"entries": [{"fp_gflops": 1}]}', "[1]",
     '{"entries": [{"name": "x", "fp_gflops": 1, "a_bits": [4]}]}',
     _entry(a_bits=4.7), _entry(a_bits=True), _entry(a_bits="4"),
     _entry(fp_gflops=float("nan")), _entry(fp_gflops=float("inf")), _entry(fp_gflops=True),
     _entry(fp_gflops=-1), _entry(fp_gflops=10**400, w_bits=32, a_bits=32),
     _entry(name=5), _entry(w_bits=4.0), _entry(w_bits="binary")],
    ids=["missing_name", "not_an_object", "list_a_bits",
         "a_bits_fraction", "a_bits_true", "a_bits_text",
         "fp_gflops_nan", "fp_gflops_infinity", "fp_gflops_true", "fp_gflops_negative",
         "fp_gflops_beyond_float", "name_number", "w_bits_float", "w_bits_unknown_text"],
)
def test_malformed_config_is_format_error(text):
    with pytest.raises(FormatError):
        FlopsConfig.from_json(text)
