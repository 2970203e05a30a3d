import numpy as np
import pytest

from robuq.deploy import load_packed
from robuq.errors import FormatError, ValidationError
from robuq.tensorio import (
    LayerSpec,
    SensitivityTable,
    _decimal,
    _real,
    load_matrix,
    load_sensitivity,
    save_matrix,
    save_sensitivity,
)


def test_zero_matrix_file_layout(tmp_path):
    path = tmp_path / "z.rbq"
    save_matrix(np.zeros((1, 1), dtype=np.float32), path)
    raw = path.read_bytes()
    assert len(raw) == 16
    assert raw[:4] == b"RBQ1"
    assert raw[12:] == b"\x00\x00\x00\x00"


def test_identity_roundtrip(tmp_path):
    path = tmp_path / "i.rbq"
    eye = np.eye(2, dtype=np.float32)
    save_matrix(eye, path)
    back = load_matrix(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, eye)


@pytest.mark.parametrize("shape", [(64, 64), (3, 5), (1, 7)])
def test_random_roundtrip_bitwise(tmp_path, shape):
    rng = np.random.default_rng(42)
    m = rng.standard_normal(shape).astype(np.float32)
    path = tmp_path / "m.rbq"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.tobytes() == m.tobytes()


def test_file_size_formula(tmp_path):
    rng = np.random.default_rng(0)
    for rows, cols in [(2, 3), (10, 1), (7, 13)]:
        path = tmp_path / f"{rows}x{cols}.rbq"
        save_matrix(rng.standard_normal((rows, cols)).astype(np.float32), path)
        assert path.stat().st_size == 12 + 4 * rows * cols


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rbq"
    path.write_bytes(b"XXXX" + b"\x01\x00\x00\x00" * 2 + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        load_matrix(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.rbq"
    save_matrix(np.ones((2, 2), dtype=np.float32), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_matrix(path)


def test_nan_rejected_on_load(tmp_path):
    path = tmp_path / "nan.rbq"
    m = np.ones((2, 2), dtype=np.float32)
    save_matrix(m, path)
    raw = bytearray(path.read_bytes())
    raw[12:16] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"nan\.rbq: matrix contains NaN or Inf"):
        load_matrix(path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "neg_inf"])
def test_infinite_payload_is_format_error_naming_the_file(tmp_path, bad):
    # an Inf payload, like a NaN one, was a ValidationError, the type for
    # in-memory values
    path = tmp_path / "m.rbq"
    save_matrix(np.ones((3, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([bad], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"m\.rbq: matrix contains NaN or Inf \(reading RBQ1"):
        load_matrix(path)


@pytest.mark.parametrize("load", [load_matrix, load_packed, load_sensitivity],
                         ids=["matrix", "packed", "sensitivity"])
def test_a_file_that_cannot_be_opened_is_os_error(tmp_path, load):
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "absent")
    with pytest.raises(IsADirectoryError):
        load(tmp_path)


def test_save_rejects_nonfinite_and_bad_shape(tmp_path):
    with pytest.raises(ValidationError):
        save_matrix(np.array([[np.inf]]), tmp_path / "x.rbq")
    with pytest.raises(ValidationError):
        save_matrix(np.ones(3), tmp_path / "x.rbq")


def _small_table():
    return SensitivityTable(
        layers=[LayerSpec("l0", flops_weight=1.0), LayerSpec("l1", flops_weight=1.334, fixed_bits=8)],
        bits=[1, 2],
        delta_loss=np.array([[0.5, 0.1], [0.25, 0.05]]),
    )


def test_sensitivity_minimal(tmp_path):
    table = SensitivityTable([LayerSpec("only")], [1, 2], np.array([[0.5, 0.1]]))
    path = tmp_path / "s.csv"
    save_sensitivity(table, path)
    back = load_sensitivity(path)
    assert back.delta_loss.shape == (1, 2)
    assert back.delta_loss[0, back.bits.index(1)] == 0.5
    assert back.delta_loss[0, back.bits.index(2)] == 0.1


def test_sensitivity_roundtrip(tmp_path):
    table = _small_table()
    path = tmp_path / "s.csv"
    save_sensitivity(table, path)
    back = load_sensitivity(path)
    assert [l.name for l in back.layers] == ["l0", "l1"]
    assert back.layers[1].fixed_bits == 8
    assert back.layers[1].flops_weight == 1.334
    assert back.bits == [1, 2]
    assert np.array_equal(back.delta_loss, table.delta_loss)


def test_sensitivity_missing_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("layer,flops_weight,fixed_bits,dL@1,dL@2\nfc0,1.0,,0.5,\n")
    with pytest.raises(FormatError, match=r"fc0.*dL@2"):
        load_sensitivity(path)


@pytest.mark.parametrize(
    "text,match",
    [
        ("layer,flops_weight,fixed_bits,dL@x\nfc0,1.0,,0.5\n", r"bad\.csv.*'dL@x'"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,heavy,,0.5\n", r"bad\.csv.*'fc0'.*flops_weight"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,1.0,2.5,0.5\n", r"bad\.csv.*'fc0'.*fixed_bits"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,nan,,0.5\n", r"bad\.csv.*fc0.*flops_weight"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,inf,,0.5\n", r"bad\.csv.*fc0.*flops_weight"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,-inf,,0.5\n", r"bad\.csv.*fc0.*flops_weight"),
        ("layer,flops_weight,fixed_bits,dL@0,dL@1\nfc0,1.0,,0.9,0.5\n", r"bad\.csv.*got 0"),
        ("layer,flops_weight,fixed_bits,dL@1,dL@9\nfc0,1.0,,0.9,0.5\n", r"bad\.csv.*got 9"),
        # one field above the csv module's 131,072-character limit
        ("layer,flops_weight,fixed_bits,dL@1\n" + "x" * 200_000 + ",1.0,,0.5\n", r"bad\.csv"),
        # int() reads each of these; before the decimal rule they loaded as
        # widths 1, 2, 3 and 1, and as fc0 fixed at 8 bits
        ("layer,flops_weight,fixed_bits,dL@+1,dL@2\nfc0,1.0,,0.9,0.5\n", r"bad\.csv.*'dL@\+1'"),
        ("layer,flops_weight,fixed_bits,dL@1,dL@0_2\nfc0,1.0,,0.9,0.5\n", r"bad\.csv.*'dL@0_2'"),
        ("layer,flops_weight,fixed_bits,dL@\u0663\nfc0,1.0,,0.5\n", r"bad\.csv.*'dL@\u0663'"),
        ("layer,flops_weight,fixed_bits,dL@ 1\nfc0,1.0,,0.5\n", r"bad\.csv.*'dL@ 1'"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,1.0,0_8,0.5\n", r"bad\.csv.*'fc0'.*fixed_bits.*'0_8'"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,1.0,+8,0.5\n", r"bad\.csv.*'fc0'.*fixed_bits.*'\+8'"),
        ("layer,flops_weight,fixed_bits,dL@1\nfc0,1.0, 8,0.5\n", r"bad\.csv.*'fc0'.*fixed_bits.*' 8'"),
    ],
    ids=["bits_header", "flops_weight", "fixed_bits", "nan_weight", "inf_weight", "neg_inf_weight",
         "bits_zero", "bits_above_8", "oversized_field", "plus_sign_header", "underscore_header",
         "arabic_indic_header", "space_header", "underscore_fixed_bits", "plus_sign_fixed_bits",
         "space_fixed_bits"],
)
def test_sensitivity_unparsable_field_is_format_error(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=match):
        load_sensitivity(path)


@pytest.mark.parametrize("text", ["", "+1", "-1", " 1", "1 ", "0_2", "1.0", "\u0663", "\u00b2", "0x1"])
def test_decimal_rejects_what_int_would_read(text):
    with pytest.raises(ValidationError, match="width"):
        _decimal(text, "width")


def test_decimal_reads_ascii_digits():
    assert [_decimal(t, "n") for t in ("0", "7", "08", "32", "123456789012")] == [
        0, 7, 8, 32, 123456789012]


@pytest.mark.parametrize("text", ["", " 1", "1 ", "1_0", "0_9", "\u0663", "1.\u0663", "\u00b2",
                                  "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400",
                                  ".", "e3", "1e", "1e+", "--1", "+-1", "1.2.3", "0x10", "1,5"])
def test_real_rejects_what_float_would_read(text):
    with pytest.raises(ValidationError, match="target"):
        _real(text, "target")


def test_real_reads_sign_digits_point_and_exponent():
    texts = ("0", "7", "-1.5", "+2", ".5", "5.", "1e-3", "+2E+3", "-0.0", "1.7976931348623157e308")
    assert [_real(t, "x") for t in texts] == [float(t) for t in texts]


def test_sensitivity_roundtrip_of_numpy_weights(tmp_path):
    # repr(np.float64(3.0)) is "np.float64(3.0)", which no float reader takes
    table = SensitivityTable([LayerSpec("fc0", flops_weight=np.float64(3.0)),
                              LayerSpec("fc1", flops_weight=np.float32(0.5))],
                             [1, 2], np.array([[0.5, 0.2], [0.4, 0.1]]))
    save_sensitivity(table, tmp_path / "s.csv")
    back = load_sensitivity(tmp_path / "s.csv")
    assert [layer.flops_weight for layer in back.layers] == [3.0, 0.5]


@pytest.mark.parametrize("weight,cell,bad", [("1_0", "0.5", "flops_weight"),
                                              (" 2.0 ", "0.5", "flops_weight"),
                                              ("\u0663", "0.5", "flops_weight"),
                                              ("1e999", "0.5", "flops_weight"),
                                              ("1.0", "0_9", "dL@2"),
                                              ("1.0", " 0.5", "dL@2"),
                                              ("1.0", "nan", "dL@2"),
                                              ("1.0", "-inf", "dL@2")])
def test_sensitivity_reads_csv_floats_under_the_ascii_rule(tmp_path, weight, cell, bad):
    # float() reads each of these but the last three; 1_0 loaded as 10 and
    # 0_9 as 9
    path = tmp_path / "bad.csv"
    path.write_text(f"layer,flops_weight,fixed_bits,dL@1,dL@2\nfc0,1.0,,0.9,0.5\n"
                    f"fc1,{weight},,0.8,{cell}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=rf"bad\.csv.*'fc1'.*{bad}"):
        load_sensitivity(path)


def test_sensitivity_non_utf8_is_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes("layer,flops_weight,fixed_bits,dL@1\ncaf\xe9,1.0,,0.5\n".encode("latin-1"))
    with pytest.raises(FormatError, match="bad.csv"):
        load_sensitivity(path)


def test_sensitivity_bits_validation():
    with pytest.raises(ValidationError):
        SensitivityTable([LayerSpec("a")], [2, 1], np.array([[0.1, 0.2]]))
    with pytest.raises(ValidationError):
        SensitivityTable([LayerSpec("a")], [], np.zeros((1, 0)))


def test_sensitivity_table_rejects_duplicate_layer_names():
    with pytest.raises(ValidationError, match="'a'"):
        SensitivityTable([LayerSpec("a"), LayerSpec("a")], [1, 2], np.zeros((2, 2)))


def test_sensitivity_duplicate_layer_is_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("layer,flops_weight,fixed_bits,dL@1\na,1.0,,0.5\na,1.0,,0.4\n")
    with pytest.raises(FormatError, match=r"bad\.csv.*'a'"):
        load_sensitivity(path)


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_layer_spec_rejects_non_finite_weight(weight):
    with pytest.raises(ValidationError, match="fc0.*flops_weight"):
        LayerSpec("fc0", flops_weight=weight)


@pytest.mark.parametrize("weight", [True, "1", 10**400, np.array([1.0, 2.0])],
                         ids=["bool", "text", "huge_int", "array"])
def test_layer_spec_rejects_a_flops_weight_that_is_not_a_real(weight):
    # True and 10**400 built; "1" raised a TypeError and the array a ValueError
    with pytest.raises(ValidationError, match="fc0.*flops_weight"):
        LayerSpec("fc0", flops_weight=weight)
