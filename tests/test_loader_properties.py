"""Property tests of the file loaders: save -> load round trips, and
truncated or byte-flipped files, which a loader either reads or rejects
with a ``FormatError`` naming the file."""

from functools import partial

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robuq.deploy import load_packed, pack_ternary, save_packed, unpack_ternary
from robuq.errors import FormatError
from robuq.lowrank import init_layer, load_layer, save_layer
from robuq.quant import uniform_gauss_codebook
from robuq.tensorio import (
    LayerSpec,
    SensitivityTable,
    load_matrix,
    load_sensitivity,
    save_matrix,
    save_sensitivity,
)

_property = settings(derandomize=True, database=None, max_examples=100, deadline=None)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _tables(draw):
    bits = sorted(draw(st.sets(st.sampled_from([*range(1, 9), 32]), min_size=1, max_size=4)))
    names = draw(st.lists(st.text(max_size=12), min_size=1, max_size=5, unique=True))
    layers = [LayerSpec(name, flops_weight=draw(st.floats(0.0, allow_infinity=False)),
                        fixed_bits=draw(st.sampled_from([None, 1, 4, 8, 32])))
              for name in names]
    gaps = draw(st.lists(_finite, min_size=len(names) * len(bits),
                         max_size=len(names) * len(bits)))
    return SensitivityTable(layers, bits, np.reshape(gaps, (len(names), len(bits))))


def _matrices():
    shape = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return hnp.arrays(np.float32, shape, elements=st.floats(width=32, allow_nan=False,
                                                             allow_infinity=False))


def _corrupt(data, raw: bytes) -> bytes:
    """``raw`` cut short, or with one to four bytes XORed by a nonzero mask."""
    if data.draw(st.booleans(), label="truncate"):
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    out = bytearray(raw)
    for i in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4),
                       label="positions"):
        out[i] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(out)


def _rank_1_to_3(raw: bytes) -> bytes:
    """A rank-1 sidecar with its rank flipped to 3 (one byte, XOR 2)."""
    assert raw.count(b'"rank": 1') == 1
    return raw.replace(b'"rank": 1', b'"rank": 3')


def _load_corrupted(path, save, load, corrupt) -> None:
    """Save, corrupt and load again; any error but a ``FormatError`` whose
    message names the corrupted file fails."""
    save(path)
    path.write_bytes(corrupt(path.read_bytes()))
    try:
        load(path)
    except FormatError as exc:
        assert str(path) in str(exc), exc


@_property
@given(_tables())
def test_sensitivity_roundtrip_property(tmp_path_factory, table):
    path = tmp_path_factory.getbasetemp() / "sensitivity.csv"
    save_sensitivity(table, path)
    back = load_sensitivity(path)
    assert [(l.name, l.flops_weight, l.fixed_bits) for l in back.layers] == \
        [(l.name, l.flops_weight, l.fixed_bits) for l in table.layers]
    assert back.bits == table.bits
    assert back.delta_loss.tobytes() == table.delta_loss.tobytes()


@_property
@given(_matrices())
def test_matrix_roundtrip_property(tmp_path_factory, m):
    path = tmp_path_factory.getbasetemp() / "matrix.rbq"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.dtype == np.float32 and back.shape == m.shape
    assert back.tobytes() == m.tobytes()


@_property
@given(_tables(), st.data())
def test_corrupted_sensitivity_raises_only_package_errors(tmp_path_factory, table, data):
    _load_corrupted(tmp_path_factory.getbasetemp() / "corrupt.csv",
                    lambda p: save_sensitivity(table, p), load_sensitivity, partial(_corrupt, data))


@_property
@given(st.integers(1, 3), st.data())
@example(bits=1, data=None)  # rank 1 flipped to 3, which raised an error naming the directory
def test_corrupted_layer_sidecar_raises_only_package_errors(tmp_path_factory, bits, data):
    # layer.json carries the codebook as its bits field
    layer = init_layer(np.arange(32.0).reshape(4, 8) % 5 - 2, r=1,
                       codebook=uniform_gauss_codebook(bits))
    _load_corrupted(tmp_path_factory.getbasetemp() / "corrupt_layer" / "layer.json",
                    lambda p: save_layer(layer, p.parent), lambda p: load_layer(p.parent),
                    partial(_corrupt, data) if data else _rank_1_to_3)


@_property
@given(_matrices(), st.data())
def test_corrupted_matrix_raises_only_package_errors(tmp_path_factory, m, data):
    _load_corrupted(tmp_path_factory.getbasetemp() / "corrupt.rbq",
                    lambda p: save_matrix(m, p), load_matrix, partial(_corrupt, data))


@_property
@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40), st.data())
def test_corrupted_packed_raises_only_package_errors(tmp_path_factory, values, data):
    _load_corrupted(tmp_path_factory.getbasetemp() / "corrupt.rbqp",
                    lambda p: save_packed(pack_ternary(values), p),
                    lambda p: unpack_ternary(load_packed(p)), partial(_corrupt, data))
