"""The activation-width rule, the same at every entry point that takes a
width: an integer (numpy integers included, bools not) in 1..8, or exactly
32 (full precision) where a layer may stay unquantized."""

import json

import numpy as np
import pytest

from robuq import cli, profiler
from robuq.allocator import AllocationProblem
from robuq.deploy import FlopsConfig, weighted_flops
from robuq.errors import FormatError, ValidationError
from robuq.lowrank import init_layer, load_layer, save_layer
from robuq.profiler import ToyLayer, TrainConfig, make_toy_data, make_toy_model, profile_sensitivity
from robuq.quant import lloyd_max, uniform_gauss_codebook
from robuq.tensorio import LayerSpec, SensitivityTable

CANDIDATES = {"0": 0, "1": 1, "8": 8, "9": 9, "32": 32, "33": 33, "64": 64, "true": True,
              "4.0": 4.0, "4.5": 4.5, "text_4": "4", "int64_4": np.int64(4)}
QUANTIZED = {"1", "8", "int64_4"}


def _json_form(value):
    """What a JSON file can hold of ``value``: a numpy integer is written as
    the plain integer."""
    return int(value) if isinstance(value, np.integer) else value


def _load_layer_with_bits(value, tmp_path):
    d = tmp_path / "layer"
    if not d.exists():
        save_layer(init_layer(np.random.default_rng(3).standard_normal((8, 8)), r=2), d)
    meta = json.loads((d / "layer.json").read_text())
    (d / "layer.json").write_text(json.dumps({**meta, "bits": _json_form(value)}))
    load_layer(d)


def _flops_config_with_a_bits(value):
    FlopsConfig.from_json(json.dumps({"entries": [
        {"name": "x", "fp_gflops": 1.0, "w_bits": "ternary", "a_bits": _json_form(value)}]}))


def _profile(value):
    model, data = make_toy_model((8, 8), seed=1), make_toy_data(8, seed=1)
    profile_sensitivity(model, data, (value,), TrainConfig(steps=0))


# name -> (full precision allowed, the error a bad width raises, call)
ENTRY_POINTS = {
    "lloyd_max": (False, ValidationError, lambda b, _: lloyd_max(b)),
    "uniform_gauss_codebook": (False, ValidationError, lambda b, _: uniform_gauss_codebook(b)),
    "load_layer": (False, FormatError, _load_layer_with_bits),
    "enable_quant": (True, ValidationError, lambda b, _: ToyLayer(np.eye(8)).enable_quant(b)),
    "profile_sensitivity": (True, ValidationError, lambda b, _: _profile(b)),
    "weighted_flops_a_bits": (True, ValidationError, lambda b, _: weighted_flops(1.0, "ternary", b)),
    "weighted_flops_w_bits": (True, ValidationError, lambda b, _: weighted_flops(1.0, b, b)),
    "from_json_a_bits": (True, FormatError, lambda b, _: _flops_config_with_a_bits(b)),
    "fixed_bits": (True, ValidationError, lambda b, _: LayerSpec("l", fixed_bits=b)),
    "sensitivity_table_bits": (True, ValidationError,
                               lambda b, _: SensitivityTable([LayerSpec("l")], [b], np.zeros((1, 1)))),
    # the table holds a column for every accepted width, so only the rule rejects
    "allocation_bit_set": (True, ValidationError,
                           lambda b, _: AllocationProblem(SensitivityTable(
                               [LayerSpec("l")], [1, 4, 8, 32], np.zeros((1, 4))), 8, bit_set=(b,))),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_accepts_exactly_the_widths(tmp_path, name):
    full_precision, error, call = ENTRY_POINTS[name]
    accepted = set()
    for cid, value in CANDIDATES.items():
        try:
            call(value, tmp_path)
        except error:
            continue
        accepted.add(cid)
    assert accepted == QUANTIZED | ({"32"} if full_precision else set())


def test_profile_rejects_a_bad_width_before_training_any_cell(monkeypatch):
    trained = []
    monkeypatch.setattr(profiler, "_train", lambda *args: trained.append(args))
    model, data = make_toy_model((8, 8), seed=1), make_toy_data(8, seed=1)
    with pytest.raises(ValidationError, match="64"):
        profile_sensitivity(model, data, (1, 2, 64), TrainConfig(steps=1))
    assert trained == []


def test_profile_rejects_a_repeated_width_before_training_any_cell(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cell was trained")

    monkeypatch.setattr(profiler, "_train", refuse)
    model, data = make_toy_model((8, 8), seed=1), make_toy_data(8, seed=1)
    with pytest.raises(ValidationError, match=r"repeat.*\[2\]"):
        profile_sensitivity(model, data, (2, 1, 2), TrainConfig(steps=1))


@pytest.mark.parametrize("call,name", [
    (lambda: profile_sensitivity(make_toy_model((8, 8), seed=1), make_toy_data(8, seed=1), 4,
                                 TrainConfig(steps=1)), "bits"),
    (lambda: AllocationProblem(SensitivityTable([LayerSpec("l")], [4], np.zeros((1, 1))), 2.0,
                               bit_set=4), "bit_set"),
    (lambda: SensitivityTable([LayerSpec("l")], 4, np.zeros((1, 1))), "bit set"),
], ids=["profile_sensitivity", "allocation_bit_set", "sensitivity_table_bits"])
def test_a_width_set_that_is_not_iterable_is_rejected(call, name):
    # each raised a stray TypeError ("'int' object is not iterable")
    with pytest.raises(ValidationError, match=f"^{name} must be a set of widths, got 4"):
        call()


def test_cli_rejects_a_width_outside_the_rule(tmp_path, capsys):
    # The first three ran to exit 0 before the rule was shared: every layer
    # allocated 0 bits, a FLOPs total computed at 4 bits, and a dL@64
    # column of zeros. The last two repeat a width; allocate ran to exit 0.
    csv, cfg, out = tmp_path / "s.csv", tmp_path / "cfg.json", tmp_path / "p.csv"
    good = tmp_path / "good.csv"
    csv.write_text("layer,flops_weight,fixed_bits,dL@0,dL@1\nfc0,1.0,,0.9,0.5\n")
    good.write_text("layer,flops_weight,fixed_bits,dL@1,dL@2\nfc0,1.0,,0.9,0.5\n")
    cfg.write_text(json.dumps({"entries": [
        {"name": "only", "fp_gflops": 10.0, "w_bits": "ternary", "a_bits": 4.7}]}))
    for argv in (["allocate", "--sensitivity", str(csv), "--target", "0.5", "--bits", "0,1"],
                 ["flops", "--config", str(cfg)],
                 ["profile", "--widths", "8,8", "--bits", "1,64", "--steps", "1", "--out", str(out)],
                 ["profile", "--widths", "8,8", "--bits", "2,2", "--steps", "1", "--out", str(out)],
                 ["allocate", "--sensitivity", str(good), "--target", "2", "--bits", "2,2",
                  "--out", str(out)]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("robuq: error:")
    assert not out.exists()


def test_a_numpy_width_is_stored_as_a_plain_int(tmp_path):
    # Codebooks are shared through a cache, so a numpy width must not reach
    # a later layer.json.
    cb = uniform_gauss_codebook(np.int64(6))
    assert type(cb.bits) is int
    save_layer(init_layer(np.eye(8), r=0, codebook=cb), tmp_path / "layer")
    assert load_layer(tmp_path / "layer").codebook.bits == 6
