import json
import warnings

import numpy as np
import pytest

from robuq import cli
from robuq.tensorio import load_matrix, save_matrix, save_sensitivity


@pytest.fixture()
def rbq(tmp_path):
    def write(name, arr):
        path = tmp_path / name
        save_matrix(np.asarray(arr, dtype=np.float32), path)
        return str(path)

    return write


def test_hadamard_identity_gives_h(tmp_path, rbq):
    src = rbq("i.rbq", np.eye(8))
    out = tmp_path / "h.rbq"
    rc = cli.main(["hadamard", "--in", src, "--out", str(out)])
    assert rc == 0
    from robuq.hadamard import hadamard_matrix

    np.testing.assert_allclose(load_matrix(out), hadamard_matrix(8), atol=1e-6)


def test_hadamard_roundtrip_and_report(tmp_path, rbq):
    rng = np.random.default_rng(0)
    src = rbq("x.rbq", rng.standard_normal((32, 64)))
    mid = tmp_path / "mid.rbq"
    back = tmp_path / "back.rbq"
    report = tmp_path / "rep.json"
    assert cli.main(["hadamard", "--in", src, "--out", str(mid),
                     "--report", str(report)]) == 0
    assert cli.main(["hadamard", "--in", str(mid), "--out", str(back)]) == 0
    orig = load_matrix(src)
    np.testing.assert_allclose(load_matrix(back), orig, atol=1e-5)
    rep = json.loads(report.read_text())
    assert rep["max_norm_drift"] < 1e-5
    assert rep["roundtrip_residual"] < 1e-5


def test_hadamard_roundtrip_check_is_relative_to_the_input(tmp_path, rbq):
    # Entries near 1e12 leave an absolute residual near 1e-4 after the
    # transform and its inverse; relative to the row norms it is still
    # about 1e-16.
    src = rbq("huge.rbq", 1e12 * np.random.default_rng(5).standard_normal((4, 64)))
    report = tmp_path / "rep.json"
    assert cli.main(["hadamard", "--in", src, "--out", str(tmp_path / "h.rbq"),
                     "--report", str(report)]) == 0
    assert json.loads(report.read_text())["roundtrip_residual"] < 1e-12


def test_hadamard_large_matrix_norm_drift(tmp_path, rbq):
    rng = np.random.default_rng(1)
    src = rbq("big.rbq", rng.standard_normal((1024, 1024)))
    out = tmp_path / "big_out.rbq"
    report = tmp_path / "big.json"
    assert cli.main(["hadamard", "--in", src, "--out", str(out), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["max_norm_drift"] < 1e-5


def test_quantize_rank_zero_and_ablation(tmp_path, rbq):
    rng = np.random.default_rng(2)
    src = rbq("w.rbq", rng.standard_normal((64, 64)))
    s0 = tmp_path / "s0.json"
    s16 = tmp_path / "s16.json"
    assert cli.main(["quantize", "--weights", src, "--rank", "0", "--bits", "4",
                     "--out-dir", str(tmp_path / "l0"), "--summary", str(s0)]) == 0
    assert cli.main(["quantize", "--weights", src, "--rank", "16", "--bits", "4",
                     "--out-dir", str(tmp_path / "l16"), "--summary", str(s16)]) == 0
    r0 = json.loads(s0.read_text())
    r16 = json.loads(s16.read_text())
    assert r0["rank"] == 0
    assert r16["reconstruction_rel_error"] < r0["reconstruction_rel_error"]
    assert sorted(p.name for p in (tmp_path / "l0").iterdir()) == ["layer.json", "wq_values.rbqp"]
    assert (tmp_path / "l16" / "A.rbq").exists()
    # 4096 ternary values: a 12-byte header and five values per byte
    assert (tmp_path / "l0" / "wq_values.rbqp").stat().st_size == 12 + 820


def test_quantize_twice_is_byte_identical(tmp_path, rbq):
    src = rbq("w.rbq", np.random.default_rng(12).standard_normal((48, 32)))
    for tag in ("a", "b"):
        assert cli.main(["quantize", "--weights", src, "--rank", "8",
                         "--out-dir", str(tmp_path / tag),
                         "--summary", str(tmp_path / f"{tag}.json")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_quantize_bad_path_exit_2(tmp_path):
    assert cli.main(["quantize", "--weights", str(tmp_path / "missing.rbq"),
                     "--out-dir", str(tmp_path / "out")]) == 2


def test_quantize_rank_above_min_dims_is_a_usage_error(tmp_path, rbq, capsys):
    src = rbq("w.rbq", np.arange(16).reshape(2, 8) % 3 - 1)
    out = tmp_path / "layer"
    assert cli.main(["quantize", "--weights", src, "--rank", "16", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and "rank 16" in err, err
    assert not out.exists()


def test_gauss_report_fields(tmp_path, rbq):
    rng = np.random.default_rng(3)
    src = rbq("a.rbq", rng.standard_normal((1000, 32)))
    out = tmp_path / "rep.json"
    assert cli.main(["gauss-report", "--activations", src, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    for key in ("sigma_t2", "ks_distance", "be_bound", "kl_exact", "tv_bound", "mean_nmi"):
        assert key in rep
    assert rep["meta"]["C"] == 32


@pytest.mark.parametrize("bins", ["0", "1", "-1"])
def test_gauss_report_rejects_bins_below_two(tmp_path, rbq, capsys, bins):
    src = rbq("a.rbq", np.random.default_rng(3).standard_normal((200, 16)))
    out = tmp_path / "rep.json"
    assert cli.main(["gauss-report", "--activations", src, "--bins", bins,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and "bins" in err, err
    assert not out.exists()


def test_profile_deterministic_csv(tmp_path):
    args = ["profile", "--widths", "32,32", "--bits", "1,2,32", "--steps", "2",
            "--seed", "5", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + [str(a)]) == 0
    assert cli.main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_allocate_single_layer_max_bits(tmp_path):
    csv = tmp_path / "s.csv"
    csv.write_text(
        "layer,flops_weight,fixed_bits,dL@1,dL@2,dL@3,dL@4\n"
        "fc0,1.0,,0.9,0.5,0.2,0.1\n"
    )
    out = tmp_path / "alloc.json"
    assert cli.main(["allocate", "--sensitivity", str(csv), "--target", "4",
                     "--out", str(out)]) == 0
    alloc = json.loads(out.read_text())
    assert alloc["bits_per_layer"] == {"fc0": 4}
    assert alloc["achieved_avg_bits"] == 4.0


def test_allocate_dit_sized_table_keeps_the_budget(tmp_path, dit_like_table):
    csv, out = tmp_path / "s.csv", tmp_path / "alloc.json"
    save_sensitivity(dit_like_table(0), csv)
    assert cli.main(["allocate", "--sensitivity", str(csv), "--target", "2.0",
                     "--out", str(out)]) == 0
    alloc = json.loads(out.read_text())
    assert len(alloc["bits_per_layer"]) == 112
    assert alloc["achieved_avg_bits"] <= 2.0 * (1.0 + 1e-12)
    assert "beta" not in alloc


def test_allocate_rejects_beta_flag(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    csv.write_text("layer,flops_weight,fixed_bits,dL@1\nfc0,1.0,,0.5\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["allocate", "--sensitivity", str(csv), "--target", "1", "--beta", "1000"])
    assert exc.value.code == 2
    assert "--beta" in capsys.readouterr().err


def test_profile_rejects_optimizer_flag(tmp_path, capsys):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile", "--widths", "16,16", "--bits", "2", "--optimizer", "adam",
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "--optimizer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,target,names",
    [("a,1.0,,0.9,0.5\na,1.0,,0.8,0.4\n", "2", ("s.csv", "'a'")),
     ("fc0,nan,,0.9,0.5\n", "2", ("s.csv", "fc0", "flops_weight")),
     ("fc0,inf,,0.9,0.5\n", "2", ("s.csv", "fc0", "flops_weight")),
     ("fc0,1.0,,0.9,0.5\n", "nan", ("target",)),
     ("x" * 200_000 + ",1.0,,0.9,0.5\n", "2", ("s.csv", "CSV"))],
    ids=["duplicate_layer", "nan_weight", "inf_weight", "nan_target", "oversized_field"],
)
def test_allocate_bad_input_is_a_usage_error(tmp_path, capsys, rows, target, names):
    csv = tmp_path / "s.csv"
    csv.write_text("layer,flops_weight,fixed_bits,dL@1,dL@2\n" + rows)
    assert cli.main(["allocate", "--sensitivity", str(csv), "--target", target,
                     "--bits", "1,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:")
    assert all(name in err for name in names), err


def test_flops_fixture_output(tmp_path, capsys):
    out = tmp_path / "flops.json"
    assert cli.main(["flops", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "total" in printed
    result = json.loads(out.read_text())
    np.testing.assert_allclose(result["classes"]["weight_act_matmul"], 6.9213, rtol=1e-12)
    np.testing.assert_allclose(
        result["total_gflops"], sum(result["classes"].values()), rtol=1e-12
    )


def test_flops_custom_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"entries": [
        {"name": "only", "fp_gflops": 8.0, "w_bits": "ternary", "a_bits": 4},
    ]}))
    assert cli.main(["flops", "--config", str(cfg)]) == 0
    assert "1.0000 G" in capsys.readouterr().out


def test_hadamard_check_catches_a_norm_preserving_wrong_transform(tmp_path, rbq, monkeypatch):
    from robuq import hadamard

    def reversed_columns(x, plan=None):
        return np.array(x, dtype=np.float64)[:, ::-1].copy()

    monkeypatch.setattr(hadamard, "transform_tokens", reversed_columns)
    src = rbq("x.rbq", np.random.default_rng(3).standard_normal((16, 64)))
    assert cli.main(["hadamard", "--in", src, "--out", str(tmp_path / "y.rbq")]) == 1


def test_hadamard_check_catches_a_wrong_transform_above_2048(tmp_path, rbq, monkeypatch):
    from robuq import hadamard

    def reversed_columns(x, plan=None):
        return np.array(x, dtype=np.float64)[:, ::-1].copy()

    monkeypatch.setattr(hadamard, "transform_tokens", reversed_columns)
    src = rbq("x.rbq", np.random.default_rng(3).standard_normal((4, 4096)))
    assert cli.main(["hadamard", "--in", src, "--out", str(tmp_path / "y.rbq")]) == 1


def test_hadamard_report_has_oracle_residual_above_2048(tmp_path, rbq):
    src = rbq("x.rbq", np.random.default_rng(4).standard_normal((4, 4096)))
    report = tmp_path / "rep.json"
    assert cli.main(["hadamard", "--in", src, "--out", str(tmp_path / "y.rbq"),
                     "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["block_size"] == 4096
    assert rep["oracle_residual"] < 1e-6


def test_hadamard_report_has_oracle_residual(tmp_path, rbq):
    src = rbq("x.rbq", np.random.default_rng(4).standard_normal((20, 96)))
    report = tmp_path / "rep.json"
    assert cli.main(["hadamard", "--in", src, "--out", str(tmp_path / "y.rbq"),
                     "--report", str(report)]) == 0
    assert json.loads(report.read_text())["oracle_residual"] < 1e-6


@pytest.mark.parametrize(
    "text",
    ['{"entries": [{"fp_gflops": 1}]}', "[1]",
     '{"entries": [{"name": "x", "fp_gflops": 1, "a_bits": [4]}]}'],
    ids=["missing_name", "not_an_object", "list_a_bits"],
)
def test_flops_malformed_config_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["flops", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"robuq: error: {cfg}: malformed FLOPs config")


def test_flops_non_utf8_config_is_a_usage_error_naming_the_file(tmp_path, capsys):
    # this printed a bare codec error naming no file
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"entries": [{"name": "caf\xe9", "fp_gflops": 1}]}'.encode("latin-1"))
    assert cli.main(["flops", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"robuq: error: {cfg}: UnicodeDecodeError"), err


def test_flops_missing_config_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["flops", "--config", str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,field",
    [(["--batch", "0"], "batch"),
     (["--batch", "-3"], "batch"),
     (["--lr", "nan"], "learning_rate"),
     (["--lr", "inf"], "learning_rate"),
     (["--lr", "-1"], "learning_rate")],
    ids=["batch_zero", "batch_negative", "lr_nan", "lr_inf", "lr_negative"],
)
def test_profile_bad_training_setting_is_a_usage_error(tmp_path, capsys, flags, field):
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["profile", "--widths", "16,16", "--bits", "2", "--steps", "2",
                       "--out", str(out)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and field in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,value,item",
    [("profile", "--widths", "16,a", "'a'"),
     ("profile", "--bits", "1,,2", "''"),
     ("allocate", "--bits", "1,x", "'x'"),
     # int() reads each of these; all but --seed -1 ran to exit 0 before the
     # decimal rule, and that one failed inside numpy
     ("quantize", "--bits", "0_4", "'0_4'"),
     ("quantize", "--rank", " 2", "' 2'"),
     ("quantize", "--rank", "+2", "'+2'"),
     ("gauss-report", "--seed", "1_0", "'1_0'"),
     ("gauss-report", "--bins", "\u0661\u0666", "'\u0661\u0666'"),
     ("profile", "--seed", "-1", "'-1'"),
     ("profile", "--steps", "+2", "'+2'"),
     ("profile", "--batch", "3_2", "'3_2'"),
     ("profile", "--widths", "16,+16", "'+16'"),
     ("allocate", "--bits", "1, 2", "' 2'")],
    ids=["profile_widths", "profile_bits", "allocate_bits", "quantize_bits_underscore",
         "quantize_rank_space", "quantize_rank_plus", "gauss_seed_underscore",
         "gauss_bins_arabic_indic", "profile_seed_negative", "profile_steps_plus",
         "profile_batch_underscore", "profile_widths_plus", "allocate_bits_space"],
)
def test_integer_list_flags_name_the_flag_and_the_item(tmp_path, rbq, capsys, command, flag,
                                                       value, item):
    src = rbq("a.rbq", np.random.default_rng(3).standard_normal((64, 16)))
    csv, out = tmp_path / "s.csv", tmp_path / "out"
    csv.write_text("layer,flops_weight,fixed_bits,dL@1,dL@2\nfc0,1.0,,0.9,0.5\n")
    args = {"quantize": ["quantize", "--weights", src, "--out-dir", str(out)],
            "gauss-report": ["gauss-report", "--activations", src, "--out", str(out)],
            "profile": ["profile", "--widths", "16,16", "--bits", "2", "--out", str(out)],
            "allocate": ["allocate", "--sensitivity", str(csv), "--target", "2",
                         "--out", str(out)]}[command]
    assert cli.main(args + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and flag in err and item in err, err
    assert not out.exists()


def test_allocate_reads_csv_floats_and_target_as_ascii_decimals(tmp_path, capsys):
    # This ran to exit 0 before the float rule, with a target of 15 bits, 1_0
    # read as 10 and a predicted loss of 5.4.
    csv, out = tmp_path / "s.csv", tmp_path / "alloc.json"
    csv.write_text("layer,flops_weight,fixed_bits,dL@1,dL@2\n"
                   "fc0,1_0,,0_9,0_5\nfc1, 2.0 ,,0.8,0.4\n", encoding="utf-8")
    args = ["allocate", "--sensitivity", str(csv), "--bits", "1,2", "--out", str(out)]
    assert cli.main(args + ["--target", "1_5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and "--target" in err and "'1_5'" in err, err
    assert cli.main(args + ["--target", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and "s.csv" in err and "'fc0'" in err, err
    assert not out.exists()


@pytest.mark.parametrize("lr", [" 1e-3", "1e-3 ", "1_0e-3", "\u0661e-3"])
def test_profile_reads_lr_as_an_ascii_decimal(tmp_path, capsys, lr):
    out = tmp_path / "s.csv"
    rc = cli.main(["profile", "--widths", "16,16", "--bits", "2", "--steps", "2",
                   "--out", str(out), "--lr", lr])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and "--lr" in err and repr(lr) in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "header,fixed,bits",
    [("dL@+1,dL@0_2", "0_8", "1,2"), ("dL@\u0663,dL@4", "", "3,4")],
    ids=["sign_underscore", "arabic_indic"],
)
def test_allocate_reads_csv_integers_as_ascii_digits_only(tmp_path, capsys, header, fixed, bits):
    # Both ran to exit 0 before the decimal rule, reading the headers as
    # widths 1 and 2 with 0_8 as fc0 fixed at 8 bits, and as widths 3 and 4.
    csv, out = tmp_path / "s.csv", tmp_path / "alloc.json"
    csv.write_text(f"layer,flops_weight,fixed_bits,{header}\n"
                   f"fc0,1.0,{fixed},0.9,0.5\nfc1,1.0,,0.8,0.4\n", encoding="utf-8")
    assert cli.main(["allocate", "--sensitivity", str(csv), "--target", "4",
                     "--bits", bits, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robuq: error:") and "s.csv" in err, err
    assert not out.exists()
