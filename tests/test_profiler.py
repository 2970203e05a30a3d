import numpy as np
import pytest

from robuq import profiler
from robuq.errors import ValidationError
from robuq.profiler import (
    ToyData,
    ToyLayer,
    ToyModel,
    TrainConfig,
    make_toy_data,
    make_toy_model,
    profile_sensitivity,
    steps_sweep,
)


def _fd_grad(loss_fn, param, idx, h=1e-5):
    p0 = param[idx]
    param[idx] = p0 + h
    lp = loss_fn()
    param[idx] = p0 - h
    lm = loss_fn()
    param[idx] = p0
    return (lp - lm) / (2 * h)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


# ---------------------------------------------------------------------------
# Straight-through gradients
# ---------------------------------------------------------------------------

def test_disabled_quantizers_give_dense_gradients(backward):
    rng = np.random.default_rng(0)
    layer = ToyLayer(rng.standard_normal((8, 8)))
    x = rng.standard_normal((4, 8))
    gy = rng.standard_normal((4, 8))
    y, cache = layer.forward(x)
    grads, gx = backward(layer, gy, cache)
    np.testing.assert_array_equal(y, x @ layer.weight.T)
    np.testing.assert_array_equal(grads["weight"], gy.T @ x)
    np.testing.assert_array_equal(gx, gy @ layer.weight)


def test_single_element_shadow_matches_fd_on_frozen_codes(loss_at_fixed_decisions):
    rng = np.random.default_rng(1)
    model = ToyModel(layers=[ToyLayer(np.array([[0.7]]))], teacher=[np.array([[1.3]])])
    model.layers[0].enable_quant(2)
    x = rng.standard_normal((32, 1))
    loss = loss_at_fixed_decisions(model, x)
    _, grads = model.loss_and_grads(x, {0})
    w = model.layers[0].weight
    fd = _fd_grad(loss, w, (0, 0))
    assert _rel(fd, grads[0]["weight"][0, 0]) < 1e-4


def test_quantized_shadow_matches_fd_on_frozen_decisions(loss_at_fixed_decisions):
    # At width 16, H is not the identity. At fixed decisions the loss moves
    # with the shadow R only through alpha = mean|R|, so dL/dR_ij is
    # sign(R_ij) <values, G> / R.size, with G the straight-through weight
    # gradient dL/dWq; it holds only if G is in the domain R is ternarized in.
    rng = np.random.default_rng(7)
    model = make_toy_model((16, 8, 8), seed=8)
    model.layers[0].enable_quant(3, rank=2)
    model.layers[1].weight += 0.05 * rng.standard_normal((8, 8))
    x = rng.standard_normal((16, 16))
    loss = loss_at_fixed_decisions(model, x)
    _, grads = model.loss_and_grads(x, {0})
    layer = model.layers[0]
    shadow = layer.weight
    dalpha = np.sum(layer.qlayer.wq.values * grads[0]["weight"]) / shadow.size
    for _ in range(6):
        idx = tuple(rng.integers(0, s) for s in shadow.shape)
        assert _rel(_fd_grad(loss, shadow, idx), np.sign(shadow[idx]) * dalpha) < 1e-4


def test_branch_factors_match_fd(loss_at_fixed_decisions):
    rng = np.random.default_rng(2)
    model = make_toy_model((32, 32, 32), seed=3)
    model.layers[0].enable_quant(3, rank=4)
    # Perturb downstream so the teacher-matching gradient is nonzero.
    model.layers[1].weight += 0.05 * rng.standard_normal((32, 32))
    x = rng.standard_normal((16, 32))
    loss = loss_at_fixed_decisions(model, x)
    _, grads = model.loss_and_grads(x, {0, 1})
    for name in ("A", "B"):
        param = model.layers[0].params()[name]
        for _ in range(6):
            idx = tuple(rng.integers(0, s) for s in param.shape)
            fd = _fd_grad(loss, param, idx)
            assert _rel(fd, grads[0][name][idx]) < 1e-4


def test_downstream_weights_match_fd(loss_at_fixed_decisions):
    rng = np.random.default_rng(4)
    model = make_toy_model((32, 32, 32, 32), seed=5)
    model.layers[0].enable_quant(2, rank=2)
    for layer in model.layers[1:]:
        layer.weight += 0.05 * rng.standard_normal(layer.weight.shape)
    x = rng.standard_normal((8, 32))
    loss = loss_at_fixed_decisions(model, x)
    _, grads = model.loss_and_grads(x, {1, 2})
    for li in (1, 2):
        param = model.layers[li].weight
        for _ in range(6):
            idx = tuple(rng.integers(0, s) for s in param.shape)
            fd = _fd_grad(loss, param, idx)
            assert _rel(fd, grads[li]["weight"][idx]) < 1e-4


def test_ste_shapes_and_dimension_check(backward):
    rng = np.random.default_rng(6)
    layer = ToyLayer(rng.standard_normal((8, 16)))
    layer.enable_quant(4, rank=2)
    x = rng.standard_normal((5, 16))
    y, cache = layer.forward(x)
    grads, gx = backward(layer, np.ones((5, 8)), cache)
    assert y.shape == (5, 8) and gx.shape == (5, 16)
    assert set(grads) == {"weight", "A", "B"}
    from robuq.errors import ValidationError

    with pytest.raises(ValidationError):
        layer.forward(np.ones((5, 9)))


# ---------------------------------------------------------------------------
# Sensitivity profiling
# ---------------------------------------------------------------------------

def test_fp_bits_gap_exactly_zero():
    model = make_toy_model((32, 32, 32), seed=7)
    data = make_toy_data(32, seed=7)
    table = profile_sensitivity(model, data, (2, 32), TrainConfig(steps=3, seed=7))
    col = table.bits.index(32)
    assert np.array_equal(table.delta_loss[:, col], np.zeros(len(model.layers)))


def test_profile_deterministic():
    model = make_toy_model((32, 32, 32), seed=8)
    data = make_toy_data(32, seed=8)
    cfg = TrainConfig(steps=5, seed=8)
    t1 = profile_sensitivity(model, data, (1, 2), cfg)
    t2 = profile_sensitivity(model, data, (1, 2), cfg)
    assert np.array_equal(t1.delta_loss, t2.delta_loss)
    assert [l.name for l in t1.layers] == [l.name for l in t2.layers]


def test_ptq_gaps_monotone_in_bits_on_average():
    model = make_toy_model((32, 32, 32), seed=9)
    data = make_toy_data(32, seed=9)
    tables = [
        profile_sensitivity(model, data, (1, 2, 3, 4), TrainConfig(steps=0, seed=s)).delta_loss
        for s in range(5)
    ]
    mean = np.mean(tables, axis=0)
    assert np.all(np.diff(mean, axis=1) <= 1e-12)


def test_short_qat_not_worse_than_ptq():
    model = make_toy_model((32, 32, 32), seed=10)
    data = make_toy_data(32, seed=10)
    ptq = profile_sensitivity(model, data, (2,), TrainConfig(steps=0, seed=10))
    qat = profile_sensitivity(model, data, (2,), TrainConfig(steps=200, seed=10))
    assert np.all(qat.delta_loss <= ptq.delta_loss + 1e-12)


def test_profiling_rejects_data_of_another_width():
    from robuq.errors import ValidationError

    model, data = make_toy_model((8, 8)), make_toy_data(16)
    with pytest.raises(ValidationError, match="16 .*8"):
        profile_sensitivity(model, data, (2,), TrainConfig(steps=1))
    with pytest.raises(ValidationError, match="16 .*8"):
        steps_sweep(model, data, (1,), bits=(2,), config=TrainConfig(steps=1), full_steps=1)


def _profile_cell_by_cell(model, data, bits, config, rank):
    """The table built as before each layer was converted once: a fresh
    model copy and ``enable_quant`` for every (layer, width) cell."""
    base = model.loss(data.val_inputs)
    gaps = np.zeros((len(model.layers), len(bits)))
    for li in range(len(model.layers)):
        for bi, b in enumerate(bits):
            if b != 32:
                trial = model.copy()
                trial.layers[li].enable_quant(b, rank=rank)
                rng = np.random.default_rng([config.seed, li, b])
                profiler._train(trial, data, {li}, config, rng)
                gaps[li, bi] = trial.loss(data.val_inputs) - base
    return gaps


@pytest.mark.parametrize("rank", [0, 4])
def test_profiling_converts_each_layer_once(monkeypatch, rank):
    # Only the codebook depends on the width, so one conversion per layer
    # serves every width; the table stays bitwise the cell-by-cell one.
    model = make_toy_model((32, 24, 32, 16), seed=51)
    data = make_toy_data(32, seed=51)
    config = TrainConfig(steps=3, seed=51)
    bits = (1, 2, 4, 8, 32)
    expected = _profile_cell_by_cell(model, data, bits, config, rank)
    converted = []
    real = profiler._split

    def spy(w, *args, **kwargs):
        converted.append(w.shape)
        return real(w, *args, **kwargs)

    monkeypatch.setattr(profiler, "_split", spy)
    table = profile_sensitivity(model, data, bits, config, rank=rank)
    assert converted == [(24, 32), (32, 24), (16, 32)]
    assert table.delta_loss.tobytes() == expected.tobytes()


def test_layer_specs_carry_flops_weights():
    model = make_toy_model((64, 32, 64), seed=11)
    data = make_toy_data(64, seed=11)
    table = profile_sensitivity(model, data, (32,), TrainConfig(steps=0, seed=11))
    weights = [l.flops_weight for l in table.layers]
    np.testing.assert_allclose(np.mean(weights), 1.0)
    assert weights[0] == weights[1]  # 64*32 and 32*64 cost the same


# ---------------------------------------------------------------------------
# Steps sweep
# ---------------------------------------------------------------------------

def test_sweep_single_layer_allocations_identical():
    model = make_toy_model((32, 32), seed=13)
    data = make_toy_data(32, seed=13)
    rows = steps_sweep(model, data, (0, 5), target_avg_bits=2.0,
                       config=TrainConfig(steps=0, seed=13), full_steps=10)
    assert rows[0]["bits"] == rows[1]["bits"]  # nothing to trade off


def test_sweep_single_entry_grid():
    model = make_toy_model((32, 32), seed=14)
    data = make_toy_data(32, seed=14)
    rows = steps_sweep(model, data, (3,), config=TrainConfig(steps=0, seed=14), full_steps=5)
    assert len(rows) == 1
    assert rows[0]["steps"] == 3


def test_sweep_training_reduces_loss():
    model = make_toy_model((32, 32, 32), seed=15)
    data = make_toy_data(32, seed=15)
    rows = steps_sweep(model, data, (0,), target_avg_bits=2.0,
                       config=TrainConfig(steps=0, seed=15), full_steps=400)
    assert rows[0]["final_loss"] < rows[0]["initial_loss"]


def test_sweep_more_profiling_steps_not_worse():
    finals = {0: [], 50: []}
    for seed in (20, 21, 22):
        model = make_toy_model((32, 32, 32, 32), seed=seed)
        data = make_toy_data(32, seed=seed)
        rows = steps_sweep(model, data, (0, 50), target_avg_bits=2.0,
                           config=TrainConfig(steps=0, seed=seed), full_steps=400)
        for row in rows:
            finals[row["steps"]].append(row["final_loss"])
    # Longer profiling gives tables at least as informative; allow batch noise.
    assert np.mean(finals[50]) <= np.mean(finals[0]) * 1.05 + 1e-6


# ---------------------------------------------------------------------------
# One quantized layer: the profiler runs lowrank's forward
# ---------------------------------------------------------------------------

def _shared_forward_model():
    model = make_toy_model((32, 24, 16), seed=24)
    model.layers[0].enable_quant(3, rank=4)
    model.layers[1].enable_quant(2, rank=0)
    return model


def test_quantized_toy_forward_is_lowrank_forward():
    from robuq.lowrank import forward

    model = _shared_forward_model()
    h = np.random.default_rng(25).standard_normal((10, 32))
    for layer in model.layers:
        y, _ = layer.forward(h)
        np.testing.assert_array_equal(y, forward(layer.qlayer, h))
        h = y
    assert [layer.qlayer.branch.rank for layer in model.layers] == [4, 0]


def test_quantized_toy_cache_holds_what_the_backward_reads():
    from robuq.quant import quantize_tokens

    layer = _shared_forward_model().layers[0]
    _, cache = layer.forward(np.random.default_rng(28).standard_normal((10, 32)))
    assert set(cache) == {"x", "xh", "deq", "wq", "codes", "mu", "sigma"}
    np.testing.assert_array_equal(cache["deq"], quantize_tokens(cache["xh"], layer.qlayer.codebook)[0])
    np.testing.assert_array_equal(cache["wq"], layer.qlayer.wq.dequantize())


def test_rank_zero_layer_trains_only_the_shadow_weight():
    # Rank 0 trains a 0-wide branch like any other: only the shadow weight
    # holds values, before and after a step.
    from robuq.profiler import _train

    model = _shared_forward_model()
    layer = model.layers[1]
    x = np.random.default_rng(27).standard_normal((10, 32))
    _, grads = model.loss_and_grads(x, {0, 1})
    assert set(grads[0]) == set(grads[1]) == {"weight", "A", "B"}
    assert grads[1]["A"].shape == (16, 0) and grads[1]["B"].shape == (0, 24)
    weight = layer.weight.copy()
    _train(model, make_toy_data(32, seed=27), {1}, TrainConfig(steps=1, batch=4),
           np.random.default_rng(27))
    params = layer.params()
    assert set(params) == {"weight", "A", "B"}
    assert params["A"].shape == (16, 0) and params["B"].shape == (0, 24)
    assert not np.array_equal(params["weight"], weight)


@pytest.mark.parametrize("rank", [0, 4])
def test_first_step_ternarizes_what_init_layer_ternarized(rank):
    from robuq.lowrank import init_layer
    from robuq.quant import uniform_gauss_codebook

    w = np.random.default_rng(60).standard_normal((24, 32))
    layer = ToyLayer(w)
    layer.enable_quant(3, rank=rank)
    layer.deployed_forward(np.ones((2, 32)))
    want = init_layer(w, r=rank, codebook=uniform_gauss_codebook(3)).wq
    np.testing.assert_array_equal(layer.qlayer.wq.values, want.values, strict=True)
    assert layer.qlayer.wq.alpha.hex() == want.alpha.hex()


@pytest.mark.parametrize("rank", [0, 4])
def test_quantizing_transforms_the_weight_once(monkeypatch, rank):
    # The split gives both the branch and the shadow residual R, so a
    # conversion transforms W once, at every rank and width.
    from robuq import hadamard

    calls = []
    real = hadamard._apply

    def spy(x, block):
        calls.append(x.shape)
        return real(x, block)

    monkeypatch.setattr(hadamard, "_apply", spy)
    for bits in (1, 3):
        calls.clear()
        ToyLayer(np.random.default_rng(63).standard_normal((24, 32))).enable_quant(bits, rank=rank)
        assert calls == [(24, 32)]


def test_steps_transform_neither_the_shadow_nor_its_gradient(monkeypatch):
    # The shadow is the transformed residual, so neither the loss nor the
    # weight gradient goes through a fold or an inverse transform; the one
    # inverse transform left is layer 1's input gradient.
    model = make_toy_model((32, 24, 16), seed=61)
    for layer in model.layers:
        layer.enable_quant(2, rank=4)
    x = np.random.default_rng(62).standard_normal((8, 32))
    inverses = []
    real = profiler.inverse_tokens

    def refuse(*args, **kwargs):
        raise AssertionError("a step transformed the shadow weight")

    def spy(*args, **kwargs):
        inverses.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(profiler, "fold_into_weights", refuse)
    monkeypatch.setattr(profiler, "inverse_tokens", spy)
    model.loss(x)
    _, grads = model.loss_and_grads(x, {0, 1})
    assert set(grads) == {0, 1} and len(inverses) == 1


def test_quantizing_a_quantized_layer_is_rejected():
    # A quantized layer's weight is the residual, not W, so a second
    # conversion would build a wrong layer; 32 bits stays a no-op.
    layer = ToyLayer(np.random.default_rng(63).standard_normal((16, 24)))
    layer.enable_quant(2, rank=3)
    qlayer, before = layer.qlayer, {n: a.copy() for n, a in layer.params().items()}
    with pytest.raises(ValidationError, match="already quantized"):
        layer.enable_quant(4, rank=3)
    layer.enable_quant(32)
    assert layer.qlayer is qlayer
    assert list(layer.params()) == ["weight", "A", "B"]
    for name, arr in layer.params().items():
        np.testing.assert_array_equal(arr, before[name], strict=True)


# ---------------------------------------------------------------------------
# Training settings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs,field",
    [({"batch": 0}, "batch"), ({"batch": -3}, "batch"), ({"batch": 2.0}, "batch"),
     ({"batch": True}, "batch"), ({"learning_rate": float("nan")}, "learning_rate"),
     ({"learning_rate": float("inf")}, "learning_rate"), ({"learning_rate": 0.0}, "learning_rate"),
     ({"learning_rate": -1.0}, "learning_rate"), ({"steps": 2.5}, "steps"),
     ({"steps": 3.0}, "steps"), ({"steps": "3"}, "steps"), ({"steps": True}, "steps"),
     ({"steps": -1}, "steps"), ({"learning_rate": True}, "learning_rate"),
     ({"learning_rate": np.True_}, "learning_rate"), ({"learning_rate": "0.1"}, "learning_rate"),
     ({"learning_rate": 10**400}, "learning_rate")],
)
def test_train_config_rejects_bad_batch_and_learning_rate(kwargs, field):
    from robuq.errors import ValidationError

    with pytest.raises(ValidationError, match=field):
        TrainConfig(**kwargs)


def test_train_config_accepts_integer_types():
    config = TrainConfig(steps=np.int64(3), batch=np.int64(4), learning_rate=1)
    assert (config.steps, config.batch) == (3, 4)


# ---------------------------------------------------------------------------
# The flat-buffer QAT loop against the per-array reference
# ---------------------------------------------------------------------------

def _full_backward(model, x, trainable, backward):
    """Loss and gradients from a backward through every layer."""
    y, caches = model.forward(x)
    diff = y - model.target(x)
    gy = (2.0 / diff.size) * diff
    grads = {}
    for i in range(len(model.layers) - 1, -1, -1):
        layer_grads, gy = backward(model.layers[i], gy, caches[i])
        if i in trainable:
            grads[i] = layer_grads
    return float(np.mean(diff**2)), grads


class _ReferenceAdam:
    """Adam updating one parameter array at a time."""

    def __init__(self, lr):
        self.lr, self.m, self.v, self.t = lr, {}, {}, 0
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8

    def step(self, params, grads):
        self.t += 1
        for key, g in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            self.m[key] = self.b1 * self.m[key] + (1 - self.b1) * g
            self.v[key] = self.b2 * self.v[key] + (1 - self.b2) * g * g
            mhat = self.m[key] / (1 - self.b1**self.t)
            vhat = self.v[key] / (1 - self.b2**self.t)
            params[key] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _reference_train(model, data, trainable, config, rng, backward):
    opt = _ReferenceAdam(config.learning_rate)
    params = {(i, n): a for i in trainable for n, a in model.layers[i].params().items()}
    for _ in range(config.steps):
        _, grads = _full_backward(model, data.train_batch(rng, config.batch), trainable, backward)
        opt.step(params, {(i, n): g for i, gs in grads.items() for n, g in gs.items()})


# Adam is the one optimizer; the ids keep its name
@pytest.mark.parametrize("optimizer,lr", [("adam", 1e-3)])
@pytest.mark.parametrize("rank", [0, 4])
@pytest.mark.parametrize("trainable", [{0}, {2}, {0, 1, 2}], ids=["first", "last", "all"])
def test_flat_buffer_training_matches_per_array_reference_bitwise(optimizer, lr, rank, trainable,
                                                                  backward):
    from robuq.profiler import _train

    model = make_toy_model((32, 24, 32, 16), seed=40)
    for i in trainable:
        model.layers[i].enable_quant(2 + i, rank=rank)
    data = make_toy_data(32, seed=40)
    config = TrainConfig(steps=6, batch=8, seed=40, learning_rate=lr)
    flat, ref = model.copy(), model.copy()
    _train(flat, data, trainable, config, np.random.default_rng(41))
    _reference_train(ref, data, trainable, config, np.random.default_rng(41), backward)
    for i in range(len(model.layers)):
        got, want = flat.layers[i].params(), ref.layers[i].params()
        assert list(got) == list(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], strict=True)
    assert flat.loss(data.val_inputs) == ref.loss(data.val_inputs)


def test_training_leaves_layers_on_views_of_one_buffer():
    from robuq.profiler import _train

    model = make_toy_model((32, 32, 32, 32), seed=42)
    for layer in model.layers:
        layer.enable_quant(2, rank=4)
    frozen_layer = {n: a.copy() for n, a in model.layers[1].params().items()}
    _train(model, make_toy_data(32, seed=42), {0, 2}, TrainConfig(steps=1, batch=4),
           np.random.default_rng(0))
    arrays = [a for i in (0, 2) for a in model.layers[i].params().values()]
    base = arrays[0].base
    assert base is not None and all(a.base is base for a in arrays)
    assert [a.shape for a in arrays] == [(32, 32), (32, 4), (4, 32)] * 2
    assert all(model.layers[i].qlayer.branch.B.flags.f_contiguous for i in (0, 2))
    for name, arr in model.layers[1].params().items():
        assert arr.base is not base
        np.testing.assert_array_equal(arr, frozen_layer[name])


# ---------------------------------------------------------------------------
# Validation loss and truncated backward
# ---------------------------------------------------------------------------

def _loss_model():
    model = make_toy_model((32, 24, 32, 16), seed=43)
    model.layers[0].enable_quant(3, rank=4)
    model.layers[2].enable_quant(2, rank=0)
    return model


def test_loss_is_mean_squared_forward_error_bitwise():
    model = _loss_model()
    x = np.random.default_rng(44).standard_normal((20, 32))
    y, _ = model.forward(x)
    assert model.loss(x) == float(np.mean((y - model.target(x)) ** 2))


def test_loss_never_dequantizes(monkeypatch):
    from robuq.quant import TernaryWeights

    model = _loss_model()
    x = np.random.default_rng(45).standard_normal((20, 32))
    expected = model.loss(x)

    def refuse(self):
        raise AssertionError("the loss formed a dense ternary weight")

    monkeypatch.setattr(TernaryWeights, "dequantize", refuse)
    assert model.loss(x) == expected


@pytest.mark.parametrize("trainable", [{2}, {1, 2}])
def test_truncated_backward_matches_full_backward(trainable, backward):
    model = _loss_model()
    model.layers[1].enable_quant(4, rank=2)
    x = np.random.default_rng(46).standard_normal((12, 32))
    loss, grads = model.loss_and_grads(x, trainable)
    ref_loss, ref_grads = _full_backward(model, x, trainable, backward)
    assert loss == ref_loss and set(grads) == set(ref_grads) == trainable
    for i in trainable:
        assert list(grads[i]) == list(ref_grads[i])
        for name in ref_grads[i]:
            np.testing.assert_array_equal(grads[i][name], ref_grads[i][name], strict=True)


# Recorded with the float32-sketch truncated_svd, the float32 quantizer
# input of the quantized forward, Adam on the transformed-domain shadow
# residual and scipy-openblas 0.3.31 on x86-64; a BLAS that rounds its
# GEMMs differently moves these last bits.
_SWEEP_LOSSES = {
    "adam": ("0x1.3c264f0c6cf62p-1", "0x1.9aca65fee9477p-2"),
}


@pytest.mark.parametrize("optimizer,lr", [("adam", 1e-3)])
def test_sweep_losses_pinned_bitwise(optimizer, lr):
    model = make_toy_model((128, 96, 64, 64), seed=31)
    data = make_toy_data(128, seed=31)
    config = TrainConfig(steps=0, seed=31, learning_rate=lr)
    (row,) = steps_sweep(model, data, (5,), config=config, full_steps=30, rank=8)
    initial, final = (float.fromhex(h) for h in _SWEEP_LOSSES[optimizer])
    assert (row["initial_loss"], row["final_loss"]) == (initial, final)


def test_a_sweep_row_evaluates_the_teacher_on_the_pool_twice(monkeypatch):
    # The teacher is frozen, so profiling and the sweep each compute the
    # pool's targets once: 15 evaluations per row became 2 (base loss, 12
    # cells, initial and final).
    model = make_toy_model((32, 24, 16, 16), seed=33)
    data = make_toy_data(32, seed=33)
    calls = []
    real = ToyModel.target

    def spy(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(ToyModel, "target", spy)
    rows = steps_sweep(model, data, (0, 2), config=TrainConfig(steps=0, batch=4), full_steps=1)
    assert calls.count(len(data.val_inputs)) == 2 * len(rows)


@pytest.mark.parametrize("trainable,param_layers,input_layers",
                         [({0}, [0], [3, 2, 1]), ({2}, [2], [3]), ({1, 3}, [3, 1], [3, 2]),
                          (set(), [], [])],
                         ids=["first", "middle", "two", "none"])
def test_backward_forms_only_the_gradients_it_returns(monkeypatch, trainable, param_layers,
                                                      input_layers):
    model = make_toy_model((32, 24, 32, 16, 16), seed=47)
    model.layers[0].enable_quant(3, rank=4)
    model.layers[2].enable_quant(2, rank=0)
    calls = {"param": [], "input": []}
    for kind, name in (("param", "_param_grads"), ("input", "_input_grad")):
        real = getattr(ToyLayer, name)

        def spy(self, gy, cache, real=real, kind=kind):
            calls[kind].append(model.layers.index(self))
            return real(self, gy, cache)

        monkeypatch.setattr(ToyLayer, name, spy)
    model.loss_and_grads(np.random.default_rng(48).standard_normal((6, 32)), trainable)
    assert calls == {"param": param_layers, "input": input_layers}


# ---------------------------------------------------------------------------
# Toy data
# ---------------------------------------------------------------------------

def test_toy_data_width_is_the_pool_width():
    data = ToyData(val_inputs=np.zeros((50, 32)))
    assert data.in_dim == 32
    assert data.train_batch(np.random.default_rng(0), 4).shape == (4, 32)
    assert make_toy_data(24, seed=1).in_dim == 24
    with pytest.raises(AttributeError):
        data.in_dim = 16
    with pytest.raises(TypeError):
        ToyData(in_dim=16, val_inputs=np.zeros((50, 32)))


@pytest.mark.parametrize(
    "build",
    [lambda: make_toy_model((16, -1)), lambda: make_toy_model((16, 0)),
     lambda: make_toy_model((16.5, 8)), lambda: make_toy_model((True, 8)),
     lambda: make_toy_model((16, np.int64(-2))), lambda: make_toy_data(-3),
     lambda: make_toy_data(2.5)],
    ids=["negative", "zero", "float", "bool", "numpy_negative", "data_negative", "data_float"],
)
def test_toy_widths_must_be_integers_of_at_least_one(build):
    # Before the check these raised numpy's ValueError or a TypeError, or
    # built a 0 x 16 layer (and a 1-wide one from True) that failed later.
    with pytest.raises(ValidationError, match="integer >= 1"):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: make_toy_model(5), lambda: make_toy_model(None), lambda: make_toy_model(16.0),
     lambda: steps_sweep(make_toy_model((8, 8)), make_toy_data(8), 5)],
    ids=["widths_int", "widths_none", "widths_float", "step_grid_int"],
)
def test_toy_widths_and_step_grids_must_be_sequences(build):
    # Before the check these raised a TypeError from len() or iteration.
    with pytest.raises(ValidationError, match=r"(widths|step_grid) must be a .*sequence"):
        build()


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("build", [lambda s: make_toy_model((8, 8), seed=s),
                                   lambda s: make_toy_data(8, seed=s),
                                   lambda s: TrainConfig(seed=s),
                                   lambda s: ToyLayer(np.ones((8, 8))).enable_quant(2, seed=s),
                                   lambda s: ToyLayer(np.ones((8, 8))).enable_quant(32, seed=s)],
                         ids=["model", "data", "config", "enable_quant", "enable_quant_fp"])
def test_profiler_seeds_must_be_integers_of_at_least_zero(build, seed):
    # Before the check the toy builders raised numpy's ValueError or a
    # TypeError, and TrainConfig built and failed only inside profiling.
    # enable_quant took any seed and ignored it.
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        build(seed)


@pytest.mark.parametrize("x", [np.ones((3, 5)), np.ones(16)], ids=["wrong_width", "1d"])
@pytest.mark.parametrize("call", [lambda m, x: m.loss(x), lambda m, x: m.forward(x),
                                  lambda m, x: m.loss_and_grads(x, {0})],
                         ids=["loss", "forward", "loss_and_grads"])
def test_toy_model_rejects_a_batch_that_is_not_its_input(call, x):
    # At a dense first layer the wrong width raised numpy's matmul
    # ValueError and a 1-D batch gave a loss; a quantized one rejected both.
    model = make_toy_model((16, 8), seed=1)
    with pytest.raises(ValidationError, match="x must be a real 2-D matrix"):
        call(model, x)


@pytest.mark.parametrize("shape", [(50,), (50, 0), (2, 50, 32), ()],
                         ids=["1d", "no_columns", "3d", "scalar"])
def test_toy_data_rejects_a_pool_that_is_not_a_matrix(shape):
    with pytest.raises(ValidationError, match="val_inputs"):
        ToyData(val_inputs=np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_toy_data_rejects_a_non_finite_pool(bad):
    # a NaN pool built, its loss was NaN, and profiling failed only after
    # training the first cell, with an error that did not name the pool
    pool = make_toy_data(8, seed=1).val_inputs
    pool[3, 5] = bad
    with pytest.raises(ValidationError, match="val_inputs"):
        ToyData(val_inputs=pool)
