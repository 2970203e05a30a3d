"""Desk-scale QAT sensitivity profiling on toy quantized linear models.

The toy task is regression against a frozen random teacher: the student
starts as an exact copy, so the full-precision loss is identically zero and
every loss gap is attributable to quantization. Profiling quantizes one
layer at a time at each candidate bit width, briefly trains only that
layer's parameters with straight-through gradients, and records the
validation loss gap on a fixed pool.

A quantized toy layer is a ``lowrank.QuantLinearLayer`` run through
``lowrank.forward_with_cache`` and built from ``lowrank``'s one split of a
weight, the one ``init_layer`` makes, so the layer that is profiled is the
layer that is deployed. The profiler adds only what QAT needs: a float
shadow of the tensor that is ternarized, the split's transformed residual
W H^T - A0 B0, and the straight-through backward. Every step ternarizes
that shadow as it stands and trains it directly, so no step transforms the
weight or its gradient. Both quantizers backpropagate as identity; the
low-rank factors and everything outside a quantizer receive exact
chain-rule gradients. The finite-difference checks pin this down on
``ToyModel.loss``, asserting at every evaluation that no quantizer
decision (ternary value, token code, mean or scale) has moved.

Each step does only the work it uses. ``ToyModel.loss`` runs the deployed
forward alone and forms none of the straight-through arrays, and
``loss_and_grads`` forms parameter gradients only for the trainable layers
and input gradients only above the lowest of them.
``_train`` copies the trainable arrays into one contiguous float64 buffer
and rebinds each layer's ``weight``, ``A`` and ``B`` to views of it, each in
its own memory order, so the optimizer updates every parameter with one
pass of in-place numpy operations per step (the flat-buffer form of a
multi-tensor optimizer). The layers keep those views after training. Every
element sees the same floating-point operations in the same order as in a
per-array update, and every GEMM sees the same operand layouts, so the
trained parameters and losses are bitwise those of the per-array loop.
"""

from __future__ import annotations

import copy as _copy
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .allocator import AllocationProblem, dp_allocate
from .errors import ValidationError
# transform_tokens and fold_into_weights are not called here; they stay
# importable from this module, where perfbench's tracer test and the tests
# that refuse a transform of the shadow weight patch them.
from .hadamard import HadamardPlan, fold_into_weights, inverse_tokens, transform_tokens
from .lowrank import QuantLinearLayer, _split, forward_with_cache
from .quant import (FP_BITS, _check_bits, _check_int, _check_matrix, _check_real, _check_widths,
                    dequantize_codes, ternarize, uniform_gauss_codebook)
from .tensorio import LayerSpec, SensitivityTable

_VAL_POOL = 1000  # validation tokens of every toy data set


@dataclass
class TrainConfig:
    """Short-QAT hyperparameters for Adam; steps = 0 degenerates to pure PTQ.
    ``learning_rate`` is a finite real > 0, stored as a Python float."""

    steps: int = 1000
    learning_rate: float = 1e-3
    batch: int = 32
    seed: int = 42

    def __post_init__(self):
        _check_int(self.steps, "steps", least=0)
        _check_int(self.batch, "batch")
        _check_int(self.seed, "seed", least=0)
        self.learning_rate = _check_real(self.learning_rate, "learning_rate", least=0, strict=True)


class ToyLayer:
    """One trainable linear layer; quantized, it wraps a ``QuantLinearLayer``.
    ``weight`` is a real matrix with both dims >= 1 (``quant._check_matrix``),
    copied to float64: the dense weight W, or on a quantized layer the
    shadow of the ternarized tensor, the transformed residual
    R = W H^T - A0 B0 of the same shape, which ``enable_quant`` takes
    from the split that ``init_layer`` makes too. A quantized layer trains
    R and its branch factors ``A`` and ``B`` at every rank; at rank 0 they
    are 0 wide, so only R holds values."""

    def __init__(self, weight: np.ndarray):
        self.weight = np.array(_check_matrix(weight, "weight"), dtype=np.float64)
        self.qlayer: QuantLinearLayer | None = None

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def quantized(self) -> bool:
        return self.qlayer is not None

    @property
    def plan(self) -> HadamardPlan | None:
        return None if self.qlayer is None else self.qlayer.plan

    def enable_quant(self, bits: int, rank: int = 0, seed: int = 0) -> None:
        """Switch this layer to the quantized path at ``bits`` activation bits.

        ``bits`` is a width in 1..8, or 32 to keep the layer on the exact
        dense path; anything else raises ``ValidationError``. ``rank`` is
        clamped to min(dims) here: a profile asks one rank of layers of
        several widths, and clamping is the profiler's policy, while
        ``init_layer`` rejects a rank above min(dims). The layer comes from
        ``lowrank``'s one split of a weight, the one ``init_layer`` makes:
        W is transformed once, the low-rank branch is initialized from the
        transformed weight's top singular structure (0 wide at rank 0, the
        default), and ``weight`` becomes the residual R = W H^T - A0 B0, so
        ``ternarize(weight)`` is ``init_layer``'s ternary weight bit for
        bit. R and the factors then train freely and no later step
        transforms the weight. A layer that is already quantized holds R,
        not W, so quantizing it again raises ``ValidationError`` and
        changes nothing.
        ``seed`` has no effect: the SVD's random sketch is drawn from a
        fixed internal seed, so it is deterministic. It is still accepted,
        as an integer >= 0 checked before anything else, because existing
        callers pass it.
        """
        _check_int(seed, "seed", least=0)
        if _check_bits(bits, full_precision=True, name="activation bits"):
            return
        if self.quantized:
            raise ValidationError("the layer is already quantized; its weight is the residual")
        branch, self.weight = _split(self.weight, min(rank, min(self.weight.shape)))
        self.qlayer = QuantLinearLayer(wq=ternarize(self.weight), branch=branch,
                                       codebook=uniform_gauss_codebook(bits))

    def params(self) -> dict[str, np.ndarray]:
        """The trainable arrays: ``weight`` (R on a quantized layer), and on
        a quantized layer the branch factors ``A`` and ``B``, which are
        0 wide at rank 0."""
        out = {"weight": self.weight}
        if self.quantized:
            out["A"] = self.qlayer.branch.A
            out["B"] = self.qlayer.branch.B
        return out

    def bind(self, params: dict[str, np.ndarray]) -> None:
        """Point the trainable arrays named as in ``params()`` at new arrays
        holding the same values (``_train`` passes views of its buffer)."""
        self.weight = params["weight"]
        if self.quantized:
            self.qlayer.branch.A, self.qlayer.branch.B = params["A"], params["B"]

    def deployed_forward(self, x: np.ndarray):
        """Returns (y, cache) of the deployed layer alone: the dense product,
        or ``forward_with_cache`` after the shadow residual ``weight`` is
        ternarized as it stands (no transform of the weight)."""
        if not self.quantized:
            return x @ self.weight.T, {"x": x}
        q = self.qlayer
        q.wq = ternarize(self.weight)
        return forward_with_cache(q, x)

    def forward(self, x: np.ndarray):
        """Returns (y, cache): ``deployed_forward`` plus, on a quantized
        layer, what the straight-through backward reads."""
        y, cache = self.deployed_forward(x)
        if not self.quantized:
            return y, cache
        q = self.qlayer
        # The straight-through backward needs the dequantized activations
        # and the dense ternary weight, which the forward never forms; the
        # forward's codes are float32 on a uniform grid.
        codes = cache["codes"].astype(np.int64, copy=False)
        deq = dequantize_codes(codes, q.codebook, cache["mu"], cache["sigma"], q.center)
        cache.update(x=x, deq=deq, wq=q.wq.dequantize())
        return y, cache

    def _param_grads(self, gy: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Straight-through parameter gradients: both quantizers behave as
        identity, so the shadow residual, which lives in the transformed
        domain, inherits the dequantized-product gradient gy^T deq with no
        inverse transform. The factors' gradients are exact; at rank 0
        they are 0 wide like the factors."""
        if not self.quantized:
            return {"weight": gy.T @ cache["x"]}
        branch = self.qlayer.branch
        # one float64 copy of the float32 xh for both products, the cast
        # each mixed-dtype matmul would make
        xh = cache["xh"].astype(np.float64)
        return {"weight": gy.T @ cache["deq"],
                "A": gy.T @ (xh @ branch.B.T),
                "B": branch.A.T @ gy.T @ xh}

    def _input_grad(self, gy: np.ndarray, cache: dict) -> np.ndarray:
        """Straight-through input gradient: the transformed activation
        inherits the output-side chain of both branches (the low-rank one
        adds zeros at rank 0)."""
        if not self.quantized:
            return gy @ self.weight
        branch = self.qlayer.branch
        return inverse_tokens(gy @ cache["wq"] + gy @ branch.A @ branch.B)


@dataclass
class ToyModel:
    """Trainable student layers plus the frozen teacher they regress onto."""

    layers: list[ToyLayer]
    teacher: list[np.ndarray]

    def copy(self) -> "ToyModel":
        return _copy.deepcopy(self)

    def target(self, x: np.ndarray) -> np.ndarray:
        h = x
        for w in self.teacher:
            h = h @ w.T
        return h

    def forward(self, x: np.ndarray):
        """Returns (y, caches). ``x`` is a real matrix with at least one row
        and the first layer's in_dim columns (``quant._check_matrix``)."""
        h = _check_matrix(x, "x", width=self.layers[0].in_dim)
        caches = []
        for layer in self.layers:
            h, cache = layer.forward(h)
            caches.append(cache)
        return h, caches

    def loss(self, x: np.ndarray) -> float:
        """Mean squared error against the teacher, bitwise equal to that of
        ``forward``'s output. Each layer runs only its deployed forward, so
        no straight-through array is formed; nothing backpropagates here.
        ``x`` is held to ``forward``'s rule before the teacher runs."""
        x = _check_matrix(x, "x", width=self.layers[0].in_dim)
        return self._loss(x, self.target(x))

    def _loss(self, x: np.ndarray, target: np.ndarray) -> float:
        """``loss`` against ``target``, the teacher's output on ``x``, which
        a caller that evaluates one pool many times computes once."""
        h = x
        for layer in self.layers:
            h, _ = layer.deployed_forward(h)
        return float(np.mean((h - target) ** 2))

    def loss_and_grads(self, x: np.ndarray, trainable: set[int]):
        """Loss and the gradients of the ``trainable`` layers. The backward
        forms parameter gradients only for those layers and input gradients
        only above the lowest of them, since nothing else is updated."""
        y, caches = self.forward(x)
        t = self.target(x)
        diff = y - t
        loss = float(np.mean(diff**2))
        gy = (2.0 / diff.size) * diff
        grads: dict[int, dict[str, np.ndarray]] = {}
        lowest = min(trainable, default=len(self.layers))
        for i in range(len(self.layers) - 1, lowest - 1, -1):
            if i in trainable:
                grads[i] = self.layers[i]._param_grads(gy, caches[i])
            if i > lowest:
                gy = self.layers[i]._input_grad(gy, caches[i])
        return loss, grads


@dataclass
class ToyData:
    """Gaussian inputs: a fixed validation pool plus a fresh-batch sampler.
    The input width is the pool's, which must be a finite real matrix with
    at least one row and one column (``quant._check_matrix``), held as
    float64."""

    val_inputs: np.ndarray

    def __post_init__(self):
        pool = _check_matrix(self.val_inputs, "val_inputs")
        self.val_inputs = pool.astype(np.float64, copy=False)
        if not np.isfinite(self.val_inputs).all():
            raise ValidationError("val_inputs contain NaN or Inf")

    @property
    def in_dim(self) -> int:
        return self.val_inputs.shape[1]

    def train_batch(self, rng: np.random.Generator, batch: int) -> np.ndarray:
        return rng.standard_normal((batch, self.in_dim))


def make_toy_model(widths: tuple[int, ...], seed: int = 0) -> ToyModel:
    """Random teacher of len(widths)-1 linear layers; student starts equal.

    Every width is an integer >= 1 and runs the same transform kernel; a
    width that is not a power of two mixes only within blocks of its
    largest power-of-two divisor.
    """
    if not isinstance(widths, Sequence) or len(widths) < 2:
        raise ValidationError(f"widths must be a sequence of at least two widths, got {widths!r}")
    for width in widths:
        _check_int(width, "widths entry")
    _check_int(seed, "seed", least=0)
    rng = np.random.default_rng(seed)
    teacher = [
        rng.standard_normal((widths[i + 1], widths[i])) / np.sqrt(widths[i])
        for i in range(len(widths) - 1)
    ]
    return ToyModel(layers=[ToyLayer(w) for w in teacher], teacher=[w.copy() for w in teacher])


def make_toy_data(in_dim: int, seed: int = 0) -> ToyData:
    _check_int(in_dim, "in_dim")
    _check_int(seed, "seed", least=0)
    rng = np.random.default_rng([seed, 0xDA7A])
    return ToyData(val_inputs=rng.standard_normal((_VAL_POOL, in_dim)))


class _Adam:
    """Adam over one flat float64 parameter buffer.

    ``step`` updates ``params`` in place and uses ``grad`` as scratch. Each
    element goes through the textbook per-array formulas in their order,
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps),
    so the result is bitwise that of updating each array on its own.
    """

    def __init__(self, lr: float, size: int):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty(size)
        self.t = 0
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        m, v, s = self.m, self.v, self.scratch
        np.multiply(grad, 1 - self.b2, out=s)
        s *= grad
        v *= self.b2
        v += s
        grad *= 1 - self.b1
        m *= self.b1
        m += grad
        np.divide(v, 1 - self.b2**self.t, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        np.divide(m, 1 - self.b1**self.t, out=grad)
        grad *= self.lr
        grad /= s
        params -= grad


def _train(model: ToyModel, data: ToyData, trainable: set[int],
           config: TrainConfig, rng: np.random.Generator) -> None:
    """``config.steps`` Adam steps on the ``trainable`` layers.

    The trainable arrays are copied into one contiguous float64 buffer and
    each layer is rebound to views of it (``ToyLayer.bind``); the layers
    keep those views afterwards. A view keeps its array's memory order (B
    from ``init_layer`` is Fortran-ordered), since BLAS may round a product
    differently when an operand's layout changes. Every step writes the
    gradients into a second flat buffer, each in its parameter's order,
    with one ``np.concatenate`` and updates the whole buffer in place,
    bitwise as a per-array update would.
    """
    if config.steps == 0 or not trainable:
        return
    slots = []  # (layer index, name, array, memory order)
    for i in sorted(trainable):
        for name, arr in model.layers[i].params().items():
            slots.append((i, name, arr, "F" if arr.flags.f_contiguous else "C"))
    flat = np.concatenate([arr.ravel(order) for _, _, arr, order in slots])
    views: dict[int, dict[str, np.ndarray]] = {}
    offset = 0
    for i, name, arr, order in slots:
        views.setdefault(i, {})[name] = flat[offset:offset + arr.size].reshape(arr.shape, order=order)
        offset += arr.size
    for i, layer_views in views.items():
        model.layers[i].bind(layer_views)
    grad = np.empty_like(flat)
    opt = _Adam(config.learning_rate, flat.size)
    for _ in range(config.steps):
        x = data.train_batch(rng, config.batch)
        _, grads = model.loss_and_grads(x, trainable)
        np.concatenate([grads[i][name].ravel(order) for i, name, _, order in slots], out=grad)
        opt.step(flat, grad)


def _layer_specs(model: ToyModel) -> list[LayerSpec]:
    raw = [layer.out_dim * layer.in_dim for layer in model.layers]
    mean_flops = sum(raw) / len(raw)
    return [LayerSpec(name=f"fc{i}", flops_weight=f / mean_flops) for i, f in enumerate(raw)]


def profile_sensitivity(
    model: ToyModel,
    data: ToyData,
    bits: tuple[int, ...],
    config: TrainConfig,
    rank: int = 0,
) -> SensitivityTable:
    """Per-layer, per-bit loss gaps after short QAT (Algorithm: quantize one
    layer, freeze the rest, train briefly, evaluate on the fixed pool).

    Each (layer, bit) cell derives its own generator from (seed, layer, bit),
    so the table is identical no matter how cells are scheduled. Each width
    is in 1..8, or 32 for no quantization, whose gap is exactly zero by
    construction; any other width, or one given twice, raises
    ``ValidationError`` before a cell is trained. Each layer is converted
    once: only the codebook depends on the width, so every cell of the layer
    starts from a copy of that conversion with its own width's codebook,
    bitwise the layer ``enable_quant`` would build for that cell.
    """
    if data.in_dim != model.layers[0].in_dim:
        raise ValidationError(
            f"data width {data.in_dim} is not the model's input width {model.layers[0].in_dim}")
    bits = _check_widths(bits, "bits")
    targets = model.target(data.val_inputs)  # the frozen teacher's, for every cell
    base_loss = model._loss(data.val_inputs, targets)
    gaps = np.zeros((len(model.layers), len(bits)))
    for li in range(len(model.layers)):
        converted = None
        for bi, b in enumerate(bits):
            if b == FP_BITS:
                continue
            if converted is None:
                converted = _copy.deepcopy(model.layers[li])
                converted.enable_quant(b, rank=rank)
            trial = model.copy()
            layer = trial.layers[li] = _copy.deepcopy(converted)
            layer.qlayer = replace(layer.qlayer, codebook=uniform_gauss_codebook(b))
            rng = np.random.default_rng([config.seed, li, b])
            _train(trial, data, {li}, config, rng)
            gaps[li, bi] = trial._loss(data.val_inputs, targets) - base_loss
    return SensitivityTable(layers=_layer_specs(model), bits=list(bits), delta_loss=gaps)


def steps_sweep(
    model: ToyModel,
    data: ToyData,
    step_grid: tuple[int, ...],
    bits: tuple[int, ...] = (1, 2, 3, 4),
    target_avg_bits: float = 2.0,
    config: TrainConfig | None = None,
    full_steps: int = 2000,
    rank: int = 0,
) -> list[dict]:
    """Final convergence loss of the mixed-precision model built from
    sensitivity tables collected at each profiling-step count.

    For each grid entry s: profile at s steps, allocate bits under the
    target budget, quantize every layer accordingly, then train the whole
    model and record its initial and final validation loss.
    """
    if not isinstance(step_grid, Sequence) or not step_grid:
        raise ValidationError(f"step_grid must be a nonempty sequence of steps, got {step_grid!r}")
    config = config or TrainConfig()
    rows = []
    for s in step_grid:
        table = profile_sensitivity(model, data, bits, replace(config, steps=s), rank=rank)
        alloc = dp_allocate(AllocationProblem(table, target_avg_bits, bit_set=bits))
        trial = model.copy()
        for i, layer in enumerate(trial.layers):
            layer.enable_quant(alloc.bits_per_layer[f"fc{i}"], rank=rank)
        targets = model.target(data.val_inputs)
        initial = trial._loss(data.val_inputs, targets)
        rng = np.random.default_rng([config.seed, 0xF0, s])
        _train(trial, data, set(range(len(trial.layers))),
               replace(config, steps=full_steps), rng)
        final = trial._loss(data.val_inputs, targets)
        rows.append({"steps": s, "initial_loss": initial, "final_loss": final,
                     "bits": dict(alloc.bits_per_layer)})
    return rows

