import numpy as np
import pytest

from robuq.tensorio import LayerSpec, SensitivityTable


@pytest.fixture()
def dit_like_table():
    """112-layer table shaped like DiT-XL/2: 28 blocks of qkv, proj, fc1 and
    fc2 with FLOPs weights 3:1:4:4 and seeded gaps falling with the width."""

    def make(seed=0, bits=(1, 2, 3, 4)):
        rng = np.random.default_rng(seed)
        layers, gaps = [], []
        for block in range(28):
            for name, weight in (("qkv", 3.0), ("proj", 1.0), ("fc1", 4.0), ("fc2", 4.0)):
                layers.append(LayerSpec(f"blocks.{block}.{name}", flops_weight=weight))
                gaps.append(rng.lognormal(0.0, 1.0) * np.cumprod(rng.uniform(0.2, 0.6, len(bits))))
        return SensitivityTable(layers, list(bits), np.array(gaps))

    return make


@pytest.fixture()
def loss_at_fixed_decisions():
    """``make(model, x)`` returns a closure that evaluates ``model.loss(x)``
    after asserting that every quantized layer's ternary values, token
    codes, means and scales equal those of ``model`` when ``make`` was
    called. The straight-through gradient is the derivative of the loss
    only while no quantizer decision moves, so finite differences of this
    closure check it and fail loudly if a step crosses a decision."""

    def decisions(model, x):
        _, caches = model.forward(x)
        return [(layer.qlayer.wq.values, c["codes"], c["mu"], c["sigma"])
                for layer, c in zip(model.layers, caches) if layer.quantized]

    def make(model, x):
        reference = decisions(model, x)

        def loss():
            for now, then in zip(decisions(model, x), reference, strict=True):
                for a, b in zip(now, then, strict=True):
                    np.testing.assert_array_equal(a, b)
            return model.loss(x)

        return loss

    return make


@pytest.fixture()
def backward():
    """``backward(layer, gy, cache)`` returns a toy layer's straight-through
    (parameter gradients, input gradient), the two halves that
    ``ToyModel.loss_and_grads`` forms separately."""

    def run(layer, gy, cache):
        return layer._param_grads(gy, cache), layer._input_grad(gy, cache)

    return run
