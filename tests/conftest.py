import itertools

import numpy as np
import pytest

from robuq.allocator import Allocation
from robuq.errors import ValidationError
from robuq.quant import _CODES_K, token_codes
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


@pytest.fixture(scope="session")
def enumerate_allocation():
    """``enumerate_allocation(problem)`` is the exact optimum of an
    ``AllocationProblem`` by scoring all |bit_set|^L width assignments of
    its optimized layers, the oracle for ``dp_allocate``. It shares no code
    with the allocator: it forms the budget as ``dp_allocate`` states it,
    target * W_dp * (1 + 1e-12) with W_dp the sum of the optimized layers'
    weights in layer order, and sums each assignment's cost, loss and
    average itself. Ties go to lower widths, then lower layer indices: the
    assignments run in lexicographic order over the ascending bit set and
    the first strict minimum wins. Layers with ``fixed_bits`` keep them."""

    def solve(problem):
        table, bit_set = problem.table, sorted(problem.bit_set)
        free = [(layer, row) for layer, row in zip(table.layers, table.delta_loss)
                if layer.fixed_bits is None]
        assert len(free) <= 12, "enumeration is meant for small instances"
        weights = [layer.flops_weight for layer, _ in free]
        w_dp = sum(weights)
        budget = problem.target_avg_bits * w_dp * (1.0 + 1e-12)
        column = {b: table.bits.index(b) for b in bit_set}
        best = None
        for assign in itertools.product(bit_set, repeat=len(free)):
            if sum(w * b for w, b in zip(weights, assign)) > budget:
                continue
            loss = sum(float(row[column[b]]) for (_, row), b in zip(free, assign))
            if best is None or loss < best[0]:
                best = (loss, assign)
        if best is None:
            raise ValidationError(f"no assignment fits {problem.target_avg_bits} bits")
        loss, assign = best
        bits = {layer.name: b for (layer, _), b in zip(free, assign)}
        bits.update((l.name, l.fixed_bits) for l in table.layers if l.fixed_bits is not None)
        average = sum(w * b for w, b in zip(weights, assign)) / w_dp if free else 0.0
        return Allocation(bits, achieved_avg_bits=average, predicted_loss=loss)

    return solve


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


@pytest.fixture(scope="session")
def codes_contract():
    """``check(x, cb, center, codes, mu, sigma)`` asserts the float32 token
    coder's contract (``quant.token_codes``) for ``codes``, ``mu`` and
    ``sigma`` against the float64 coder on the float64 tokens ``x``: with
    u_t = K * (eps32 * max|x_t| + tiny32), mu and sigma lie within u_t of
    the reference, and each code differs from the reference code by at
    most the number of thresholds within delta_t = u_t / sigma_t of the
    reference z (a degenerate reference row has delta_t = inf). Returns
    the number of codes that differ."""
    eps32, tiny32 = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).tiny)

    def check(x, cb, center, codes, mu, sigma):
        x = np.asarray(x, dtype=np.float64)
        ref_codes, ref_mu, ref_sigma = token_codes(x, cb, center)
        unit = _CODES_K * (eps32 * np.abs(x).max(axis=1) + tiny32)
        assert (np.abs(mu - ref_mu) <= unit).all()
        assert (np.abs(sigma - ref_sigma) <= unit).all()
        live = ref_sigma > 0
        z = np.zeros_like(x)
        z[live] = (x[live] - (ref_mu[live, None] if center else 0.0)) / ref_sigma[live, None]
        delta = np.full(len(x), np.inf)
        delta[live] = unit[live] / ref_sigma[live]
        near = (np.searchsorted(cb.thresholds, z + delta[:, None], side="right")
                - np.searchsorted(cb.thresholds, z - delta[:, None], side="left"))
        moved = np.abs(codes.astype(np.int64) - ref_codes)
        assert (moved <= near).all()
        assert codes.min() >= 0 and codes.max() < len(cb.levels)
        return int(np.count_nonzero(moved))

    return check
