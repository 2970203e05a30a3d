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
