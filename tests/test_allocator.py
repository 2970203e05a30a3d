import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robuq.allocator import AllocationProblem, achieved_average, dp_allocate
from robuq.errors import ValidationError
from robuq.tensorio import LayerSpec, SensitivityTable


def _table(gaps, weights=None, fixed=None, bits=(1, 2, 3, 4)):
    gaps = np.asarray(gaps, dtype=float)
    n = gaps.shape[0]
    weights = weights or [1.0] * n
    fixed = fixed or [None] * n
    layers = [LayerSpec(f"l{i}", flops_weight=weights[i], fixed_bits=fixed[i]) for i in range(n)]
    return SensitivityTable(layers, list(bits), gaps)


def permille_shares(rng, n):
    """Random FLOPs shares that are integral in units of W/beta at beta=1000."""
    cuts = np.sort(rng.choice(np.arange(1, 1000), size=n - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [1000]))) / 1000.0


def test_single_layer_budget_permits_maximum():
    t = _table([[0.5, 0.2, 0.1]], bits=(1, 2, 3))
    alloc = dp_allocate(AllocationProblem(t, target_avg_bits=3.0, bit_set=(1, 2, 3)))
    assert alloc.bits_per_layer == {"l0": 3}
    assert alloc.predicted_loss == 0.1


def test_two_layer_tradeoff_against_brute_force(enumerate_allocation):
    # dL1(1)+dL2(3) = 9.6 vs dL1(2)+dL2(2) = 9 -> both layers get 2 bits.
    t = _table([[9, 1, 0.5], [9, 8, 0.6]], bits=(1, 2, 3))
    problem = AllocationProblem(t, target_avg_bits=2.0, bit_set=(1, 2, 3))
    dp = dp_allocate(problem)
    bf = enumerate_allocation(problem)
    assert dp.predicted_loss == bf.predicted_loss == 9.0
    assert dp.bits_per_layer == bf.bits_per_layer == {"l0": 2, "l1": 2}


def test_dp_matches_brute_force_on_permille_instances(enumerate_allocation):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        w = permille_shares(rng, 6)
        gaps = np.sort(rng.uniform(0, 1, size=(6, 4)))[:, ::-1]
        t = _table(gaps, weights=list(w))
        problem = AllocationProblem(t, target_avg_bits=2.5, beta=1000)
        dp = dp_allocate(problem)
        bf = enumerate_allocation(problem)
        assert abs(dp.predicted_loss - bf.predicted_loss) < 1e-12
        assert dp.achieved_avg_bits <= 2.5 + 4 / 1000


def test_dp_never_beats_continuous_budget_unfairly(enumerate_allocation):
    # beta no longer changes the solve: the DP is exact on the continuous
    # budget, so every gap is 0 and the three totals are equal.
    rng = np.random.default_rng(5)
    gap_by_beta = {}
    for beta in (10, 1000, 100000):
        total = 0.0
        rng2 = np.random.default_rng(5)
        for _ in range(15):
            w = list(rng2.uniform(0.5, 2.0, size=4))
            gaps = np.sort(rng2.uniform(0, 1, size=(4, 4)))[:, ::-1]
            t = _table(gaps, weights=w)
            problem = AllocationProblem(t, 2.5, beta=beta)
            dp, bf = dp_allocate(problem), enumerate_allocation(problem)
            assert dp.predicted_loss <= bf.predicted_loss + 1e-12
            total += bf.predicted_loss - dp.predicted_loss
        gap_by_beta[beta] = total
    assert gap_by_beta[10] >= gap_by_beta[1000] >= gap_by_beta[100000]
    assert gap_by_beta[100000] < 1e-9


def test_budget_monotonicity():
    rng = np.random.default_rng(8)
    gaps = np.sort(rng.uniform(0, 1, size=(5, 4)))[:, ::-1]
    t = _table(gaps, weights=list(permille_shares(rng, 5)))
    losses = [
        dp_allocate(AllocationProblem(t, target)).predicted_loss
        for target in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    ]
    assert all(a >= b for a, b in zip(losses, losses[1:]))


def test_tie_break_prefers_lower_bits():
    t = _table([[0.5, 0.5, 0.5, 0.5]])  # all widths equally bad
    alloc = dp_allocate(AllocationProblem(t, target_avg_bits=4.0))
    assert alloc.bits_per_layer == {"l0": 1}


def test_determinism():
    rng = np.random.default_rng(9)
    gaps = rng.uniform(0, 1, size=(6, 4))
    t = _table(gaps, weights=list(permille_shares(rng, 6)))
    a = dp_allocate(AllocationProblem(t, 2.5))
    b = dp_allocate(AllocationProblem(t, 2.5))
    assert a.bits_per_layer == b.bits_per_layer
    assert a.predicted_loss == b.predicted_loss


def test_fixed_layers_excluded_from_dp():
    t = _table(
        [[0, 0, 0, 0], [4, 2, 1, 0.5]],
        weights=[1.0, 1.0],
        fixed=[8, None],
    )
    alloc = dp_allocate(AllocationProblem(t, target_avg_bits=4.0))
    assert alloc.bits_per_layer == {"l0": 8, "l1": 4}
    assert alloc.achieved_avg_bits == 4.0  # over DP layers only
    assert achieved_average(alloc, t) == 6.0  # whole network includes the 8-bit layer


def test_achieved_average_hand_cases():
    t = _table([[1, 1, 1, 0], [1, 1, 1, 0]], weights=[1.0, 3.0])
    alloc = dp_allocate(AllocationProblem(t, target_avg_bits=4.0))
    alloc.bits_per_layer = {"l0": 4, "l1": 2}
    assert achieved_average(alloc, t) == (1 * 4 + 3 * 2) / 4.0
    # equal weights at one width average to exactly that width
    t2 = _table([[1, 0.5, 0.2, 0.1]] * 3)
    alloc2 = dp_allocate(AllocationProblem(t2, target_avg_bits=4.0))
    assert achieved_average(alloc2, t2) == 4.0


def test_achieved_average_accepts_paper_style_weights():
    t = _table([[1, 0.5, 0.2, 0.1], [1, 0.5, 0.2, 0.1]], weights=[1.334, 1.0])
    alloc = dp_allocate(AllocationProblem(t, target_avg_bits=4.0))
    expected = (1.334 * 4 + 1.0 * 4) / 2.334
    np.testing.assert_allclose(achieved_average(alloc, t), expected, rtol=1e-12)


def test_infeasible_target_below_min_bits(enumerate_allocation):
    t = _table([[1, 0.5, 0.2, 0.1]])
    with pytest.raises(ValidationError, match="minimum achievable average is 1 bits"):
        dp_allocate(AllocationProblem(t, target_avg_bits=0.5))
    with pytest.raises(ValidationError):
        enumerate_allocation(AllocationProblem(t, target_avg_bits=0.5))


def test_brute_force_single_layer(enumerate_allocation):
    t = _table([[1, 0.5, 0.2, 0.1]])
    problem = AllocationProblem(t, target_avg_bits=4.0)
    assert enumerate_allocation(problem).bits_per_layer == dp_allocate(problem).bits_per_layer


def test_brute_force_infeasible(enumerate_allocation):
    t = _table([[1, 0.5], [1, 0.5]], weights=[1.0, 1.0], bits=(2, 4))
    with pytest.raises(ValidationError):
        enumerate_allocation(AllocationProblem(t, target_avg_bits=3.0, bit_set=(4,)))


def test_missing_layer_in_achieved_average():
    t = _table([[1, 0.5, 0.2, 0.1]])
    alloc = dp_allocate(AllocationProblem(t, 4.0))
    del alloc.bits_per_layer["l0"]
    with pytest.raises(ValidationError):
        achieved_average(alloc, t)


def test_bits_missing_from_table_rejected():
    t = _table([[1, 0.5]], bits=(1, 2))
    with pytest.raises(ValidationError):
        AllocationProblem(t, 2.0, bit_set=(1, 2, 3))


@pytest.mark.parametrize("target", [math.nan, math.inf, True, "2",
                                    pytest.param(10**400, id="1e400")])
def test_non_finite_target_rejected(target):
    # "2" raised a TypeError, 10**400 an OverflowError, and True built
    t = _table([[1, 0.5, 0.2, 0.1]])
    with pytest.raises(ValidationError, match="target"):
        AllocationProblem(t, target)


@pytest.mark.parametrize("bit_set", [(2, 2), (2.0,), (True,), ()],
                         ids=["repeated", "float", "bool", "empty"])
def test_bit_set_must_be_a_set_of_widths(bit_set):
    # the first three built and allocated widths of 2, 2.0 and True
    t = _table([[1, 0.5, 0.2, 0.1]])
    with pytest.raises(ValidationError, match="bit_set"):
        AllocationProblem(t, 2.0, bit_set=bit_set)


def test_bit_set_is_stored_sorted_as_plain_ints():
    problem = AllocationProblem(_table([[1, 0.5, 0.2, 0.1]]), 2.0, bit_set=(np.int64(4), 2))
    assert problem.bit_set == (2, 4) and all(type(b) is int for b in problem.bit_set)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_dp_matches_brute_force_property(enumerate_allocation, data):
    bit_set = data.draw(st.sampled_from([(1, 2, 3, 4), (2, 4), (1, 3), (2, 3, 4), (4,)]))
    n = data.draw(st.integers(1, 6))
    weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    fixed = data.draw(st.lists(st.sampled_from([None, None, None, 2, 8]), min_size=n, max_size=n))
    # a coarse grid of gap values makes ties between assignments common
    cell = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5]))
    gaps = [data.draw(st.lists(cell, min_size=len(bit_set), max_size=len(bit_set)))
            for _ in range(n)]
    target = data.draw(st.floats(min(bit_set), max(bit_set)))
    problem = AllocationProblem(_table(gaps, weights, fixed, bits=bit_set), target,
                                bit_set=bit_set)
    dp, bf = dp_allocate(problem), enumerate_allocation(problem)
    assert abs(dp.predicted_loss - bf.predicted_loss) <= 1e-12
    assert dp.achieved_avg_bits <= target * (1.0 + 1e-12)


def test_dit_sized_table_keeps_the_budget(dit_like_table):
    for seed in range(3):
        alloc = dp_allocate(AllocationProblem(dit_like_table(seed), 2.0))
        assert alloc.achieved_avg_bits <= 2.0 * (1.0 + 1e-12)
        assert len(alloc.bits_per_layer) == 112
