"""Activation bit-width allocation under a FLOPs-weighted average-bit budget.

``dp_allocate`` is exact on the continuous budget sum(w_l * b_l) <= target *
W_dp, up to a relative 1e-12. It is the dominance DP for the multiple-choice
knapsack (Kellerer, Pferschy & Pisinger, *Knapsack Problems*, 2004, ch. 11);
the paper's DP rounds each cost to units of W_dp / beta and so solves a
looser budget. Layers with ``fixed_bits`` set are excluded from the
optimization and from its budget; they re-enter only in the whole-network
average.

Ties: each layer's candidates are ordered by (cost, loss, index), index =
parent position * len(bit_set) + width position, and one survives only if
its loss is strictly below every earlier one's. So of two assignments with
equal loss the cheaper is returned; at equal cost too, the one whose prefix
sat earlier (cheaper) on the previous frontier, then the lower last width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quant import _check_int, _check_real, _check_widths
from .tensorio import SensitivityTable

DEFAULT_BIT_SET = (1, 2, 3, 4)


@dataclass
class AllocationProblem:
    """``target_avg_bits`` is a finite real, stored as a Python float, and
    ``bit_set`` a set of widths (``quant._check_widths``: each in 1..8 or
    32, none repeated), stored sorted. ``beta`` has no effect: the
    allocator is exact and has no resolution. It is still accepted, as an
    integer >= 1, because existing callers pass or read it."""

    table: SensitivityTable
    target_avg_bits: float
    beta: int = 1000
    bit_set: tuple[int, ...] = DEFAULT_BIT_SET

    def __post_init__(self):
        self.target_avg_bits = _check_real(self.target_avg_bits, "target_avg_bits")
        _check_int(self.beta, "beta")
        self.bit_set = _check_widths(self.bit_set, "bit_set")
        missing = [b for b in self.bit_set if b not in self.table.bits]
        if missing:
            raise ValidationError(f"sensitivity table lacks columns for bits {missing}")


@dataclass
class Allocation:
    """Chosen widths per layer plus the budget bookkeeping.

    ``achieved_avg_bits`` is the FLOPs-weighted average over the optimized
    (non-fixed) layers; ``predicted_loss`` sums their loss gaps.
    """

    bits_per_layer: dict[str, int]
    achieved_avg_bits: float
    predicted_loss: float


def dp_allocate(problem: AllocationProblem) -> Allocation:
    """Minimize the summed loss gaps under the exact budget.

    The frontier holds the surviving (cost, loss) pairs of partial
    assignments, by rising cost and strictly falling loss. A candidate is
    also dropped when the minimum width on the remaining layers would not
    fit. The last pair of the final frontier is the optimum; its cost and
    loss are the sums along the chosen path, added in layer order.

    A target below the narrowest width of ``bit_set`` fits no assignment
    and raises ``ValidationError``, whose message names that width as the
    minimum achievable average.
    """
    table, bit_set = problem.table, problem.bit_set
    dp_idx = [i for i, l in enumerate(table.layers) if l.fixed_bits is None]
    fixed = {l.name: l.fixed_bits for l in table.layers if l.fixed_bits is not None}
    if not dp_idx:
        return Allocation(fixed, achieved_avg_bits=0.0, predicted_loss=0.0)
    widths = np.array(bit_set, dtype=np.float64)
    weights = np.array([table.layers[i].flops_weight for i in dp_idx])
    w_dp = sum(weights.tolist())
    if w_dp <= 0:
        raise ValidationError("total FLOPs weight of optimized layers must be positive")
    gaps = table.delta_loss[np.ix_(dp_idx, [table.bits.index(b) for b in bit_set])]
    budget = problem.target_avg_bits * w_dp * (1.0 + 1e-12)
    rest = np.append(np.cumsum(weights[::-1])[::-1][1:], 0.0) * widths[0]

    cost, loss = np.zeros(1), np.zeros(1)
    parents = []  # per layer: the kept candidates' indices, parent * len(bit_set) + width
    for step in range(len(dp_idx)):
        cand_cost = (cost[:, None] + weights[step] * widths).ravel()
        cand_loss = (loss[:, None] + gaps[step]).ravel()
        fits = np.flatnonzero(cand_cost + rest[step] <= budget)
        if not fits.size:
            raise ValidationError(f"budget {problem.target_avg_bits} infeasible; "
                                  f"minimum achievable average is {bit_set[0]} bits")
        # The stable sort keeps equal costs in index order; of the pairs that beat all
        # before them, the last of an equal-cost run is the (cost, loss, index) survivor.
        order = fits[np.argsort(cand_cost[fits], kind="stable")]
        sorted_loss = cand_loss[order]
        best_before = np.minimum.accumulate(np.concatenate(([np.inf], sorted_loss[:-1])))
        kept = order[sorted_loss < best_before]
        kept_cost = cand_cost[kept]
        kept = kept[np.append(kept_cost[1:] != kept_cost[:-1], True)]
        cost, loss = cand_cost[kept], cand_loss[kept]
        parents.append(kept)

    picks = [0] * len(dp_idx)
    pos = len(cost) - 1
    for step in range(len(dp_idx) - 1, -1, -1):
        pos, picks[step] = divmod(int(parents[step][pos]), len(bit_set))
    chosen = {table.layers[i].name: bit_set[k] for i, k in zip(dp_idx, picks)}
    return Allocation({**chosen, **fixed}, achieved_avg_bits=float(cost[-1]) / w_dp,
                      predicted_loss=float(loss[-1]))


def achieved_average(alloc: Allocation, table: SensitivityTable) -> float:
    """FLOPs-weighted mean width over every layer, fixed ones included."""
    total_w, total = 0.0, 0.0
    for layer in table.layers:
        if layer.name not in alloc.bits_per_layer:
            raise ValidationError(f"allocation is missing layer {layer.name!r}")
        total_w += layer.flops_weight
        total += layer.flops_weight * alloc.bits_per_layer[layer.name]
    if total_w == 0:
        raise ValidationError("total FLOPs weight is zero")
    return total / total_w
