"""Quantization primitives for ultra-low-bit linear layers.

Pipeline: Hadamard-transform activations per token so their coordinates
become approximately Gaussian, quantize them with codebooks precomputed for
N(0, 1), ternarize transformed weights against a low-rank full-precision
compensation branch, profile per-layer sensitivity with short QAT runs, and
allocate per-layer activation bit widths by dynamic programming under a
FLOPs-weighted average-bit budget.
"""

from .allocator import Allocation, AllocationProblem, achieved_average, dp_allocate
from .deploy import (
    FlopsConfig,
    FlopsEntry,
    PackedTernary,
    load_packed,
    model_flops,
    pack_ternary,
    save_packed,
    unpack_ternary,
    weighted_flops,
)
from .errors import FormatError, RobuqError, ValidationError
from .gaussanalysis import (
    GaussReport,
    build_report,
    kl_tv_product_gaussian,
    mse_preservation,
    nmi_channels,
    normality,
    offdiag_cov_bound,
    variance_identity,
)
from .hadamard import (HadamardPlan, fold_into_weights, hadamard_matrix, inverse_tokens,
                       transform_tokens)
from .lowrank import (
    LowRankBranch,
    QuantLinearLayer,
    forward,
    init_layer,
    load_layer,
    reconstruct_weight,
    save_layer,
    truncated_svd,
)
from .profiler import (
    ToyData,
    ToyLayer,
    ToyModel,
    TrainConfig,
    make_toy_data,
    make_toy_model,
    profile_sensitivity,
    steps_sweep,
)
from .quant import (
    GaussCodebook,
    TernaryWeights,
    dequantize_codes,
    lloyd_max,
    quantize_tokens,
    ternarize,
    token_codes,
    uniform_gauss_codebook,
)
from .tensorio import (
    LayerSpec,
    SensitivityTable,
    load_matrix,
    load_sensitivity,
    save_matrix,
    save_sensitivity,
)

__version__ = "0.1.0"
