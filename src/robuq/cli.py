"""Command-line entry point: one subcommand per pipeline stage.

Every subcommand re-verifies its module's cheap invariants at runtime and
exits nonzero on any failure, so the CLI doubles as a self-test harness.
Runs are fully determined by (subcommand, flags, input files). The two
subcommands that draw random numbers, profile and gauss-report, also take
--seed.

Exit codes: 0 success, 1 invariant re-check failed, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import allocator, deploy, gaussanalysis, hadamard, lowrank, profiler, quant, tensorio
from .errors import RobuqError

DEFAULT_SEED = 42


class InvariantFailure(Exception):
    """A runtime self-check did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantFailure(message)


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    """Parse a comma-separated list of decimal integers given to ``flag``."""
    return tuple(tensorio._decimal(item, f"{flag}:") for item in text.split(","))


def _int_flag(flag: str):
    """``type=`` for an integer flag. Its ``ValidationError`` passes through
    ``parse_args``, which ``main`` reports as bad input (exit 2)."""
    return lambda text: tensorio._decimal(text, f"{flag}:")


def _real_flag(flag: str):
    """``type=`` for a real-valued flag, read like ``_int_flag``; ``flag``
    is the label its error names."""
    return lambda text: tensorio._real(text, f"{flag}:")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _oracle_transform(rows: np.ndarray, block: int) -> np.ndarray:
    """Rows times the block-diagonal dense Hadamard matrix of order ``block``.

    Blocks above 2048 are split by H_2n = kron(H_2, H_n) until the dense
    matrix is at most 2048 square (32 MB). The half-split differs from the
    kernel's balanced factorization, so the check stays independent of it.
    """
    if block > 2048:
        halves = rows.reshape(len(rows), -1, 2, block // 2)
        top, bottom = halves[:, :, 0], halves[:, :, 1]
        mixed = np.stack([top + bottom, top - bottom], axis=2) / np.sqrt(2.0)
        return _oracle_transform(mixed.reshape(len(rows), -1), block // 2)
    blocks = rows.reshape(len(rows), -1, block)
    return (blocks @ hadamard.hadamard_matrix(block).T).reshape(len(rows), -1)


def cmd_hadamard(args) -> int:
    x = tensorio.load_matrix(args.infile).astype(np.float64)
    plan = hadamard.HadamardPlan(x.shape[1])
    y = hadamard.transform_tokens(x, plan)

    in_norms = np.linalg.norm(x, axis=1)
    out_norms = np.linalg.norm(y, axis=1)
    denom = np.maximum(in_norms, 1e-30)
    norm_drift = float(np.max(np.abs(out_norms - in_norms) / denom))
    _check(norm_drift < 1e-5, f"norm drift {norm_drift:.3e} exceeds 1e-5")

    # Check the fast kernel's output on a few probe rows against the dense
    # oracle applied block by block.
    probe = np.linspace(0, x.shape[0] - 1, min(8, x.shape[0])).astype(int)
    expected = _oracle_transform(x[probe], plan.block_size)
    scale = max(float(np.max(in_norms[probe])), 1e-30)
    oracle_residual = float(np.max(np.abs(y[probe] - expected))) / scale
    _check(oracle_residual < 1e-5, f"oracle residual {oracle_residual:.3e} exceeds 1e-5")

    # The inverse transform gives the input back; the residual is relative
    # to the largest row norm, like the oracle's.
    back = hadamard.inverse_tokens(y)
    roundtrip_err = float(np.max(np.abs(back - x))) / max(float(np.max(in_norms)), 1e-30)
    _check(roundtrip_err < 1e-5, f"round-trip residual {roundtrip_err:.3e} exceeds 1e-5")

    tensorio.save_matrix(y.astype(np.float32), args.out)
    if args.report:
        _write_json(
            {
                "dim": plan.dim,
                "block_size": plan.block_size,
                "max_norm_drift": norm_drift,
                "oracle_residual": oracle_residual,
                "roundtrip_residual": roundtrip_err,
            },
            args.report,
        )
    return 0


def cmd_quantize(args) -> int:
    w = tensorio.load_matrix(args.weights).astype(np.float64)
    cb = quant.uniform_gauss_codebook(args.bits)
    layer = lowrank.init_layer(w, r=args.rank, codebook=cb)
    lowrank.save_layer(layer, args.out_dir)

    # Each whole-matrix temporary is formed once: A B and alpha V, their sum
    # (in place of A B) and its fold, which is reconstruct_weight(layer).
    branch, ternary = layer.branch.matrix(), layer.wq.dequantize()
    branch_sq, ternary_sq = float(np.sum(branch**2)), float(np.sum(ternary**2))
    combined = np.add(branch, ternary, out=branch)
    del ternary
    direct_err = float(np.linalg.norm(w - hadamard.inverse_tokens(combined)))
    combined_err = float(np.linalg.norm(hadamard.fold_into_weights(w, layer.plan) - combined))
    err = direct_err / max(float(np.linalg.norm(w)), 1e-30)
    # Orthogonal invariance: the two Frobenius errors agree up to rounding.
    _check(
        abs(combined_err - direct_err) <= 1e-8 * max(direct_err, 1.0),
        f"orthogonal-invariance mismatch: {direct_err} vs {combined_err}",
    )
    share = branch_sq / (branch_sq + ternary_sq) if branch_sq + ternary_sq > 0 else 0.0
    _write_json(
        {
            "rank": layer.branch.rank,
            "bits": args.bits,
            "reconstruction_rel_error": err,
            "branch_energy_share": share,
        },
        args.summary,
    )
    return 0


def cmd_gauss_report(args) -> int:
    x = tensorio.load_matrix(args.activations).astype(np.float64)
    report, meta = gaussanalysis.build_report(x, bins=args.bins, seed=args.seed)
    _check(report.tv_bound >= 0.0, "tv bound must be nonnegative")
    _check(np.isfinite(report.ks_distance), "ks distance must be finite")
    _write_json({"meta": meta, **asdict(report)}, args.out)
    return 0


def cmd_profile(args) -> int:
    widths = _int_list(args.widths, "--widths")
    bits = _int_list(args.bits, "--bits")
    model = profiler.make_toy_model(widths, seed=args.seed)
    data = profiler.make_toy_data(widths[0], seed=args.seed)
    config = profiler.TrainConfig(steps=args.steps, learning_rate=args.lr, batch=args.batch,
                                  seed=args.seed)
    table = profiler.profile_sensitivity(model, data, bits, config)
    if quant.FP_BITS in table.bits:
        _check(
            np.all(table.delta_loss[:, table.bits.index(quant.FP_BITS)] == 0.0),
            "loss gap at 32 bits must be exactly zero",
        )
    tensorio.save_sensitivity(table, args.out)
    return 0


def cmd_allocate(args) -> int:
    table = tensorio.load_sensitivity(args.sensitivity)
    bit_set = _int_list(args.bits, "--bits")
    problem = allocator.AllocationProblem(table, args.target, bit_set=bit_set)
    alloc = allocator.dp_allocate(problem)
    _check(
        alloc.achieved_avg_bits <= args.target * (1.0 + 1e-12),
        f"achieved {alloc.achieved_avg_bits} exceeds target {args.target}",
    )
    _write_json(
        {
            "bits_per_layer": alloc.bits_per_layer,
            "achieved_avg_bits": alloc.achieved_avg_bits,
            "predicted_loss": alloc.predicted_loss,
            "target_avg_bits": args.target,
            "whole_network_avg_bits": allocator.achieved_average(alloc, table),
        },
        args.out,
    )
    return 0


def cmd_flops(args) -> int:
    source = (Path(args.config) if args.config
              else resources.files("robuq.fixtures").joinpath("dit_xl2_flops.json"))
    with tensorio._reading(source, "FLOPs config"):
        config = deploy.FlopsConfig.from_json(source.read_text(encoding="utf-8"))
    result = deploy.model_flops(config)
    total_again = sum(result["classes"].values())
    _check(
        abs(result["total_gflops"] - total_again) < 1e-12,
        "total does not equal the sum of class values",
    )
    width = max(len(name) for name in result["classes"])
    for name, gflops in result["classes"].items():
        print(f"{name:<{width}}  {gflops:10.4f} G")
    print(f"{'total':<{width}}  {result['total_gflops']:10.4f} G")
    if args.out:
        _write_json(result, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robuq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hadamard", help="transform a matrix per token")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("quantize", help="build a quantized layer from weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--rank", type=_int_flag("--rank"), default=lowrank.DEFAULT_RANK)
    p.add_argument("--bits", type=_int_flag("--bits"), default=4)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("gauss-report", help="normality and independence statistics")
    p.add_argument("--activations", required=True)
    p.add_argument("--bins", type=_int_flag("--bins"), default=16)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_int_flag("--seed"), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_gauss_report)

    p = sub.add_parser("profile", help="QAT sensitivity profiling on a toy model")
    p.add_argument("--widths", default="64,64,64,64")
    p.add_argument("--bits", default="1,2,3,4")
    p.add_argument("--steps", type=_int_flag("--steps"), default=0)
    p.add_argument("--lr", type=_real_flag("--lr (learning_rate)"), default=1e-3)
    p.add_argument("--batch", type=_int_flag("--batch"), default=32)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_flag("--seed"), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("allocate", help="DP bit allocation from a sensitivity CSV")
    p.add_argument("--sensitivity", required=True)
    p.add_argument("--target", type=_real_flag("--target"), required=True)
    p.add_argument("--bits", default="1,2,3,4")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("flops", help="weighted FLOPs breakdown of a model config")
    p.add_argument("--config", default=None, help="FlopsConfig JSON; defaults to the DiT-XL/2 fixture")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flops)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvariantFailure as exc:
        print(f"robuq: invariant check failed: {exc}", file=sys.stderr)
        return 1
    except (RobuqError, OSError, ValueError) as exc:
        print(f"robuq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
