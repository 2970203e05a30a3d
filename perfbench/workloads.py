"""Input generators and the three workloads of the robuq benchmark.

Every input comes from the ``--seed`` argument: the same seed gives the same
weights, tokens and tables. A workload runs measured *passes*; each pass
times only its calls into robuq and then checks their outputs with the
tracer paused. A pass is made of a fixed number of checked *steps*, and a
step fails when it raises or fails its check.

- ``dit-convert``: one pass converts the four linears of one DiT-XL/2 block
  (a step per linear): ``init_layer`` -> ``save_layer`` ->
  ``pack_ternary``/``save_packed`` -> ``load_layer`` + ``load_packed``/
  ``unpack_ternary``.
- ``dit-forward``: one pass is one block pass of held-out tokens through the
  four quantized linears built in set-up (one step).
- ``toy-pipeline``: one pass is ``steps_sweep`` (profile -> allocate ->
  quantize -> whole-model QAT -> evaluate) on a toy teacher-student model,
  plus ``dp_allocate`` on a 112-layer DiT-XL/2 sensitivity table (three
  steps: the pipeline, the toy allocation's budget, the DiT allocation's
  budget).
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from robuq import allocator, deploy, gaussanalysis, hadamard, lowrank, profiler, quant, tensorio

BITS = (1, 2, 3, 4)
TARGET_AVG_BITS = 2.0
CODEBOOK_BITS = 4
DIT_BLOCKS = 28  # DiT-XL/2 depth: the allocation table has 28 x 4 = 112 layers
# (name, out/width, in/width, spectrum); the FLOPs weights 3:1:4:4 follow the shapes
DIT_LINEARS = (("qkv", 3, 1, "decay"), ("proj", 1, 1, "flat"),
               ("fc1", 4, 1, "decay"), ("fc2", 1, 4, "flat"))
# No DiT-XL/2 checkpoint ships with the repository, so the trained-like
# spectrum is a stand-in: singular values i^-0.7. What matters to the
# converter is how fast its power iteration converges, and at 1152^2 with
# rank 16 this exponent gives init_layer 0.16-0.18 s against 1.2-1.3 s on
# the flat spectrum (2-vCPU Xeon, OpenBLAS 2 threads); 0.5 gives 0.21-0.25 s
# and 1.0 gives 0.16-0.18 s, so the split is not sensitive to the value.
POWER_LAW_EXPONENT = 0.7
# The outlier setting of the transform measurements in ROADMAP.md.
OUTLIER_CHANNELS = 8
OUTLIER_SCALE = 30.0
# Per-token log-normal scale spread. Token quantization is per token, so
# the scale divides out: the block pass's relative error on seeds 1-2 is
# 0.3265/0.3302 at 0, 0.3260/0.3320 at 0.5 and 0.3254/0.3342 at 1.0.
TOKEN_SCALE_SIGMA = 0.5
# Bound on a block pass's relative output error against x W^T, at rank 16
# with the 4-bit uniform codebook; seeds 1-20 average 0.32-0.34.
FORWARD_REL_ERR_MAX = 0.45
# Orthogonal invariance of the Frobenius error, at the tolerance
# ``robuq quantize`` uses for the same check.
INVARIANCE_RTOL = 1e-8


@dataclass(frozen=True)
class Sizes:
    width: int            # DiT hidden width; the MLP is 4x wider
    rank: int             # low-rank branch of the DiT linears
    tokens: int           # tokens per forward pass
    pool: int             # distinct forward batches, cycled
    toy_widths: tuple
    toy_rank: int
    # The toy QAT step counts are a run-time choice: 12 cells x 50 profiling
    # steps + 200 final steps make a pass of about 2.3 s on a 2-vCPU Xeon
    # (0.29 s fixed, 1.75 ms per profiling step, 4.9 ms per final step), so
    # 6 passes fit in one run. Longer QAT repeats the same calls.
    profile_steps: int    # short QAT per (layer, bits) cell
    train_steps: int      # whole-model QAT after allocation
    min_passes: dict      # per workload; a traced run needs an even count


FULL = Sizes(width=1152, rank=16, tokens=256, pool=8, toy_widths=(128, 96, 64, 64),
             toy_rank=8, profile_steps=50, train_steps=200,
             min_passes={"dit-convert": 2, "dit-forward": 40, "toy-pipeline": 6})
TINY = Sizes(width=32, rank=4, tokens=16, pool=2, toy_widths=(16, 12, 8, 8),
             toy_rank=2, profile_steps=3, train_steps=5,
             min_passes={"dit-convert": 2, "dit-forward": 4, "toy-pipeline": 2})


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def random_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Flat random-init spectrum: i.i.d. N(0, 1/cols) entries."""
    return rng.standard_normal((rows, cols)) / math.sqrt(cols)


def power_law(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Trained-like spectrum: singular values i^-0.7 on random orthonormal
    vectors, scaled to the Frobenius norm of ``random_init``."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = np.arange(1, k + 1, dtype=np.float64) ** -POWER_LAW_EXPONENT
    s *= math.sqrt(rows) / np.linalg.norm(s)
    return (u * s) @ v.T


def dit_block_weights(seed: int, index: int, sizes: Sizes) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, 0, index])
    d = sizes.width
    make = {"decay": power_law, "flat": random_init}
    return {name: make[spectrum](rng, out * d, inp * d)
            for name, out, inp, spectrum in DIT_LINEARS}


def gelu(z: np.ndarray) -> np.ndarray:
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (z + 0.044715 * z**3)))


def token_batch(seed: int, index: int, sizes: Sizes) -> np.ndarray:
    """Gaussian tokens with per-token scale variation and outlier channels.

    The outlier channels are drawn per batch: how many 128-channel transform
    blocks they share moves the error a lot, so one draw per seed would make
    the seed, not the program, decide ``output_err``.
    """
    d = sizes.width
    rng = np.random.default_rng([seed, 2, index])
    scale = np.exp(TOKEN_SCALE_SIGMA * rng.standard_normal((sizes.tokens, 1)))
    x = rng.standard_normal((sizes.tokens, d)) * scale
    x[:, rng.choice(d, min(OUTLIER_CHANNELS, d // 4), replace=False)] *= OUTLIER_SCALE
    return x


def dit_sensitivity_table(seed: int) -> tensorio.SensitivityTable:
    """112-layer DiT-XL/2 table: FLOPs weights 3:1:4:4 per block and loss
    gaps that fall monotonically with the bit width."""
    rng = np.random.default_rng([seed, 3])
    layers, gaps = [], []
    for block in range(DIT_BLOCKS):
        for name, out, inp, _ in DIT_LINEARS:
            layers.append(tensorio.LayerSpec(name=f"blocks.{block}.{name}",
                                             flops_weight=float(out * inp)))
            base = rng.lognormal(0.0, 1.0)
            gaps.append(base * np.cumprod(rng.uniform(0.2, 0.6, len(BITS))))
    return tensorio.SensitivityTable(layers=layers, bits=list(BITS), delta_loss=np.array(gaps))


def sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 4, index]).generate_state(1)[0])


def within_budget(bits_per_layer: dict, weights: dict, target: float) -> bool:
    """Continuous FLOPs-weighted average bits <= target (float rounding only)."""
    total = sum(weights.values())
    achieved = sum(weights[name] * bits_per_layer[name] for name in weights) / total
    return achieved <= target * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float        # timed calls into robuq
    work: float           # units of work done in them
    work_seconds: float   # the time ``work`` is rated over
    checks: list          # one bool per step
    exact: bool           # round trips, identities and finiteness held
    err: float            # the pass's output error against full precision


class Workload:
    name = ""
    steps_per_pass = 1
    work_unit = ""
    setup_samples = 5     # this process plus fresh set-up-only processes

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, tracer):
        self.seed, self.sizes, self.workdir, self.tracer = seed, sizes, workdir, tracer
        self.min_passes = sizes.min_passes[self.name]

    def prepare(self) -> None:
        """Generate what set-up needs (untimed)."""

    def setup(self) -> None:
        """The timed set-up every fresh process pays."""

    def after_setup(self) -> None:
        """Generate the measured passes' shared inputs (untimed)."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def probe(self) -> dict[str, float]:
        """Transform quality on fixed inputs: act_rel_mse and ks."""
        return {}

    def details(self) -> dict:
        """Deterministic extras for the ``perfbench:`` line."""
        return {}


class DitConvert(Workload):
    name = "dit-convert"
    steps_per_pass = len(DIT_LINEARS)
    work_unit = "Mparam"

    def prepare(self):
        self.artifact_bytes = {}

    def setup(self):
        self.codebook = quant.uniform_gauss_codebook(CODEBOOK_BITS)

    def details(self):
        """Bytes on disk for the first block: layer directory plus RBQP file."""
        return {"artifact_bytes": sum(self.artifact_bytes.values()),
                "artifact_bytes_per_layer": self.artifact_bytes}

    def run_pass(self, index):
        weights = dit_block_weights(self.seed, index, self.sizes)
        spectra = {name: spectrum for name, _, _, spectrum in DIT_LINEARS}
        seconds, checks, exact = 0.0, [], True
        err_sum = params = 0.0
        for name, w in weights.items():
            out_dir = self.workdir / f"{name}-{index}"
            packed_path = out_dir / "wq.rbqp"
            self.tracer.tag = spectra[name]
            t = time.perf_counter()
            layer = lowrank.init_layer(w, r=self.sizes.rank, codebook=self.codebook)
            lowrank.save_layer(layer, out_dir)
            deploy.save_packed(deploy.pack_ternary(layer.wq.values), packed_path)
            back = lowrank.load_layer(out_dir)
            unpacked = deploy.unpack_ternary(deploy.load_packed(packed_path))
            seconds += time.perf_counter() - t
            with self.tracer.paused():
                ok, rel_err = self._check(w, layer, back, unpacked)
            if index == 0:
                self.artifact_bytes[name] = sum(f.stat().st_size for f in out_dir.iterdir())
            shutil.rmtree(out_dir)
            checks.append(ok)
            exact = exact and ok
            err_sum += w.size * rel_err
            params += w.size
        return PassResult(seconds=seconds, work=params / 1e6, work_seconds=seconds,
                          checks=checks, exact=exact, err=err_sum / params)

    @staticmethod
    def _check(w, layer, back, unpacked):
        """Exact load and unpack round trips (A and B travel as float32) and
        the same Frobenius error in the original and transformed domains."""
        f32 = lambda m: m.astype(np.float32).astype(np.float64)  # noqa: E731
        round_trip = (
            np.array_equal(back.wq.values, layer.wq.values)
            and back.wq.alpha == float(layer.wq.alpha)
            and np.array_equal(back.branch.A, f32(layer.branch.A))
            and np.array_equal(back.branch.B, f32(layer.branch.B))
            and back.plan == layer.plan and back.center == layer.center
            and np.array_equal(back.codebook.levels, layer.codebook.levels)
            and np.array_equal(unpacked.reshape(layer.wq.values.shape), layer.wq.values)
        )
        direct = float(np.linalg.norm(w - lowrank.reconstruct_weight(layer)))
        combined = float(np.linalg.norm(hadamard.fold_into_weights(w, layer.plan)
                                        - (layer.branch.matrix() + layer.wq.dequantize())))
        invariant = abs(combined - direct) <= INVARIANCE_RTOL * max(direct, 1.0)
        return bool(round_trip and invariant), direct / float(np.linalg.norm(w))


class DitForward(Workload):
    name = "dit-forward"
    work_unit = "token"
    setup_samples = 3     # each set-up builds the four layers, about 10 s

    def prepare(self):
        self.weights = dit_block_weights(self.seed, 0, self.sizes)

    def setup(self):
        codebook = quant.uniform_gauss_codebook(CODEBOOK_BITS)
        self.layers = {}
        for name, _, _, spectrum in DIT_LINEARS:
            self.tracer.tag = spectrum
            self.layers[name] = lowrank.init_layer(self.weights[name], r=self.sizes.rank,
                                                   codebook=codebook)

    def after_setup(self):
        self.batches = []
        for b in range(self.sizes.pool):
            x = token_batch(self.seed, b, self.sizes)
            inputs = {"qkv": x, "proj": x, "fc1": x,
                      "fc2": gelu(x @ self.weights["fc1"].T)}
            refs = {name: inputs[name] @ self.weights[name].T for name in inputs}
            self.batches.append((inputs, refs))

    def run_pass(self, index):
        inputs, refs = self.batches[index % len(self.batches)]
        t = time.perf_counter()
        outs = {name: lowrank.forward(self.layers[name], inputs[name]) for name in self.layers}
        seconds = time.perf_counter() - t
        finite = all(bool(np.all(np.isfinite(y))) for y in outs.values())
        num = sum(float(np.sum((outs[n] - refs[n]) ** 2)) for n in outs)
        den = sum(float(np.sum(refs[n] ** 2)) for n in outs)
        err = math.sqrt(num / den)
        return PassResult(seconds=seconds, work=self.sizes.tokens, work_seconds=seconds,
                          checks=[finite and err <= FORWARD_REL_ERR_MAX], exact=finite, err=err)

    def probe(self):
        inputs, _ = self.batches[0]
        num = den = 0.0
        ks = []
        for name, layer in self.layers.items():
            xh = hadamard.transform_tokens(inputs[name], layer.plan)
            deq = quant.quantize_tokens(xh, layer.codebook, center=layer.center)[0]
            num += float(np.sum((deq - xh) ** 2))
            den += float(np.sum(xh**2))
            ks.append(gaussanalysis.normality(inputs[name], layer.plan)[0])
        return {"act_rel_mse": num / den, "ks": float(np.mean(ks))}


class ToyPipeline(Workload):
    name = "toy-pipeline"
    steps_per_pass = 3
    work_unit = "STE step"

    def setup(self):
        for bits in BITS:
            quant.uniform_gauss_codebook(bits)

    def _model(self, index):
        self.tracer.tag = "flat"  # the toy teacher's weights are random-init
        seed = sub_seed(self.seed, index)
        model = profiler.make_toy_model(self.sizes.toy_widths, seed=seed)
        return seed, model, profiler.make_toy_data(self.sizes.toy_widths[0], seed=seed)

    def run_pass(self, index):
        seed, model, data = self._model(index)
        config = profiler.TrainConfig(steps=self.sizes.profile_steps, seed=seed)
        dit_table = dit_sensitivity_table(seed)
        t = time.perf_counter()
        row = profiler.steps_sweep(model, data, (self.sizes.profile_steps,), bits=BITS,
                                   target_avg_bits=TARGET_AVG_BITS, config=config,
                                   full_steps=self.sizes.train_steps,
                                   rank=self.sizes.toy_rank)[0]
        sweep_seconds = time.perf_counter() - t
        dit_alloc = allocator.dp_allocate(
            allocator.AllocationProblem(dit_table, TARGET_AVG_BITS, bit_set=BITS))
        seconds = time.perf_counter() - t
        with self.tracer.paused():
            fp_loss = model.loss(data.val_inputs)
        gap = row["final_loss"] - fp_loss
        toy_weights = {f"fc{i}": float(layer.out_dim * layer.in_dim)
                       for i, layer in enumerate(model.layers)}
        dit_weights = {layer.name: layer.flops_weight for layer in dit_table.layers}
        finite = math.isfinite(gap) and math.isfinite(row["initial_loss"])
        checks = [finite,
                  within_budget(row["bits"], toy_weights, TARGET_AVG_BITS),
                  within_budget(dit_alloc.bits_per_layer, dit_weights, TARGET_AVG_BITS)]
        cells = (len(self.sizes.toy_widths) - 1) * len(BITS)
        steps = cells * self.sizes.profile_steps + self.sizes.train_steps
        if index == 0:
            self.bits = row["bits"]
        return PassResult(seconds=seconds, work=steps, work_seconds=sweep_seconds,
                          checks=checks, exact=finite, err=gap)

    def probe(self):
        """The first pass's allocation, quantized and untrained, on the
        validation pool: each quantized layer's transformed input."""
        seed, model, data = self._model(0)
        for i, layer in enumerate(model.layers):
            layer.enable_quant(self.bits[f"fc{i}"], rank=self.sizes.toy_rank, seed=seed)
        _, caches = model.forward(data.val_inputs)
        num = den = 0.0
        ks = []
        for layer, cache in zip(model.layers, caches):
            if not layer.quantized:
                continue
            num += float(np.sum((cache["deq"] - cache["xh"]) ** 2))
            den += float(np.sum(cache["xh"] ** 2))
            ks.append(gaussanalysis.normality(cache["x"], layer.plan)[0])
        return {"act_rel_mse": num / den, "ks": float(np.mean(ks))}


WORKLOADS = {cls.name: cls for cls in (DitConvert, DitForward, ToyPipeline)}
