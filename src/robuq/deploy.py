"""Ternary weight packing and weighted-FLOPs accounting.

Five ternary values fit in one byte as base-3 digits (value + 1), first
value in the least-significant digit, so bytes range over [0, 242] and the
packed payload is exactly 0.2 bytes per weight. The FLOPs model scales a
class's full-precision GFLOPs by its bit widths: ternary-weight classes
cost a_bits/32 of FP, equal-width W=A=N classes cost 2N/32, and
full-precision classes pass through. Hadamard transforms are folded into
weights and cost nothing here.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .quant import is_ternary

PACKED_MAGIC = b"RBQP"
_PACK_HEADER = struct.Struct("<4sQ")
_POW3 = np.array([1, 3, 9, 27, 81], dtype=np.uint8)
MAX_PACKED_BYTE = 242  # 2*(1+3+9+27+81)
TERNARY_BITS = "ternary"


@dataclass
class PackedTernary:
    data: bytes
    count: int

    def __post_init__(self):
        if len(self.data) != -(-self.count // 5):
            raise ValidationError(
                f"{len(self.data)} bytes cannot hold {self.count} ternary values"
            )


def pack_ternary(values) -> PackedTernary:
    """Pack a {-1, 0, +1} sequence five-per-byte; trailing slots pad with 0."""
    arr = np.asarray(values).ravel()
    if arr.size == 0:
        return PackedTernary(data=b"", count=0)
    if not is_ternary(arr):
        raise ValidationError("values must all lie in {-1, 0, +1}")
    digits = (arr + 1).astype(np.uint8)
    pad = (-digits.size) % 5
    if pad:
        digits = np.concatenate([digits, np.ones(pad, dtype=np.uint8)])  # digit 1 == value 0
    packed = digits.reshape(-1, 5) @ _POW3
    return PackedTernary(data=packed.astype(np.uint8).tobytes(), count=arr.size)


def unpack_ternary(p: PackedTernary) -> np.ndarray:
    """Exact inverse of pack_ternary, truncated to the stored count."""
    raw = np.frombuffer(p.data, dtype=np.uint8)
    if raw.size and raw.max() > MAX_PACKED_BYTE:
        raise FormatError(f"byte value {raw.max()} exceeds {MAX_PACKED_BYTE}")
    digits = (raw[:, None] // _POW3[None, :].astype(np.uint16)) % 3
    values = digits.astype(np.int8).ravel() - 1
    return values[: p.count]


def save_packed(p: PackedTernary, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_PACK_HEADER.pack(PACKED_MAGIC, p.count))
        fh.write(p.data)


def load_packed(path) -> PackedTernary:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _PACK_HEADER.size:
        raise FormatError(f"{path}: file shorter than the packed header")
    magic, count = _PACK_HEADER.unpack_from(raw)
    if magic != PACKED_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {PACKED_MAGIC!r}")
    data = raw[_PACK_HEADER.size:]
    if len(data) != -(-count // 5):
        raise FormatError(f"{path}: payload is {len(data)} bytes for {count} values")
    return PackedTernary(data=data, count=count)


# ---------------------------------------------------------------------------
# Weighted FLOPs
# ---------------------------------------------------------------------------

@dataclass
class FlopsEntry:
    """One computation class: name, full-precision GFLOPs, and bit widths.

    ``w_bits`` is an int in 1..8 or 32, or the string "ternary" for 1.58-bit
    weights (whose cost scales with the activation bits alone).
    """

    name: str
    fp_gflops: float
    w_bits: int | str = 32
    a_bits: int = 32

    def __post_init__(self):
        if self.fp_gflops < 0:
            raise ValidationError(f"{self.name}: fp_gflops must be nonnegative")


@dataclass
class FlopsConfig:
    entries: list[FlopsEntry]

    @classmethod
    def from_json(cls, text: str) -> "FlopsConfig":
        payload = json.loads(text)
        entries = [
            FlopsEntry(
                name=e["name"],
                fp_gflops=float(e["fp_gflops"]),
                w_bits=e.get("w_bits", 32),
                a_bits=int(e.get("a_bits", 32)),
            )
            for e in payload["entries"]
        ]
        return cls(entries=entries)

    def to_json(self) -> str:
        payload = {
            "entries": [
                {"name": e.name, "fp_gflops": e.fp_gflops, "w_bits": e.w_bits, "a_bits": e.a_bits}
                for e in self.entries
            ]
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _valid_bits(b) -> bool:
    return isinstance(b, int) and (1 <= b <= 8 or b == 32)


def weighted_flops(fp_gflops: float, w_bits, a_bits) -> float:
    """Effective GFLOPs of one class under its bit widths.

    ternary weights at A=N cost (N/32) FP; symmetric W=A=N classes cost
    2 * (N/32) FP (half of which the ternary chain then removes); W=A=32
    passes through. Anything else is an unsupported combination.
    """
    if fp_gflops < 0:
        raise ValidationError("fp_gflops must be nonnegative")
    if not _valid_bits(a_bits):
        raise ValidationError(f"a_bits must be in 1..8 or 32, got {a_bits!r}")
    if w_bits == TERNARY_BITS:
        return fp_gflops * a_bits / 32.0
    if not _valid_bits(w_bits):
        raise ValidationError(f"w_bits must be 'ternary', 1..8 or 32, got {w_bits!r}")
    if w_bits == 32 and a_bits == 32:
        return fp_gflops
    if w_bits == a_bits:
        return fp_gflops * 2.0 * a_bits / 32.0
    raise ValidationError(f"unsupported bit combination W={w_bits} A={a_bits}")


def model_flops(config: FlopsConfig) -> dict:
    """Per-class weighted GFLOPs plus the total.

    Hadamard transforms contribute nothing: they fold into the weights and
    their online remainder is negligible next to the matmuls.
    """
    per_class = {}
    for entry in config.entries:
        if entry.name in per_class:
            raise ValidationError(f"duplicate class name {entry.name!r}")
        per_class[entry.name] = weighted_flops(entry.fp_gflops, entry.w_bits, entry.a_bits)
    return {"classes": per_class, "total_gflops": float(sum(per_class.values()))}


def packed_compression_ratio() -> float:
    """Packed payload vs float32: 5 weights/byte against 4 bytes/weight."""
    return 4.0 / 0.2
