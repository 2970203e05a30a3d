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
from .quant import FP_BITS, _asarray, _check_bits, _check_int, _check_real, is_ternary
from .tensorio import _BAD_CONTENT, _field, _reading

PACKED_MAGIC = b"RBQP"
_PACK_HEADER = struct.Struct("<4sQ")
_POW3 = np.array([1, 3, 9, 27, 81], dtype=np.uint8)
MAX_PACKED_BYTE = 242  # 2*(1+3+9+27+81)
# Row b holds the five values packed into byte b, first value first.
_UNPACKED = (np.arange(MAX_PACKED_BYTE + 1)[:, None] // _POW3 % 3 - 1).astype(np.int8)
TERNARY_BITS = "ternary"


@dataclass(frozen=True)
class PackedTernary:
    """``count`` ternary values packed five per byte into ``data``, checked
    once when built: ``count`` an integer >= 0 and exactly ceil(count / 5)
    bytes, each at most 242 (``ValidationError`` otherwise), so unpacking
    needs no check."""

    data: bytes
    count: int

    def __post_init__(self):
        _check_int(self.count, "count", least=0)
        if len(self.data) != -(-self.count // 5):
            raise ValidationError(
                f"{len(self.data)} bytes cannot hold {self.count} ternary values"
            )
        top = np.frombuffer(self.data, dtype=np.uint8).max(initial=0)
        if top > MAX_PACKED_BYTE:
            raise ValidationError(f"byte value {top} exceeds {MAX_PACKED_BYTE}")


def pack_ternary(values) -> PackedTernary:
    """Pack a {-1, 0, +1} array of any shape five-per-byte, in row-major
    order; trailing slots pad with 0. Anything else, a ragged nested
    sequence included, raises ``ValidationError``."""
    arr = _asarray(values, "values", "{-1, 0, +1} array").ravel()
    if not is_ternary(arr):
        raise ValidationError("values must all lie in {-1, 0, +1}")
    digits = np.ones(-(-arr.size // 5) * 5, dtype=np.uint8)  # pad digit 1 == value 0
    np.add(arr, 1, out=digits[: arr.size], casting="unsafe")
    # Horner's rule on the digit columns, last digit first; every partial
    # value fits in uint8.
    columns = digits.reshape(-1, 5)
    packed = columns[:, 4].copy()
    for k in (3, 2, 1, 0):
        packed *= 3
        packed += columns[:, k]
    return PackedTernary(data=packed.tobytes(), count=arr.size)


def unpack_ternary(p: PackedTernary) -> np.ndarray:
    """Exact inverse of pack_ternary, truncated to the stored count."""
    return np.take(_UNPACKED, np.frombuffer(p.data, dtype=np.uint8), axis=0).ravel()[: p.count]


def save_packed(p: PackedTernary, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_PACK_HEADER.pack(PACKED_MAGIC, p.count))
        fh.write(p.data)


def load_packed(path) -> PackedTernary:
    """Read a file written by ``save_packed``. A short header, a wrong
    magic, a payload of the wrong length or a byte above 242 raises
    ``FormatError`` naming ``path``."""
    with open(path, "rb") as fh, _reading(path, "RBQP packed ternary"):
        raw = fh.read()
        if len(raw) < _PACK_HEADER.size:
            raise FormatError("file shorter than the packed header")
        magic, count = _PACK_HEADER.unpack_from(raw)
        if magic != PACKED_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {PACKED_MAGIC!r}")
        return PackedTernary(data=raw[_PACK_HEADER.size:], count=count)


# ---------------------------------------------------------------------------
# Weighted FLOPs
# ---------------------------------------------------------------------------

@dataclass
class FlopsEntry:
    """One computation class: name, full-precision GFLOPs, and bit widths.

    ``w_bits`` is a width in 1..8 or 32, or the string "ternary" for
    1.58-bit weights (whose cost scales with the activation bits alone).
    Building an entry checks it as ``weighted_flops`` does; ``fp_gflops``
    is stored as the Python float that check returns.
    """

    name: str
    fp_gflops: float
    w_bits: int | str = FP_BITS
    a_bits: int = FP_BITS

    def __post_init__(self):
        self.fp_gflops = _check_real(self.fp_gflops, "fp_gflops", least=0)
        weighted_flops(self.fp_gflops, self.w_bits, self.a_bits)


@dataclass
class FlopsConfig:
    entries: list[FlopsEntry]

    @classmethod
    def from_json(cls, text: str) -> "FlopsConfig":
        """Parse ``{"entries": [{"name", "fp_gflops", "w_bits", "a_bits"}, ...]}``.

        Each field has an exact JSON type and is not coerced: ``name`` a
        string, ``fp_gflops`` a finite number >= 0, ``a_bits`` an integer
        width and ``w_bits`` one or the string "ternary"; a missing width
        is 32. Any other text raises ``FormatError``.
        """
        try:
            entries = []
            for e in _field(json.loads(text), "entries", list):
                e = {"w_bits": FP_BITS, "a_bits": FP_BITS, **e}
                entries.append(FlopsEntry(name=_field(e, "name", str),
                                          fp_gflops=_field(e, "fp_gflops", int, float),
                                          w_bits=_field(e, "w_bits", int, str),
                                          a_bits=_field(e, "a_bits", int)))
        except _BAD_CONTENT as exc:
            raise FormatError(f"malformed FLOPs config: {exc!r}") from exc
        return cls(entries=entries)


def weighted_flops(fp_gflops: float, w_bits, a_bits) -> float:
    """Effective GFLOPs of one class under its bit widths.

    ternary weights at A=N cost (N/32) FP; symmetric W=A=N classes cost
    2 * (N/32) FP (half of which the ternary chain then removes); W=A=32
    passes through. Anything else is an unsupported combination.
    ``fp_gflops`` is a finite real >= 0; the result is a Python float.
    """
    fp_gflops = _check_real(fp_gflops, "fp_gflops", least=0)
    a_fp = _check_bits(a_bits, full_precision=True, name="a_bits")
    if w_bits == TERNARY_BITS:
        return fp_gflops * a_bits / 32.0
    if _check_bits(w_bits, full_precision=True, name="w_bits") and a_fp:
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

