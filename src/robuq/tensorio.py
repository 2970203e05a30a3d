"""Bit-exact matrix files, sensitivity-table CSVs and the field readers.

Matrices travel in a fixed little-endian binary layout (magic ``RBQ1``,
uint32 rows, uint32 cols, float32 row-major payload) so fixtures round-trip
bitwise across platforms. Sensitivity tables are small and meant to be
human-auditable, so they travel as CSV. The JSON inputs (a layer's
``layer.json`` and the FLOPs config) check their fields' JSON types
through ``_field``, every integer given as text (``dL@<b>`` headers,
``fixed_bits``, CLI flags) goes through ``_decimal``, and every real
number given as text (``flops_weight`` and ``dL@<b>`` cells,
``--target``, ``--lr``) through ``_real``.

Every reader parses its file inside one ``_reading`` block, which is the
package's one rule for files: content the reader rejects, NaN payloads
included, raises ``FormatError`` naming the file, and a file that cannot
be opened raises ``OSError``.
"""

from __future__ import annotations

import csv
import math
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, RobuqError, ValidationError
from .quant import _check_bits, _check_matrix, _check_real, _check_widths

MATRIX_MAGIC = b"RBQ1"
_HEADER = struct.Struct("<4sII")
_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string", list: "array"}


def _field(meta: dict, key: str, *kinds: type):
    """``meta[key]`` if its type is exactly one of ``kinds``, with no
    coercion: JSON true is a bool, not an integer, and 4.7 or 4.0 is a
    float. A missing key raises ``KeyError`` and any other type
    ``TypeError``; ``_reading`` turns both into ``FormatError``."""
    value = meta[key]
    if type(value) not in kinds:
        raise TypeError(f"{key} {value!r} is not a JSON "
                        + " or ".join(_JSON_TYPES[k] for k in kinds))
    return value


def _decimal(text: str, name: str) -> int:
    """The integer spelled by ``text``, which must be ASCII digits only:
    no sign, space, underscore or other script's digits, which ``int()``
    would accept. Raises ``ValidationError`` naming ``name`` otherwise."""
    if not (text.isascii() and text.isdigit()):
        raise ValidationError(f"{name} {text!r} is not a decimal integer (digits 0-9 only)")
    return int(text)


# optional sign, ASCII digits with at most one point, optional exponent
_REAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _real(text: str, name: str) -> float:
    """The finite number spelled by ``text`` under ``_decimal``'s ASCII
    rule: an optional sign, digits with at most one ``.``, and an optional
    exponent. No space, underscore, other script's digits, ``nan`` or
    ``inf``, all of which ``float()`` would accept, and no value that
    overflows. Raises ``ValidationError`` naming ``name`` otherwise."""
    value = float(text) if _REAL.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{name} {text!r} is not a finite decimal number "
                              "(sign, digits 0-9, '.', exponent)")
    return value


# What a parser raises on content it rejects; JSON and codec errors are
# ValueErrors.
_BAD_CONTENT = (RobuqError, KeyError, TypeError, ValueError, OverflowError, IndexError, csv.Error)


@contextmanager
def _reading(path, kind: str):
    """Parse the file ``path`` of format ``kind`` inside this block: any
    ``_BAD_CONTENT`` error leaves it as a ``FormatError`` naming the file and
    the format. An ``OSError`` passes through."""
    try:
        yield
    except _BAD_CONTENT as exc:
        reason = exc if isinstance(exc, RobuqError) else f"{type(exc).__name__}: {exc}"
        raise FormatError(f"{path}: {reason} (reading {kind})") from exc


def save_matrix(m: np.ndarray, path) -> None:
    """Write a 2-D float32 matrix to ``path`` in RBQ1 layout.

    The file is exactly ``12 + 4 * rows * cols`` bytes. ``m`` is a real
    matrix with both dims >= 1 (``quant._check_matrix``); its values are
    stored as little-endian IEEE-754 float32 whatever its real dtype.
    """
    arr = np.ascontiguousarray(_check_matrix(m, "m"), dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains NaN or Inf")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MATRIX_MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def load_matrix(path) -> np.ndarray:
    """Read an RBQ1 file back into a float32 array, validating the layout."""
    with open(path, "rb") as fh, _reading(path, "RBQ1 matrix"):
        raw = fh.read()
        if len(raw) < _HEADER.size:
            raise FormatError("file shorter than the 12-byte header")
        magic, rows, cols = _HEADER.unpack_from(raw)
        if magic != MATRIX_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MATRIX_MAGIC!r}")
        if rows < 1 or cols < 1:
            raise FormatError(f"non-positive dims {rows}x{cols}")
        if len(raw) != _HEADER.size + 4 * rows * cols:
            raise FormatError(f"payload is {len(raw) - _HEADER.size} bytes, "
                              f"expected {4 * rows * cols} for {rows}x{cols}")
        data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(rows, cols)
        if not np.all(np.isfinite(data)):
            raise FormatError("matrix contains NaN or Inf")
        return data.copy()


@dataclass
class LayerSpec:
    """Static description of one linear layer for allocation purposes.

    ``flops_weight`` is the layer's relative FLOPs share (w_l), a finite
    real >= 0 stored as a Python float; layers with
    ``fixed_bits`` set (a width in 1..8, or 32 for full precision) are
    excluded from bit allocation and keep that width.
    """

    name: str
    flops_weight: float = 1.0
    fixed_bits: int | None = None

    def __post_init__(self):
        self.flops_weight = _check_real(self.flops_weight, f"layer {self.name}: flops_weight",
                                        least=0)
        if self.fixed_bits is not None:
            _check_bits(self.fixed_bits, full_precision=True, name=f"layer {self.name}: fixed_bits")


@dataclass
class SensitivityTable:
    """Per-layer, per-bit-width validation loss gaps.

    ``delta_loss[i, j]`` is the loss gap of ``layers[i]`` quantized to
    ``bits[j]`` activation bits; ``bits`` is a set of widths
    (``quant._check_widths``: each in 1..8 or 32, none repeated) given in
    rising order, as the columns follow it. ``delta_loss`` is a real
    matrix (``quant._check_matrix``, no row needed) of that shape, held as
    float64, and every cell must be finite.
    """

    layers: list[LayerSpec]
    bits: list[int]
    delta_loss: np.ndarray = field(repr=False)

    def __post_init__(self):
        if _check_widths(self.bits, "bit set") != tuple(self.bits):
            raise ValidationError(f"bit set must be strictly increasing, got {self.bits}")
        gaps = _check_matrix(self.delta_loss, "delta_loss", rows=0)
        self.delta_loss = gaps.astype(np.float64, copy=False)
        if self.delta_loss.shape != (len(self.layers), len(self.bits)):
            raise ValidationError(
                f"delta_loss shape {self.delta_loss.shape} does not match "
                f"{len(self.layers)} layers x {len(self.bits)} bits"
            )
        if not np.all(np.isfinite(self.delta_loss)):
            raise ValidationError("delta_loss contains NaN or Inf")
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValidationError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)


def save_sensitivity(table: SensitivityTable, path) -> None:
    """Write a sensitivity table as CSV, one row per layer in table order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "flops_weight", "fixed_bits"] + [f"dL@{b}" for b in table.bits])
        for i, layer in enumerate(table.layers):
            fixed = "" if layer.fixed_bits is None else str(layer.fixed_bits)
            writer.writerow(
                [layer.name, repr(float(layer.flops_weight)), fixed]
                + [repr(float(v)) for v in table.delta_loss[i]]
            )


def load_sensitivity(path) -> SensitivityTable:
    """Parse a sensitivity CSV, preserving row order.

    A missing or unparsable header, cell or width raises ``FormatError``
    naming the file and, for a cell, its layer and column.
    """
    with open(path, newline="", encoding="utf-8") as fh, _reading(path, "sensitivity CSV"):
        rows = list(csv.reader(fh))
        if not rows:
            raise FormatError("empty file")
        header = rows[0]
        if header[:3] != ["layer", "flops_weight", "fixed_bits"]:
            raise FormatError(f"bad header {header[:3]}, expected layer,flops_weight,fixed_bits")
        bit_cols = sorted((_decimal(name[3:] if name.startswith("dL@") else "",
                                    f"column {name!r}: width"), j)
                          for j, name in enumerate(header[3:], start=3))
        layers, gaps = [], []
        for row in filter(None, rows[1:]):
            row += [""] * (len(header) - len(row))  # a missing cell is an empty one
            name, weight, fixed = row[:3]
            layers.append(LayerSpec(name, _real(weight, f"layer {name!r}: flops_weight"),
                                    _decimal(fixed, f"layer {name!r}: fixed_bits")
                                    if fixed.strip() else None))
            gaps.append([_real(row[j], f"layer {name!r}: dL@{b}") for b, j in bit_cols])
        return SensitivityTable(layers=layers, bits=[b for b, _ in bit_cols],
                                delta_loss=np.array(gaps, dtype=np.float64))
