"""Bit-exact matrix files, sensitivity-table CSVs and the field readers.

Matrices travel in a fixed little-endian binary layout (magic ``RBQ1``,
uint32 rows, uint32 cols, float32 row-major payload) so fixtures round-trip
bitwise across platforms. Sensitivity tables are small and meant to be
human-auditable, so they travel as CSV. The JSON inputs (a layer's
``layer.json`` and the FLOPs config) read every field through ``_field``,
every integer given as text (``dL@<b>`` headers, ``fixed_bits``, CLI
flags) goes through ``_decimal``, and every real number given as text
(``flops_weight`` and ``dL@<b>`` cells, ``--target``, ``--lr``) through
``_real``.
"""

from __future__ import annotations

import csv
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .quant import _check_bits

MATRIX_MAGIC = b"RBQ1"
_HEADER = struct.Struct("<4sII")
_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string", list: "array"}


def _field(meta: dict, key: str, *kinds: type):
    """``meta[key]`` if its type is exactly one of ``kinds``, with no
    coercion: JSON true is a bool, not an integer, and 4.7 or 4.0 is a
    float. A missing key raises ``KeyError`` and any other type
    ``TypeError``; the readers turn both into ``FormatError``."""
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


def save_matrix(m: np.ndarray, path) -> None:
    """Write a 2-D float32 matrix to ``path`` in RBQ1 layout.

    The file is exactly ``12 + 4 * rows * cols`` bytes. Values are stored as
    little-endian IEEE-754 float32 regardless of the input dtype.
    """
    arr = np.ascontiguousarray(m, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains NaN or Inf")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MATRIX_MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def load_matrix(path) -> np.ndarray:
    """Read an RBQ1 file back into a float32 array, validating the layout."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than the 12-byte header")
    magic, rows, cols = _HEADER.unpack_from(raw)
    if magic != MATRIX_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MATRIX_MAGIC!r}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: non-positive dims {rows}x{cols}")
    expected = _HEADER.size + 4 * rows * cols
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload is {len(raw) - _HEADER.size} bytes, "
            f"expected {expected - _HEADER.size} for {rows}x{cols}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(rows, cols)
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: matrix contains NaN or Inf")
    return data.copy()


@dataclass
class LayerSpec:
    """Static description of one linear layer for allocation purposes.

    ``flops_weight`` is the layer's relative FLOPs share (w_l); layers with
    ``fixed_bits`` set (a width in 1..8, or 32 for full precision) are
    excluded from bit allocation and keep that width.
    """

    name: str
    flops_weight: float = 1.0
    fixed_bits: int | None = None

    def __post_init__(self):
        if not 0 <= self.flops_weight < math.inf:
            raise ValidationError(f"layer {self.name}: flops_weight must be finite and >= 0")
        if self.fixed_bits is not None:
            _check_bits(self.fixed_bits, full_precision=True, name=f"layer {self.name}: fixed_bits")


@dataclass
class SensitivityTable:
    """Per-layer, per-bit-width validation loss gaps.

    ``delta_loss[i, j]`` is the loss gap of ``layers[i]`` quantized to
    ``bits[j]`` activation bits; ``bits`` rises strictly, each a width in
    1..8 or 32 (full precision). Every cell must be populated.
    """

    layers: list[LayerSpec]
    bits: list[int]
    delta_loss: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.delta_loss = np.asarray(self.delta_loss, dtype=np.float64)
        if not self.bits:
            raise ValidationError("bit set must be nonempty")
        for b in self.bits:
            _check_bits(b, full_precision=True, name="bit set entry")
        if list(self.bits) != sorted(set(self.bits)):
            raise ValidationError(f"bit set must be strictly increasing, got {self.bits}")
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

    Raises FormatError naming the offending layer and bit when a cell is
    missing or unparsable.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV ({exc})") from exc
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
    if header[:3] != ["layer", "flops_weight", "fixed_bits"]:
        raise FormatError(f"{path}: bad header {header[:3]}, expected layer,flops_weight,fixed_bits")
    bit_cols = []
    for j, name in enumerate(header[3:], start=3):
        try:
            bit_cols.append((_decimal(name[3:] if name.startswith("dL@") else "", "width"), j))
        except ValidationError as exc:
            raise FormatError(f"{path}: column {name!r} is not of the form dL@<bits>") from exc
    if not bit_cols:
        raise FormatError(f"{path}: no dL@<bits> columns")
    bit_cols.sort()
    bits = [b for b, _ in bit_cols]

    layers, gaps = [], []
    for row in rows[1:]:
        if not row:
            continue
        name = row[0]
        try:
            weight = _real(row[1], "flops_weight")
        except (IndexError, ValidationError) as exc:
            raise FormatError(f"{path}: layer {name!r} has missing or unparsable flops_weight") from exc
        try:
            fixed = None if len(row) < 3 or row[2].strip() == "" else _decimal(row[2], "fixed_bits")
        except ValidationError as exc:
            raise FormatError(f"{path}: layer {name!r} has unparsable fixed_bits: {row[2]!r}") from exc
        try:
            layers.append(LayerSpec(name=name, flops_weight=weight, fixed_bits=fixed))
        except ValidationError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        cells = []
        for b, j in bit_cols:
            if j >= len(row) or row[j].strip() == "":
                raise FormatError(f"{path}: layer {name!r} is missing dL@{b}")
            try:
                cells.append(_real(row[j], f"dL@{b}"))
            except ValidationError as exc:
                raise FormatError(f"{path}: layer {name!r} has unparsable dL@{b}: {row[j]!r}") from exc
        gaps.append(cells)
    try:
        return SensitivityTable(layers=layers, bits=bits, delta_loss=np.array(gaps, dtype=np.float64))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
