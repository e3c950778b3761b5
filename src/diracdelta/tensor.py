"""4-bit tensors: nibble packing, serialized blobs, and the channel-blocked DRAM width.

Activations and weights are unsigned 4-bit codes. Inside the engines an
activation is a uint8 ``(height, width, channels)`` array of codes, one code
per byte. Packing is a storage format used only at the edges: on disk and at
the API, two codes share one byte, low nibble first, with a zero pad nibble
when the count is odd (`FeatureMap`, tensor blobs, weight blobs).

A weight code ``c`` stands for the odd integer ``2*c - 15``, so a dot
product over the largest channel count in the network is bounded by
``15 * 15 * 512 = 115200``. Both engines hold an accumulator as the float32
result of an exact float32 GEMM (`check_f32_exact`), every value an integer,
and `check_accumulators` asserts the bound wherever accumulators are
produced.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError, ValidationError

CODE_MAX = 15
MAX_CHANNELS = 512
# Largest input side a network may declare, far above the published 224: it
# bounds every map a manifest can ask the engines to allocate.
MAX_INPUT_SIZE = 4096
ACC_LIMIT = CODE_MAX * CODE_MAX * MAX_CHANNELS  # 115200
ACC_DTYPE = np.int32
DEFAULT_BLOCK = 32
MAX_F32_TERMS = (2**24 - 1) // (CODE_MAX * CODE_MAX)  # 74565

_BLOB_HEADER = struct.Struct("<III")


def _as_code_array(codes, what: str = "code") -> np.ndarray:
    arr = np.asarray(codes)
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "f" and np.all(arr == np.floor(arr))
    ):
        raise ValidationError(f"{what}s must be integers, got dtype {arr.dtype}")
    # range-check before any cast, so inf or 1e30 is named as given and no
    # cast overflows
    flat = arr.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() > CODE_MAX):
        i = int(np.flatnonzero((flat < 0) | (flat > CODE_MAX))[0])
        raise ValidationError(
            f"{what} {flat[i].item()} at index {i} outside [0, {CODE_MAX}]"
        )
    return flat.astype(np.uint8, copy=False)


def pack(codes) -> bytes:
    """Pack a flat sequence of 4-bit codes two per byte, low nibble first."""
    arr = _as_code_array(codes)
    if arr.size % 2:
        arr = np.concatenate([arr, np.zeros(1, dtype=np.uint8)])
    lo = arr[0::2]
    hi = arr[1::2]
    return (lo | (hi << 4)).tobytes()


def unpack(buf: bytes, count: int) -> np.ndarray:
    """Inverse of `pack`: recover ``count`` codes from a packed buffer."""
    if count < 0:
        raise ValidationError("code count must be non-negative")
    need = (count + 1) // 2
    if len(buf) < need:
        raise ValidationError(
            f"packed buffer holds {len(buf)} bytes, {need} needed for {count} codes"
        )
    raw = np.frombuffer(buf, dtype=np.uint8, count=need)
    out = np.empty(count, dtype=np.uint8)
    out[0::2] = raw & 0x0F
    out[1::2] = raw[: count // 2] >> 4
    return out


@dataclass(frozen=True)
class FeatureMap:
    """Immutable activation tensor of 4-bit codes, channel innermost.

    This is the API and file form of an activation: `forward` takes one and
    unpacks it once, tensor blobs read and write one. ``packed`` holds the
    codes of the (y, x, c) traversal in packed nibble form, which is also the
    serialized representation, so bit-exact equality between two maps is
    plain dataclass equality.
    """

    height: int
    width: int
    channels: int
    packed: bytes

    def __post_init__(self):
        for field in ("height", "width", "channels"):
            if getattr(self, field) < 0:
                raise ShapeError(f"{field} must be non-negative")
        expected = (self.height * self.width * self.channels + 1) // 2
        if len(self.packed) != expected:
            raise ValidationError(
                f"packed length {len(self.packed)} != expected {expected} bytes for "
                f"{self.height}x{self.width}x{self.channels}"
            )

    @classmethod
    def from_array(cls, arr) -> "FeatureMap":
        a = np.asarray(arr)
        if a.ndim != 3:
            raise ShapeError(f"expected a (height, width, channels) array, got shape {a.shape}")
        h, w, c = a.shape
        return cls(h, w, c, pack(a.reshape(-1)))

    def to_array(self) -> np.ndarray:
        codes = unpack(self.packed, self.height * self.width * self.channels)
        return codes.reshape(self.height, self.width, self.channels)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """1x1 convolution (or FC) weights as a dense (out, in) grid of 4-bit codes.

    The one cached form of the signed weights, `slab_int8`, is built on
    first use and multiplied by the convs of both engines.
    """

    out_channels: int
    in_channels: int
    codes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.codes)
        if arr.shape != (self.out_channels, self.in_channels):
            raise ShapeError(
                f"weight codes shape {arr.shape} != ({self.out_channels}, {self.in_channels})"
            )
        flat = _as_code_array(arr, what="weight code")
        arr = flat.reshape(self.out_channels, self.in_channels).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "codes", arr)

    def effective(self) -> np.ndarray:
        """Signed integer weight values, ``2*code - 15``: the odd integers in [-15, 15]."""
        return (2 * self.codes.astype(ACC_DTYPE)) - CODE_MAX

    @cached_property
    def slab_int8(self) -> np.ndarray:
        """`effective` as a read-only C-ordered (in, out) int8 array, built on first use.

        The conv slab of both engines, which their activations multiply once
        cast to float32. int8 holds every effective weight exactly at a
        quarter of float32's bytes, so the default net keeps 2.1 MiB resident
        instead of 8.6 MiB.
        """
        slab = np.ascontiguousarray(self.effective().T, dtype=np.int8)
        slab.flags.writeable = False
        return slab

    def packed(self) -> bytes:
        return pack(self.codes.reshape(-1))

    @classmethod
    def from_packed(cls, buf: bytes, out_channels: int, in_channels: int) -> "WeightMatrix":
        codes = unpack(buf, out_channels * in_channels).reshape(out_channels, in_channels)
        return cls(out_channels, in_channels, codes)


def blocked_channel_count(channels: int, block: int = DEFAULT_BLOCK) -> int:
    """Channel count after zero padding up to a whole number of blocks."""
    if block < 1:
        raise ValidationError("block must be >= 1")
    return ((channels + block - 1) // block) * block


def write_tensor_blob(path, fm: FeatureMap) -> None:
    """Write the external tensor format: little-endian u32 H, W, C, then packed nibbles."""
    with open(path, "wb") as f:
        f.write(_BLOB_HEADER.pack(fm.height, fm.width, fm.channels))
        f.write(fm.packed)


def read_tensor_blob(path) -> FeatureMap:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _BLOB_HEADER.size:
        raise ValidationError(
            f"tensor blob header truncated: {len(data)} bytes, "
            f"{_BLOB_HEADER.size} needed for the height/width/channels fields"
        )
    h, w, c = _BLOB_HEADER.unpack_from(data)
    payload = data[_BLOB_HEADER.size :]
    expected = (h * w * c + 1) // 2
    if len(payload) != expected:
        raise ValidationError(
            f"tensor blob payload is {len(payload)} bytes, header fields "
            f"{h}x{w}x{c} require {expected}"
        )
    return FeatureMap(h, w, c, payload)


def check_accumulators(acc) -> int:
    """Assert the documented bound `ACC_LIMIT` on |acc|; returns the peak |acc|.

    The peak of an empty array is 0.
    """
    arr = np.asarray(acc)
    if arr.size == 0:
        return 0
    peak = max(int(arr.max()), -int(arr.min()))
    if peak > ACC_LIMIT:
        raise ValidationError(f"accumulator magnitude {peak} exceeds bound {ACC_LIMIT}")
    return peak


def check_f32_exact(terms: int, what: str) -> None:
    """Refuse a float32 GEMM of code dot products longer than `MAX_F32_TERMS` terms.

    Each product, a * (2w - 15) or a * w, is an integer of magnitude at most
    225, so any partial sum of up to `MAX_F32_TERMS` of them is an integer
    below 2**24: a float32, which makes every addition exact in any order.
    """
    if terms > MAX_F32_TERMS:
        raise ValidationError(
            f"{what}: partial sums could reach 2**24, beyond what a float32 GEMM sums exactly"
        )
