"""Reference integer implementations of every network operator.

These are deliberately schedule-free: plain array math, one function per
operator, exact integer accumulators. The pipeline model is required to match
each of them bit for bit, so they double as oracles for the accelerator
tests. Every operator takes and returns ``(height, width, channels)`` arrays:
uint8 codes in the reference engine, and float32 accumulators for the pool
before a lookup. The conv and the FC are exact float32 GEMMs; the conv's
float32 result, every value an integer, is the one accumulator form that
both engines hand to `ThresholdTable.apply`. The shift has no parameters:
each channel's direction is fixed by its index. Nibble packing happens only
at the file and API edges (`FeatureMap`).
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import CODE_MAX, WeightMatrix, check_accumulators, check_f32_exact


# Channel c moves along SHIFT_CYCLE[c % 5], given as (dy, dx) with
# out[y, x] = in[y + dy, x + dx]: identity, up, down, left, right. The operator
# is fixed, so the hardware is a line buffer with fixed taps.
SHIFT_CYCLE = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))

# Elements per row block of a float32 temporary: 1 MiB, under the 4 MiB from
# which numpy asks the kernel for huge pages, so no frame faults one in.
BLOCK_ELEMENTS = 2**18


def conv1x1(x: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """Integer 1x1 convolution: acc[y, x, o] = sum_i (2*w[o, i] - 15) * a[y, x, i].

    Takes a (height, width, in_channels) code array and returns the float32
    GEMM result of shape (height, width, out_channels), whose every value is
    an exact integer; `check_accumulators` has checked its bound. The
    operand is the layer's resident `WeightMatrix.slab_int8` cast to
    float32, the (in, out) slab the simulator multiplies too.
    """
    h, w, c = x.shape
    if c != weights.in_channels:
        raise ShapeError(
            f"feature map has {c} channels, weights expect {weights.in_channels}"
        )
    check_f32_exact(weights.in_channels, f"{weights.in_channels} input channels")
    acts = x.astype(np.float32).reshape(-1, c)
    acc = acts @ weights.slab_int8.astype(np.float32)
    check_accumulators(acc)
    return acc.reshape(h, w, weights.out_channels)


def maxpool2x2(arr: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling of a map whose height and width are even."""
    h, w = arr.shape[:2]
    if h % 2 or w % 2:
        raise ShapeError(f"pooling needs even spatial dims, got {h}x{w}")
    rows = np.maximum(arr[0::2], arr[1::2])
    return np.maximum(rows[:, 0::2], rows[:, 1::2])


def shift(arr: np.ndarray) -> np.ndarray:
    """Per-channel spatial copy along `SHIFT_CYCLE`, with zero fill at the vacated border."""
    h, w, _ = arr.shape
    out = np.zeros_like(arr)
    for k, (dy, dx) in enumerate(SHIFT_CYCLE):
        y0, y1 = max(0, -dy), min(h, h - dy)
        x0, x1 = max(0, -dx), min(w, w - dx)
        if y0 < y1 and x0 < x1:
            out[y0:y1, x0:x1, k::5] = arr[y0 + dy : y1 + dy, x0 + dx : x1 + dx, k::5]
    return out


def concat_shuffle(skip: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Concatenate two equal halves and rotate channels left by a quarter.

    The rotation exchanges exactly C/4 channels between the halves while
    keeping the layout contiguous, which is what lets the hardware realize it
    as a writeback address offset.
    """
    if skip.shape[:2] != residual.shape[:2]:
        raise ShapeError(
            f"branch spatial sizes differ: {skip.shape[:2]} vs {residual.shape[:2]}"
        )
    if skip.shape[2] != residual.shape[2]:
        raise ShapeError(
            f"branch channel counts differ: {skip.shape[2]} vs {residual.shape[2]}"
        )
    c = 2 * skip.shape[2]
    if c % 4:
        raise ShapeError(f"concatenated channel count {c} must be divisible by 4")
    # out[..., j] = merged[..., (j + c/4) % c] for merged = skip ++ residual:
    # a circular left rotation by a quarter, written in one copy
    q = c // 4
    return np.concatenate([skip[:, :, q:], residual, skip[:, :, :q]], axis=2)


def channel_split(arr: np.ndarray):
    """Split into (first half, second half) along channels."""
    c = arr.shape[2]
    if c % 2:
        raise ShapeError(f"cannot split {c} channels in half")
    return arr[:, :, : c // 2], arr[:, :, c // 2 :]


def global_avgpool_codes(x: np.ndarray, size: int) -> np.ndarray:
    """Per-channel mean code of a size x size map, rounded with ties up.

    With n = size * size and the exact integer code sum, the nearest code is
    ``floor(sum / n + 1/2) = (2*sum + n) // (2*n)``. No float is rounded, so
    ties (possible for even n) go up as everywhere else. This equals
    quantizing the dequantized mean ``sum * s / (n * 15)`` onto the code
    grid of the shared scale s, whatever s is.
    """
    if x.shape[:2] != (size, size):
        raise ShapeError(
            f"global pool expects a {size}x{size} map, got {x.shape[0]}x{x.shape[1]}"
        )
    sums = x.sum(axis=(0, 1), dtype=np.int64)
    n = size * size
    return ((2 * sums + n) // (2 * n)).astype(np.uint8)


def fully_connected(codes, weights: WeightMatrix) -> np.ndarray:
    """Fully connected layer as float32 GEMVs over the raw weight codes.

    With d[o] = sum_i w[o, i] * a[i], the result is ``2 * d - 15 * sum_i a[i]``,
    the integer dot product with effective weights 2*w - 15. The codes are
    cast to float32 and multiplied in blocks of rows of at most
    `BLOCK_ELEMENTS` codes, so no float32 copy of the whole matrix is made
    and none stays resident. Each d[o] is one exact float32 dot product
    (`check_f32_exact`), so the blocks do not change a bit of it.
    """
    a = np.asarray(codes)
    if a.ndim != 1 or a.shape[0] != weights.in_channels:
        raise ShapeError(
            f"activation vector of length {a.shape} does not match {weights.in_channels} inputs"
        )
    if a.size and (a.min() < 0 or a.max() > CODE_MAX):
        raise ValidationError("activation codes outside [0, 15]")
    check_f32_exact(weights.in_channels, f"{weights.in_channels} inputs")
    a32 = a.astype(np.float32)
    # check_f32_exact bounds the row length below BLOCK_ELEMENTS: a block has a row.
    rows = BLOCK_ELEMENTS // max(1, weights.in_channels)
    d = np.empty(weights.out_channels, dtype=np.float32)
    for o in range(0, weights.out_channels, rows):
        np.matmul(weights.codes[o : o + rows].astype(np.float32), a32, out=d[o : o + rows])
    return 2 * d.astype(np.int64) - CODE_MAX * int(a.sum(dtype=np.int64))
