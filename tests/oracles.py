"""Slow, obviously correct formulations that the fast engine paths must equal.

Each is the straightforward form of something the package computes faster:
a binary search instead of the threshold lookup array, per-element
comparator banks instead of the lookup array, one scalar bisection per code
over the whole accumulator range instead of the probes around each code's
closed-form boundary that build a threshold table (a construction that
shares nothing with the package's but the float quantizer), an int64
matmul instead of the float32 GEMM, exact rationals instead of the integer
head pool, int64 bit planes instead of the one-GEMV FC head, nested loops
instead of the vectorized pool and shift, an operator-by-operator
composition that stores every intermediate as a packed `FeatureMap` (and
looks accumulators up before it pools them) instead of the engines' step
interpreter over uint8 arrays, the reference operators composed in a row
instead of the simulator's fused conv pipeline, and pixel-serial line
buffers instead of the simulator's row lanes. The weight-grid
dequantization the package does not use is here too.
"""
import math
from collections import deque
from fractions import Fraction

import numpy as np

from diracdelta.errors import ConstructionError, ShapeError
from diracdelta.net import ConvStep, PoolStep, ShiftStep, SplitStep, compile_steps
from diracdelta.ops import (
    channel_split,
    concat_shuffle,
    conv1x1,
    maxpool2x2,
    shift,
)
from diracdelta.quant import (
    LayerQuantParams,
    NetworkQuantParams,
    ThresholdTable,
    accumulator_scale,
    quantize_activation,
)
from diracdelta.tensor import (ACC_DTYPE, ACC_LIMIT, CODE_MAX, FeatureMap, WeightMatrix,
                               check_accumulators)


def searchsorted_apply(table, acc) -> np.ndarray:
    """Threshold lookup as a binary search: how many thresholds acc reaches."""
    t = np.asarray(table.thresholds, dtype=np.int64)
    return np.searchsorted(t, np.asarray(acc), side="right").astype(np.uint8)


def conversion_linear(acc: int, thresholds) -> int:
    """Comparator bank: count every threshold the value reaches."""
    return sum(1 for t in thresholds if t <= acc)


def conversion_tree(acc: int, thresholds) -> int:
    """Four-deep comparison tree over 15 thresholds.

    Walks offsets 8, 4, 2, 1 through the 1-indexed table, which is how a
    pipelined comparator tree resolves a 4-bit code in four stages.
    """
    code = 0
    for step in (8, 4, 2, 1):
        probe = code + step
        if probe <= 15 and thresholds[probe - 1] <= acc:
            code = probe
    return code


def conversion_unit(acc, table: ThresholdTable) -> np.ndarray:
    """The comparison tree on every accumulator, as uint8 codes."""
    arr = np.asarray(acc)
    flat = [conversion_tree(int(v), table.thresholds) for v in arr.reshape(-1)]
    return np.array(flat, dtype=np.uint8).reshape(arr.shape)


def scalar_threshold_table(params: LayerQuantParams, net: NetworkQuantParams,
                           acc_limit: int = ACC_LIMIT) -> ThresholdTable:
    """`build_threshold_table` as one scalar bisection of [0, acc_limit] per target code."""
    f = accumulator_scale(params, net)

    def code_at(acc: int) -> int:
        return quantize_activation(acc * f, params)

    if code_at(acc_limit) < CODE_MAX:
        raise ConstructionError(
            f"top code unreachable within accumulator range +-{acc_limit}; "
            f"alpha={params.alpha} is too large for this layer's scales"
        )
    thresholds = []
    for target in range(1, CODE_MAX + 1):
        lo, hi = 0, acc_limit  # code_at(lo) < target <= code_at(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if code_at(mid) >= target:
                hi = mid
            else:
                lo = mid
        thresholds.append(hi)
    for i in range(1, len(thresholds)):
        if thresholds[i] <= thresholds[i - 1]:
            raise ConstructionError(
                f"codes {i} and {i + 1} share threshold {thresholds[i]}; "
                f"alpha={params.alpha} is too small for this layer's scales"
            )
    return ThresholdTable(tuple(thresholds))


def dequantize_weight_codes(codes) -> np.ndarray:
    """Grid values in [-1, 1] for weight codes: (2*code - 15) / 15."""
    return (2.0 * np.asarray(codes, dtype=np.float64) - CODE_MAX) / CODE_MAX


def conv1x1_int64(x: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """1x1 convolution as an int64 matmul, with the accumulator bound check."""
    h, w, c = x.shape
    acts = x.reshape(-1, c).astype(np.int64)
    acc = acts @ weights.effective().astype(np.int64).T
    check_accumulators(acc)
    return acc.reshape(h, w, weights.out_channels).astype(ACC_DTYPE)


def fc_bit_serial(codes, weights: WeightMatrix) -> np.ndarray:
    """Fully connected layer evaluated one weight bit plane at a time, in int64.

    With d_b[o] = sum_i bit_b(w[o, i]) * a[i], the result is
    ``2 * sum_b 2^b * d_b - 15 * sum_i a[i]``, which equals the direct
    integer dot product with effective weights 2*w - 15.
    """
    a = np.asarray(codes, dtype=np.int64)
    planes = (((weights.codes >> b) & 1).astype(np.int64) for b in range(4))
    total = sum((1 << b) * (plane @ a) for b, plane in enumerate(planes))
    return 2 * total - 15 * int(a.sum())


def documented_head_codes(x: np.ndarray, net: NetworkQuantParams, size: int) -> np.ndarray:
    """Head codes by the documented rule, in exact rationals.

    The dequantized mean ``sum * s / (n * 15)`` is divided by s, put on
    the code grid and rounded to the nearest code, ties up. No float rounds.
    """
    sums = x.astype(np.int64).sum(axis=(0, 1))
    s = Fraction(net.s)
    den = size * size * CODE_MAX
    codes = []
    for v in sums:
        mean = Fraction(int(v)) * s / den
        codes.append(math.floor(mean / s * CODE_MAX + Fraction(1, 2)))
    return np.array(codes, dtype=np.uint8)


def pool_oracle(arr: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling, one output element at a time."""
    h, w, c = arr.shape
    out = np.zeros((h // 2, w // 2, c), dtype=arr.dtype)
    for y in range(h // 2):
        for x in range(w // 2):
            for ch in range(c):
                out[y, x, ch] = max(arr[2 * y, 2 * x, ch], arr[2 * y, 2 * x + 1, ch],
                                    arr[2 * y + 1, 2 * x, ch], arr[2 * y + 1, 2 * x + 1, ch])
    return out


def shift_oracle(arr: np.ndarray) -> np.ndarray:
    """The shift one output element at a time: out[y, x] = in[y + dy, x + dx], zero fill."""
    h, w, c = arr.shape
    out = np.zeros_like(arr)
    for ch in range(c):
        # identity, up, down, left, right, repeating every five channels
        dy, dx = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))[ch % 5]
        for y in range(h):
            for x in range(w):
                sy, sx = y + dy, x + dx
                if 0 <= sy < h and 0 <= sx < w:
                    out[y, x, ch] = arr[sy, sx, ch]
    return out


def composed_subgraph(fm: np.ndarray, weights: WeightMatrix, table: ThresholdTable,
                      pool=False, shifted=False, shuffle_with=None) -> np.ndarray:
    """One fused conv step as the reference operators in a row: conv, lookup,
    then the pool, the shift and the shuffle it names."""
    out = table.apply(conv1x1(fm, weights))
    if pool:
        out = maxpool2x2(out)
    if shifted:
        out = shift(out)
    if shuffle_with is not None:
        out = concat_shuffle(shuffle_with, out)
    return out


def composed_forward(bundle, fm: FeatureMap) -> np.ndarray:
    """Integer logits of the graph, one packed `FeatureMap` per operator."""
    def packed(op, *maps):
        return FeatureMap.from_array(op(*(m.to_array() for m in maps)))

    bufs = {"input": fm}
    for step in compile_steps(bundle.spec):
        if isinstance(step, ConvStep):
            acc = conv1x1_int64(bufs[step.src].to_array(), bundle.weights[step.name])
            out = FeatureMap.from_array(searchsorted_apply(bundle.tables[step.name], acc))
            if step.pool:
                out = packed(maxpool2x2, out)
            if step.shift:
                out = packed(shift, out)
            if step.shuffle_with:
                out = packed(concat_shuffle, bufs[step.shuffle_with], out)
            bufs[step.dst] = out
        elif isinstance(step, PoolStep):
            bufs[step.dst] = packed(maxpool2x2, bufs[step.src])
        elif isinstance(step, ShiftStep):
            bufs[step.dst] = packed(shift, bufs[step.src])
        elif isinstance(step, SplitStep):
            halves = channel_split(bufs[step.src].to_array())
            bufs[step.dst_skip], bufs[step.dst_residual] = map(FeatureMap.from_array, halves)
        else:
            codes = documented_head_codes(bufs[step.src].to_array(), bundle.net, step.spatial)
            return fc_bit_serial(codes, bundle.fc_weights)
    raise AssertionError("network has no head step")


class PixelPoolLane:
    """2x2 stride-2 max pooling over a raster stream, one pixel at a time.

    Keeps at most width + 1 pixels: the previous row plus the pixel to the
    left. A result comes out on every odd row, odd column arrival, built
    from the stored neighbors at offsets -(width+1), -width, -1 and the
    arriving pixel.
    """

    def __init__(self, width: int, channels: int):
        if width < 2 or width % 2:
            raise ShapeError(f"pool lane width must be even and >= 2, got {width}")
        self.width = width
        self.channels = channels
        self.max_occupancy = 0
        self._buf = deque(maxlen=width + 1)
        self._x = 0
        self._y = 0

    def feed(self, pixel):
        """Push one pixel; returns the pooled pixel when a window completes."""
        px = np.asarray(pixel)
        if px.shape != (self.channels,):
            raise ShapeError(f"pixel has shape {px.shape}, lane expects ({self.channels},)")
        out = None
        if self._y % 2 and self._x % 2:
            up_left = self._buf[-(self.width + 1)]
            up = self._buf[-self.width]
            left = self._buf[-1]
            out = np.maximum(np.maximum(up_left, up), np.maximum(left, px))
        self._buf.append(px)
        if len(self._buf) > self.max_occupancy:
            self.max_occupancy = len(self._buf)
        self._x += 1
        if self._x == self.width:
            self._x = 0
            self._y += 1
        return out

    def feed_row(self, row) -> list:
        """Push a whole row pixel by pixel; returns the completed output row, if any."""
        outs = [p for p in (self.feed(px) for px in np.asarray(row)) if p is not None]
        return [np.stack(outs)] if outs else []


# A 3x3 map whose five channels all hold 1..9 in raster order, and what the
# shift makes of each channel, worked by hand: out[y, x] = in[y + dy, x + dx]
# with zero fill, for channels 0-4 = identity, up, down, left, right.
SHIFT_BY_HAND_INPUT = np.repeat(np.arange(1, 10, dtype=np.uint8).reshape(3, 3, 1), 5, axis=2)
SHIFT_BY_HAND = (
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # identity
    [[4, 5, 6], [7, 8, 9], [0, 0, 0]],  # up: content moves up one row
    [[0, 0, 0], [1, 2, 3], [4, 5, 6]],  # down
    [[2, 3, 0], [5, 6, 0], [8, 9, 0]],  # left: content moves left one column
    [[0, 1, 2], [0, 4, 5], [0, 7, 8]],  # right
)


class PixelShiftLane:
    """Per-channel spatial shift over a raster stream, one pixel at a time.

    Works on the zero-padded image (width + 2 wide, one pixel ring). The
    output pixel at padded position p draws its value from one of the taps
    p-D, p-1, p, p+1, p+D (D is the padded width), so a position resolves as
    soon as p+D has arrived and the buffer never holds more than 2D+1
    pixels. Channel c takes tap c % 5 of identity, up, down, left, right.
    Outputs are assembled into full rows of the original width.
    """

    def __init__(self, width: int, channels: int):
        self.width = width
        self.channels = channels
        self.max_occupancy = 0
        self._tap = np.arange(channels) % 5
        self._chan = np.arange(channels)
        self._pad_w = width + 2
        self._buf = deque()     # padded pixels with indices [_base, _fed)
        self._base = 0
        self._fed = 0
        self._center = 0        # next padded position to resolve
        self._pending = []
        self._dtype = None

    def _push(self, px) -> list:
        self._buf.append(px)
        self._fed += 1
        if len(self._buf) > self.max_occupancy:
            self.max_occupancy = len(self._buf)
        done = []
        while self._center + self._pad_w < self._fed:
            done.extend(self._resolve(self._center))
            self._center += 1
            floor = self._center - self._pad_w
            while self._base < floor:
                self._buf.popleft()
                self._base += 1
        return done

    def _resolve(self, p: int) -> list:
        d = self._pad_w
        y, x = divmod(p, d)
        if y == 0 or x == 0 or x == d - 1:
            return []

        def at(i):
            return self._buf[i - self._base]

        candidates = np.stack(
            [
                at(p),       # identity: in[y][x]
                at(p + d),   # up: takes from the row below
                at(p - d),   # down: takes from the row above
                at(p + 1),   # left: takes from the right neighbor
                at(p - 1),   # right: takes from the left neighbor
            ]
        )
        self._pending.append(candidates[self._tap, self._chan])
        if len(self._pending) == self.width:
            row = np.stack(self._pending)
            self._pending = []
            return [row]
        return []

    def _feed_padded_row(self, pixels) -> list:
        done = []
        for px in pixels:
            done.extend(self._push(px))
        return done

    def feed_row(self, row) -> list:
        """Push one image row; returns any output rows completed by it."""
        arr = np.asarray(row)
        zero = np.zeros(self.channels, dtype=arr.dtype)
        done = []
        if self._dtype is None:
            self._dtype = arr.dtype
            done.extend(self._feed_padded_row([zero] * self._pad_w))
        done.extend(self._feed_padded_row([zero, *arr, zero]))
        return done

    def finish(self) -> list:
        """Push the bottom zero ring, which flushes the last output row."""
        zero = np.zeros(self.channels, dtype=self._dtype)
        return self._feed_padded_row([zero] * self._pad_w)


def feed_whole_map(lane, fm) -> list:
    """Feed a pixel-serial lane every row of ``fm``; returns its output rows."""
    rows = [out for row in fm for out in lane.feed_row(row)]
    return rows + lane.finish() if isinstance(lane, PixelShiftLane) else rows
