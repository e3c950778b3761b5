"""Slow, obviously correct formulations that the fast engine paths must equal.

Each is the straightforward form of something the package computes faster:
a binary search instead of the threshold lookup array, per-element
comparator banks instead of the lookup array, one scalar bisection per code
instead of the array bisection that builds a threshold table, an int64
matmul instead of the float32 GEMM, exact rationals instead of the integer
head, and an operator-by-operator composition that stores every intermediate
as a packed `FeatureMap` instead of the engines' step interpreter over uint8
arrays. The clip and weight-grid identities the package does not use are
here too, as statements the tests check.
"""
import math
from fractions import Fraction

import numpy as np

from diracdelta.errors import ConstructionError, DomainError, ShapeError
from diracdelta.net import ConvStep, PoolStep, ShiftStep, SplitStep, compile_steps
from diracdelta.ops import (
    channel_split,
    concat_shuffle,
    default_shift_directions,
    fc_bit_serial,
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
from diracdelta.tensor import ACC_DTYPE, ACC_LIMIT, FeatureMap, WeightMatrix, check_accumulators


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
    if len(thresholds) != 15:
        raise ConstructionError(
            f"the comparison tree needs exactly 15 thresholds, got {len(thresholds)}"
        )
    code = 0
    for step in (8, 4, 2, 1):
        probe = code + step
        if probe <= 15 and thresholds[probe - 1] <= acc:
            code = probe
    return code


def conversion_unit(acc, table: ThresholdTable):
    """The comparison tree on every accumulator: an int for a scalar, else uint8 codes."""
    arr = np.asarray(acc)
    if arr.ndim == 0:
        return conversion_tree(int(arr), table.thresholds)
    flat = [conversion_tree(int(v), table.thresholds) for v in arr.reshape(-1)]
    return np.array(flat, dtype=np.uint8).reshape(arr.shape)


def scalar_threshold_table(params: LayerQuantParams, net: NetworkQuantParams,
                           acc_limit: int = ACC_LIMIT) -> ThresholdTable:
    """`build_threshold_table` as one scalar bisection per target code."""
    levels = net.act_levels
    f = accumulator_scale(params, net)

    def code_at(acc: int) -> int:
        return quantize_activation(acc * f, params, net).code

    if code_at(acc_limit) < levels:
        raise ConstructionError(
            f"top code unreachable within accumulator range +-{acc_limit}; "
            f"alpha={params.alpha} is too large for this layer's scales"
        )
    thresholds = []
    for target in range(1, levels + 1):
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


def pact_clip_abs_form(x, alpha: float):
    """The absolute-value identity (|x| - |x - alpha| + alpha) / 2.

    Algebraically equal to `pact_clip` for alpha > 0; in float64 the two can
    differ by an ulp, which is why the pipeline uses the explicit clip.
    """
    if not alpha > 0:
        raise DomainError(f"clip bound alpha must be positive, got {alpha}")
    return (np.abs(x) - np.abs(x - alpha) + alpha) / 2


def dequantize_weight_codes(codes, k: int = 4) -> np.ndarray:
    """Grid values in [-1, 1] for weight codes: (2*code - (2^k - 1)) / (2^k - 1)."""
    levels = (1 << k) - 1
    return (2.0 * np.asarray(codes, dtype=np.float64) - levels) / levels


def conv1x1_int64(x: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """1x1 convolution as an int64 matmul, with the accumulator bound check."""
    h, w, c = x.shape
    acts = x.reshape(-1, c).astype(np.int64)
    acc = acts @ weights.effective().astype(np.int64).T
    check_accumulators(acc)
    return acc.reshape(h, w, weights.out_channels).astype(ACC_DTYPE)


def global_avgpool(x: np.ndarray, net: NetworkQuantParams, size: int = 7) -> np.ndarray:
    """Correctly rounded mean of the dequantized activations, per channel.

    The code sum is exact, so the mean is computed as the rational
    ``sum * s / (size * size * levels)`` and rounded once to float64.
    """
    if x.shape[:2] != (size, size):
        raise ShapeError(
            f"global pool expects a {size}x{size} map, got {x.shape[0]}x{x.shape[1]}"
        )
    sums = x.astype(np.int64).sum(axis=(0, 1))
    den = size * size * net.act_levels
    s = Fraction(net.s)
    return np.array([float(Fraction(int(v)) * s / den) for v in sums], dtype=np.float64)


def documented_head_codes(x: np.ndarray, net: NetworkQuantParams, size: int) -> np.ndarray:
    """Head codes by the documented rule, in exact rationals.

    The dequantized mean ``sum * s / (n * levels)`` is divided by s, put on
    the code grid and rounded to the nearest code, ties up. No float rounds.
    """
    sums = x.astype(np.int64).sum(axis=(0, 1))
    s = Fraction(net.s)
    den = size * size * net.act_levels
    codes = []
    for v in sums:
        mean = Fraction(int(v)) * s / den
        codes.append(math.floor(mean / s * net.act_levels + Fraction(1, 2)))
    return np.array(codes, dtype=np.uint8)


def composed_forward(bundle, fm: FeatureMap) -> np.ndarray:
    """Integer logits of the graph, one packed `FeatureMap` per operator."""
    def packed(op, *maps, **kwargs):
        return FeatureMap.from_array(op(*(m.to_array() for m in maps), **kwargs))

    def shifted(m):
        return packed(shift, m, directions=default_shift_directions(m.channels))

    bufs = {"input": fm}
    for step in compile_steps(bundle.spec):
        if isinstance(step, ConvStep):
            acc = conv1x1_int64(bufs[step.src].to_array(), bundle.weights[step.name])
            out = FeatureMap.from_array(searchsorted_apply(bundle.tables[step.name], acc))
            if step.pool:
                out = packed(maxpool2x2, out)
            if step.shift:
                out = shifted(out)
            if step.shuffle_with:
                out = packed(concat_shuffle, bufs[step.shuffle_with], out)
            bufs[step.dst] = out
        elif isinstance(step, PoolStep):
            bufs[step.dst] = packed(maxpool2x2, bufs[step.src])
        elif isinstance(step, ShiftStep):
            bufs[step.dst] = shifted(bufs[step.src])
        elif isinstance(step, SplitStep):
            halves = channel_split(bufs[step.src].to_array())
            bufs[step.dst_skip], bufs[step.dst_residual] = map(FeatureMap.from_array, halves)
        else:
            codes = documented_head_codes(bufs[step.src].to_array(), bundle.net, step.spatial)
            return fc_bit_serial(codes, bundle.fc_weights)
    raise AssertionError("network has no head step")
