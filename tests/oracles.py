"""Slow, obviously correct formulations that the fast engine paths must equal.

Each is the straightforward form of something the package computes faster:
a binary search instead of the threshold lookup array, an int64 matmul
instead of the float32 GEMM, exact rationals instead of the integer head, and
an operator-by-operator composition that stores every intermediate as a
packed `FeatureMap` instead of the engines' step interpreter over uint8
arrays.
"""
import math
from fractions import Fraction

import numpy as np

from diracdelta.errors import ShapeError
from diracdelta.net import ConvStep, PoolStep, ShiftStep, SplitStep, compile_steps
from diracdelta.ops import (
    channel_split,
    concat_shuffle,
    default_shift_directions,
    fc_bit_serial,
    maxpool2x2,
    shift,
)
from diracdelta.quant import NetworkQuantParams
from diracdelta.tensor import ACC_DTYPE, FeatureMap, WeightMatrix, check_accumulators


def searchsorted_apply(table, acc) -> np.ndarray:
    """Threshold lookup as a binary search: how many thresholds acc reaches."""
    t = np.asarray(table.thresholds, dtype=np.int64)
    return np.searchsorted(t, np.asarray(acc), side="right").astype(np.uint8)


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
