"""Quantization math and the integer threshold tables.

Weights follow a tanh-normalized uniform grid over [-1, 1]: a latent weight w
maps to ``code = round(15 * (tanh(w) / (2 * max|tanh|) + 0.5))`` and the code
dequantizes to ``(2*code - 15) / 15``. Activations follow a clipped uniform
grid over [0, s]: the pre-activation is clipped to [0, alpha], divided by
alpha, rounded onto 15ths, and scaled by the network-wide s. Because s is
shared by every layer, branches can be concatenated without rescaling.

A layer's threshold table folds its clip bound alpha, the shared s, and the
layer weight scale into 15 integers over the accumulator domain. Looking an
integer accumulator up in the table (count of thresholds <= acc) reproduces
the float quantizer exactly; the table is built by bisecting the quantizer
itself, so the equivalence is bit-for-bit under float rounding and the
exhaustive sweep test can demand strict equality.

At run time a table is not searched. Construction also lays out a uint8
lookup array over the accumulator window [t_first - 1, t_last], one code per
integer: code 0 at t_first - 1, code i over the gap [t_i, t_(i+1)), and the
top code at t_last. `ThresholdTable.apply` saturates an accumulator into that
window (all below it has code 0, all above it the top code), subtracts
t_first - 1 and indexes the array. Thresholds are confined to
[-ACC_LIMIT, ACC_LIMIT + 1], which bounds the array at 2 * ACC_LIMIT + 3
bytes (about 225 KB); the tables of a real layer span a few hundred bytes.

Ties in every rounding here go up (away from zero); inputs are non-negative
wherever rounding happens, so "up" and "away from zero" agree.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DegenerateScaleError, DomainError, ValidationError
from .tensor import ACC_LIMIT


def _scalar_in(x) -> bool:
    return np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)


def quantize_uniform(x, k: int):
    """Nearest level of {i / (2^k - 1)} for x in [0, 1], returning the code i.

    Ties round up. Scalar in, int out; array in, int64 array out.
    """
    if not 1 <= k <= 32:
        raise DomainError(f"bit width {k} outside [1, 32]")
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise DomainError("input to the uniform quantizer must lie in [0, 1]")
    levels = (1 << k) - 1
    codes = np.floor(xs * levels + 0.5).astype(np.int64)
    if _scalar_in(x):
        return int(codes)
    return codes


def quantize_weights(w, k: int = 4):
    """Quantize a float weight tensor onto the signed uniform grid.

    Returns ``(codes, weight_scale)`` where codes are in [0, 2^k - 1] and
    ``weight_scale`` is the real value of one unit of the effective integer
    weight ``2*code - (2^k - 1)``, i.e. ``max|tanh(w)| / (2^k - 1)``. The
    dequantized grid value ``(2*code - (2^k - 1)) / (2^k - 1)`` lands within
    half a level of ``tanh(w) / max|tanh(w)|``.
    """
    arr = np.asarray(w, dtype=np.float64)
    t = np.tanh(arr)
    m = float(np.max(np.abs(t))) if t.size else 0.0
    if m == 0.0:
        raise DegenerateScaleError("weight tensor is all zeros, no scale to normalize by")
    codes = quantize_uniform(t / (2.0 * m) + 0.5, k)
    codes = np.asarray(codes, dtype=np.int64)
    return codes, m / float((1 << k) - 1)


def dequantize_weight_codes(codes, k: int = 4) -> np.ndarray:
    """Grid values in [-1, 1] for weight codes: (2*code - (2^k - 1)) / (2^k - 1)."""
    levels = (1 << k) - 1
    return (2.0 * np.asarray(codes, dtype=np.float64) - levels) / levels


def pact_clip(x, alpha: float):
    """Clip x to [0, alpha]."""
    if not alpha > 0:
        raise DomainError(f"clip bound alpha must be positive, got {alpha}")
    return np.minimum(np.maximum(x, 0.0), alpha) if not _scalar_in(x) else min(max(x, 0.0), alpha)


def pact_clip_abs_form(x, alpha: float):
    """The absolute-value identity (|x| - |x - alpha| + alpha) / 2.

    Algebraically equal to `pact_clip` for alpha > 0; in float64 the two can
    differ by an ulp, which is why the pipeline uses the explicit clip.
    """
    if not alpha > 0:
        raise DomainError(f"clip bound alpha must be positive, got {alpha}")
    return (np.abs(x) - np.abs(x - alpha) + alpha) / 2


@dataclass(frozen=True)
class NetworkQuantParams:
    """Network-wide quantization constants: shared activation scale and widths."""

    s: float
    k_w: int = 4
    k_a: int = 4

    def __post_init__(self):
        if not self.s > 0:
            raise DomainError(f"activation scale s must be positive, got {self.s}")
        for name in ("k_w", "k_a"):
            v = getattr(self, name)
            if not 1 <= v <= 32:
                raise DomainError(f"{name}={v} outside [1, 32]")

    @property
    def weight_levels(self) -> int:
        return (1 << self.k_w) - 1

    @property
    def act_levels(self) -> int:
        return (1 << self.k_a) - 1


@dataclass(frozen=True)
class LayerQuantParams:
    """Per-layer quantization data: clip bound and the integer-unit weight scale.

    ``weight_scale`` is the real value of one unit of the effective integer
    weight, so an integer accumulator converts to a real pre-activation by
    ``acc * weight_scale * (s / (2^k_a - 1))``.
    """

    alpha: float
    weight_scale: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.weight_scale > 0:
            raise DomainError(f"weight_scale must be positive, got {self.weight_scale}")


class ActQuant(NamedTuple):
    code: object
    value: object


def quantize_activation(x, params: LayerQuantParams, net: NetworkQuantParams) -> ActQuant:
    """Clip to [0, alpha], round onto the code grid, and rescale by s.

    Returns the code and its real value ``(code / (2^k_a - 1)) * s``.
    """
    y = pact_clip(x, params.alpha)
    code = quantize_uniform(np.asarray(y, dtype=np.float64) / params.alpha, net.k_a)
    levels = net.act_levels
    value = (np.asarray(code, dtype=np.float64) / levels) * net.s
    if _scalar_in(x):
        return ActQuant(int(np.asarray(code)), float(value))
    return ActQuant(code, value)


def accumulator_scale(params: LayerQuantParams, net: NetworkQuantParams) -> float:
    """Factor taking an integer accumulator to its real pre-activation."""
    return params.weight_scale * (net.s / net.act_levels)


@dataclass(frozen=True)
class ThresholdTable:
    """Strictly increasing integer thresholds over the accumulator domain.

    The output code for an accumulator is the number of thresholds it
    reaches, so 15 thresholds carve the domain into the 16 code intervals.
    Every threshold lies in [-ACC_LIMIT, ACC_LIMIT + 1]: the accumulator
    bound, plus one for a code that no accumulator reaches.
    """

    thresholds: tuple

    def __post_init__(self):
        t = tuple(int(v) for v in self.thresholds)
        if not t:
            raise ConstructionError("threshold table is empty")
        for i in range(1, len(t)):
            if t[i] <= t[i - 1]:
                raise ConstructionError(
                    f"thresholds not strictly increasing at position {i}: "
                    f"{t[i - 1]} then {t[i]}"
                )
        if t[0] < -ACC_LIMIT or t[-1] > ACC_LIMIT + 1:
            raise ConstructionError(
                f"thresholds span [{t[0]}, {t[-1]}], outside the accumulator "
                f"range [{-ACC_LIMIT}, {ACC_LIMIT + 1}]"
            )
        object.__setattr__(self, "thresholds", t)
        # _lut[acc - (t[0] - 1)] is the code of every acc in [t[0] - 1, t[-1]]
        gaps = np.diff(np.array((t[0] - 1,) + t + (t[-1] + 1,), dtype=np.int64))
        lut = np.repeat(np.arange(len(t) + 1).astype(np.uint8), gaps)
        lut.flags.writeable = False
        object.__setattr__(self, "_lut", lut)

    @property
    def levels(self) -> int:
        return len(self.thresholds)

    def lookup(self, acc: int) -> int:
        """Code for one accumulator: how many thresholds it reaches."""
        return bisect_right(self.thresholds, acc)

    def apply(self, acc) -> np.ndarray:
        """Vectorized lookup; returns uint8 codes with the input's shape."""
        arr = np.asarray(acc)
        if arr.dtype.kind not in "iu":
            raise ValidationError(f"accumulators must be integers, got dtype {arr.dtype}")
        if arr.dtype not in (np.int32, np.int64):
            arr = arr.astype(np.int64)
        base = self.thresholds[0] - 1
        # Saturate before offsetting: the window lies inside int32, so no
        # input can wrap around.
        idx = np.clip(arr, base, self.thresholds[-1])
        idx -= base
        return np.take(self._lut, idx)


def build_threshold_table(
    params: LayerQuantParams,
    net: NetworkQuantParams,
    acc_limit: int = ACC_LIMIT,
) -> ThresholdTable:
    """Derive the integer re-quantization thresholds for one layer.

    For each target code i in 1..levels the threshold is the smallest integer
    accumulator whose quantized activation code reaches i. The search bisects
    `quantize_activation` itself over [0, acc_limit] (codes at non-positive
    accumulators are always 0 because alpha > 0), which makes the table agree
    with the float path on every representable input by construction.

    Raises `ConstructionError` when the parameters are inconsistent with the
    accumulator range: a boundary beyond acc_limit (alpha too large for the
    layer) or two boundaries on the same integer (alpha so small that codes
    are skipped).
    """
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


@dataclass(frozen=True)
class QuantConfig:
    """A weight and activation bit-width pair, named by its tag."""

    w_bits: int
    a_bits: int

    def __post_init__(self):
        for name in ("w_bits", "a_bits"):
            v = getattr(self, name)
            if not 1 <= v <= 32:
                raise DomainError(f"{name}={v} outside [1, 32]")

    @property
    def tag(self) -> str:
        return f"C_{{{self.w_bits},{self.a_bits}}}"
