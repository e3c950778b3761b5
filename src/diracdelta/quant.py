"""Quantization math and the integer threshold tables.

Weights and activations are 4-bit codes in [0, 15] (`tensor.CODE_MAX`); the
engine runs no other width, so no function here takes one.

Weights follow a tanh-normalized uniform grid over [-1, 1]: a latent weight w
maps to ``code = round(15 * (tanh(w) / (2 * max|tanh|) + 0.5))`` and the code
dequantizes to ``(2*code - 15) / 15``. Activations follow a clipped uniform
grid over [0, s]: the pre-activation is clipped to [0, alpha], divided by
alpha, rounded onto 15ths, and scaled by the network-wide s. Because s is
shared by every layer, branches can be concatenated without rescaling.

A layer's threshold table folds its clip bound alpha, the shared s, and the
layer weight scale into 15 integers over the accumulator domain. Looking an
integer accumulator up in the table (count of thresholds <= acc) reproduces
the float quantizer exactly; the quantizer itself decides every threshold,
probed once around each code's closed-form boundary (all 15 targets in one
call), so the equivalence is bit-for-bit under float rounding and the
exhaustive sweep test can demand strict equality. A table is a pure function
of alpha, the weight scale and s, which is why bundles store those and
rebuild the table on load.

At run time a table is not searched. Construction also lays out a uint8
lookup array over the accumulator window [t_first - 1, t_last], one code per
integer: code 0 at t_first - 1, code i over the gap [t_i, t_(i+1)), and the
top code at t_last. `ThresholdTable.apply` saturates an accumulator into that
window (all below it has code 0, all above it the top code) in float32, casts
it once to an intp index, subtracts t_first - 1 and indexes the array. Both
engines hand it the float32 result of their checked, exact float32 GEMM, so
every value is an integer below 2^24 and nothing rounds on the way to the
index; integer inputs are taken too, and saturate at any magnitude. The
lookup never decreases as acc grows, so it commutes with max pooling.
Thresholds lie in [-ACC_LIMIT, ACC_LIMIT + 1], which bounds the array at
2 * ACC_LIMIT + 3 bytes (about 225 KB); the tables of a real layer span a
few hundred bytes.

Ties in every rounding here go up (away from zero); inputs are non-negative
wherever rounding happens, so "up" and "away from zero" agree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DegenerateScaleError, DomainError, ValidationError
from .tensor import ACC_LIMIT, CODE_MAX


def quantize_uniform(x):
    """Nearest level of {i / 15} for x in [0, 1], returning the code i.

    Ties round up. Array in, int64 array of the same shape out.
    """
    xs = np.asarray(x, dtype=np.float64)
    # written so that NaN, which fails every comparison, is refused too
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise DomainError("input to the uniform quantizer must lie in [0, 1]")
    return np.floor(xs * CODE_MAX + 0.5).astype(np.int64)


def quantize_weights(w):
    """Quantize a float weight tensor onto the signed uniform grid.

    Returns ``(codes, weight_scale)`` where codes are in [0, 15] and
    ``weight_scale`` is the real value of one unit of the effective integer
    weight ``2*code - 15``, i.e. ``max|tanh(w)| / 15``. The dequantized grid
    value ``(2*code - 15) / 15`` lands within half a level of
    ``tanh(w) / max|tanh(w)|``.
    """
    arr = np.asarray(w, dtype=np.float64)
    t = np.tanh(arr)
    m = float(np.max(np.abs(t))) if t.size else 0.0
    if m == 0.0:
        raise DegenerateScaleError("weight tensor is all zeros, no scale to normalize by")
    codes = np.asarray(quantize_uniform(t / (2.0 * m) + 0.5), dtype=np.int64)
    return codes, m / CODE_MAX


def pact_clip(x, alpha: float):
    """Clip x to [0, alpha], elementwise."""
    if not alpha > 0:
        raise DomainError(f"clip bound alpha must be positive, got {alpha}")
    return np.minimum(np.maximum(x, 0.0), alpha)


@dataclass(frozen=True)
class NetworkQuantParams:
    """Network-wide quantization constant: the activation scale shared by every layer."""

    s: float

    def __post_init__(self):
        if not 0 < self.s < math.inf:
            raise DomainError(f"activation scale s must be positive and finite, got {self.s}")

    # weights and activations are both 4-bit, the one width the engine runs
    tag = "C_{4,4}"


@dataclass(frozen=True)
class LayerQuantParams:
    """Per-layer quantization data: clip bound and the integer-unit weight scale.

    ``weight_scale`` is the real value of one unit of the effective integer
    weight, so an integer accumulator converts to a real pre-activation by
    ``acc * weight_scale * (s / 15)``.
    """

    alpha: float
    weight_scale: float

    def __post_init__(self):
        for name in ("alpha", "weight_scale"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {v}")


class ActQuant(NamedTuple):
    code: object
    value: object


def quantize_activation(x, params: LayerQuantParams, net: NetworkQuantParams) -> ActQuant:
    """Clip to [0, alpha], round onto the code grid, and rescale by s.

    Returns the int64 code array and its real value ``(code / 15) * s``.
    """
    y = pact_clip(x, params.alpha)
    code = quantize_uniform(np.asarray(y, dtype=np.float64) / params.alpha)
    return ActQuant(code, code / CODE_MAX * net.s)


def accumulator_scale(params: LayerQuantParams, net: NetworkQuantParams) -> float:
    """Factor taking an integer accumulator to its real pre-activation."""
    return params.weight_scale * (net.s / CODE_MAX)


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

    def apply(self, acc) -> np.ndarray:
        """Vectorized lookup; returns uint8 codes with the input's shape.

        Takes any integer dtype, or float32 holding integers, as a checked
        float32 GEMM (`tensor.check_f32_exact`) and its max pool give them.
        Both ends are clamped in float32 before the one cast to the index:
        the window's values are exact, and the cast to float32 is monotone,
        so integers of any magnitude saturate.
        """
        arr = np.asarray(acc)
        if arr.dtype.kind not in "iu" and arr.dtype != np.float32:
            raise ValidationError(f"accumulators must be integers or float32, got {arr.dtype}")
        base, top = self.thresholds[0] - 1, self.thresholds[-1]
        idx = np.empty(arr.shape, dtype=np.intp)
        # the max/min pair is faster than np.clip on the simulator's short rows
        np.minimum(np.maximum(arr, base, dtype=np.float32), top, out=idx, casting="unsafe")
        idx -= base
        return self._lut.take(idx)


def build_threshold_table(params: LayerQuantParams, net: NetworkQuantParams) -> ThresholdTable:
    """Derive the integer re-quantization thresholds for one layer.

    For each target code i in 1..15 the threshold is the smallest integer
    accumulator in [1, ACC_LIMIT] whose quantized activation code reaches i
    (codes at non-positive accumulators are always 0 because alpha > 0).
    `quantize_activation` itself decides every threshold, so the table agrees
    with the float path on every representable input by construction. One
    call probes the top code at ACC_LIMIT and, for each target, the integers
    c_i - 2 .. c_i + 1 around its closed-form boundary
    c_i = ceil((i - 1/2) * alpha / (15 * f)). The code never decreases as acc
    grows, so the probes bracket each boundary; a target whose window
    straddles it is settled, and the rest (only at extreme scales) are
    bisected together, one array of probes per step.

    Raises `ConstructionError` when the parameters are inconsistent with the
    accumulator range: a boundary beyond ACC_LIMIT (alpha too large for the
    layer) or two boundaries on the same integer (alpha so small that codes
    are skipped).
    """
    f = accumulator_scale(params, net)
    targets = np.arange(1, CODE_MAX + 1)
    # alpha / (15 f) lies in [0, inf], never NaN as alpha is finite and positive,
    # so the clip below always leaves a finite integer to cast
    with np.errstate(over="ignore", divide="ignore"):
        boundary = np.ceil((targets - 0.5) * (params.alpha / np.float64(CODE_MAX * f)))
    c = np.clip(boundary, 1, ACC_LIMIT).astype(np.int64)
    window = np.clip(c[:, None] + np.arange(-2, 2), 1, ACC_LIMIT)
    codes = _codes_at(np.append(window, ACC_LIMIT), f, params, net)
    if codes[-1] < CODE_MAX:
        raise ConstructionError(
            f"top code unreachable within accumulator range +-{ACC_LIMIT}; "
            f"alpha={params.alpha} is too large for this layer's scales"
        )
    reached = codes[:-1].reshape(window.shape) >= targets[:, None]
    lo = np.where(reached, 0, window).max(axis=1)  # code at lo < target <= code at hi
    hi = np.where(reached, window, ACC_LIMIT).min(axis=1)
    while np.any(hi - lo > 1):
        # The code is monotone in acc, so any probe strictly inside (lo, hi]
        # finds the same boundary. The upper midpoint leaves a settled pair
        # (hi = lo + 1) where it is and never probes acc = 0.
        mid = (lo + hi + 1) // 2
        reached = _codes_at(mid, f, params, net) >= targets
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    thresholds = hi.tolist()
    for i in range(1, CODE_MAX):
        if thresholds[i] <= thresholds[i - 1]:
            raise ConstructionError(
                f"codes {i} and {i + 1} share threshold {thresholds[i]}; "
                f"alpha={params.alpha} is too small for this layer's scales"
            )
    return ThresholdTable(tuple(thresholds))


def _codes_at(accs, f: float, params: LayerQuantParams, net: NetworkQuantParams) -> np.ndarray:
    """Codes of positive integer accumulators; a product that overflows is +inf, the top code."""
    with np.errstate(over="ignore"):
        x = accs * f
    return quantize_activation(x, params, net).code
