"""DiracDeltaNet graph structure, compiled execution steps, and forward passes.

The network is four stride-8-to-stride-32 stages over a two-conv stem:

    input -> conv1x1 -> maxpool -> shift -> conv1x1 -> maxpool -> shift
          -> [downsample block + N basic blocks] per stage
          -> conv1x1 -> global average pool -> fully connected

Every conv is 1x1 and is followed by its integer threshold re-quantization.
A basic block splits channels in half, runs conv (doubling) -> shift -> conv
(halving) on the second half, and concat-shuffles with the untouched first
half. A downsample block feeds the full input to both branches: the skip side
is maxpool -> shift -> conv (same width), the residual side is conv
(doubling) -> maxpool -> shift -> conv (back to the input width), and the
halves concat-shuffle into twice the input channels at half the resolution.

`compile_steps` flattens that structure into a straight-line program over
named buffers. The forward interpreters, the accelerator engine, and the cost
model all walk the same step list, so there is a single source of truth for
the graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import GraphError, ShapeError
from .ops import (
    channel_split,
    channel_split_array,
    concat_shuffle_array,
    conv1x1_ref,
    default_shift_directions,
    fc_bit_serial,
    global_avgpool_codes,
    maxpool2x2,
    maxpool2x2_array,
    shift,
    shift_array,
)
from .quant import (
    LayerQuantParams,
    NetworkQuantParams,
    ThresholdTable,
    pact_clip,
)
from .tensor import FeatureMap, WeightMatrix


@dataclass(frozen=True)
class BlockSpec:
    """Shape summary of one block: kind, channel widths, input spatial size."""

    kind: str  # "downsample" or "basic"
    in_channels: int
    out_channels: int
    spatial: int

    def __post_init__(self):
        if self.kind not in ("downsample", "basic"):
            raise GraphError(f"unknown block kind {self.kind!r}")
        if self.kind == "basic" and self.out_channels != self.in_channels:
            raise GraphError("basic blocks preserve channel count")
        if self.kind == "downsample" and self.out_channels != 2 * self.in_channels:
            raise GraphError("downsample blocks double channel count")


@dataclass(frozen=True)
class NetworkSpec:
    """Macro-architecture parameters; the default instance is DiracDeltaNet."""

    input_size: int = 224
    input_channels: int = 3
    stem_channels: tuple = (32, 64)
    stage_channels: tuple = (128, 256, 512)
    stage_repeats: tuple = (3, 7, 3)
    conv5_channels: int = 1024
    num_classes: int = 1000

    def __post_init__(self):
        if len(self.stage_channels) != len(self.stage_repeats):
            raise GraphError("stage_channels and stage_repeats lengths differ")
        if not self.stage_channels:
            raise GraphError("at least one stage is required")
        if self.input_channels < 1 or self.num_classes < 1:
            raise GraphError("input channels and classes must be positive")
        divisor = 4 * (2 ** len(self.stage_channels))
        if self.input_size % divisor or self.input_size < divisor:
            raise GraphError(
                f"input size {self.input_size} must be a positive multiple of {divisor}"
            )
        c_prev = self.stem_channels[1]
        for i, c in enumerate(self.stage_channels):
            if c != 2 * c_prev:
                raise GraphError(
                    f"stage {i} channels {c} must double the previous width {c_prev}"
                )
            c_prev = c
        if any(r < 0 for r in self.stage_repeats):
            raise GraphError("stage repeats must be non-negative")
        if min(self.stem_channels) < 1 or self.conv5_channels < 1:
            raise GraphError("channel widths must be positive")
        if any(c % 4 for c in self.stage_channels):
            raise GraphError("stage widths must be divisible by 4 for the channel shuffle")

    @property
    def stem_spatial(self) -> int:
        """Spatial size after the stem (two 2x2 pools)."""
        return self.input_size // 4

    @property
    def head_spatial(self) -> int:
        return self.input_size // (4 * (2 ** len(self.stage_channels)))

    def blocks(self) -> tuple:
        out = []
        spatial = self.stem_spatial
        channels = self.stem_channels[1]
        for c_out, reps in zip(self.stage_channels, self.stage_repeats):
            out.append(BlockSpec("downsample", channels, c_out, spatial))
            spatial //= 2
            channels = c_out
            for _ in range(reps):
                out.append(BlockSpec("basic", channels, channels, spatial))
        return tuple(out)


@dataclass(frozen=True)
class ConvStep:
    """One 1x1 conv with its threshold table, plus any fused post-ops."""

    name: str
    src: str
    dst: str
    spatial: int  # conv input height == width
    in_channels: int
    out_channels: int
    pool: bool = False
    shift: bool = False
    shuffle_with: Optional[str] = None

    @property
    def out_spatial(self) -> int:
        return self.spatial // 2 if self.pool else self.spatial

    @property
    def params(self) -> int:
        return self.in_channels * self.out_channels

    @property
    def macs(self) -> int:
        return self.spatial * self.spatial * self.in_channels * self.out_channels


@dataclass(frozen=True)
class PoolStep:
    name: str
    src: str
    dst: str
    spatial: int
    channels: int


@dataclass(frozen=True)
class ShiftStep:
    name: str
    src: str
    dst: str
    spatial: int
    channels: int


@dataclass(frozen=True)
class SplitStep:
    name: str
    src: str
    dst_skip: str
    dst_residual: str
    channels: int


@dataclass(frozen=True)
class HeadStep:
    src: str
    in_channels: int
    num_classes: int
    spatial: int


Step = Union[ConvStep, PoolStep, ShiftStep, SplitStep, HeadStep]


def compile_steps(spec: NetworkSpec) -> tuple:
    """Flatten the network into a straight-line program over named buffers."""
    steps = []
    c1, c2 = spec.stem_channels
    steps.append(
        ConvStep("conv1", "input", "stem1", spec.input_size, spec.input_channels, c1,
                 pool=True, shift=True)
    )
    steps.append(
        ConvStep("conv2", "stem1", "stem2", spec.input_size // 2, c1, c2,
                 pool=True, shift=True)
    )
    cur = "stem2"
    spatial = spec.stem_spatial
    channels = c2
    for si, (c_out, reps) in enumerate(zip(spec.stage_channels, spec.stage_repeats), start=2):
        d = f"s{si}d"
        steps.append(PoolStep(f"{d}_skip_pool", cur, f"{d}_sp", spatial, channels))
        steps.append(ShiftStep(f"{d}_skip_shift", f"{d}_sp", f"{d}_ss", spatial // 2, channels))
        steps.append(
            ConvStep(f"{d}_skip_conv", f"{d}_ss", f"{d}_skip", spatial // 2, channels, channels)
        )
        steps.append(
            ConvStep(f"{d}_res_conv1", cur, f"{d}_r1", spatial, channels, 2 * channels,
                     pool=True, shift=True)
        )
        steps.append(
            ConvStep(f"{d}_res_conv2", f"{d}_r1", f"{d}_out", spatial // 2,
                     2 * channels, channels, shuffle_with=f"{d}_skip")
        )
        cur = f"{d}_out"
        spatial //= 2
        channels = c_out
        for b in range(reps):
            q = f"s{si}b{b}"
            half = channels // 2
            steps.append(SplitStep(f"{q}_split", cur, f"{q}_skip", f"{q}_in", channels))
            steps.append(
                ConvStep(f"{q}_res_conv1", f"{q}_in", f"{q}_r1", spatial, half, channels,
                         shift=True)
            )
            steps.append(
                ConvStep(f"{q}_res_conv2", f"{q}_r1", f"{q}_out", spatial, channels, half,
                         shuffle_with=f"{q}_skip")
            )
            cur = f"{q}_out"
    steps.append(ConvStep("conv5", cur, "features", spatial, channels, spec.conv5_channels))
    steps.append(HeadStep("features", spec.conv5_channels, spec.num_classes, spatial))
    return tuple(steps)


def conv_steps(spec: NetworkSpec) -> tuple:
    return tuple(s for s in compile_steps(spec) if isinstance(s, ConvStep))


def build_diracdeltanet() -> NetworkSpec:
    """The published macro-architecture instance."""
    return NetworkSpec()


# =========================================================================
# parameter / MAC accounting
# =========================================================================

@dataclass(frozen=True)
class LayerCount:
    name: str
    params: int
    macs: int


@dataclass(frozen=True)
class CountReport:
    layers: tuple
    total_params: int
    total_macs: int
    stem_params: int
    stem_macs: int


def count_params_macs(spec: NetworkSpec) -> CountReport:
    """Per-layer and total parameter / MAC counts.

    Convs are bias-free so params = IC * OC and MACs = H * W * IC * OC; the
    FC layer contributes IC * classes of each. One MAC is counted as two ops
    wherever op counts are reported.
    """
    layers = []
    for s in conv_steps(spec):
        layers.append(LayerCount(s.name, s.params, s.macs))
    fc = LayerCount("fc", spec.conv5_channels * spec.num_classes,
                    spec.conv5_channels * spec.num_classes)
    layers.append(fc)
    total_p = sum(l.params for l in layers)
    total_m = sum(l.macs for l in layers)
    stem = [l for l in layers if l.name in ("conv1", "conv2")]
    return CountReport(
        layers=tuple(layers),
        total_params=total_p,
        total_macs=total_m,
        stem_params=sum(l.params for l in stem),
        stem_macs=sum(l.macs for l in stem),
    )


# =========================================================================
# bundles and the forward interpreters
# =========================================================================

@dataclass
class ModelBundle:
    """Everything needed to run the quantized network.

    Keyed by conv step name: weight codes, threshold table, and the layer
    quantization parameters the table was derived from. Treated as immutable
    once constructed.
    """

    spec: NetworkSpec
    net: NetworkQuantParams
    weights: dict
    tables: dict
    layer_params: dict
    fc_weights: WeightMatrix
    fc_scale: float

    def validate(self) -> None:
        """Walk the graph and check every shape and table against it."""
        for step in conv_steps(self.spec):
            w = self.weights.get(step.name)
            if w is None:
                raise GraphError(f"layer {step.name}: weights missing from bundle")
            if (w.out_channels, w.in_channels) != (step.out_channels, step.in_channels):
                raise GraphError(
                    f"layer {step.name}: weight shape ({w.out_channels}, {w.in_channels}) "
                    f"does not match graph ({step.out_channels}, {step.in_channels})"
                )
            t = self.tables.get(step.name)
            if t is None:
                raise GraphError(f"layer {step.name}: threshold table missing from bundle")
            if t.levels != self.net.act_levels:
                raise GraphError(
                    f"layer {step.name}: table has {t.levels} thresholds, "
                    f"k_a={self.net.k_a} requires {self.net.act_levels}"
                )
            if step.name not in self.layer_params:
                raise GraphError(f"layer {step.name}: quantization params missing from bundle")
        extra = set(self.weights) - {s.name for s in conv_steps(self.spec)}
        if extra:
            raise GraphError(f"bundle carries weights for unknown layers: {sorted(extra)}")
        fcw = self.fc_weights
        expected = (self.spec.num_classes, self.spec.conv5_channels)
        if (fcw.out_channels, fcw.in_channels) != expected:
            raise GraphError(
                f"layer fc: weight shape ({fcw.out_channels}, {fcw.in_channels}) "
                f"does not match graph {expected}"
            )
        if not self.fc_scale > 0:
            raise GraphError("fc_scale must be positive")


class ReferenceExecutor:
    """Runs conv subgraphs with the plain reference operators.

    A conv subgraph unpacks its input once (inside `conv1x1_ref`), carries
    uint8 codes through re-quantization, pool, shift and shuffle, and packs
    its output once.
    """

    def conv_subgraph(self, fm: FeatureMap, step: ConvStep, bundle: ModelBundle,
                      skip: Optional[FeatureMap]) -> FeatureMap:
        acc = conv1x1_ref(fm, bundle.weights[step.name])
        out = bundle.tables[step.name].apply(acc)
        if step.pool:
            out = maxpool2x2_array(out)
        if step.shift:
            out = shift_array(out, default_shift_directions(out.shape[2]))
        if skip is not None:
            out = concat_shuffle_array(skip.to_array(), out)
        return FeatureMap.from_array(out)

    def pool_pass(self, fm: FeatureMap) -> FeatureMap:
        return maxpool2x2(fm)

    def shift_pass(self, fm: FeatureMap) -> FeatureMap:
        return shift(fm, default_shift_directions(fm.channels))


@dataclass(frozen=True)
class ForwardResult:
    logits: np.ndarray
    int_logits: np.ndarray
    class_index: int


def forward(bundle: ModelBundle, fm: FeatureMap, executor=None) -> ForwardResult:
    """Run the quantized network; a pure function of (bundle, input).

    The head (global average pool rounded onto the code grid in integers,
    bit-serial FC) is host-side arithmetic and is common to every executor.
    Ties in the class argmax resolve to the lowest index.
    """
    spec = bundle.spec
    if (fm.height, fm.width) != (spec.input_size, spec.input_size):
        raise ShapeError(
            f"input is {fm.height}x{fm.width}, network expects "
            f"{spec.input_size}x{spec.input_size}"
        )
    if fm.channels != spec.input_channels:
        raise ShapeError(
            f"input has {fm.channels} channels, network expects {spec.input_channels}"
        )
    ex = executor if executor is not None else ReferenceExecutor()
    bufs = {"input": fm}
    logits = None
    int_logits = None
    for step in compile_steps(spec):
        if isinstance(step, ConvStep):
            skip = bufs[step.shuffle_with] if step.shuffle_with else None
            bufs[step.dst] = ex.conv_subgraph(bufs[step.src], step, bundle, skip)
        elif isinstance(step, PoolStep):
            bufs[step.dst] = ex.pool_pass(bufs[step.src])
        elif isinstance(step, ShiftStep):
            bufs[step.dst] = ex.shift_pass(bufs[step.src])
        elif isinstance(step, SplitStep):
            bufs[step.dst_skip], bufs[step.dst_residual] = channel_split(bufs[step.src])
        else:  # HeadStep
            codes = global_avgpool_codes(bufs[step.src], step.spatial)
            int_logits = fc_bit_serial(codes, bundle.fc_weights)
            logits = int_logits * bundle.fc_scale
    if logits is None:
        raise GraphError("network has no head step")
    return ForwardResult(logits=logits, int_logits=int_logits,
                         class_index=int(np.argmax(logits)))


def float_forward(spec: NetworkSpec, weights: dict, net: NetworkQuantParams,
                  alphas, x: np.ndarray) -> np.ndarray:
    """Float twin of `forward`: same graph, real arithmetic, no rounding.

    ``weights`` maps conv step names (plus "fc") to float (out, in) arrays.
    After every conv the activation is clipped to [0, alpha] and rescaled by
    s / alpha, which is the quantizer with the rounding removed. ``alphas``
    is a mapping from layer name to clip bound, or a single float for all.
    """
    def alpha_of(name: str) -> float:
        if isinstance(alphas, dict):
            return alphas[name]
        return float(alphas)

    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (spec.input_size, spec.input_size, spec.input_channels):
        raise ShapeError(
            f"input shape {arr.shape} does not match "
            f"({spec.input_size}, {spec.input_size}, {spec.input_channels})"
        )
    bufs = {"input": arr}
    for step in compile_steps(spec):
        if isinstance(step, ConvStep):
            v = bufs[step.src]
            w = np.asarray(weights[step.name], dtype=np.float64)
            if w.shape != (step.out_channels, step.in_channels):
                raise ShapeError(
                    f"layer {step.name}: float weights {w.shape} do not match "
                    f"({step.out_channels}, {step.in_channels})"
                )
            a = alpha_of(step.name)
            pre = v @ w.T
            out = pact_clip(pre, a) * (net.s / a)
            if step.pool:
                out = maxpool2x2_array(out)
            if step.shift:
                out = shift_array(out, default_shift_directions(out.shape[2]))
            if step.shuffle_with:
                out = concat_shuffle_array(bufs[step.shuffle_with], out)
            bufs[step.dst] = out
        elif isinstance(step, PoolStep):
            bufs[step.dst] = maxpool2x2_array(bufs[step.src])
        elif isinstance(step, ShiftStep):
            v = bufs[step.src]
            bufs[step.dst] = shift_array(v, default_shift_directions(v.shape[2]))
        elif isinstance(step, SplitStep):
            bufs[step.dst_skip], bufs[step.dst_residual] = channel_split_array(bufs[step.src])
        else:
            pooled = bufs[step.src].mean(axis=(0, 1))
            return pooled @ np.asarray(weights["fc"], dtype=np.float64).T
    raise GraphError("network has no head step")
