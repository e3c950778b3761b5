"""DiracDeltaNet graph structure, compiled execution steps, and the forward interpreter.

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
named buffers. It is the only description of the graph: the forward
interpreter, the accelerator engine, and the cost model all walk the same
step list.

`forward` is the one interpreter of that program. It unpacks its
`FeatureMap` argument once; every buffer is then a uint8 ``(height, width,
channels)`` code array, and nothing is packed again. An executor runs the
conv subgraphs and the standalone pool and shift passes: `ReferenceExecutor`
with the plain `ops` operators, or the pipeline simulator in `accel`. The
reference engine runs a conv of at most three input channels as one gather
from its code book (the codes of all 16^c pixels, built once per bundle) and
pools the codes; every other conv keeps its exact float32 GEMM result, pools
it and hands it to `ThresholdTable.apply`, the lookup the simulator's
conversion stage calls on its own float32 GEMM rows. The head's FC is one
float32 GEMV over the weight codes. The `ModelBundle` it runs lives in
`bundle`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import GraphError, ShapeError
from .ops import (
    channel_split,
    concat_shuffle,
    conv1x1,
    fully_connected,
    global_avgpool_codes,
    maxpool2x2,
    shift,
)
from .tensor import CODE_MAX, MAX_CHANNELS, MAX_F32_TERMS, MAX_INPUT_SIZE, FeatureMap


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
        if len(self.stem_channels) != 2:
            raise GraphError("stem_channels must hold the widths of the two stem convs")
        if self.input_channels < 1 or self.num_classes < 1:
            raise GraphError("input channels and classes must be positive")
        if self.input_size > MAX_INPUT_SIZE:
            raise GraphError(f"input_size {self.input_size} exceeds {MAX_INPUT_SIZE}, "
                             "the largest input side the engines take")
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
        if self.conv5_channels > MAX_F32_TERMS:
            raise GraphError(f"layer fc: {self.conv5_channels} inputs exceed {MAX_F32_TERMS}, "
                             "the widest dot product a float32 GEMV sums exactly")
        # From the dimensions, not the compiled graph: conv inputs first widen at
        # these steps, in graph order; every other conv reads a width seen before.
        firsts = [("conv1", self.input_channels), ("conv2", self.stem_channels[0]),
                  ("s2d_skip_conv", self.stem_channels[1])]
        firsts += [(f"s{i}d_res_conv2", c) for i, c in enumerate(self.stage_channels, start=2)]
        for name, width in firsts:
            if width > MAX_CHANNELS:
                raise GraphError(f"layer {name}: {width} input channels exceed {MAX_CHANNELS}, "
                                 "the widest dot product the accumulator bound covers")

    @property
    def stem_spatial(self) -> int:
        """Spatial size after the stem (two 2x2 pools)."""
        return self.input_size // 4

    @property
    def head_spatial(self) -> int:
        return self.input_size // (4 * (2 ** len(self.stage_channels)))

    @property
    def conv_count(self) -> int:
        """Conv steps in the graph: conv1, conv2, conv5, three per stage, two per block."""
        return 3 + 3 * len(self.stage_channels) + 2 * sum(self.stage_repeats)


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
# the forward interpreter
# =========================================================================

# A conv with at most this many input channels runs as a gather from its code
# book: 16**3 = 4,096 distinct pixels.
CODE_BOOK_CHANNELS = 3


def _pixel_index(x: np.ndarray) -> np.ndarray:
    """Each pixel's codes read as one base-16 intp, first channel most significant."""
    idx = x[..., 0].astype(np.intp)
    for i in range(1, x.shape[2]):
        idx *= CODE_MAX + 1
        idx += x[..., i]
    return idx


def code_book(bundle, step: ConvStep) -> np.ndarray:
    """``lut(conv(p))`` for every pixel p of the step's input, built on first use.

    A read-only uint8 array of shape (16**c, out_channels) for c input
    channels, whose row ``_pixel_index(p)`` holds pixel p's codes. It is
    built with `conv1x1` and `ThresholdTable.apply`, the accumulators and
    lookup of every other conv, so `check_accumulators` sees every
    accumulator any frame through this conv can produce. It is kept in
    ``bundle.code_books``.
    """
    books = bundle.code_books
    if step.name not in books:
        c = step.in_channels
        pixels = np.indices((CODE_MAX + 1,) * c, dtype=np.uint8).reshape(c, 1, -1).T
        acc = conv1x1(pixels, bundle.weights[step.name])
        book = bundle.tables[step.name].apply(acc).reshape(-1, step.out_channels)
        book.flags.writeable = False
        books[step.name] = book
    return books[step.name]


class ReferenceExecutor:
    """Runs the engine steps with the plain reference operators on uint8 code arrays."""

    def conv_subgraph(self, x: np.ndarray, step: ConvStep, bundle,
                      skip: Optional[np.ndarray]) -> np.ndarray:
        """A conv step: conv, re-quantize, then the pool, shift and shuffle it fuses.

        The lookup never decreases as acc grows, so lut(maxpool(acc)) ==
        maxpool(lut(acc)), and the pool may come on either side of it. A conv
        with at most `CODE_BOOK_CHANNELS` input channels gathers each pixel's
        codes from its `code_book` and pools the codes. Any other conv keeps
        the float32 GEMM result of `conv1x1`, whose bound is checked before
        the pool, pools it and looks the pooled quarter up with
        `ThresholdTable.apply`: every value is an exact integer below 2**24,
        so nothing rounds on the way to the index.
        """
        # Row blocks keep every temporary under the 4 MiB at which numpy asks for
        # huge pages; an even count pools on its own.
        rows = max(2, 2**18 // (x.shape[1] * step.out_channels)) & ~1
        blocks = [x[y : y + rows] for y in range(0, len(x), rows)]
        pool = maxpool2x2 if step.pool else np.asarray
        if step.in_channels <= CODE_BOOK_CHANNELS:
            book = code_book(bundle, step)
            codes = [pool(book.take(_pixel_index(xb), axis=0)) for xb in blocks]
        else:
            table, weights = bundle.tables[step.name], bundle.weights[step.name]
            codes = [table.apply(pool(conv1x1(xb, weights))) for xb in blocks]
        out = np.concatenate(codes)
        if step.shift:
            out = self.shift_pass(out)
        if skip is not None:
            out = concat_shuffle(skip, out)
        return out

    def pool_pass(self, x: np.ndarray) -> np.ndarray:
        return maxpool2x2(x)

    def shift_pass(self, x: np.ndarray) -> np.ndarray:
        return shift(x)


@dataclass(frozen=True)
class ForwardResult:
    logits: np.ndarray
    int_logits: np.ndarray
    class_index: int


def forward(bundle, fm: FeatureMap, executor=None) -> ForwardResult:
    """Run the quantized `ModelBundle`; a pure function of (bundle, input).

    The input is unpacked once; every step then passes uint8 code arrays
    between named buffers. The executor runs the conv subgraphs and the
    standalone pool and shift passes; splits are channel slices. The head
    (global average pool rounded onto the code grid in integers, then the FC
    as one exact float32 GEMV over the weight codes) is host-side arithmetic
    and is common to every executor. The class is the argmax of the integer
    logits, ties resolving to the lowest index.
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
    bufs = {"input": fm.to_array()}
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
            int_logits = fully_connected(codes, bundle.fc_weights)
            logits = int_logits * bundle.fc_scale
            return ForwardResult(logits=logits, int_logits=int_logits,
                                 class_index=int(np.argmax(int_logits)))
    raise GraphError("network has no head step")
