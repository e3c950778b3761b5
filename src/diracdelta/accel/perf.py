"""Roofline and throughput estimation for the tiled engine.

The model is deliberately small: a conv subgraph costs its MAC cycles on a
32x32 tile array or its DRAM traffic at the board bandwidth, whichever
dominates; fused pooling, shifting, and re-quantization ride along for free;
the channel shuffle costs a host-side copy of the skip half (`copy_bytes`,
timed by `CostModelParams.copy_s`); weights are fetched once per engine
invocation and amortize over the batch. `CostModelParams` describes the
board for the simulator (`accel.subgraph`) too, which streams whole rows of
a map's real channels and reports `map_bytes`, `weight_bytes` and
`copy_bytes`: tiles exist only in those byte counts. A report whose figures
are not all finite is refused.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from ..errors import ConfigurationError
from ..net import (
    ConvStep,
    NetworkSpec,
    PoolStep,
    ShiftStep,
    compile_steps,
)
from ..tensor import MAX_F32_TERMS, blocked_channel_count

CYCLES_PER_IC_ITER_RANGE = (7, 38)


@dataclass(frozen=True)
class CostModelParams:
    """Knobs of the performance model; defaults describe the measured board.

    `cycles_per_ic_iter` is the pipeline cost of one input-channel tile
    iteration (one 32x32 block of MACs per pixel); the achievable range on
    the target part runs from 7 (fully pipelined) to 38 (worst observed).
    `memcpy_overlap` is the fraction of shuffle copy time hidden behind
    engine execution, 0 meaning fully serialized. The copy rate default is
    calibrated from measured end-to-end deltas of shuffle-bearing layers. The
    tile widths are at most `MAX_F32_TERMS`: a tile's partial sum of up to
    ``ic_parallel`` code products then stays below 2**24, the bound
    `check_f32_exact` holds every float32 dot product of the engines to.
    """

    cycles_per_ic_iter: int = 8
    clock_hz: float = 250e6
    dram_bandwidth: float = 6e9
    invocation_overhead_s: float = 0.4e-3
    host_memcpy_bytes_per_s: float = 9.0e7
    host_head_s: float = 0.0
    memcpy_overlap: float = 0.0
    ic_parallel: int = 32
    oc_parallel: int = 32

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigurationError(f"{f.name} must be finite, got {v}")
        lo, hi = CYCLES_PER_IC_ITER_RANGE
        if not lo <= self.cycles_per_ic_iter <= hi:
            raise ConfigurationError(
                f"cycles_per_ic_iter {self.cycles_per_ic_iter} outside [{lo}, {hi}]"
            )
        for name in ("clock_hz", "dram_bandwidth", "host_memcpy_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("invocation_overhead_s", "host_head_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0.0 <= self.memcpy_overlap <= 1.0:
            raise ConfigurationError("memcpy_overlap must be within [0, 1]")
        for name in ("ic_parallel", "oc_parallel"):
            if not 1 <= getattr(self, name) <= MAX_F32_TERMS:
                raise ConfigurationError(
                    f"tile parallelism {name} must be within [1, {MAX_F32_TERMS}]")

    @property
    def compute_roof_macs_per_s(self) -> float:
        return self.ic_parallel * self.oc_parallel * self.clock_hz

    def memory_roof_macs_per_s(self, oc_total: int) -> float:
        """Peak MAC rate the activation stream can feed.

        With every output channel resident per pixel, each 4-bit activation
        read from DRAM serves `oc_total` MACs, so a byte serves 2*oc_total.
        """
        return self.dram_bandwidth * oc_total * 2

    def copy_s(self, n_bytes: int) -> float:
        """Host seconds of ``n_bytes`` of shuffle copy, after the overlap credit."""
        return n_bytes / self.host_memcpy_bytes_per_s * (1.0 - self.memcpy_overlap)


def load_cost_config(path) -> CostModelParams:
    """Read `key = value` lines (# comments allowed) over the defaults."""
    types = {f.name: type(f.default) for f in fields(CostModelParams)}
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"{path}: cost config is not UTF-8 text: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key = value, got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown cost parameter {key!r}"
            )
        try:
            overrides[key] = types[key](value)
        except ValueError as e:
            raise ConfigurationError(
                f"{path}:{lineno}: bad value for {key}: {value!r}"
            ) from e
    return CostModelParams(**overrides)


# =========================================================================
# per-step costs
# =========================================================================

@dataclass(frozen=True)
class SubgraphCost:
    """Time and traffic of one engine invocation step."""

    name: str
    kind: str               # "conv", "pool", "shift"
    cycles: int
    compute_s: float
    act_bytes: int          # activation DRAM traffic, in plus out
    weight_bytes: int
    dram_s: float           # activation traffic at board bandwidth
    memcpy_bytes: int
    step_s: float           # max(compute, dram): DMA overlaps the MACs


def conv_cycles(step: ConvStep, params: CostModelParams) -> int:
    """Engine cycles for one conv subgraph.

    One iteration covers an ic-tile by oc-tile block of MACs for one output
    pixel, so the count scales with the output raster: fused pooling halves
    the rows and columns the register file has to complete.
    """
    n_ic = math.ceil(step.in_channels / params.ic_parallel)
    n_oc = math.ceil(step.out_channels / params.oc_parallel)
    s = step.out_spatial
    return s * s * n_ic * n_oc * params.cycles_per_ic_iter


def map_bytes(shape, params: CostModelParams) -> int:
    """DRAM bytes of a stored (height, width, channels) map, channels padded to whole tiles."""
    h, w, c = shape
    return h * w * blocked_channel_count(c, params.ic_parallel) // 2


def weight_bytes(in_channels: int, out_channels: int, params: CostModelParams) -> int:
    """DRAM bytes of a layer's weight codes, padded to whole tiles on both sides."""
    return (blocked_channel_count(in_channels, params.ic_parallel)
            * blocked_channel_count(out_channels, params.oc_parallel) // 2)


def copy_bytes(shape) -> int:
    """Host copy bytes of a concat-shuffle with a (height, width, channels) skip half.

    `ops.concat_shuffle` rotates the concatenation left by a quarter, which
    leaves the residual half contiguous at channel offset C/4 of the C-channel
    output, so the engine stores it there at one base offset. The skip half
    lands as two wrapped chunks (its first quarter at offset 3C/4, its second
    at offset 0), which the host copies: half a byte per 4-bit code.
    """
    h, w, c = shape
    return h * w * c // 2


def step_cost(step, params: CostModelParams) -> SubgraphCost:
    if isinstance(step, ConvStep):
        cycles = conv_cycles(step, params)
        compute_s = cycles / params.clock_hz
        w_bytes = weight_bytes(step.in_channels, step.out_channels, params)
        out_c = step.out_channels * (2 if step.shuffle_with else 1)
        s, out_s = step.spatial, step.out_spatial
        act = map_bytes((s, s, step.in_channels), params) + map_bytes((out_s, out_s, out_c), params)
        dram_s = act / params.dram_bandwidth
        memcpy = copy_bytes((out_s, out_s, step.out_channels)) if step.shuffle_with else 0
        return SubgraphCost(step.name, "conv", cycles, compute_s, act, w_bytes,
                            dram_s, memcpy, max(compute_s, dram_s))
    if isinstance(step, (PoolStep, ShiftStep)):
        kind = "pool" if isinstance(step, PoolStep) else "shift"
        out_spatial = step.spatial // 2 if kind == "pool" else step.spatial
        s, c = step.spatial, step.channels
        act = map_bytes((s, s, c), params) + map_bytes((out_spatial, out_spatial, c), params)
        dram_s = act / params.dram_bandwidth
        return SubgraphCost(step.name, kind, 0, 0.0, act, 0, dram_s, 0, dram_s)
    raise ConfigurationError(f"no cost model for step {step!r}")


# =========================================================================
# whole-frame and batch estimates
# =========================================================================

@dataclass(frozen=True)
class FrameCost:
    steps: tuple
    engine_s: float         # sum of per-step times
    memcpy_s: float         # shuffle copies after overlap credit
    host_s: float           # head work per frame
    weight_bytes: int       # fetched once per invocation sequence
    calls: int              # engine invocations per frame
    frame_s: float          # engine + memcpy + host, no amortized terms

    @property
    def memcpy_bytes(self) -> int:
        return sum(c.memcpy_bytes for c in self.steps)


def frame_cost(spec: NetworkSpec, params: CostModelParams) -> FrameCost:
    costs = [step_cost(step, params) for step in compile_steps(spec)
             if isinstance(step, (ConvStep, PoolStep, ShiftStep))]
    engine_s = sum(c.step_s for c in costs)
    memcpy_s = params.copy_s(sum(c.memcpy_bytes for c in costs))
    host_s = params.host_head_s
    return FrameCost(steps=tuple(costs), engine_s=engine_s, memcpy_s=memcpy_s, host_s=host_s,
                     weight_bytes=sum(c.weight_bytes for c in costs), calls=len(costs),
                     frame_s=engine_s + memcpy_s + host_s)


@dataclass(frozen=True)
class BatchPoint:
    batch: int
    total_s: float
    fps: float
    engine_s: float
    memcpy_s: float
    host_s: float
    weight_s: float
    overhead_s: float


def batch_point(spec: NetworkSpec, params: CostModelParams, batch: int) -> BatchPoint:
    """Throughput at a batch size.

    Each subgraph call processes the whole batch, so its control overhead
    and its weight fetch are paid once per call and amortize as the batch
    grows; per-frame work scales linearly.
    """
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    if batch > 2**53:  # past this a float no longer counts frames exactly
        raise ConfigurationError(f"batch must be <= 2**53, got {batch}")
    fc = frame_cost(spec, params)
    weight_s = fc.weight_bytes / params.dram_bandwidth
    overhead_s = fc.calls * params.invocation_overhead_s
    total = overhead_s + weight_s + batch * fc.frame_s
    return BatchPoint(
        batch=batch,
        total_s=total,
        fps=batch / total,
        engine_s=fc.engine_s,
        memcpy_s=fc.memcpy_s,
        host_s=fc.host_s,
        weight_s=weight_s,
        overhead_s=overhead_s,
    )


def batch_sweep(spec: NetworkSpec, params: CostModelParams, batches) -> tuple:
    return tuple(batch_point(spec, params, b) for b in batches)


# =========================================================================
# roofline
# =========================================================================

@dataclass(frozen=True)
class RooflineSummary:
    compute_roof_macs: float
    compute_roof_ops: float
    memory_roof_macs: float
    memory_roof_ops: float
    attainable_macs: float
    bound: str


def roofline(params: CostModelParams, oc_total: int = 512) -> RooflineSummary:
    comp = params.compute_roof_macs_per_s
    mem = params.memory_roof_macs_per_s(oc_total)
    att = min(comp, mem)
    return RooflineSummary(
        compute_roof_macs=comp,
        compute_roof_ops=2 * comp,
        memory_roof_macs=mem,
        memory_roof_ops=2 * mem,
        attainable_macs=att,
        bound="compute" if att == comp else "memory",
    )


@dataclass(frozen=True)
class LayerRoofline:
    name: str
    oc_total: int
    macs: int
    cycles: int
    dram_bytes: int
    memcpy_bytes: int
    attainable_macs: float
    bound: str


def layer_roofline(spec: NetworkSpec, params: CostModelParams) -> tuple:
    """Attainable rate per conv layer under the output-stationary dataflow.

    The memory roof scales with the layer's total output channels (how many
    MACs each streamed activation feeds); layers narrower than
    compute_roof / (2 * bandwidth) output channels are memory-bound.
    """
    rows = []
    for step in compile_steps(spec):
        if not isinstance(step, ConvStep):
            continue
        cost = step_cost(step, params)
        roof = roofline(params, step.out_channels)
        rows.append(LayerRoofline(
            name=step.name, oc_total=step.out_channels, macs=step.macs, cycles=cost.cycles,
            dram_bytes=cost.act_bytes + cost.weight_bytes, memcpy_bytes=cost.memcpy_bytes,
            attainable_macs=roof.attainable_macs, bound=roof.bound))
    return tuple(rows)


# =========================================================================
# block ablation
# =========================================================================

@dataclass(frozen=True)
class BlockAblation:
    """Cumulative cost of one basic block: its conv pair, then the shuffle."""

    spatial: int
    channels: int
    conv_s: float
    with_shuffle_s: float
    memcpy_bytes: int


def block_breakdown(params: CostModelParams, spatial: int, channels: int) -> BlockAblation:
    """Basic block at a given size: conv pair, then shuffle.

    Pooling and shifting are pipeline stages that add no engine time, so
    they have no figure of their own. The shuffle adds the host copy of the
    skip half.
    """
    half = channels // 2
    conv1 = ConvStep("ablate_conv1", "a", "b", spatial, half, channels)
    conv2 = ConvStep("ablate_conv2", "b", "c", spatial, channels, half)
    base = step_cost(conv1, params).step_s + step_cost(conv2, params).step_s
    memcpy = copy_bytes((spatial, spatial, half))
    return BlockAblation(
        spatial=spatial,
        channels=channels,
        conv_s=base,
        with_shuffle_s=base + params.copy_s(memcpy),
        memcpy_bytes=memcpy,
    )


# =========================================================================
# report assembly
# =========================================================================

@dataclass(frozen=True)
class PerfReport:
    params: CostModelParams
    summary: RooflineSummary
    layers: tuple
    batches: tuple
    ablations: tuple

    def to_dict(self) -> dict:
        return {
            "ablations": [vars(a) for a in self.ablations],
            "batches": [vars(b) for b in self.batches],
            "layers": [vars(l) for l in self.layers],
            "params": vars(self.params),
            "roofline": vars(self.summary),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        s = self.summary
        lines = [
            "roofline:",
            f"  compute roof  {s.compute_roof_macs / 1e9:10.1f} GMAC/s "
            f"({s.compute_roof_ops / 1e9:.1f} GOP/s)",
            f"  memory roof   {s.memory_roof_macs / 1e9:10.1f} GMAC/s "
            f"({s.memory_roof_ops / 1e9:.1f} GOP/s)",
            f"  attainable    {s.attainable_macs / 1e9:10.1f} GMAC/s ({s.bound}-bound)",
            "",
            "layers:",
            f"  {'name':16s} {'oc':>5s} {'MMAC':>9s} {'cycles':>9s} {'KiB':>8s} "
            f"{'copy B':>7s} {'GMAC/s':>8s} bound",
        ]
        for l in self.layers:
            lines.append(
                f"  {l.name:16s} {l.oc_total:5d} {l.macs / 1e6:9.2f} {l.cycles:9d} "
                f"{l.dram_bytes / 1024:8.1f} {l.memcpy_bytes:7d} "
                f"{l.attainable_macs / 1e9:8.1f} {l.bound}"
            )
        lines += ["", "batch sweep:", f"  {'batch':>5s} {'total ms':>9s} {'fps':>8s}"]
        for b in self.batches:
            lines.append(f"  {b.batch:5d} {b.total_s * 1e3:9.3f} {b.fps:8.1f}")
        lines += ["", "block ablation (cumulative seconds):"]
        for a in self.ablations:
            lines.append(
                f"  {a.spatial}x{a.spatial} c{a.channels}: conv {a.conv_s * 1e3:.3f} ms, "
                f"+shuffle {a.with_shuffle_s * 1e3:.3f} "
                f"(copy {a.memcpy_bytes} B)"
            )
        return "\n".join(lines) + "\n"


def build_report(spec: NetworkSpec, params: CostModelParams,
                 batches=(1, 2, 4, 8, 16, 32)) -> PerfReport:
    """The report of ``spec``; a figure that is not finite is a `ConfigurationError`.

    The block ablation has one row per stage with basic blocks, at that
    stage's spatial size and width.

    The check covers every float of `to_dict`, params first and then in the
    text's order, so the error names the first figure the text would print
    as ``inf`` or ``nan``.
    """
    report = PerfReport(
        params=params,
        summary=roofline(params),
        layers=layer_roofline(spec, params),
        batches=batch_sweep(spec, params, batches),
        ablations=tuple(
            block_breakdown(params, spec.stem_spatial // 2 ** (i + 1), channels)
            for i, (channels, reps) in enumerate(zip(spec.stage_channels, spec.stage_repeats))
            if reps),
    )
    rows = [("params", params), ("roofline", report.summary)] + [
        (f"{section}[{i}]", row) for section in ("layers", "batches", "ablations")
        for i, row in enumerate(getattr(report, section))]
    for where, row in rows:
        for key, value in vars(row).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(
                    f"cost model figure {where}.{key} is {value}: a cost model rate is out of range")
    return report
