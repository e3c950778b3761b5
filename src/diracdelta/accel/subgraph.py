"""Cycle-faithful functional model of the tiled conv pipeline.

Like the reference engine, the simulator passes activations as uint8
``(height, width, channels)`` code arrays; nibble packing is only their
storage format, so it appears here solely as byte counts (two codes per
byte). One engine invocation runs a fused subgraph: load an activation map
from DRAM, multiply-accumulate it against the weights into an
output-stationary register file, re-quantize through the threshold
comparators, optionally pool and shift on the way out, and store the result
back to DRAM, optionally concat-shuffled with a skip tensor by
`ops.concat_shuffle`: the engine stores the residual half at one channel
offset and the host copies the skip half.

The tiles are those of the cost model's `CostModelParams` (``ic_parallel``
by ``oc_parallel``, 32x32 by default), and they exist only in the byte
counts: the read, stored map, weight and copy bytes are the cost model's
`perf.map_bytes`, `perf.weight_bytes` and `perf.copy_bytes`.

The stages are independent processes joined by FIFOs of `FIFO_CAPACITY`
whole rows, so the computed bytes are identical under any scheduler; what
the simulator adds over the reference operators is the traffic and
occupancy accounting of a real run. Each stage works on a whole row at
once: the loader streams one row of the map's real channels per item, the
conv stage runs one exact float32 GEMM per row, which the conversion stage
hands to `ThresholdTable.apply` as the reference engine hands its own, and
the pool and shift lanes take rows while reporting the
occupancy of the pixel-serial line buffers the hardware would build. Unlike
the reference engine, the simulator converts before it pools, in the
hardware's order: the line buffer holds 4-bit codes. A standalone pass
fills its lane with a whole stored map, so it runs the reference operator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from ..net import ConvStep
from .. import ops
from ..quant import ThresholdTable
from ..tensor import WeightMatrix, check_accumulators, check_f32_exact
from .fifo import FifoChannel, run_network
from .perf import CostModelParams, copy_bytes, map_bytes, weight_bytes
from .units import PoolLane, ShiftLane


# Rows each FIFO holds: double buffering, the depth every stage is built for.
FIFO_CAPACITY = 2


@dataclass
class SubgraphStats:
    """Traffic and buffer pressure observed during one engine invocation."""

    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    weight_bytes: int = 0
    memcpy_bytes: int = 0
    max_abs_acc: int = 0
    pool_occupancy: int = 0
    shift_occupancy: int = 0
    fifo_depths: dict = field(default_factory=dict)


@dataclass
class SubgraphResult:
    output: np.ndarray
    stats: SubgraphStats


def _weight_slab(weights: WeightMatrix) -> np.ndarray:
    """The (in_channels, out_channels) float32 slab that an input row multiplies.

    Transposed signed weights, C-ordered: the GEMM is slower on an F-ordered
    slab. The slab lives for one call: caching it, or
    `WeightMatrix.effective_f32`, would keep a float32 copy of every layer's
    weights resident.
    """
    return np.ascontiguousarray(weights.effective().T, dtype=np.float32)


def _loader_stage(x: np.ndarray, out_fifo: FifoChannel):
    """Stream the input map row by row."""
    for y in range(x.shape[0]):
        yield ("put", out_fifo, x[y])


def _conv_stage(slab, height, stats, in_fifo: FifoChannel, out_fifo: FifoChannel):
    """Output-stationary MACs: every pixel keeps all its output partials.

    The register file holds one row of pixels with every output channel
    each; one GEMM of the input row against the slab updates all of them.
    It is exact because `run_subgraph` checks the input width, so the
    float32 row is the accumulator form the lookup takes.
    """
    for _y in range(height):
        row = yield ("get", in_fifo)
        reg = row @ slab
        peak = check_accumulators(reg)
        if peak > stats.max_abs_acc:
            stats.max_abs_acc = peak
        yield ("put", out_fifo, reg)


def _conversion_stage(table: ThresholdTable, height,
                      in_fifo: FifoChannel, out_fifo: FifoChannel):
    for _y in range(height):
        acc = yield ("get", in_fifo)
        yield ("put", out_fifo, table.apply(acc))


def _pool_stage(lane: PoolLane, height, in_fifo: FifoChannel, out_fifo: FifoChannel):
    for _y in range(height):
        row = yield ("get", in_fifo)
        for out in lane.feed_row(row):
            yield ("put", out_fifo, out)


def _shift_stage(lane: ShiftLane, height, in_fifo: FifoChannel, out_fifo: FifoChannel):
    for _y in range(height):
        row = yield ("get", in_fifo)
        for out in lane.feed_row(row):
            yield ("put", out_fifo, out)
    for out in lane.finish():
        yield ("put", out_fifo, out)


def _store_stage(height, in_fifo: FifoChannel, sink: list):
    for _y in range(height):
        row = yield ("get", in_fifo)
        sink.append(row)


def run_subgraph(x: np.ndarray, weights: WeightMatrix, table: ThresholdTable,
                 params: CostModelParams = CostModelParams(), *,
                 pool: bool = False, shift: bool = False, shuffle_with: np.ndarray = None,
                 scheduler: str = "single-thread") -> SubgraphResult:
    """Run one conv subgraph of a (height, width, channels) code array.

    ``params`` sets the tile widths; ``pool`` and ``shift`` enable those
    stages; ``shuffle_with`` supplies the skip half the output is
    concat-shuffled with at writeback. The output codes equal what the
    reference operator composition produces; the stats describe the run.
    """
    h, w, c = x.shape
    if c != weights.in_channels:
        raise ShapeError(
            f"input has {c} channels, weights expect {weights.in_channels}"
        )
    if pool and (h % 2 or w % 2):
        raise ShapeError(f"pooling needs even spatial dims, got {h}x{w}")
    check_f32_exact(c, f"input width of {c} channels")
    stats = SubgraphStats()
    stats.weight_bytes = weight_bytes(c, weights.out_channels, params)
    stats.dram_read_bytes = map_bytes(x.shape, params) + stats.weight_bytes
    oc = weights.out_channels
    out_h, out_w = (h // 2, w // 2) if pool else (h, w)

    f_in = FifoChannel("loader_to_conv", FIFO_CAPACITY)
    f_acc = FifoChannel("conv_to_convert", FIFO_CAPACITY)
    fifos = [f_in, f_acc]
    stages = [
        _loader_stage(x, f_in),
        _conv_stage(_weight_slab(weights), h, stats, f_in, f_acc),
    ]
    pool_lane = PoolLane(w, oc) if pool else None
    shift_lane = ShiftLane(out_w, oc) if shift else None

    f_codes = FifoChannel("convert_to_next", FIFO_CAPACITY)
    fifos.append(f_codes)
    stages.append(_conversion_stage(table, h, f_acc, f_codes))
    tail = f_codes
    if pool_lane is not None:
        f_pool = FifoChannel("pool_to_next", FIFO_CAPACITY)
        fifos.append(f_pool)
        stages.append(_pool_stage(pool_lane, h, tail, f_pool))
        tail = f_pool
    if shift_lane is not None:
        f_shift = FifoChannel("shift_to_store", FIFO_CAPACITY)
        fifos.append(f_shift)
        stages.append(_shift_stage(shift_lane, out_h, tail, f_shift))
        tail = f_shift
    sink = []
    stages.append(_store_stage(out_h, tail, sink))

    run_network(stages, scheduler)

    output = np.stack(sink)
    if shuffle_with is not None:
        output = ops.concat_shuffle(shuffle_with, output)
        stats.memcpy_bytes = copy_bytes(shuffle_with.shape)
    stats.dram_write_bytes = map_bytes(output.shape, params)
    if pool_lane is not None:
        stats.pool_occupancy = pool_lane.max_occupancy
    if shift_lane is not None:
        stats.shift_occupancy = shift_lane.max_occupancy
    stats.fifo_depths = {f.name: f.max_depth for f in fifos}
    return SubgraphResult(output=output, stats=stats)


def _pass_result(x: np.ndarray, out: np.ndarray, params: CostModelParams, **occupancy):
    """A standalone pass: ``x`` read, ``out`` stored, and its full lane's occupancy."""
    stats = SubgraphStats(dram_read_bytes=map_bytes(x.shape, params),
                          dram_write_bytes=map_bytes(out.shape, params), **occupancy)
    return SubgraphResult(output=out, stats=stats)


def pool_pass(x: np.ndarray, params: CostModelParams = CostModelParams()):
    """Standalone pooling of a stored tensor (the downsample skip path)."""
    h, w, _c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pooling needs even spatial dims, got {h}x{w}")
    return _pass_result(x, ops.maxpool2x2(x), params,
                        pool_occupancy=PoolLane.full_occupancy(w))


def shift_pass(x: np.ndarray, params: CostModelParams = CostModelParams()):
    """Standalone shift of a stored tensor (the downsample skip path)."""
    return _pass_result(x, ops.shift(x), params,
                        shift_occupancy=ShiftLane.full_occupancy(x.shape[1]))


class SimulatorExecutor:
    """Drives `forward` through the pipeline model, at the tiles of ``params``.

    Collects one (step name, stats) entry per engine invocation in `log`.
    """

    def __init__(self, params: CostModelParams = CostModelParams(),
                 scheduler: str = "single-thread"):
        self.params = params
        self.scheduler = scheduler
        self.log = []

    def conv_subgraph(self, x: np.ndarray, step: ConvStep, bundle, skip) -> np.ndarray:
        result = run_subgraph(x, bundle.weights[step.name], bundle.tables[step.name],
                              self.params, pool=step.pool, shift=step.shift,
                              shuffle_with=skip, scheduler=self.scheduler)
        self.log.append((step.name, result.stats))
        return result.output

    def pool_pass(self, x: np.ndarray) -> np.ndarray:
        result = pool_pass(x, self.params)
        self.log.append(("pool", result.stats))
        return result.output

    def shift_pass(self, x: np.ndarray) -> np.ndarray:
        result = shift_pass(x, self.params)
        self.log.append(("shift", result.stats))
        return result.output
