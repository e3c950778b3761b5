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
once. The loader streams float32 rows of the map's real channels, the map
cast once per call; the conv stage runs one exact float32 GEMM per row,
which the conversion stage hands to `ThresholdTable.apply` as the reference
engine hands its own; the pool stage is a line buffer over whole rows; the
shift stage keeps one ring of three zero-padded rows per call and gathers
each output row from it in one `take` through flat taps cached per (width,
channels); the store fills an output allocated before the run. The GEMM's
(in, out) slab is `WeightMatrix.slab_int8` cast to float32 once per call,
the operand `ops.conv1x1` multiplies too: the int8 form, 2.1 MiB on the
default net, is the one weight form either engine keeps resident, and the
cast costs a fraction of rebuilding the slab from the codes. Unlike the
reference engine, the simulator converts before it pools, in the
hardware's order: the line buffer holds 4-bit codes.

The occupancies reported are those of the pixel-serial line buffers the
hardware would build, whose oracles live with the tests: width + 1 pixels
for the pooler (the previous row and the pixel to its left), and two padded
rows plus one pixel, 2 * (width + 2) + 1, for the shifter, inside the
2 * (width + 2) + 2 the hardware reserves. Every stage and every standalone
pass is fed a whole map, so each buffer fills: the reported figure is its
closed form, and a standalone pass runs the reference operator.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from ..net import ConvStep
from .. import ops
from ..quant import ThresholdTable
from ..tensor import WeightMatrix, check_accumulators, check_f32_exact
from .fifo import FifoChannel, run_network
from .perf import CostModelParams, copy_bytes, map_bytes, weight_bytes


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


def _loader_stage(x: np.ndarray, out_fifo: FifoChannel):
    """Stream the input map row by row, as the float32 rows the GEMM takes."""
    rows = x.astype(np.float32)
    for y in range(x.shape[0]):
        yield ("put", out_fifo, rows[y])


def _conv_stage(slab, height, stats, in_fifo: FifoChannel, out_fifo: FifoChannel):
    """Output-stationary MACs: every pixel keeps all its output partials.

    The register file holds one row of pixels with every output channel
    each; one GEMM of the input row against the (in, out) float32 slab
    updates all of them.
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


def _pool_occupancy(width: int) -> int:
    """Pixels the pooler's line buffer holds once full: the previous row and one pixel."""
    return width + 1


def _shift_occupancy(width: int) -> int:
    """Pixels the shifter's line buffer holds once full: two padded rows and one pixel."""
    return 2 * (width + 2) + 1


def _pool_stage(height, in_fifo: FifoChannel, out_fifo: FifoChannel):
    """2x2 stride-2 max pooling: the max over each row pair, then over column pairs."""
    for _y in range(height // 2):
        upper = yield ("get", in_fifo)
        lower = yield ("get", in_fifo)
        pair = np.maximum(upper, lower)
        yield ("put", out_fifo, np.maximum(pair[0::2], pair[1::2]))


@functools.lru_cache(maxsize=64)
def _shift_taps(width: int, channels: int) -> np.ndarray:
    """Flat positions in the shift ring of each output pixel, as ``taps[y % 3, x, c]``.

    Padded row p sits in ring slot p % 3; output row y reads padded row
    y + 1 + dy at column 1 + x + dx, for ``(dy, dx) = SHIFT_CYCLE[c % 5]``.
    """
    dy, dx = np.array(ops.SHIFT_CYCLE)[np.arange(channels) % 5].T
    slot = (np.arange(3)[:, None, None] + 1 + dy) % 3
    col = 1 + np.arange(width)[:, None] + dx
    taps = (slot * (width + 2) + col) * channels + np.arange(channels)
    taps.flags.writeable = False
    return taps


def _shift_stage(width, height, channels, in_fifo: FifoChannel, out_fifo: FifoChannel):
    """The fixed shift, `ops.shift`, over a ring of three zero-padded rows.

    Output row y draws channel c from the padded row above, at or below it
    and one column left, at or right, as ``SHIFT_CYCLE[c % 5]`` fixes, so it
    is complete once row y + 1 arrives; it leaves as one `take` from the ring
    through `_shift_taps`, a copy. Zeroing the slot after the last row
    supplies the bottom zero ring that completes the last row.
    """
    ring = np.zeros((3, width + 2, channels), dtype=np.uint8)
    flat, taps = ring.reshape(-1), _shift_taps(width, channels)
    for y in range(height):
        ring[(y + 1) % 3, 1:-1] = yield ("get", in_fifo)
        if y:
            yield ("put", out_fifo, flat.take(taps[(y - 1) % 3]))
    ring[(height + 1) % 3] = 0
    yield ("put", out_fifo, flat.take(taps[(height - 1) % 3]))


def _store_stage(height, in_fifo: FifoChannel, out: np.ndarray):
    for y in range(height):
        out[y] = yield ("get", in_fifo)


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
    if h == 0 or w == 0:
        raise ShapeError(f"the map must have at least one row and one column, got {h}x{w}")
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
    out_h, out_w = (h // 2, w // 2) if pool else (h, w)

    f_in = FifoChannel("loader_to_conv", FIFO_CAPACITY)
    f_acc = FifoChannel("conv_to_convert", FIFO_CAPACITY)
    fifos = [f_in, f_acc]
    stages = [
        _loader_stage(x, f_in),
        _conv_stage(weights.slab_int8.astype(np.float32), h, stats, f_in, f_acc),
    ]

    f_codes = FifoChannel("convert_to_next", FIFO_CAPACITY)
    fifos.append(f_codes)
    stages.append(_conversion_stage(table, h, f_acc, f_codes))
    tail = f_codes
    if pool:
        f_pool = FifoChannel("pool_to_next", FIFO_CAPACITY)
        fifos.append(f_pool)
        stages.append(_pool_stage(h, tail, f_pool))
        stats.pool_occupancy = _pool_occupancy(w)
        tail = f_pool
    if shift:
        f_shift = FifoChannel("shift_to_store", FIFO_CAPACITY)
        fifos.append(f_shift)
        stages.append(_shift_stage(out_w, out_h, weights.out_channels, tail, f_shift))
        stats.shift_occupancy = _shift_occupancy(out_w)
        tail = f_shift
    output = np.empty((out_h, out_w, weights.out_channels), dtype=np.uint8)
    stages.append(_store_stage(out_h, tail, output))

    run_network(stages, scheduler)

    if shuffle_with is not None:
        output = ops.concat_shuffle(shuffle_with, output)
        stats.memcpy_bytes = copy_bytes(shuffle_with.shape)
    stats.dram_write_bytes = map_bytes(output.shape, params)
    stats.fifo_depths = {f.name: f.max_depth for f in fifos}
    return SubgraphResult(output=output, stats=stats)


def _pass_result(x: np.ndarray, out: np.ndarray, params: CostModelParams, **occupancy):
    """A standalone pass: ``x`` read, ``out`` stored, and its full line buffer's occupancy."""
    stats = SubgraphStats(dram_read_bytes=map_bytes(x.shape, params),
                          dram_write_bytes=map_bytes(out.shape, params), **occupancy)
    return SubgraphResult(output=out, stats=stats)


def pool_pass(x: np.ndarray, params: CostModelParams = CostModelParams()):
    """Standalone pooling of a stored tensor (the downsample skip path)."""
    return _pass_result(x, ops.maxpool2x2(x), params,
                        pool_occupancy=_pool_occupancy(x.shape[1]))


def shift_pass(x: np.ndarray, params: CostModelParams = CostModelParams()):
    """Standalone shift of a stored tensor (the downsample skip path)."""
    return _pass_result(x, ops.shift(x), params,
                        shift_occupancy=_shift_occupancy(x.shape[1]))


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
