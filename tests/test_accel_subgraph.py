"""The fused conv pipeline against the reference operator composition.

Every configuration the network uses (bare conv, conv+pool+shift, conv+shift,
conv+shuffle) must produce byte-identical tensors under both schedulers, with
traffic counters that match closed-form expectations.
"""
import time

import numpy as np
import pytest

from conftest import make_tiny_spec, random_input, threshold_table

from diracdelta.accel.perf import CostModelParams
from diracdelta.accel.subgraph import (
    FIFO_CAPACITY,
    SimulatorExecutor,
    pool_pass,
    run_subgraph,
    shift_pass,
)
from diracdelta import tensor
from diracdelta.bundle import random_bundle
from diracdelta.errors import ConfigurationError, ShapeError, ValidationError
from diracdelta.net import ReferenceExecutor, forward
from diracdelta.ops import conv1x1, maxpool2x2, shift
from diracdelta.tensor import ACC_LIMIT, FeatureMap, WeightMatrix, blocked_channel_count

from oracles import (
    PixelPoolLane,
    PixelShiftLane,
    composed_subgraph,
    feed_whole_map,
    searchsorted_apply,
)


def _random_case(seed, h, w, ic, oc):
    rng = np.random.default_rng(seed)
    fm = rng.integers(0, 16, size=(h, w, ic), dtype=np.uint8)
    wm = WeightMatrix(oc, ic, rng.integers(0, 16, size=(oc, ic), dtype=np.uint8))
    return fm, wm, threshold_table(np.random.default_rng(seed + 1))


def _same(got, want):
    """Equal uint8 code arrays."""
    return got.dtype == want.dtype == np.uint8 and np.array_equal(got, want)


# =========================================================================
# bit-exactness over fused configurations
# =========================================================================

FUSED_CASES = [
    # (h, w, ic, oc, pool, shifted, shuffled) covering every fusion the graph uses
    (8, 8, 3, 16, True, True, False),     # stem-like, padded input channels
    (6, 6, 8, 16, True, True, False),     # downsample residual first conv
    (4, 4, 16, 8, False, False, True),    # residual second conv + shuffle
    (4, 4, 8, 16, False, True, False),    # basic block first conv
    (5, 5, 7, 9, False, False, False),    # bare conv, nothing fused
    (4, 6, 5, 12, True, False, False),    # non-square with pooling
    (3, 3, 33, 40, False, False, False),  # both channel counts straddle a tile
    # shift on its own over the line-buffer shapes: odd and narrow maps, one row
    (4, 4, 10, 10, False, True, False),
    (3, 7, 6, 6, False, True, False),
    (6, 2, 5, 5, False, True, False),
    (2, 28, 3, 3, False, True, False),
    (1, 1, 5, 5, False, True, False),
    (1, 9, 7, 7, False, True, False),
]


@pytest.mark.parametrize("h,w,ic,oc,pool,shifted,shuffled", FUSED_CASES)
def test_pipeline_matches_reference_composition(h, w, ic, oc, pool, shifted, shuffled):
    fm, wm, table = _random_case(h * 1000 + w * 100 + ic, h, w, ic, oc)
    skip = None
    if shuffled:
        rng = np.random.default_rng(99)
        out_h, out_w = (h // 2, w // 2) if pool else (h, w)
        skip = rng.integers(0, 16, size=(out_h, out_w, oc), dtype=np.uint8)
    got = run_subgraph(fm, wm, table, pool=pool, shift=shifted, shuffle_with=skip)
    want = composed_subgraph(fm, wm, table, pool=pool, shifted=shifted, shuffle_with=skip)
    assert _same(got.output, want)


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_both_schedulers_compute_identical_bytes(scheduler):
    fm, wm, table = _random_case(7, 8, 8, 5, 24)
    got = run_subgraph(fm, wm, table, pool=True, shift=True, scheduler=scheduler)
    want = composed_subgraph(fm, wm, table, pool=True, shifted=True)
    assert _same(got.output, want)


def test_schedulers_agree_on_stats_too():
    fm, wm, table = _random_case(21, 6, 6, 40, 24)
    a = run_subgraph(fm, wm, table, scheduler="single-thread")
    b = run_subgraph(fm, wm, table, scheduler="concurrent")
    assert _same(a.output, b.output)
    assert a.stats.dram_read_bytes == b.stats.dram_read_bytes
    assert a.stats.dram_write_bytes == b.stats.dram_write_bytes
    assert a.stats.max_abs_acc == b.stats.max_abs_acc


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_the_output_is_a_fresh_c_ordered_code_array(scheduler):
    fm, wm, table = _random_case(47, 4, 4, 8, 8)
    skip = np.random.default_rng(48).integers(0, 16, size=(4, 4, 8), dtype=np.uint8)
    for pool, shifted, shuffle_with in ((False, False, None), (True, True, None),
                                        (False, True, skip)):
        out = run_subgraph(fm, wm, table, pool=pool, shift=shifted, shuffle_with=shuffle_with,
                           scheduler=scheduler).output
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        assert not np.shares_memory(out, fm) and not np.shares_memory(out, skip)


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_a_stage_failure_is_re_raised_promptly(scheduler):
    # 600 all-15 inputs against all-15 weights overflow the accumulator
    # bound in the conv stage while the loader still has rows to put.
    fm = np.full((4, 4, 600), 15, dtype=np.uint8)
    wm = WeightMatrix(8, 600, np.full((8, 600), 15, dtype=np.uint8))
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="accumulator magnitude 135000 exceeds bound"):
        run_subgraph(fm, wm, threshold_table(np.random.default_rng(1)), scheduler=scheduler)
    assert time.perf_counter() - t0 < 5.0


def test_small_tiles_still_bit_exact():
    fm, wm, table = _random_case(31, 6, 6, 20, 12)
    got = run_subgraph(fm, wm, table, CostModelParams(ic_parallel=8, oc_parallel=8))
    assert _same(got.output, composed_subgraph(fm, wm, table))
    assert all(d <= FIFO_CAPACITY for d in got.stats.fifo_depths.values())


def test_the_loader_fifo_holds_rows_not_channel_tiles():
    # each row of this map spans two input tiles; the loader FIFO counts one
    # item per row, where one item per row and tile made it peak at 2
    fm, wm, table = _random_case(37, 2, 2, 64, 8)
    got = run_subgraph(fm, wm, table)
    assert _same(got.output, composed_subgraph(fm, wm, table))
    assert got.stats.fifo_depths["loader_to_conv"] == 1


def test_half_tiles_with_pool_and_shift_match_reference():
    fm, wm, table = _random_case(33, 6, 8, 20, 24)
    params = CostModelParams(ic_parallel=16, oc_parallel=16)
    got = run_subgraph(fm, wm, table, params, pool=True, shift=True)
    assert _same(got.output, composed_subgraph(fm, wm, table, pool=True, shifted=True))
    assert all(d <= FIFO_CAPACITY for d in got.stats.fifo_depths.values())
    assert got.stats.pool_occupancy == 8 + 1
    assert got.stats.shift_occupancy == 2 * (4 + 2) + 1  # at the pooled width


def test_input_tiles_too_wide_for_an_exact_float32_gemm_are_refused():
    fm, wm, table = _random_case(35, 1, 1, 4, 4)
    ic = -(-2**24 // 225)  # the narrowest tile with 225 * ic >= 2**24
    with pytest.raises(ConfigurationError, match=rf"ic_parallel must be within \[1, {ic - 1}\]"):
        CostModelParams(ic_parallel=ic)
    run_subgraph(fm, wm, table, CostModelParams(ic_parallel=ic - 1))


def test_input_rows_too_wide_for_an_exact_float32_gemm_are_refused():
    # one GEMM spans a row's real channels, however many tiles they fill
    fm, wm, table = _random_case(36, 1, 1, 40001, 4)
    assert _same(run_subgraph(fm, wm, table, CostModelParams(ic_parallel=40000)).output,
                 composed_subgraph(fm, wm, table))
    fm, wm, table = _random_case(36, 1, 1, tensor.MAX_F32_TERMS + 1, 4)
    with pytest.raises(ValidationError, match="^input width of 74566 channels: "):
        run_subgraph(fm, wm, table)


# =========================================================================
# traffic and pressure accounting
# =========================================================================

def test_traffic_counters_follow_closed_forms():
    fm, wm, table = _random_case(41, 6, 4, 33, 40)
    res = run_subgraph(fm, wm, table)
    s = res.stats
    # weights: 33 -> 64 and 40 -> 64 padded, two codes per byte
    assert s.weight_bytes == 64 * 64 // 2
    assert s.dram_read_bytes == 6 * 4 * blocked_channel_count(33) // 2 + s.weight_bytes
    assert s.dram_write_bytes == 6 * 4 * blocked_channel_count(40) // 2
    assert s.memcpy_bytes == 0


def test_shuffle_doubles_the_stored_channels_and_counts_the_copy():
    fm, wm, table = _random_case(43, 4, 4, 16, 8)
    rng = np.random.default_rng(44)
    skip = rng.integers(0, 16, size=(4, 4, 8), dtype=np.uint8)
    res = run_subgraph(fm, wm, table, shuffle_with=skip)
    assert res.output.shape[2] == 16
    assert res.stats.memcpy_bytes == 4 * 4 * 8 // 2
    assert res.stats.dram_write_bytes == 4 * 4 * blocked_channel_count(16) // 2


def test_accumulator_peak_matches_reference_and_respects_bound():
    fm, wm, table = _random_case(47, 5, 5, 48, 24)
    res = run_subgraph(fm, wm, table)
    want_peak = int(np.abs(conv1x1(fm, wm)).max())
    assert res.stats.max_abs_acc == want_peak
    assert res.stats.max_abs_acc <= ACC_LIMIT


def test_lane_occupancy_is_reported():
    fm, wm, table = _random_case(53, 8, 8, 3, 16)
    res = run_subgraph(fm, wm, table, pool=True, shift=True)
    assert res.stats.pool_occupancy == 8 + 1
    # shift runs at the pooled width
    assert res.stats.shift_occupancy <= 2 * (4 + 2) + 2
    assert set(res.stats.fifo_depths) == {
        "loader_to_conv", "conv_to_convert", "convert_to_next",
        "pool_to_next", "shift_to_store",
    }
    assert all(d <= 2 for d in res.stats.fifo_depths.values())


# =========================================================================
# degenerate inputs
# =========================================================================

def test_zero_weights_produce_the_zero_accumulator_code_everywhere():
    """Code-0 weights are all -15, so accumulators are never positive."""
    rng = np.random.default_rng(61)
    fm = rng.integers(0, 16, size=(4, 4, 10), dtype=np.uint8)
    wm = WeightMatrix(6, 10, np.zeros((6, 10), dtype=np.uint8))
    table = threshold_table(np.random.default_rng(62))
    res = run_subgraph(fm, wm, table)
    assert set(np.unique(res.output)) == {searchsorted_apply(table, 0)}
    assert searchsorted_apply(table, 0) == 0


def test_zero_activations_produce_the_zero_accumulator_code():
    rng = np.random.default_rng(63)
    fm = np.zeros((4, 4, 10), dtype=np.uint8)
    wm = WeightMatrix(6, 10, rng.integers(0, 16, size=(6, 10), dtype=np.uint8))
    table = threshold_table(np.random.default_rng(64))
    res = run_subgraph(fm, wm, table)
    assert set(np.unique(res.output)) == {searchsorted_apply(table, 0)}


def test_shape_guards():
    fm, wm, table = _random_case(67, 4, 4, 8, 8)
    bad = WeightMatrix(8, 9, np.zeros((8, 9), dtype=np.uint8))
    with pytest.raises(ShapeError, match="input has 8 channels, weights expect 9"):
        run_subgraph(fm, bad, table)
    odd = np.zeros((3, 4, 8), dtype=np.uint8)
    with pytest.raises(ShapeError, match="pooling needs even spatial dims"):
        run_subgraph(odd, wm, table, pool=True)
    for empty in (np.zeros((0, 4, 8), dtype=np.uint8), np.zeros((4, 0, 8), dtype=np.uint8)):
        with pytest.raises(ShapeError, match="at least one row and one column, got "):
            run_subgraph(empty, wm, table, shift=True)


# =========================================================================
# standalone pool / shift passes
# =========================================================================

def test_pool_pass_matches_reference_with_traffic():
    rng = np.random.default_rng(71)
    fm = rng.integers(0, 16, size=(8, 6, 20), dtype=np.uint8)
    res = pool_pass(fm)
    assert _same(res.output, maxpool2x2(fm))
    assert res.stats.dram_read_bytes == 8 * 6 * blocked_channel_count(20) // 2
    assert res.stats.dram_write_bytes == 4 * 3 * blocked_channel_count(20) // 2
    assert res.stats.pool_occupancy == 6 + 1
    with pytest.raises(ShapeError, match="even spatial dims"):
        pool_pass(np.zeros((3, 4, 2), dtype=np.uint8))


def test_both_executors_refuse_an_odd_map_at_a_pool():
    for executor in (ReferenceExecutor(), SimulatorExecutor()):
        with pytest.raises(ShapeError, match="pooling needs even spatial dims, got 3x4"):
            executor.pool_pass(np.zeros((3, 4, 2), dtype=np.uint8))


def test_shift_pass_matches_reference_with_traffic():
    rng = np.random.default_rng(73)
    fm = rng.integers(0, 16, size=(5, 7, 11), dtype=np.uint8)
    res = shift_pass(fm)
    assert _same(res.output, shift(fm))
    assert res.stats.dram_read_bytes == res.stats.dram_write_bytes
    assert res.stats.shift_occupancy <= 2 * (7 + 2) + 2


@pytest.mark.parametrize("shape", [(2, 2, 1), (2, 8, 3), (6, 4, 12), (1, 1, 5), (1, 9, 7),
                                   (5, 7, 11)])
def test_standalone_passes_report_what_a_lane_fed_the_whole_map_reports(shape):
    # a pass feeds its line buffer every row of the stored map, so the
    # pixel-serial oracle's peak is the closed-form full occupancy
    fm = np.random.default_rng(83).integers(0, 16, size=shape, dtype=np.uint8)
    h, w, c = shape
    shift_lane = PixelShiftLane(w, c)
    assert _same(shift_pass(fm).output, np.stack(feed_whole_map(shift_lane, fm)))
    assert shift_pass(fm).stats.shift_occupancy == shift_lane.max_occupancy
    if h % 2 == 0 and w % 2 == 0:
        pool_lane = PixelPoolLane(w, c)
        assert _same(pool_pass(fm).output, np.stack(feed_whole_map(pool_lane, fm)))
        assert pool_pass(fm).stats.pool_occupancy == pool_lane.max_occupancy


def test_pool_and_shift_passes_count_bytes_in_the_schedule_input_tile():
    rng = np.random.default_rng(79)
    fm = rng.integers(0, 16, size=(6, 4, 12), dtype=np.uint8)
    passes = {
        "pool": (lambda params: pool_pass(fm, params), (3, 2)),
        "shift": (lambda params: shift_pass(fm, params), (6, 4)),
    }
    for run, (out_h, out_w) in passes.values():
        default, narrow = run(CostModelParams()), run(CostModelParams(ic_parallel=16))
        assert _same(narrow.output, default.output)
        # 12 channels pad to one 32-channel block, or to one 16-channel tile
        for res, c in ((default, 32), (narrow, 16)):
            assert res.stats.dram_read_bytes == 6 * 4 * c // 2
            assert res.stats.dram_write_bytes == out_h * out_w * c // 2


# =========================================================================
# executor parity on whole networks
# =========================================================================

def test_simulator_forward_equals_reference_forward(tiny_bundle):
    fm = random_input(tiny_bundle.spec, seed=202)
    ref = forward(tiny_bundle, fm, executor=ReferenceExecutor())
    sim_ex = SimulatorExecutor()
    sim = forward(tiny_bundle, fm, executor=sim_ex)
    np.testing.assert_array_equal(ref.int_logits, sim.int_logits)
    np.testing.assert_array_equal(ref.logits, sim.logits)
    assert ref.class_index == sim.class_index


@pytest.mark.parametrize("make_executor", [ReferenceExecutor, SimulatorExecutor])
def test_forward_packs_nothing_and_unpacks_its_input_once(tiny_bundle, monkeypatch,
                                                          make_executor):
    fm = random_input(tiny_bundle.spec, seed=207)
    want = forward(tiny_bundle, fm, executor=make_executor())

    def refuse(codes):
        raise AssertionError("a forward pass packed nibbles")

    unpacked = []
    to_array = FeatureMap.to_array

    def counting_to_array(self):
        unpacked.append(self)
        return to_array(self)

    monkeypatch.setattr(tensor, "pack", refuse)
    monkeypatch.setattr(FeatureMap, "to_array", counting_to_array)
    got = forward(tiny_bundle, fm, executor=make_executor())
    assert got.logits.tobytes() == want.logits.tobytes()
    assert len(unpacked) == 1 and unpacked[0] is fm


def test_simulator_logs_one_entry_per_engine_invocation(tiny_bundle):
    ex = SimulatorExecutor()
    forward(tiny_bundle, random_input(tiny_bundle.spec, seed=203), executor=ex)
    names = [name for name, _ in ex.log]
    assert names == [
        "conv1", "conv2",
        "pool", "shift", "s2d_skip_conv", "s2d_res_conv1", "s2d_res_conv2",
        "s2b0_res_conv1", "s2b0_res_conv2",
        "conv5",
    ]
    for _, stats in ex.log:
        assert stats.max_abs_acc <= ACC_LIMIT


def test_simulator_forward_concurrent_scheduler(tiny_bundle):
    fm = random_input(tiny_bundle.spec, seed=204)
    a = forward(tiny_bundle, fm, executor=SimulatorExecutor(scheduler="single-thread"))
    b = forward(tiny_bundle, fm, executor=SimulatorExecutor(scheduler="concurrent"))
    np.testing.assert_array_equal(a.int_logits, b.int_logits)


def test_simulator_keeps_no_float32_weights_resident(quant_params):
    bundle = random_bundle(make_tiny_spec(), quant_params, seed=207)
    forward(bundle, random_input(bundle.spec, seed=208), executor=SimulatorExecutor())
    layers = [*bundle.weights.values(), bundle.fc_weights]
    assert all("slab_int8" in w.__dict__ for w in bundle.weights.values())
    assert not any("effective_f32" in w.__dict__ for w in layers)


def test_simulator_runs_networks_with_asymmetric_stages(quant_params):
    spec = make_tiny_spec(input_size=24, stage_repeats=(2,))
    bundle = random_bundle(spec, quant_params, seed=205)
    fm = random_input(spec, seed=206)
    ref = forward(bundle, fm)
    sim = forward(bundle, fm, executor=SimulatorExecutor())
    np.testing.assert_array_equal(ref.int_logits, sim.int_logits)
