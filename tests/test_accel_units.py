"""The simulator's pool and shift stages against their pixel-serial oracles,
the conversion unit oracles, the shuffle's copy traffic, and FIFOs."""
import itertools
import pickle
import threading

import numpy as np
import pytest

from diracdelta.accel.fifo import FifoChannel, run_network, run_round_robin, run_shuffled
from diracdelta.accel.perf import copy_bytes
from diracdelta.accel.subgraph import (
    _pool_stage,
    _shift_stage,
    pool_pass,
    run_subgraph,
    shift_pass,
)
from diracdelta.errors import ConfigurationError, ConstructionError, DeadlockError
from diracdelta.ops import concat_shuffle, maxpool2x2, shift
from diracdelta.quant import LayerQuantParams, NetworkQuantParams, ThresholdTable, build_threshold_table
from diracdelta.tensor import WeightMatrix

from oracles import (
    SHIFT_BY_HAND,
    SHIFT_BY_HAND_INPUT,
    PixelPoolLane,
    PixelShiftLane,
    conversion_linear,
    conversion_tree,
    conversion_unit,
)

# =========================================================================
# conversion unit
# =========================================================================

def _production_table():
    p = LayerQuantParams(alpha=1.0, weight_scale=1 / 15)
    return build_threshold_table(p, NetworkQuantParams(s=1.0))


def test_conversion_forms_agree_everywhere_near_the_table():
    table = _production_table()
    span = np.arange(table.thresholds[0] - 30, table.thresholds[-1] + 30)
    tree = conversion_unit(span, table)
    linear = [conversion_linear(int(a), table.thresholds) for a in span]
    vector = table.apply(span)
    np.testing.assert_array_equal(tree, linear)
    np.testing.assert_array_equal(tree, vector)


def test_conversion_saturation():
    table = _production_table()
    lo, hi = table.thresholds[0], table.thresholds[-1]
    for convert in (conversion_tree, conversion_linear, lambda a, t: table.apply(a)):
        assert convert(lo - 1, table.thresholds) == 0
        assert convert(-115200, table.thresholds) == 0
        assert convert(hi, table.thresholds) == 15
        assert convert(115200, table.thresholds) == 15


def test_conversion_thresholds_are_inclusive():
    table = _production_table()
    for i, t in enumerate(table.thresholds, start=1):
        assert conversion_tree(t, table.thresholds) == i
        assert conversion_tree(t - 1, table.thresholds) == i - 1


def test_conversion_tree_demands_a_full_table():
    with pytest.raises(ConstructionError, match="exactly 15 thresholds, got 7"):
        conversion_tree(5, tuple(range(1, 8)))
    # the linear form has no such constraint
    assert conversion_linear(5, tuple(range(1, 8))) == 5


def test_conversion_unit_scalar_and_array_forms():
    table = ThresholdTable(tuple(range(10, 160, 10)))
    assert conversion_unit(10, table) == 1
    out = conversion_unit(np.array([[0, 10], [95, 200]]), table)
    assert out.dtype == np.uint8
    assert out.tolist() == [[0, 1], [9, 15]]


# =========================================================================
# pool lane: the simulator's pool stage
# =========================================================================

def _drive(stage, fm):
    """Step a stage generator by hand, answering each get with the next row of ``fm``.

    Returns the kinds of effect it yields, in order, and the rows it puts.
    """
    rows = iter(fm)
    effects, puts, value = [], [], None
    while True:
        try:
            kind, _fifo, *item = stage.send(value)
        except StopIteration:
            return effects, puts
        effects.append(kind)
        puts.extend(item)
        value = next(rows) if kind == "get" else None


def _pool(fm):
    return _drive(_pool_stage(fm.shape[0], "in", "out"), fm)


def _shift(fm):
    return _drive(_shift_stage(fm.shape[1], fm.shape[0], "in", "out"), fm)


def _feed_whole_map(lane, fm):
    """Feed a pixel-serial oracle every row of ``fm``; returns its output rows."""
    rows = [out for row in fm for out in lane.feed_row(row)]
    return rows + lane.finish() if isinstance(lane, PixelShiftLane) else rows


@pytest.mark.parametrize("h,w,c", [(4, 4, 3), (8, 8, 5), (6, 10, 1), (2, 2, 7)])
def test_pool_lane_matches_reference(h, w, c):
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    fm = rng.integers(0, 16, size=(h, w, c), dtype=np.uint8)
    _, rows = _pool(fm)
    np.testing.assert_array_equal(np.stack(rows), maxpool2x2(fm))


def test_pool_lane_occupancy_is_one_row_plus_one_pixel():
    rng = np.random.default_rng(0)
    fm = rng.integers(0, 16, size=(8, 8, 4), dtype=np.uint8)
    lane = PixelPoolLane(8, 4)
    _feed_whole_map(lane, fm)
    assert lane.max_occupancy == pool_pass(fm).stats.pool_occupancy == 9  # width + 1


def test_pool_lane_emits_only_on_odd_row_odd_column():
    lane = PixelPoolLane(4, 2)
    arr = np.arange(32, dtype=np.uint8).reshape(4, 4, 2) % 16
    emitted = []
    for y in range(4):
        for x in range(4):
            out = lane.feed(arr[y, x])
            if out is not None:
                emitted.append((y, x))
    assert emitted == [(1, 1), (1, 3), (3, 1), (3, 3)]


def test_pool_lane_emits_one_row_on_odd_rows_only():
    arr = np.arange(72, dtype=np.uint8).reshape(4, 6, 3) % 16
    effects, rows = _pool(arr)
    assert effects == ["get", "get", "put"] * 2
    assert [row.shape for row in rows] == [(3, 3)] * 2


# =========================================================================
# shift lane: the simulator's shift stage
# =========================================================================

@pytest.mark.parametrize("direction", [pytest.param(k, id=f"direction{k}") for k in range(5)])
def test_shift_lane_single_direction(direction):
    """Channel ``direction`` of the hand-worked map moves as worked by hand."""
    got = np.stack(_shift(SHIFT_BY_HAND_INPUT)[1])
    assert got[:, :, direction].tolist() == SHIFT_BY_HAND[direction]


def test_shift_lane_needs_finish_to_flush():
    rng = np.random.default_rng(78)
    for height in (1, 2, 3):
        fm = rng.integers(0, 16, size=(height, 3, 2), dtype=np.uint8)
        # the last row waits for the bottom padding, which follows the last get
        effects, rows = _shift(fm)
        assert effects == ["get"] + ["get", "put"] * (height - 1) + ["put"]
        np.testing.assert_array_equal(np.stack(rows), shift(fm))
        lane = PixelShiftLane(3, 2)
        rows = [out for row in fm for out in lane.feed_row(row)]
        assert len(rows) == height - 1
        rows.extend(lane.finish())
        np.testing.assert_array_equal(np.stack(rows), shift(fm))
        occupancy = lane.max_occupancy
        state = pickle.dumps(vars(lane))
        assert lane.finish() == []  # the flush happens once
        assert lane.max_occupancy == occupancy
        assert pickle.dumps(vars(lane)) == state


def test_shift_lane_occupancy_stays_in_the_two_row_budget():
    rng = np.random.default_rng(79)
    width = 28
    fm = rng.integers(0, 16, size=(4, width, 8), dtype=np.uint8)
    lane = PixelShiftLane(width, 8)
    _feed_whole_map(lane, fm)
    budget = 2 * (width + 2) + 2
    assert lane.max_occupancy == shift_pass(fm).stats.shift_occupancy == 2 * (width + 2) + 1
    assert lane.max_occupancy <= budget


# =========================================================================
# row lanes against the pixel-serial oracles
# =========================================================================

@pytest.mark.parametrize("c", [1, 5, 7])
@pytest.mark.parametrize("w", [1, 2, 3, 6])
@pytest.mark.parametrize("h", [1, 2, 3, 4, 7])
def test_row_lanes_equal_the_pixel_serial_oracles(h, w, c):
    """The stages and the oracles compute the `ops` operators, and each oracle,
    fed a whole map, peaks at the occupancy the simulator reports for it."""
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    fm = rng.integers(0, 16, size=(h, w, c), dtype=np.uint8)
    pool = h % 2 == 0 and w % 2 == 0
    if pool:
        pool_lane = PixelPoolLane(w, c)
        np.testing.assert_array_equal(np.stack(_feed_whole_map(pool_lane, fm)), maxpool2x2(fm))
        np.testing.assert_array_equal(np.stack(_pool(fm)[1]), maxpool2x2(fm))
        assert pool_lane.max_occupancy == pool_pass(fm).stats.pool_occupancy
    shift_lane = PixelShiftLane(w, c)
    np.testing.assert_array_equal(np.stack(_feed_whole_map(shift_lane, fm)), shift(fm))
    np.testing.assert_array_equal(np.stack(_shift(fm)[1]), shift(fm))
    assert shift_lane.max_occupancy == shift_pass(fm).stats.shift_occupancy
    # the zero rings count as fed pixels, so even one image row reaches 2D+1
    assert shift_lane.max_occupancy == 2 * (w + 2) + 1

    # in a subgraph the shift runs at the pooled width
    pooled = maxpool2x2(fm) if pool else fm
    pooled_lane = PixelShiftLane(pooled.shape[1], c)
    _feed_whole_map(pooled_lane, pooled)
    wm = WeightMatrix(c, c, rng.integers(0, 16, size=(c, c), dtype=np.uint8))
    for scheduler in ("single-thread", "concurrent"):
        stats = run_subgraph(fm, wm, _production_table(), pool=pool, shift=True,
                             scheduler=scheduler).stats
        assert stats.shift_occupancy == pooled_lane.max_occupancy
        assert stats.pool_occupancy == (pool_lane.max_occupancy if pool else 0)


# =========================================================================
# shuffle writeback
# =========================================================================

def test_writeback_copy_traffic_for_the_two_shuffle_stages():
    """Early blocks move 4x the bytes of late ones: same code count as volume shrinks."""
    rng = np.random.default_rng(81)
    early_skip = rng.integers(0, 16, size=(28, 28, 64), dtype=np.uint8)
    early_res = rng.integers(0, 16, size=(28, 28, 64), dtype=np.uint8)
    assert concat_shuffle(early_skip, early_res).shape == (28, 28, 128)
    early = copy_bytes(early_skip.shape)
    assert early == 25088

    late_skip = rng.integers(0, 16, size=(7, 7, 256), dtype=np.uint8)
    late_res = rng.integers(0, 16, size=(7, 7, 256), dtype=np.uint8)
    assert concat_shuffle(late_skip, late_res).shape == (7, 7, 512)
    late = copy_bytes(late_skip.shape)
    assert late == 6272
    assert early == 4 * late


def test_writeback_zero_channels_means_zero_copy():
    empty = np.zeros((4, 4, 0), dtype=np.uint8)
    out = concat_shuffle(empty, empty)
    assert copy_bytes(empty.shape) == 0
    assert out.shape[2] == 0


# =========================================================================
# FIFO channels and schedulers
# =========================================================================

def test_fifo_bounds_and_counters():
    ch = FifoChannel("t", capacity=2)
    assert ch.try_put(1) and ch.try_put(2)
    assert not ch.try_put(3)
    assert len(ch) == 2 and ch.max_depth == 2 and ch.put_count == 2
    ok, item = ch.try_get()
    assert ok and item == 1
    assert ch.try_put(3)
    assert ch.put_count == 3
    ok, item = ch.try_get()
    assert ok and item == 2
    ok, item = ch.try_get()
    assert ok and item == 3
    ok, item = ch.try_get()
    assert not ok and item is None


def test_fifo_channel_refuses_a_capacity_below_one():
    with pytest.raises(ConfigurationError, match="capacity must be >= 1"):
        FifoChannel("t", capacity=0)


def _pipeline(n, scheduler, order=(0, 1, 2)):
    """Run source -> doubler -> sink, the stages listed in `order`.

    Returns what the sink saw, both channels, and every completed effect as
    (stage, kind, value), in the order the scheduler completed them.
    """
    a = FifoChannel("a", capacity=2)
    b = FifoChannel("b", capacity=2)
    seen, effects = [], []

    def source():
        for i in range(n):
            yield ("put", a, i)
            effects.append(("source", "put", i))

    def doubler():
        for _ in range(n):
            v = yield ("get", a)
            effects.append(("doubler", "get", v))
            yield ("put", b, 2 * v)
            effects.append(("doubler", "put", 2 * v))

    def sink():
        for _ in range(n):
            v = yield ("get", b)
            effects.append(("sink", "get", v))
            seen.append(v)

    stages = [source(), doubler(), sink()]
    run_network([stages[i] for i in order], scheduler=scheduler)
    return seen, a, b, effects


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_pipeline_preserves_order_and_respects_capacity(scheduler):
    seen, a, b, _ = _pipeline(25, scheduler)
    assert seen == [2 * i for i in range(25)]
    assert a.max_depth <= a.capacity
    assert b.max_depth <= b.capacity
    assert a.put_count == 25


def test_the_shuffled_interleaving_differs_from_the_round_robin():
    # otherwise the schedulers' byte-for-byte agreement compares one schedule with itself
    _, a_rr, b_rr, rr = _pipeline(25, "single-thread")
    _, a_sh, b_sh, sh = _pipeline(25, "concurrent")
    assert sorted(sh) == sorted(rr) and sh != rr
    assert (a_sh.max_depth, b_sh.max_depth) != (a_rr.max_depth, b_rr.max_depth)


def test_shuffled_runs_repeat_exactly():
    _, a1, b1, first = _pipeline(25, "concurrent")
    _, a2, b2, second = _pipeline(25, "concurrent")
    assert first == second
    assert (a1.max_depth, b1.max_depth) == (a2.max_depth, b2.max_depth)


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_every_order_of_the_stage_list_gives_the_same_output(scheduler):
    for order in itertools.permutations(range(3)):
        seen, *_ = _pipeline(9, scheduler, order)
        assert seen == [2 * i for i in range(9)], order


def test_round_robin_reports_deadlock_with_names():
    empty = FifoChannel("starved", capacity=1)

    def consumer():
        yield ("get", empty)

    gen = consumer()
    with pytest.raises(DeadlockError, match="consumer waiting to get from 'starved'"):
        run_round_robin([gen])


def test_round_robin_reports_full_cycle_deadlock():
    a = FifoChannel("a", capacity=1)
    b = FifoChannel("b", capacity=1)

    def left():
        yield ("get", a)
        yield ("put", b, 1)

    def right():
        yield ("get", b)
        yield ("put", a, 1)

    with pytest.raises(DeadlockError, match="no stage can advance"):
        run_round_robin([left(), right()])


def test_shuffled_scheduler_names_a_full_cycle_deadlock_in_stage_order():
    a = FifoChannel("a", capacity=1)
    b = FifoChannel("b", capacity=1)

    def left():
        yield ("get", a)
        yield ("put", b, 1)

    def right():
        yield ("get", b)
        yield ("put", a, 1)

    message = ("^no stage can advance: left waiting to get from 'a', "
               "right waiting to get from 'b'$")
    with pytest.raises(DeadlockError, match=message):
        run_shuffled([left(), right()])


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_a_consumer_that_outlasts_its_producer_is_a_deadlock_at_once(scheduler):
    short = FifoChannel("short", capacity=2)

    def producer():
        yield ("put", short, 1)

    def consumer():
        for _ in range(2):
            yield ("get", short)

    raised = []

    def run():
        try:
            run_network([producer(), consumer()], scheduler=scheduler)
        except DeadlockError as e:
            raised.append(str(e))

    # a daemon thread, so that a scheduler that never names the deadlock fails here
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive()
    assert raised == ["no stage can advance: consumer waiting to get from 'short'"]


def test_unknown_effect_is_rejected():
    ch = FifoChannel("x", capacity=1)

    def bad():
        yield ("peek", ch)

    message = "^stage 'bad' yielded unknown effect 'peek'$"
    for runner in (run_round_robin, run_shuffled):
        with pytest.raises(ConfigurationError, match=message):
            runner([bad()])


def test_shuffled_scheduler_propagates_stage_failures():
    ch = FifoChannel("c", capacity=2)

    def boom():
        raise ValueError("stage exploded")
        yield  # pragma: no cover

    def late_boom():
        for i in range(3):
            yield ("put", ch, i)
        raise ValueError("stage exploded late")

    def drain():
        while True:
            yield ("get", ch)

    with pytest.raises(ValueError, match="^stage exploded$"):
        run_shuffled([boom()])
    with pytest.raises(ValueError, match="^stage exploded late$"):
        run_shuffled([drain(), late_boom()])


def test_unknown_scheduler():
    with pytest.raises(ConfigurationError, match="unknown scheduler 'gpu'"):
        run_network([], scheduler="gpu")
