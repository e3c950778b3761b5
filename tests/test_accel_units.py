"""The simulator's pool and shift units against the `ops` operators and
their pixel-serial line-buffer oracles.

The units are the `_pool_stage` and `_shift_stage` generators of
`accel.subgraph`. Each is stepped by hand, row by row, and its output and
effect order are checked; the occupancy the simulator reports for a unit is
checked against the peak of the pixel-serial oracle fed the same map.
"""
import numpy as np
import pytest

from conftest import threshold_table

from diracdelta.accel.subgraph import _pool_stage, _shift_stage, pool_pass, run_subgraph, shift_pass
from diracdelta.ops import maxpool2x2, shift
from diracdelta.tensor import WeightMatrix

from oracles import SHIFT_BY_HAND, SHIFT_BY_HAND_INPUT, PixelPoolLane, PixelShiftLane, feed_whole_map


def _drive(stage, fm, watch=None):
    """Step a stage generator by hand, answering each get with the next row of ``fm``.

    Returns the kinds of effect it yields, in order, and the rows it puts;
    ``watch``, if given, is called with the stage at each effect.
    """
    rows = iter(fm)
    effects, puts, value = [], [], None
    while True:
        try:
            kind, _fifo, *item = stage.send(value)
        except StopIteration:
            return effects, puts
        if watch is not None:
            watch(stage)
        effects.append(kind)
        puts.extend(item)
        value = next(rows) if kind == "get" else None


def _pool(fm):
    return _drive(_pool_stage(fm.shape[0], "in", "out"), fm)


def _shift(fm):
    return _drive(_shift_stage(fm.shape[1], fm.shape[0], fm.shape[2], "in", "out"), fm)


@pytest.mark.parametrize("h,w,c", [(4, 4, 3), (8, 8, 5), (6, 10, 1)])
def test_pool_lane_matches_reference(h, w, c):
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    fm = rng.integers(0, 16, size=(h, w, c), dtype=np.uint8)
    _, rows = _pool(fm)
    np.testing.assert_array_equal(np.stack(rows), maxpool2x2(fm))


def test_pool_lane_occupancy_is_one_row_plus_one_pixel():
    rng = np.random.default_rng(0)
    fm = rng.integers(0, 16, size=(8, 8, 4), dtype=np.uint8)
    lane = PixelPoolLane(8, 4)
    feed_whole_map(lane, fm)
    assert lane.max_occupancy == pool_pass(fm).stats.pool_occupancy == 9  # width + 1


def test_pool_lane_emits_one_row_on_odd_rows_only():
    arr = np.arange(72, dtype=np.uint8).reshape(4, 6, 3) % 16
    effects, rows = _pool(arr)
    assert effects == ["get", "get", "put"] * 2
    assert [row.shape for row in rows] == [(3, 3)] * 2


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


def test_shift_rows_share_no_memory_with_each_other_or_the_ring():
    rng = np.random.default_rng(80)
    for height in (1, 2, 3):  # the third row wraps the ring's phase
        fm = rng.integers(0, 16, size=(height, 4, 6), dtype=np.uint8)
        rings = []
        _, rows = _drive(_shift_stage(4, height, 6, "in", "out"), fm,
                         watch=lambda stage: rings.append(stage.gi_frame.f_locals["ring"]))
        ring = rings[0]
        assert all(r is ring for r in rings)  # one ring per invocation
        for i, row in enumerate(rows):
            assert not np.shares_memory(row, ring)
            assert not any(np.shares_memory(row, other) for other in rows[:i])
        np.testing.assert_array_equal(np.stack(rows), shift(fm))


def test_shift_lane_occupancy_stays_in_the_two_row_budget():
    rng = np.random.default_rng(79)
    width = 28
    fm = rng.integers(0, 16, size=(4, width, 8), dtype=np.uint8)
    lane = PixelShiftLane(width, 8)
    feed_whole_map(lane, fm)
    budget = 2 * (width + 2) + 2
    assert lane.max_occupancy == shift_pass(fm).stats.shift_occupancy == 2 * (width + 2) + 1
    assert lane.max_occupancy <= budget


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
        np.testing.assert_array_equal(np.stack(feed_whole_map(pool_lane, fm)), maxpool2x2(fm))
        np.testing.assert_array_equal(np.stack(_pool(fm)[1]), maxpool2x2(fm))
        assert pool_lane.max_occupancy == pool_pass(fm).stats.pool_occupancy
    shift_lane = PixelShiftLane(w, c)
    np.testing.assert_array_equal(np.stack(feed_whole_map(shift_lane, fm)), shift(fm))
    np.testing.assert_array_equal(np.stack(_shift(fm)[1]), shift(fm))
    assert shift_lane.max_occupancy == shift_pass(fm).stats.shift_occupancy
    # the zero rings count as fed pixels, so even one image row reaches 2D+1
    assert shift_lane.max_occupancy == 2 * (w + 2) + 1

    # in a subgraph the shift runs at the pooled width
    pooled = maxpool2x2(fm) if pool else fm
    pooled_lane = PixelShiftLane(pooled.shape[1], c)
    feed_whole_map(pooled_lane, pooled)
    wm = WeightMatrix(c, c, rng.integers(0, 16, size=(c, c), dtype=np.uint8))
    for scheduler in ("single-thread", "concurrent"):
        stats = run_subgraph(fm, wm, threshold_table(), pool=pool, shift=True,
                             scheduler=scheduler).stats
        assert stats.shift_occupancy == pooled_lane.max_occupancy
        assert stats.pool_occupancy == (pool_lane.max_occupancy if pool else 0)
