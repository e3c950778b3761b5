"""Reference operators against brute-force oracles and hand-worked examples."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diracdelta.errors import ShapeError, ValidationError
from diracdelta.ops import (
    BLOCK_ELEMENTS,
    channel_split,
    concat_shuffle,
    conv1x1,
    fully_connected,
    global_avgpool_codes,
    maxpool2x2,
    shift,
)
from diracdelta.quant import NetworkQuantParams, quantize_uniform
from diracdelta.tensor import ACC_LIMIT, WeightMatrix

from oracles import (
    SHIFT_BY_HAND,
    SHIFT_BY_HAND_INPUT,
    conv1x1_int64,
    documented_head_codes,
    fc_bit_serial,
    pool_oracle,
    shift_oracle,
)


def _random_codes(rng, h, w, c):
    return rng.integers(0, 16, size=(h, w, c), dtype=np.uint8)


# =========================================================================
# 1x1 convolution
# =========================================================================

def test_conv_single_mac():
    fm = np.array([[[10]]], dtype=np.uint8)
    w = WeightMatrix(1, 1, np.array([[14]], dtype=np.uint8))
    # effective weight 2*14 - 15 = 13
    assert conv1x1(fm, w).tolist() == [[[130]]]


def test_conv_hits_the_documented_worst_case_exactly():
    fm = np.full((1, 1, 512), 15, dtype=np.uint8)
    w_hi = WeightMatrix(1, 512, np.full((1, 512), 15, dtype=np.uint8))
    w_lo = WeightMatrix(1, 512, np.zeros((1, 512), dtype=np.uint8))
    assert conv1x1(fm, w_hi)[0, 0, 0] == ACC_LIMIT == 115200
    assert conv1x1(fm, w_lo)[0, 0, 0] == -ACC_LIMIT


def test_conv_beyond_the_channel_budget_is_rejected():
    fm = np.full((1, 1, 520), 15, dtype=np.uint8)
    w = WeightMatrix(1, 520, np.full((1, 520), 15, dtype=np.uint8))
    with pytest.raises(ValidationError, match="exceeds bound 115200"):
        conv1x1(fm, w)


def test_conv_matches_int64_einsum():
    rng = np.random.default_rng(123)
    for h, w, ic, oc in [(3, 5, 7, 4), (2, 2, 64, 32), (1, 9, 3, 16)]:
        fm = _random_codes(rng, h, w, ic)
        wm = WeightMatrix(oc, ic, rng.integers(0, 16, size=(oc, ic), dtype=np.uint8))
        acts = fm.astype(np.int64)
        eff = wm.effective().astype(np.int64)
        want = np.einsum("yxi,oi->yxo", acts, eff)
        np.testing.assert_array_equal(conv1x1(fm, wm), want)


def test_conv_equals_int64_matmul_at_and_beyond_the_bound():
    rng = np.random.default_rng(29)
    full = np.full((1, 1, 512), 15, dtype=np.uint8)
    acts = np.concatenate([full, rng.integers(0, 16, size=(3, 1, 512), dtype=np.uint8)])
    fm = acts.reshape(2, 2, 512)
    codes = np.concatenate([np.full((1, 512), 15), np.zeros((1, 512)),
                            rng.integers(0, 16, size=(30, 512))]).astype(np.uint8)
    wm = WeightMatrix(32, 512, codes)
    got = conv1x1(fm, wm)
    np.testing.assert_array_equal(got, conv1x1_int64(fm, wm))
    assert got[0, 0, 0] == ACC_LIMIT and got[0, 0, 1] == -ACC_LIMIT
    # one unit beyond the bound: 512 * 15 * 15 + 1 * 1, then its negative
    over = np.append(full, 1).reshape(1, 1, 513)
    for bulk, last in ((15, 8), (0, 7)):
        w = WeightMatrix(1, 513, np.array([[bulk] * 512 + [last]], dtype=np.uint8))
        with pytest.raises(ValidationError, match="magnitude 115201 exceeds bound"):
            conv1x1(over, w)


def test_conv_refuses_inputs_a_float32_gemm_cannot_sum_exactly():
    widest = 2**24 // 225  # 225 * widest < 2**24 <= 225 * (widest + 1)
    fm = np.zeros((1, 1, widest), dtype=np.uint8)
    wm = WeightMatrix(1, widest, np.zeros((1, widest), dtype=np.uint8))
    assert conv1x1(fm, wm).tolist() == [[[0]]]
    with pytest.raises(ValidationError, match="^weights of 74566 inputs: partial sums could reach 2"):
        WeightMatrix(1, widest + 1, np.zeros((1, widest + 1), dtype=np.uint8))


def test_conv_channel_mismatch():
    fm = np.zeros((2, 2, 3), dtype=np.uint8)
    w = WeightMatrix(4, 5, np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(ShapeError, match="has 3 channels, weights expect 5"):
        conv1x1(fm, w)


# =========================================================================
# max pooling
# =========================================================================

def test_maxpool_matches_nested_loop_oracle():
    rng = np.random.default_rng(31)
    for h, w, c in [(4, 4, 3), (6, 8, 5), (2, 2, 1)]:
        fm = _random_codes(rng, h, w, c)
        np.testing.assert_array_equal(maxpool2x2(fm), pool_oracle(fm))


def test_maxpool_refuses_odd_spatial_dims():
    rng = np.random.default_rng(32)
    for h, w in [(5, 7), (3, 4), (4, 3)]:
        with pytest.raises(ShapeError, match=f"pooling needs even spatial dims, got {h}x{w}"):
            maxpool2x2(_random_codes(rng, h, w, 2))


def test_maxpool_ramp():
    ramp = np.arange(16, dtype=np.uint8).reshape(4, 4, 1) % 16
    out = maxpool2x2(ramp)[:, :, 0]
    assert out.tolist() == [[5, 7], [13, 15]]


# =========================================================================
# shift
# =========================================================================

def test_shift_direction_semantics_by_hand():
    got = shift(SHIFT_BY_HAND_INPUT)
    for c, want in enumerate(SHIFT_BY_HAND):
        assert got[:, :, c].tolist() == want


def test_shift_matches_nested_loop_oracle():
    rng = np.random.default_rng(33)
    for h, w, c in [(4, 4, 10), (3, 7, 6), (5, 2, 5), (3, 3, 16), (6, 2, 1), (1, 1, 7)]:
        fm = _random_codes(rng, h, w, c)
        np.testing.assert_array_equal(shift(fm), shift_oracle(fm))


def test_default_directions_cycle_with_period_five():
    fm = np.repeat(SHIFT_BY_HAND_INPUT[:, :, :1], 12, axis=2)
    got = shift(fm)
    for c in range(12):
        assert got[:, :, c].tolist() == SHIFT_BY_HAND[c % 5]


# =========================================================================
# channel shuffle
# =========================================================================

def test_concat_shuffle_is_a_quarter_rotation():
    """skip s0..s3 and residual r0..r3 interleave to s2 s3 r0 r1 r2 r3 s0 s1."""
    h, w = 2, 3
    skip = np.stack([np.full((h, w), v, dtype=np.uint8) for v in range(4)], axis=2)
    res = np.stack([np.full((h, w), v, dtype=np.uint8) for v in range(4, 8)], axis=2)
    out = concat_shuffle(skip, res)
    assert out[0, 0].tolist() == [2, 3, 4, 5, 6, 7, 0, 1]


def test_concat_shuffle_matches_roll():
    rng = np.random.default_rng(34)
    skip = rng.integers(0, 16, size=(3, 3, 6), dtype=np.uint8)
    res = rng.integers(0, 16, size=(3, 3, 6), dtype=np.uint8)
    merged = np.concatenate([skip, res], axis=2)
    want = np.roll(merged, -3, axis=2)
    got = concat_shuffle(skip, res)
    np.testing.assert_array_equal(got, want)


def test_shuffle_applied_four_times_is_identity():
    rng = np.random.default_rng(35)
    x = rng.integers(0, 16, size=(2, 2, 8), dtype=np.uint8)
    y = x
    for _ in range(4):
        y = concat_shuffle(y[:, :, :4], y[:, :, 4:])
    np.testing.assert_array_equal(y, x)


def test_shuffle_exchanges_exactly_a_quarter_of_the_channels():
    c = 16
    skip = np.ones((2, 2, c // 2), dtype=np.uint8)
    res = np.full((2, 2, c // 2), 2, dtype=np.uint8)
    out = concat_shuffle(skip, res)
    first, second = out[0, 0, : c // 2], out[0, 0, c // 2 :]
    assert int((first == 2).sum()) == c // 4
    assert int((second == 1).sum()) == c // 4


def test_concat_shuffle_shape_guards():
    a = np.zeros((2, 2, 4), dtype=np.uint8)
    b = np.zeros((2, 3, 4), dtype=np.uint8)
    with pytest.raises(ShapeError, match="spatial sizes differ"):
        concat_shuffle(a, b)
    c = np.zeros((2, 2, 6), dtype=np.uint8)
    with pytest.raises(ShapeError, match="channel counts differ"):
        concat_shuffle(a, c)
    odd = np.zeros((2, 2, 1), dtype=np.uint8)
    with pytest.raises(ShapeError, match="divisible by 4"):
        concat_shuffle(odd, odd)


def test_channel_split_halves_in_order():
    rng = np.random.default_rng(36)
    arr = rng.integers(0, 16, size=(2, 2, 10), dtype=np.uint8)
    a, b = channel_split(arr)
    np.testing.assert_array_equal(a, arr[:, :, :5])
    np.testing.assert_array_equal(b, arr[:, :, 5:])
    with pytest.raises(ShapeError, match="cannot split 3"):
        channel_split(arr[:, :, :3])


def test_split_then_shuffle_round_trips_through_the_block_wiring():
    """A basic block that copies its residual half leaves a rotated map."""
    rng = np.random.default_rng(37)
    arr = rng.integers(0, 16, size=(2, 2, 8), dtype=np.uint8)
    first, second = channel_split(arr)
    out = concat_shuffle(first, second)
    np.testing.assert_array_equal(out, np.roll(arr, -2, axis=2))


# =========================================================================
# head ops
# =========================================================================

def _maps_with_every_code_sum(size: int) -> np.ndarray:
    """A size x size map whose channel v has code sum v, for every reachable v."""
    n = size * size
    sums = np.arange(15 * n + 1)
    pixel = np.arange(n)[:, None]
    codes = np.clip(sums[None, :] - 15 * pixel, 0, 15).astype(np.uint8)
    return codes.reshape(size, size, sums.size)


def test_global_avgpool_codes_round_every_sum_ties_up():
    s_values = [0.1, 0.3, 0.7, 1.0, 1.1, 2.5, 3.0, 1 / 3, 0.123456789, 17.0, 1e-3, 6.02e3]
    for size in range(1, 8):
        fm = _maps_with_every_code_sum(size)
        sums = fm.astype(np.int64).sum(axis=(0, 1))
        assert sums.tolist() == list(range(15 * size * size + 1))
        got = global_avgpool_codes(fm, size)
        assert got.dtype == np.uint8
        for s in s_values:
            net = NetworkQuantParams(s=s)
            np.testing.assert_array_equal(got, documented_head_codes(fm, net, size))


def test_global_avgpool_codes_fixes_the_even_head_double_rounding():
    # 2x2 head, s = 0.1, code sum 6: the mean code is exactly 1.5, a tie
    fm = np.array([[[3], [3]], [[0], [0]]], dtype=np.uint8)
    net = NetworkQuantParams(s=0.1)
    assert global_avgpool_codes(fm, 2).tolist() == [2]
    # dequantize the mean, rounded once to a float, divide by s, quantize:
    # the float path lands below the tie
    mean = float(Fraction(6) * Fraction(net.s) / (2 * 2 * 15))
    assert quantize_uniform(mean / net.s) == 1


def test_global_avgpool_codes_size_check():
    fm = np.zeros((6, 7, 3), dtype=np.uint8)
    with pytest.raises(ShapeError, match="expects a 7x7 map, got 6x7"):
        global_avgpool_codes(fm, 7)


# =========================================================================
# fully connected: the one-GEMV head against its bit-plane oracle
# =========================================================================

def test_fc_bit_serial_hand_case():
    w = WeightMatrix(1, 2, np.array([[7, 12]], dtype=np.uint8))
    # effective weights -1 and 9; 3 * -1 + 5 * 9 = 42
    for fc in (fully_connected, fc_bit_serial):
        out = fc(np.array([3, 5], dtype=np.uint8), w)
        assert out.dtype == np.int64
        assert out.tolist() == [42]


def test_fc_bit_serial_equals_effective_dot_product():
    rng = np.random.default_rng(39)
    w = WeightMatrix(17, 40, rng.integers(0, 16, size=(17, 40), dtype=np.uint8))
    a = rng.integers(0, 16, size=40, dtype=np.uint8)
    want = w.effective().astype(np.int64) @ a.astype(np.int64)
    np.testing.assert_array_equal(fc_bit_serial(a, w), want)
    np.testing.assert_array_equal(fully_connected(a, w), want)


def test_fc_bit_serial_agrees_with_conv_on_one_pixel():
    rng = np.random.default_rng(40)
    w = WeightMatrix(6, 12, rng.integers(0, 16, size=(6, 12), dtype=np.uint8))
    a = rng.integers(0, 16, size=12, dtype=np.uint8)
    via_conv = conv1x1(a.reshape(1, 1, 12), w)[0, 0]
    np.testing.assert_array_equal(fc_bit_serial(a, w), via_conv)
    np.testing.assert_array_equal(fully_connected(a, w), via_conv)


def test_fully_connected_equals_the_bit_plane_oracle_at_the_extremes():
    n = 1024
    a = np.full(n, 15, dtype=np.uint8)
    for code, effective in ((15, 15), (0, -15)):
        w = WeightMatrix(3, n, np.full((3, n), code, dtype=np.uint8))
        got = fully_connected(a, w)
        np.testing.assert_array_equal(got, fc_bit_serial(a, w))
        assert got.tolist() == [effective * 15 * n] * 3  # +-230400, past the conv bound


@pytest.mark.parametrize("out_channels", [600, 100])
def test_fully_connected_row_blocks_equal_the_bit_plane_oracle(out_channels):
    # 2**18 // 1024 = 256 rows a block: 600 is two full blocks and a partial
    # one, 100 is less than one block
    assert BLOCK_ELEMENTS // 1024 == 256
    rng = np.random.default_rng(41)
    w = WeightMatrix(out_channels, 1024,
                     rng.integers(0, 16, size=(out_channels, 1024), dtype=np.uint8))
    a = rng.integers(0, 16, size=1024, dtype=np.uint8)
    np.testing.assert_array_equal(fully_connected(a, w), fc_bit_serial(a, w))


def test_fully_connected_never_casts_the_whole_matrix():
    rng = np.random.default_rng(42)
    w = WeightMatrix(1000, 1024, rng.integers(0, 16, size=(1000, 1024), dtype=np.uint8))
    a = rng.integers(0, 16, size=1024, dtype=np.uint8)
    tracemalloc.start()
    try:
        fully_connected(a, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 256 x 1024 float32 block is 1 MiB; the whole matrix would be 3.9 MiB
    assert peak <= 1.1 * 2**20


def test_fully_connected_refuses_inputs_a_float32_gemv_cannot_sum_exactly():
    widest = 2**24 // 225  # 225 * widest < 2**24 <= 225 * (widest + 1)
    a = np.full(widest, 15, dtype=np.uint8)
    w = WeightMatrix(1, widest, np.full((1, widest), 15, dtype=np.uint8))
    assert fully_connected(a, w).tolist() == [225 * widest]
    with pytest.raises(ValidationError, match="^weights of 74566 inputs: partial sums could reach 2"):
        WeightMatrix(1, widest + 1, np.full((1, widest + 1), 15, dtype=np.uint8))


def test_fc_bit_serial_guards():
    w = WeightMatrix(2, 3, np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ShapeError, match="does not match 3 inputs"):
        fully_connected(np.array([1, 2], dtype=np.uint8), w)
    with pytest.raises(ValidationError, match=r"outside \[0, 15\]"):
        fully_connected(np.array([1, 2, 16], dtype=np.int64), w)
