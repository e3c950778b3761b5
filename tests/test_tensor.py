"""Nibble packing, tensor containers, blocked DRAM width, and the accumulator bound."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracdelta.errors import ShapeError, ValidationError
from diracdelta.tensor import (
    ACC_DTYPE,
    ACC_LIMIT,
    CODE_MAX,
    DEFAULT_BLOCK,
    MAX_CHANNELS,
    FeatureMap,
    WeightMatrix,
    blocked_channel_count,
    check_accumulators,
    pack,
    read_tensor_blob,
    unpack,
    write_tensor_blob,
)

# =========================================================================
# packing
# =========================================================================

# Hand-computed byte images: two codes per byte, low nibble first, zero pad
# nibble when the count is odd.
PACK_GROUND_TRUTH = [
    ([], b""),
    ([0], b"\x00"),
    ([15], b"\x0f"),
    ([3, 10], b"\xa3"),
    ([1, 2, 3], b"\x21\x03"),
    ([15, 15, 15, 15], b"\xff\xff"),
    ([0, 15, 1, 14], b"\xf0\xe1"),
]


@pytest.mark.parametrize("codes,expected", PACK_GROUND_TRUTH)
def test_pack_ground_truth(codes, expected):
    assert pack(codes) == expected


@pytest.mark.parametrize("codes,expected", PACK_GROUND_TRUTH)
def test_unpack_ground_truth(codes, expected):
    assert unpack(expected, len(codes)).tolist() == codes


@given(st.lists(st.integers(min_value=0, max_value=15), max_size=200))
def test_pack_unpack_round_trip(codes):
    assert unpack(pack(codes), len(codes)).tolist() == codes


def test_pack_length():
    rng = np.random.default_rng(3)
    for n in range(17):
        buf = pack(rng.integers(0, 16, size=n))
        assert len(buf) == (n + 1) // 2


def test_pack_rejects_out_of_range_naming_first_offender():
    with pytest.raises(ValidationError, match=r"code 16 at index 2 outside \[0, 15\]"):
        pack([0, 1, 16, 17])
    with pytest.raises(ValidationError, match=r"code -1 at index 0"):
        pack([-1])
    with pytest.raises(ValidationError, match=r"code inf at index 1 outside \[0, 15\]"):
        pack(np.array([1.0, np.inf]))
    with pytest.raises(ValidationError, match=r"code -inf at index 0"):
        pack(np.array([-np.inf, 2.0]))
    with pytest.raises(ValidationError, match=r"code 1e\+30 at index 2"):
        pack(np.array([0.0, 15.0, 1e30]))
    with pytest.raises(ValidationError, match=r"code inf at index 1"):
        FeatureMap.from_array(np.array([[[3.0, np.inf]]]))
    with pytest.raises(ValidationError, match=r"weight code -1e\+30 at index 0"):
        WeightMatrix(1, 2, np.array([[-1e30, 0.0]]))


def test_pack_rejects_fractional_floats_but_accepts_integral_ones():
    assert pack(np.array([3.0, 10.0])) == b"\xa3"
    with pytest.raises(ValidationError, match="must be integers"):
        pack(np.array([1.5]))


def test_unpack_short_buffer():
    with pytest.raises(ValidationError, match="packed buffer holds 1 bytes, 2 needed"):
        unpack(b"\xa3", 3)
    with pytest.raises(ValidationError, match="non-negative"):
        unpack(b"", -1)


def test_unpack_odd_count_ignores_pad_nibble():
    assert unpack(b"\xa3", 1).tolist() == [3]


# =========================================================================
# FeatureMap
# =========================================================================

def test_feature_map_round_trip():
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 16, size=(5, 3, 9), dtype=np.uint8)
    fm = FeatureMap.from_array(arr)
    assert (fm.height, fm.width, fm.channels) == (5, 3, 9)
    assert len(fm.packed) == (135 + 1) // 2
    np.testing.assert_array_equal(fm.to_array(), arr)


def test_feature_map_equality_is_byte_equality():
    arr = np.arange(24, dtype=np.uint8).reshape(2, 3, 4) % 16
    a = FeatureMap.from_array(arr)
    b = FeatureMap.from_array(arr.copy())
    assert a == b
    arr[0, 0, 0] ^= 1
    assert a != FeatureMap.from_array(arr)


def test_feature_map_zero_channels_is_legal():
    fm = FeatureMap.from_array(np.zeros((4, 4, 0), dtype=np.uint8))
    assert fm.packed == b""


def test_feature_map_shape_errors():
    with pytest.raises(ShapeError, match=r"\(height, width, channels\)"):
        FeatureMap.from_array(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ShapeError, match="non-negative"):
        FeatureMap(-1, 2, 2, b"")
    with pytest.raises(ValidationError, match="packed length"):
        FeatureMap(2, 2, 2, b"\x00")


def test_feature_map_rejects_bad_codes():
    with pytest.raises(ValidationError, match="outside"):
        FeatureMap.from_array(np.full((1, 1, 1), 16, dtype=np.int64))


# =========================================================================
# WeightMatrix
# =========================================================================

def test_effective_weights_are_the_odd_integers():
    codes = np.arange(16, dtype=np.uint8).reshape(1, 16)
    w = WeightMatrix(1, 16, codes)
    eff = w.effective()
    assert eff.dtype == ACC_DTYPE
    assert eff.tolist() == [list(range(-15, 16, 2))]
    assert np.all(eff % 2 != 0)


def test_weight_codes_are_read_only():
    w = WeightMatrix(2, 2, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        w.codes[0, 0] = 1


def test_weight_matrix_packed_round_trip():
    rng = np.random.default_rng(21)
    codes = rng.integers(0, 16, size=(7, 5), dtype=np.uint8)
    w = WeightMatrix(7, 5, codes)
    back = WeightMatrix.from_packed(w.packed(), 7, 5)
    np.testing.assert_array_equal(back.codes, codes)


def test_weight_matrix_shape_and_range_errors():
    with pytest.raises(ShapeError, match="weight codes shape"):
        WeightMatrix(2, 3, np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(ValidationError, match="weight code 99"):
        WeightMatrix(1, 1, np.array([[99]]))


# =========================================================================
# blocked DRAM width
# =========================================================================

def test_blocked_channel_count():
    assert blocked_channel_count(0) == 0
    assert blocked_channel_count(1) == DEFAULT_BLOCK
    assert blocked_channel_count(32) == 32
    assert blocked_channel_count(33) == 64
    assert blocked_channel_count(5, block=4) == 8
    with pytest.raises(ValidationError):
        blocked_channel_count(4, block=0)


# =========================================================================
# tensor blobs on disk
# =========================================================================

def test_tensor_blob_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    fm = FeatureMap.from_array(rng.integers(0, 16, size=(6, 4, 3), dtype=np.uint8))
    p = tmp_path / "t.bin"
    write_tensor_blob(p, fm)
    data = p.read_bytes()
    # 12-byte header of little-endian u32 height, width, channels
    assert data[:12] == (6).to_bytes(4, "little") + (4).to_bytes(4, "little") + (3).to_bytes(4, "little")
    assert read_tensor_blob(p) == fm


def test_tensor_blob_truncated_header(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"\x00" * 7)
    with pytest.raises(ValidationError, match="header truncated.*height/width/channels"):
        read_tensor_blob(p)


def test_tensor_blob_payload_mismatch(tmp_path):
    p = tmp_path / "t.bin"
    write_tensor_blob(p, FeatureMap.from_array(np.zeros((2, 2, 2), dtype=np.uint8)))
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(ValidationError, match="payload is 3 bytes.*2x2x2 require 4"):
        read_tensor_blob(p)


# =========================================================================
# accumulator bound
# =========================================================================

def test_acc_limit_value_and_storage_width():
    assert ACC_LIMIT == CODE_MAX * CODE_MAX * MAX_CHANNELS == 115200
    # 17 magnitude bits plus sign; int32 therefore holds it with headroom
    assert 2 ** 16 <= ACC_LIMIT < 2 ** 17
    assert ACC_LIMIT < np.iinfo(ACC_DTYPE).max


def test_check_accumulators_bound_is_inclusive():
    check_accumulators(np.array([ACC_LIMIT, -ACC_LIMIT, 0], dtype=ACC_DTYPE))
    check_accumulators(np.zeros(0, dtype=ACC_DTYPE))
    with pytest.raises(ValidationError, match="115201 exceeds bound 115200"):
        check_accumulators(np.array([ACC_LIMIT + 1], dtype=np.int64))
    with pytest.raises(ValidationError, match="exceeds bound"):
        check_accumulators(np.array([-(ACC_LIMIT + 7)], dtype=np.int64))


def test_check_accumulators_returns_the_peak_magnitude():
    assert check_accumulators(np.array([3, -7, 5], dtype=ACC_DTYPE)) == 7
    assert check_accumulators(np.array([[ACC_LIMIT], [-2]], dtype=ACC_DTYPE)) == ACC_LIMIT
    assert check_accumulators(np.zeros(0, dtype=ACC_DTYPE)) == 0
    assert isinstance(check_accumulators(np.array([3, -7], dtype=ACC_DTYPE)), int)
    # the most negative int32 has no int32 magnitude; the peak is exact anyway
    lowest = np.iinfo(ACC_DTYPE).min
    with pytest.raises(ValidationError, match="^accumulator magnitude 2147483648 exceeds"):
        check_accumulators(np.array([1, lowest], dtype=ACC_DTYPE))


def test_check_accumulators_catches_the_most_negative_int32():
    # abs() of the most negative int32 wraps to itself; the bound must not
    lowest = np.iinfo(ACC_DTYPE).min
    with pytest.raises(ValidationError, match=f"magnitude {-lowest} exceeds bound"):
        check_accumulators(np.array([0, lowest], dtype=ACC_DTYPE))


def test_slab_int8_is_the_cached_read_only_in_out_form_of_effective():
    rng = np.random.default_rng(22)
    w = WeightMatrix(7, 5, rng.integers(0, 16, size=(7, 5), dtype=np.uint8))
    slab = w.slab_int8
    assert slab.dtype == np.int8 and slab.shape == (5, 7)
    assert slab.flags.c_contiguous and not slab.flags.writeable
    np.testing.assert_array_equal(slab, w.effective().T)
    assert w.slab_int8 is slab
