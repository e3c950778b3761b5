"""Quantizer semantics, threshold table construction, and the bit-width tag.

The threshold tests lean on an independent rational oracle: the boundary for
code i sits at the smallest integer accumulator acc with
``acc * f / alpha >= (2i - 1) / (2 * levels)``, i.e.
``ceil(alpha * (2i - 1) / (2 * levels * f))`` computed in exact arithmetic.
"""
import dataclasses
import hashlib
import itertools
import math
import warnings
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_tiny_spec, make_two_stage_spec
from diracdelta import quant
from diracdelta.bundle import random_bundle
from diracdelta.errors import (
    ConstructionError,
    DegenerateScaleError,
    DomainError,
    ValidationError,
)
from diracdelta.net import NetworkSpec
from diracdelta.ops import maxpool2x2
from diracdelta.quant import (
    LayerQuantParams,
    NetworkQuantParams,
    ThresholdTable,
    accumulator_scale,
    build_threshold_table,
    pact_clip,
    quantize_activation,
    quantize_uniform,
    quantize_weights,
)
from diracdelta.tensor import ACC_LIMIT, CODE_MAX

from oracles import (
    dequantize_weight_codes,
    pact_clip_abs_form,
    scalar_threshold_table,
    searchsorted_apply,
)

# =========================================================================
# uniform quantizer
# =========================================================================

def test_quantize_uniform_hand_values():
    assert quantize_uniform(0.0) == 0
    assert quantize_uniform(1.0) == 15
    assert quantize_uniform(0.8) == 12
    # 0.5 * 15 = 7.5 sits exactly between codes 7 and 8; ties go up
    assert quantize_uniform(0.5) == 8


def test_quantize_uniform_matches_nearest_level_oracle():
    """Against brute-force argmin over all 16 grid values, ties to the larger code."""
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 1.0, size=4000)
    levels = 15
    grid = np.arange(levels + 1) / levels
    dist = np.abs(xs[:, None] - grid[None, :])
    # reversed argmin trick: on a tie prefer the larger code
    oracle = levels - np.argmin(dist[:, ::-1], axis=1)
    np.testing.assert_array_equal(quantize_uniform(xs), oracle)


def test_quantize_uniform_is_monotone():
    xs = np.sort(np.random.default_rng(1).uniform(0, 1, size=1000))
    codes = quantize_uniform(xs)
    assert np.all(np.diff(codes) >= 0)


def test_quantize_uniform_types_and_domain():
    arr = quantize_uniform(np.array([0.0, 1.0]))
    assert arr.dtype == np.int64
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        quantize_uniform(-0.01)
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        quantize_uniform(np.array([0.5, 1.01]))


def test_quantize_uniform_refuses_nan():
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        quantize_uniform(float("nan"))
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        quantize_uniform(np.array([0.5, np.nan]))


# =========================================================================
# weight quantizer
# =========================================================================

def test_quantize_weights_hand_case():
    """tanh values 0.3 and 0.5 normalize to grid points 0.8 and 1.0."""
    w = np.array([math.atanh(0.3), math.atanh(0.5)])
    codes, scale = quantize_weights(w)
    assert codes.tolist() == [12, 15]
    assert scale == pytest.approx(0.5 / 15, rel=0, abs=0)


def test_quantize_weights_sign_symmetry():
    rng = np.random.default_rng(8)
    w = rng.normal(size=(6, 9))
    pos, s_pos = quantize_weights(w)
    neg, s_neg = quantize_weights(-w)
    assert s_pos == s_neg
    np.testing.assert_array_equal(pos + neg, np.full_like(pos, 15))


def test_quantize_weights_all_zero():
    with pytest.raises(DegenerateScaleError, match="all zeros"):
        quantize_weights(np.zeros((3, 3)))


def test_dequantized_weights_within_half_level():
    rng = np.random.default_rng(13)
    w = rng.normal(scale=2.0, size=500)
    t = np.tanh(w)
    codes, _ = quantize_weights(w)
    deq = dequantize_weight_codes(codes)
    half_level = 1.0 / 15
    assert np.max(np.abs(deq - t / np.max(np.abs(t)))) <= half_level + 1e-12


def test_dequantize_weight_codes_grid():
    np.testing.assert_allclose(
        dequantize_weight_codes(np.array([0, 7, 8, 15])),
        np.array([-1.0, -1 / 15, 1 / 15, 1.0]),
    )


# =========================================================================
# activation clip
# =========================================================================

def test_pact_clip_equals_np_clip():
    rng = np.random.default_rng(99)
    x = rng.normal(scale=3.0, size=100_000)
    out = pact_clip(x, 2.5)
    np.testing.assert_array_equal(out, np.clip(x, 0.0, 2.5))


def test_pact_clip_scalar_and_domain():
    assert pact_clip(-1.0, 1.0) == 0.0
    assert pact_clip(0.4, 1.0) == 0.4
    assert pact_clip(9.0, 1.0) == 1.0
    with pytest.raises(DomainError, match="must be positive"):
        pact_clip(0.5, 0.0)
    with pytest.raises(DomainError, match="must be positive"):
        pact_clip_abs_form(0.5, -1.0)


def test_abs_form_identity_is_exact_over_rationals():
    alpha = Fraction(7, 5)
    for num in range(-40, 41):
        x = Fraction(num, 11)
        direct = min(max(x, Fraction(0)), alpha)
        via_abs = (abs(x) - abs(x - alpha) + alpha) / 2
        assert direct == via_abs


def test_abs_form_close_but_not_trusted_bitwise():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=2.0, size=10_000)
    a = pact_clip(x, 1.3)
    b = pact_clip_abs_form(x, 1.3)
    assert np.max(np.abs(a - b)) <= 4 * np.finfo(np.float64).eps


# =========================================================================
# activation quantizer and the accumulator scale
# =========================================================================

def test_quantize_activation_spots():
    p = LayerQuantParams(alpha=1.0, weight_scale=1.0)
    net = NetworkQuantParams(s=1.0)
    assert quantize_activation(-3.0, p, net) == (0, 0.0)
    assert quantize_activation(5.0, p, net) == (15, 1.0)
    code, value = quantize_activation(0.97, p, net)
    assert code == 15 and value == 1.0
    code, value = quantize_activation(0.5, p, net)
    assert code == 8
    assert value == pytest.approx(8 / 15)


def test_quantize_activation_refuses_nan():
    p = LayerQuantParams(alpha=1.0, weight_scale=1.0)
    net = NetworkQuantParams(s=1.0)
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        quantize_activation(float("nan"), p, net)
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        quantize_activation(np.array([0.2, np.nan]), p, net)


def test_quantize_activation_rescales_by_shared_s():
    p = LayerQuantParams(alpha=2.0, weight_scale=1.0)
    net = NetworkQuantParams(s=6.0)
    code, value = quantize_activation(1.0, p, net)
    assert code == 8  # half of alpha
    assert value == pytest.approx(6.0 * 8 / 15)


def test_accumulator_scale():
    p = LayerQuantParams(alpha=0.7, weight_scale=1 / 15)
    net = NetworkQuantParams(s=1.0)
    assert accumulator_scale(p, net) == pytest.approx(1 / 225)


def test_param_validation():
    with pytest.raises(DomainError):
        NetworkQuantParams(s=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="must be positive and finite"):
            NetworkQuantParams(s=bad)
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            LayerQuantParams(alpha=bad, weight_scale=1.0)
        with pytest.raises(DomainError, match="weight_scale must be positive and finite"):
            LayerQuantParams(alpha=1.0, weight_scale=bad)
    with pytest.raises(DomainError):
        LayerQuantParams(alpha=0.0, weight_scale=1.0)
    with pytest.raises(DomainError):
        LayerQuantParams(alpha=1.0, weight_scale=0.0)


# =========================================================================
# threshold tables
# =========================================================================

def _rational_thresholds(p: LayerQuantParams, net: NetworkQuantParams):
    f = Fraction(p.weight_scale) * Fraction(net.s) / CODE_MAX
    a = Fraction(p.alpha)
    return tuple(
        math.ceil(a * (2 * i - 1) / (2 * CODE_MAX * f))
        for i in range(1, CODE_MAX + 1)
    )


def test_identity_scaling_gives_unit_thresholds():
    p = LayerQuantParams(alpha=1.0, weight_scale=1.0)
    net = NetworkQuantParams(s=1.0)
    table = build_threshold_table(p, net)
    assert table.thresholds == tuple(range(1, 16))


def test_production_like_scaling_thresholds():
    """weight_scale 1/15, s = alpha = 1 puts boundary i at 15 i - 7."""
    p = LayerQuantParams(alpha=1.0, weight_scale=1 / 15)
    net = NetworkQuantParams(s=1.0)
    table = build_threshold_table(p, net)
    assert table.thresholds == tuple(15 * i - 7 for i in range(1, 16))
    assert table.thresholds[0] == 8 and table.thresholds[-1] == 218


@pytest.mark.parametrize("seed", range(6))
def test_thresholds_match_rational_oracle(seed):
    rng = np.random.default_rng(seed)
    net = NetworkQuantParams(s=float(rng.uniform(0.5, 2.0)))
    p = LayerQuantParams(
        alpha=net.s * float(rng.uniform(0.5, 1.5)),
        weight_scale=float(rng.uniform(0.5, 1.5)) / 15,
    )
    table = build_threshold_table(p, net)
    assert table.thresholds == _rational_thresholds(p, net)


def test_table_agrees_with_float_quantizer_on_a_sweep():
    p = LayerQuantParams(alpha=0.9, weight_scale=1 / 15)
    net = NetworkQuantParams(s=1.0)
    table = build_threshold_table(p, net)
    f = accumulator_scale(p, net)
    accs = np.arange(-300, 2000)
    want = quantize_activation(accs * f, p, net).code
    np.testing.assert_array_equal(table.apply(accs), want.astype(np.uint8))


def _built_or_error(build, p, net):
    try:
        return build(p, net).thresholds
    except ConstructionError as e:
        return type(e), str(e)


def test_array_bisection_matches_the_scalar_oracle():
    """Same thresholds, or the same error, over a grid that reaches both error kinds."""
    alphas = (1e-3, 0.05, 0.3, 0.7549, 1.0, 1.3, 7.0, 30.0, 600.0, 1e9)
    weight_scales = (1e-3, 0.05, 1 / 15, 0.5, 1.0, 3.0)
    scales = (0.1, 0.37, 1.0, 2.5, 1e6)
    outcomes = []
    for alpha, ws, s in itertools.product(alphas, weight_scales, scales):
        p, net = LayerQuantParams(alpha=alpha, weight_scale=ws), NetworkQuantParams(s=s)
        got = _built_or_error(build_threshold_table, p, net)
        assert got == _built_or_error(scalar_threshold_table, p, net), (alpha, ws, s)
        outcomes.append(got[0] if got[0] is ConstructionError else "table")
    assert len(outcomes) == 300
    assert 50 < outcomes.count(ConstructionError) < 250


# every float64 scale from the smallest denormal to near the largest finite value
EXTREME_SCALES = (5e-324, 1e-300, 1e-30, 1e-3, 1 / 15, 0.5, 1.0, 2.0, 30.0, 1e9, 1e30,
                  1e300, 1.7e308)


def _equivalence_cases():
    """The extreme grid, then boundaries on exact integers and their 1-ulp neighbours.

    alpha = 2k * weight_scale * s puts the boundary of code i at (2i - 1) k in
    exact arithmetic, so the float quantizer meets a tie there or misses it by
    an ulp either way.
    """
    yield from itertools.product(EXTREME_SCALES, repeat=3)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        ws, s = 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(-1, 1)
        alpha = 2 * int(rng.integers(1, 4000)) * ws * s
        for a in (np.nextafter(alpha, 0.0), alpha, np.nextafter(alpha, np.inf)):
            yield float(a), float(ws), float(s)


def _params(alpha, ws, s):
    return LayerQuantParams(alpha=alpha, weight_scale=ws), NetworkQuantParams(s=s)


def test_tables_and_errors_match_the_pinned_digest():
    """One sha256 over the thresholds or the error of every equivalence case.

    Pinned on a plain 17-step array bisection of the quantizer over
    [0, ACC_LIMIT]: any faster construction must reproduce it bit for bit,
    errors and their order included.
    """
    outcomes = [_built_or_error(build_threshold_table, *_params(*case))
                for case in _equivalence_cases()]
    assert len(outcomes) == 13 ** 3 + 900
    assert sum(o[0] is ConstructionError for o in outcomes) == 2026
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "cd6e3b3eaaa22fada2e29a2b44747df5ecabdde410adae6a42afb2708ca2931e"


def test_extreme_scales_build_or_refuse_without_a_numpy_warning():
    # products that overflow to inf, scales that underflow to 0: each case
    # ends in a table or a ConstructionError, never a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in itertools.product(EXTREME_SCALES, repeat=3):
            _built_or_error(build_threshold_table, *_params(*case))


@pytest.mark.parametrize("spec,tables", [(NetworkSpec(), 38), (make_tiny_spec(), 8),
                                         (make_two_stage_spec(), 15)],
                         ids=["default", "tiny", "two_stage"])
def test_each_table_takes_one_quantizer_call(monkeypatch, spec, tables):
    calls = []

    def counting(*args):
        calls.append(args)
        return quantize_activation(*args)

    monkeypatch.setattr(quant, "quantize_activation", counting)
    bundle = random_bundle(spec, NetworkQuantParams(s=1.0), seed=7)
    assert len(calls) == len(bundle.tables) == tables


def test_alpha_too_large_is_rejected():
    p = LayerQuantParams(alpha=600.0, weight_scale=1 / 15)
    with pytest.raises(ConstructionError, match="top code unreachable.*too large"):
        build_threshold_table(p, NetworkQuantParams(s=1.0))


def test_alpha_too_small_is_rejected():
    p = LayerQuantParams(alpha=0.05, weight_scale=1.0)
    with pytest.raises(ConstructionError, match="share threshold.*too small"):
        build_threshold_table(p, NetworkQuantParams(s=1.0))


def test_table_construction_guards():
    with pytest.raises(ConstructionError, match="empty"):
        ThresholdTable(())
    with pytest.raises(ConstructionError, match="not strictly increasing at position 1"):
        ThresholdTable((5, 5, 9))
    with pytest.raises(ConstructionError, match="not strictly increasing at position 2"):
        ThresholdTable((1, 8, 3))


def test_lookup_semantics():
    table = ThresholdTable(tuple(range(1, 16)))
    assert table.levels == 15
    # thresholds are inclusive: 1 reaches the first one
    assert table.apply(np.array([-10, 0, 1, 15, ACC_LIMIT])).tolist() == [0, 0, 1, 15, 15]


def test_apply_matches_scalar_lookup():
    rng = np.random.default_rng(17)
    table = ThresholdTable(tuple(sorted(rng.choice(np.arange(1, 4000), size=15, replace=False))))
    accs = rng.integers(-500, 5000, size=300)
    out = table.apply(accs)
    assert out.dtype == np.uint8
    assert out.tolist() == [bisect_right(table.thresholds, int(a)) for a in accs]


def _lookup_oracle_tables():
    built = [
        build_threshold_table(LayerQuantParams(alpha=a, weight_scale=ws), NetworkQuantParams(s=s))
        for a, ws, s in ((1.0, 1 / 15, 1.0), (0.9, 1 / 15, 1.0), (3.0, 1 / 15, 1.0),
                         (2.3, 0.05, 1.7), (1.0, 0.001, 1.0))
    ]
    hand = [
        ThresholdTable(tuple(range(1, 16))),
        ThresholdTable(tuple(range(-7, 8))),  # thresholds <= 0
        ThresholdTable(tuple(range(-ACC_LIMIT, -ACC_LIMIT + 15))),
        ThresholdTable(tuple(range(ACC_LIMIT - 13, ACC_LIMIT + 2))),
        ThresholdTable((-ACC_LIMIT, -3, 0, 1, 50, ACC_LIMIT + 1)),
        ThresholdTable((0,)),
    ]
    return built + hand


def test_apply_equals_binary_search_on_the_whole_accumulator_range():
    accs64 = np.arange(-ACC_LIMIT - 1, ACC_LIMIT + 2, dtype=np.int64)
    accs32 = accs64.astype(np.int32)
    for table in _lookup_oracle_tables():
        want = searchsorted_apply(table, accs64)
        for accs in (accs64, accs32):
            got = table.apply(accs)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)


def test_float32_lookup_equals_apply_on_the_whole_accumulator_range():
    # a checked float32 GEMM result holds exact integers, the form both engines
    # hand to apply: its codes must equal those of the same integers everywhere
    accs32 = np.arange(-ACC_LIMIT - 2, ACC_LIMIT + 3, dtype=np.int32)
    accs_f32 = accs32.astype(np.float32)
    assert np.array_equal(accs_f32.astype(np.int64), accs32)
    for table in _lookup_oracle_tables():
        got = table.apply(accs_f32.reshape(5, -1, 1))
        assert got.dtype == np.uint8 and got.shape == (5, accs32.size // 5, 1)
        np.testing.assert_array_equal(got.reshape(-1), table.apply(accs32))
        np.testing.assert_array_equal(got.reshape(-1), searchsorted_apply(table, accs32))


def test_apply_saturates_integer_extremes_without_wrapping():
    for dtype in (np.int32, np.int64):
        info = np.iinfo(dtype)
        accs = np.array([info.min, info.min + 1, -ACC_LIMIT - 2, ACC_LIMIT + 2,
                         info.max - 1, info.max], dtype=dtype)
        for table in _lookup_oracle_tables():
            got = table.apply(accs)
            np.testing.assert_array_equal(got, searchsorted_apply(table, accs))
            assert got.tolist()[:3] == [0, 0, 0]
            assert got.tolist()[3:] == [table.levels] * 3
    # uint64 values at and above 2**63 would wrap negative on a cast to int64
    accs = np.array([0, ACC_LIMIT + 2, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    for table in _lookup_oracle_tables():
        got = table.apply(accs)
        np.testing.assert_array_equal(got, searchsorted_apply(table, accs))
        assert got.tolist()[1:] == [table.levels] * 5
    assert ThresholdTable(tuple(range(-7, 8))).apply(accs[-2:]).tolist() == [15, 15]
    # float32 integers at the largest magnitude a float32 GEMM sums exactly,
    # and on and just beyond each end of the table's window
    exact = 2**24 - 1
    for table in _lookup_oracle_tables():
        base, top = table.thresholds[0] - 1, table.thresholds[-1]
        ints = np.array([-exact, base - 1, base, base + 1, top - 1, top, top + 1, exact],
                        dtype=np.int64)
        got = table.apply(ints.astype(np.float32))
        np.testing.assert_array_equal(got, searchsorted_apply(table, ints))
        assert got.tolist()[:3] == [0, 0, 0]
        assert got.tolist()[-3:] == [table.levels] * 3


def test_max_pooling_commutes_with_the_lookup():
    # lut(maxpool(acc)) == maxpool(lut(acc)) because the lookup never
    # decreases as acc grows: the reference engine pools before it looks up
    rng = np.random.default_rng(23)
    window = np.arange(-ACC_LIMIT, ACC_LIMIT + 2)
    tables = _lookup_oracle_tables() + [
        ThresholdTable(tuple(sorted(rng.choice(window, size=15, replace=False))))
        for _ in range(20)
    ]
    info = np.iinfo(np.int32)
    # every accumulator in and just beyond the window, and both saturated ends
    values = np.concatenate([np.arange(-ACC_LIMIT - 2, ACC_LIMIT + 3),
                             [info.min, info.max, info.max]]).astype(np.int32)
    for i, table in enumerate(tables):
        accs = rng.permutation(values).reshape(4, 2, -1)
        got = table.apply(maxpool2x2(accs))
        np.testing.assert_array_equal(got, maxpool2x2(table.apply(accs)))
        assert got.shape == (2, 1, values.size // 8)


def test_apply_keeps_the_input_shape_and_casts_narrow_integers():
    table = ThresholdTable(tuple(range(-7, 8)))
    accs = np.arange(-10, 14).reshape(2, 3, 4)
    assert table.apply(accs).shape == (2, 3, 4)
    for dtype in (np.int8, np.int16, np.uint8, np.uint16, np.uint32):
        small = np.arange(0, 12, dtype=dtype)
        np.testing.assert_array_equal(table.apply(small), searchsorted_apply(table, small))
    assert int(table.apply(np.int32(3))) == int(searchsorted_apply(table, 3)) == 11
    with pytest.raises(ValidationError, match="accumulators must be integers"):
        table.apply(np.array([0.5, 1.5]))
    for dtype in (np.float16, np.bool_):
        with pytest.raises(ValidationError, match="accumulators must be integers or float32"):
            table.apply(np.zeros(3, dtype=dtype))


def test_table_rejects_thresholds_outside_the_accumulator_range():
    ThresholdTable((-ACC_LIMIT, ACC_LIMIT + 1))
    with pytest.raises(ConstructionError, match="outside the accumulator range"):
        ThresholdTable((-ACC_LIMIT - 1, 0))
    with pytest.raises(ConstructionError, match="outside the accumulator range"):
        ThresholdTable((0, ACC_LIMIT + 2))
    with pytest.raises(ConstructionError, match="outside the accumulator range"):
        ThresholdTable((0, 2**31 - 1))


# =========================================================================
# bit-width configs
# =========================================================================

def test_quant_config_tag_and_lineage():
    assert NetworkQuantParams(s=1.0).tag == "C_{4,4}"
    # the widths are fixed at 4 bits: the shared scale is the only parameter
    assert [f.name for f in dataclasses.fields(NetworkQuantParams)] == ["s"]
