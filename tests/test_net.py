"""Graph structure, parameter accounting, bundle validation, and `forward`.

The forward tests re-wire the tiny one-stage network by hand, step by step,
so a wiring mistake in the compiled step list cannot hide behind the step
list itself.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_tiny_spec, make_two_stage_spec, random_input
from oracles import (
    composed_forward,
    composed_subgraph,
    conv1x1_int64,
    documented_head_codes,
    fc_bit_serial,
    searchsorted_apply,
)

from diracdelta.bundle import ModelBundle, random_bundle
from diracdelta.accel.subgraph import SimulatorExecutor
from diracdelta.errors import ConstructionError, GraphError, ShapeError, ValidationError
from diracdelta.net import (
    ConvStep,
    HeadStep,
    NetworkSpec,
    PoolStep,
    ReferenceExecutor,
    ShiftStep,
    SplitStep,
    build_diracdeltanet,
    compile_steps,
    conv_steps,
    count_params_macs,
    forward,
)
from diracdelta.ops import channel_split, conv1x1, maxpool2x2, shift
from diracdelta.quant import LayerQuantParams, NetworkQuantParams, ThresholdTable
from diracdelta.tensor import MAX_INPUT_SIZE, FeatureMap, WeightMatrix

# =========================================================================
# spec validation and block structure
# =========================================================================

def test_default_spec_is_the_published_shape():
    spec = build_diracdeltanet()
    assert spec.input_size == 224
    assert spec.stem_channels == (32, 64)
    assert spec.stage_channels == (128, 256, 512)
    assert spec.stage_repeats == (3, 7, 3)
    assert spec.conv5_channels == 1024
    assert spec.num_classes == 1000
    assert spec.stem_spatial == 56
    assert compile_steps(spec)[-1].spatial == 7


def test_spec_rejects_inconsistent_shapes():
    with pytest.raises(GraphError, match="lengths differ"):
        NetworkSpec(stage_channels=(128,), stage_repeats=(1, 2))
    with pytest.raises(GraphError, match="at least one stage"):
        NetworkSpec(stage_channels=(), stage_repeats=())
    with pytest.raises(GraphError, match="must be a positive multiple of 32"):
        NetworkSpec(input_size=100)
    with pytest.raises(GraphError, match="must double the previous width"):
        NetworkSpec(stage_channels=(120, 256, 512))
    with pytest.raises(GraphError, match="divisible by 4"):
        make_tiny_spec(stem_channels=(4, 9), stage_channels=(18,))
    with pytest.raises(GraphError, match="non-negative"):
        make_tiny_spec(stage_repeats=(-1,))
    with pytest.raises(GraphError, match="layer conv1: 600 input channels exceed 512"):
        NetworkSpec(16, 600, (4, 8), (16,), (1,), 32, 10)
    with pytest.raises(GraphError, match="layer s5d_res_conv2: 1024 input channels exceed"):
        NetworkSpec(input_size=256, stage_channels=(128, 256, 512, 1024),
                    stage_repeats=(1, 1, 1, 1))
    # each conv where an input first widens is named: conv2, the first skip conv
    with pytest.raises(GraphError, match="layer conv2: 600 input channels exceed"):
        make_tiny_spec(stem_channels=(600, 8))
    with pytest.raises(GraphError, match="layer s2d_skip_conv: 520 input channels exceed"):
        make_tiny_spec(stem_channels=(4, 520), stage_channels=(1040,))


def test_spec_refuses_a_head_a_float32_gemv_cannot_sum_exactly():
    # 225 * 74565 < 2**24 <= 225 * 74566: a wider head could round in forward
    assert make_tiny_spec(conv5_channels=74565).conv5_channels == 74565
    with pytest.raises(GraphError, match="^layer fc: 74566 inputs exceed 74565, "):
        make_tiny_spec(conv5_channels=74566)


def test_spec_bounds_the_input_size():
    assert make_tiny_spec(input_size=MAX_INPUT_SIZE).input_size == MAX_INPUT_SIZE == 4096
    with pytest.raises(GraphError, match=r"^input_size 4128 exceeds 4096, "):
        make_tiny_spec(input_size=MAX_INPUT_SIZE + 32)


def test_a_spec_built_from_lists_is_the_spec_built_from_tuples(quant_params):
    listed = NetworkSpec(32, 3, [6, 10], [20, 40, 80], [1, 0, 1], 50, 11)
    tupled = NetworkSpec(32, 3, (6, 10), (20, 40, 80), (1, 0, 1), 50, 11)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert compile_steps(listed) is compile_steps(tupled)
    fm = random_input(listed, 4)
    got = forward(random_bundle(listed, quant_params, seed=6), fm)
    want = forward(random_bundle(tupled, quant_params, seed=6), fm)
    assert got.int_logits.tobytes() == want.int_logits.tobytes()


def test_compile_steps_compiles_each_spec_once_in_a_bounded_cache():
    assert compile_steps(NetworkSpec()) is compile_steps(build_diracdeltanet())
    assert compile_steps(make_tiny_spec()) is not compile_steps(make_two_stage_spec())
    assert compile_steps.cache_info().maxsize is not None


def _blocks(spec):
    """(kind, in channels, out channels, input spatial) per block, from the compiled steps.

    Every block has one residual branch, opened by a `*_res_conv1` step, and
    only a downsample block's residual conv pools.
    """
    blocks = []
    for s in conv_steps(spec):
        if s.name.endswith("_res_conv1"):
            if s.pool:
                blocks.append(("downsample", s.in_channels, s.out_channels, s.spatial))
            else:
                blocks.append(("basic", s.out_channels, s.out_channels, s.spatial))
    return blocks


def test_blocks_sequence():
    blocks = _blocks(build_diracdeltanet())
    kinds = [b[0] for b in blocks]
    assert kinds == (["downsample"] + ["basic"] * 3
                     + ["downsample"] + ["basic"] * 7
                     + ["downsample"] + ["basic"] * 3)
    assert blocks[0] == ("downsample", 64, 128, 56)
    assert blocks[4] == ("downsample", 128, 256, 28)
    assert blocks[-1] == ("basic", 512, 512, 7)


# =========================================================================
# compiled step list
# =========================================================================

def test_step_list_counts_for_default_network():
    steps = compile_steps(build_diracdeltanet())
    assert len(steps) == 58
    by_type = {t: sum(isinstance(s, t) for s in steps)
               for t in (ConvStep, PoolStep, ShiftStep, SplitStep, HeadStep)}
    assert by_type == {ConvStep: 38, PoolStep: 3, ShiftStep: 3, SplitStep: 13, HeadStep: 1}


@pytest.mark.parametrize("spec", [
    build_diracdeltanet(), make_tiny_spec(), make_two_stage_spec(),
    make_tiny_spec(stem_channels=(5, 8), stage_repeats=(0,)),
    NetworkSpec(64, 1, (3, 6), (12, 24, 48, 96), (2, 0, 1, 3), 7, 4),
], ids=["default", "tiny", "two_stage", "no_blocks", "four_stages"])
def test_the_dimensions_bound_the_graph_without_compiling_it(spec):
    """`conv_count` and the widths `NetworkSpec` checks agree with the compiled graph."""
    convs = conv_steps(spec)
    assert spec.conv_count == len(convs)
    widest = max(spec.input_channels, spec.stem_channels[0], spec.stage_channels[-1])
    assert max(step.in_channels for step in convs) == widest


def test_key_conv_shapes_are_frozen():
    shapes = {s.name: (s.spatial, s.in_channels, s.out_channels, s.pool, s.shift, s.shuffle_with)
              for s in conv_steps(build_diracdeltanet())}
    assert shapes["conv1"] == (224, 3, 32, True, True, None)
    assert shapes["conv2"] == (112, 32, 64, True, True, None)
    assert shapes["s2d_skip_conv"] == (28, 64, 64, False, False, None)
    assert shapes["s2d_res_conv1"] == (56, 64, 128, True, True, None)
    assert shapes["s2d_res_conv2"] == (28, 128, 64, False, False, "s2d_skip")
    assert shapes["s2b0_res_conv1"] == (28, 64, 128, False, True, None)
    assert shapes["s2b2_res_conv2"] == (28, 128, 64, False, False, "s2b2_skip")
    assert shapes["s3d_res_conv1"] == (28, 128, 256, True, True, None)
    assert shapes["s3b6_res_conv2"] == (14, 256, 128, False, False, "s3b6_skip")
    assert shapes["s4d_skip_conv"] == (7, 256, 256, False, False, None)
    assert shapes["s4b2_res_conv1"] == (7, 256, 512, False, True, None)
    assert shapes["conv5"] == (7, 512, 1024, False, False, None)


def test_every_buffer_is_defined_before_use():
    for spec in (build_diracdeltanet(), make_tiny_spec(), make_two_stage_spec()):
        defined = {"input"}
        names = set()
        for step in compile_steps(spec):
            if isinstance(step, ConvStep):
                assert step.src in defined
                if step.shuffle_with:
                    assert step.shuffle_with in defined
                defined.add(step.dst)
            elif isinstance(step, (PoolStep, ShiftStep)):
                assert step.src in defined
                defined.add(step.dst)
            elif isinstance(step, SplitStep):
                assert step.src in defined
                defined.update((step.dst_skip, step.dst_residual))
            else:
                assert step.src in defined
            if not isinstance(step, HeadStep):
                assert step.name not in names
                names.add(step.name)


def test_conv_step_properties():
    s = ConvStep("x", "a", "b", 56, 64, 128, pool=True)
    assert s.out_spatial == 28
    assert s.params == 64 * 128
    assert s.macs == 56 * 56 * 64 * 128
    assert ConvStep("y", "a", "b", 7, 512, 1024).out_spatial == 7


# =========================================================================
# parameter and MAC accounting
# =========================================================================

def test_exact_stem_counts():
    report = count_params_macs(build_diracdeltanet())
    assert report.stem_params == 2144
    assert report.stem_macs == 30_507_008


def test_total_counts():
    report = count_params_macs(build_diracdeltanet())
    assert report.total_params == 3_274_848
    assert report.total_macs == 330_178_560
    # advertised budget: about 3.3M parameters and 330M MACs
    assert abs(report.total_params - 3.3e6) / 3.3e6 < 0.02
    assert abs(report.total_macs - 330e6) / 330e6 < 0.02


# VGG16's published counts (Simonyan and Zisserman, 2014)
VGG16_PARAMS = 138_357_544
VGG16_MACS = 15.47e9


def test_the_abstracts_ratios_to_vgg16():
    report = count_params_macs(build_diracdeltanet())
    rows = {l.name: l for l in report.layers}
    # "42x fewer parameters" is reproduced
    assert f"{VGG16_PARAMS / report.total_params:.1f}" == "42.2"
    # "48x fewer OPs" is not: 46.9x as counted, 47.7x without conv1 and fc
    assert f"{VGG16_MACS / report.total_macs:.1f}" == "46.9"
    convs_inside = report.total_macs - rows["conv1"].macs - rows["fc"].macs
    assert f"{VGG16_MACS / convs_inside:.1f}" == "47.7"


def test_count_report_layer_rows():
    report = count_params_macs(build_diracdeltanet())
    rows = {l.name: l for l in report.layers}
    assert rows["conv1"].params == 96
    assert rows["conv1"].macs == 224 * 224 * 96
    assert rows["fc"].params == 1024 * 1000
    assert report.layers[0].name == "conv1"
    assert report.layers[-1].name == "fc"
    assert report.total_params == sum(l.params for l in report.layers)
    assert report.total_macs == sum(l.macs for l in report.layers)


# =========================================================================
# bundle validation
# =========================================================================

def _copy_bundle(b):
    return ModelBundle(
        spec=b.spec, net=b.net, weights=dict(b.weights),
        layer_params=dict(b.layer_params), fc_weights=b.fc_weights, fc_scale=b.fc_scale,
    )


def test_bundle_validate_passes_and_names_offenders(tiny_bundle):
    tiny_bundle.validate()

    b = _copy_bundle(tiny_bundle)
    del b.weights["conv2"]
    with pytest.raises(GraphError, match="layer conv2: weights missing"):
        b.validate()

    b = _copy_bundle(tiny_bundle)
    b.weights["conv1"] = b.weights["conv2"]
    with pytest.raises(GraphError, match="layer conv1: weight shape"):
        b.validate()

    b = _copy_bundle(tiny_bundle)
    del b.layer_params["conv5"]
    with pytest.raises(GraphError, match="layer conv5: quantization params missing"):
        b.validate()

    b = _copy_bundle(tiny_bundle)
    b.weights["not_a_layer"] = tiny_bundle.weights["conv1"]
    with pytest.raises(GraphError, match=r"unknown layers: \['not_a_layer'\]"):
        b.validate()

    b = _copy_bundle(tiny_bundle)
    b.fc_scale = 0.0
    with pytest.raises(GraphError, match="fc_scale must be positive"):
        b.validate()


def test_bundle_builds_its_tables_and_names_a_layer_that_cannot_have_one(tiny_bundle):
    b = _copy_bundle(tiny_bundle)
    assert b.tables == tiny_bundle.tables
    assert set(b.tables) == set(b.layer_params)
    with pytest.raises(TypeError):
        ModelBundle(spec=b.spec, net=b.net, weights=b.weights, tables=b.tables,
                    layer_params=b.layer_params, fc_weights=b.fc_weights,
                    fc_scale=b.fc_scale)
    params = dict(b.layer_params)
    params["s2d_skip_conv"] = LayerQuantParams(alpha=1e9, weight_scale=1 / 15)
    with pytest.raises(ConstructionError, match="layer s2d_skip_conv: top code unreachable"):
        ModelBundle(spec=b.spec, net=b.net, weights=b.weights, layer_params=params,
                    fc_weights=b.fc_weights, fc_scale=b.fc_scale)


def test_bundle_validate_checks_fc_shape(tiny_bundle):
    b = _copy_bundle(tiny_bundle)
    b.fc_weights = tiny_bundle.weights["conv5"]
    with pytest.raises(GraphError, match="layer fc: weight shape"):
        b.validate()


# =========================================================================
# quantized forward
# =========================================================================

def _hand_wired_tiny_forward(bundle, fm):
    """The tiny network written out longhand, without compile_steps."""
    def conv(name, fm_in, pool=False, shifted=False, skip=None):
        return composed_subgraph(fm_in, bundle.weights[name], bundle.tables[name],
                                 pool, shifted, skip)

    x = conv("conv1", fm.to_array(), pool=True, shifted=True)
    x = conv("conv2", x, pool=True, shifted=True)
    pooled_skip = maxpool2x2(x)
    shifted_skip = shift(pooled_skip)
    skip = conv("s2d_skip_conv", shifted_skip)
    r = conv("s2d_res_conv1", x, pool=True, shifted=True)
    x = conv("s2d_res_conv2", r, skip=skip)
    first, second = channel_split(x)
    r = conv("s2b0_res_conv1", second, shifted=True)
    x = conv("s2b0_res_conv2", r, skip=first)
    x = conv("conv5", x)
    spec = bundle.spec
    head = spec.input_size // (4 * 2 ** len(spec.stage_channels))
    codes = documented_head_codes(x, bundle.net, head)
    ints = fc_bit_serial(codes, bundle.fc_weights)
    return ints * bundle.fc_scale, ints


def test_forward_matches_hand_wired_oracle(tiny_bundle):
    fm = random_input(tiny_bundle.spec, seed=123)
    got = forward(tiny_bundle, fm)
    want_logits, want_ints = _hand_wired_tiny_forward(tiny_bundle, fm)
    np.testing.assert_array_equal(got.int_logits, want_ints)
    np.testing.assert_array_equal(got.logits, want_logits)
    assert got.class_index == int(np.argmax(want_logits))


def test_forward_is_deterministic(tiny_bundle):
    fm = random_input(tiny_bundle.spec, seed=5)
    a = forward(tiny_bundle, fm)
    b = forward(tiny_bundle, fm)
    np.testing.assert_array_equal(a.logits, b.logits)
    assert a.class_index == b.class_index


def test_forward_shape_guards(tiny_bundle):
    wrong_size = FeatureMap.from_array(np.zeros((8, 8, 3), dtype=np.uint8))
    with pytest.raises(ShapeError, match="network expects 16x16"):
        forward(tiny_bundle, wrong_size)
    wrong_chan = FeatureMap.from_array(np.zeros((16, 16, 4), dtype=np.uint8))
    with pytest.raises(ShapeError, match="network expects 3"):
        forward(tiny_bundle, wrong_chan)


def test_argmax_ties_resolve_to_lowest_index(tiny_spec, quant_params):
    from diracdelta.tensor import WeightMatrix

    bundle = random_bundle(tiny_spec, quant_params, seed=2)
    b = _copy_bundle(bundle)
    b.fc_weights = WeightMatrix(
        tiny_spec.num_classes,
        tiny_spec.conv5_channels,
        np.full((tiny_spec.num_classes, tiny_spec.conv5_channels), 9, dtype=np.uint8),
    )
    out = forward(b, random_input(tiny_spec, seed=3))
    assert np.all(out.logits == out.logits[0])
    assert out.class_index == 0


def test_the_class_is_the_argmax_of_the_integer_logits(tiny_bundle):
    # every positive logit overflows to inf, the first of them at class 2;
    # validate refuses such a bundle, forward still names the integer argmax
    b = _copy_bundle(tiny_bundle)
    b.fc_scale = 1e308
    with np.errstate(over="ignore"):
        out = forward(b, random_input(b.spec, seed=0))
    assert int(np.argmax(out.logits)) == 2
    assert out.class_index == int(np.argmax(out.int_logits)) == 6


@pytest.fixture(scope="module")
def default_bundle():
    return random_bundle(build_diracdeltanet(), NetworkQuantParams(s=1.0), seed=7)


def _assert_forward_equals_composition(bundle, fm):
    got = forward(bundle, fm)
    want = composed_forward(bundle, fm)
    assert got.int_logits.tobytes() == want.tobytes()
    assert got.logits.tobytes() == (want * bundle.fc_scale).tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_forward_equals_operator_composition_at_224(default_bundle, seed):
    _assert_forward_equals_composition(default_bundle, random_input(default_bundle.spec, seed))


@pytest.mark.parametrize("make_spec", [make_tiny_spec, make_two_stage_spec])
def test_forward_equals_operator_composition_on_small_specs(make_spec):
    spec = make_spec()
    for s in (1.0, 0.1, 0.37):
        bundle = random_bundle(spec, NetworkQuantParams(s=s), seed=31)
        for seed in range(4):
            _assert_forward_equals_composition(bundle, random_input(spec, seed))


@pytest.mark.parametrize("code", [0, 15])
def test_engines_agree_on_the_default_net_at_the_code_extremes(default_bundle, code):
    spec = default_bundle.spec
    fm = FeatureMap.from_array(
        np.full((spec.input_size, spec.input_size, spec.input_channels), code, dtype=np.uint8))
    ref = forward(default_bundle, fm)
    sim = forward(default_bundle, fm, executor=SimulatorExecutor())
    assert ref.int_logits.tobytes() == sim.int_logits.tobytes()
    assert ref.logits.tobytes() == sim.logits.tobytes()


def test_pooled_reference_step_pools_within_even_row_blocks():
    # 2**18 // (64 * 1100) = 3 rows would split a pooling pair across blocks
    rng = np.random.default_rng(5)
    weights = WeightMatrix(1100, 2, rng.integers(0, 16, size=(1100, 2), dtype=np.uint8))
    table = ThresholdTable(tuple(range(-200, 250, 30)))
    bundle = SimpleNamespace(tables={"c": table}, weights={"c": weights}, code_books={})
    x = rng.integers(0, 16, size=(10, 64, 2), dtype=np.uint8)
    got = ReferenceExecutor().conv_subgraph(x, ConvStep("c", "in", "out", 64, 2, 1100, pool=True),
                                            bundle, None)
    want = maxpool2x2(searchsorted_apply(table, conv1x1_int64(x, weights)))
    assert got.dtype == np.uint8 and np.array_equal(got, want)


def test_pooled_reference_step_checks_the_bound_before_the_pool():
    # Effective weights are all -15, so the one all-15 pixel accumulates
    # -15 * 15 * 600 = -135000, past the 115200 bound. Its 2x2 window's max is
    # 0: a check after the pool would never see it.
    weights = WeightMatrix(4, 600, np.zeros((4, 600), dtype=np.uint8))
    bundle = SimpleNamespace(tables={"c": ThresholdTable(tuple(range(1, 16)))},
                             weights={"c": weights}, code_books={})
    step = ConvStep("c", "in", "out", 2, 600, 4, pool=True)
    x = np.zeros((2, 2, 600), dtype=np.uint8)
    assert ReferenceExecutor().conv_subgraph(x, step, bundle, None).tolist() == [[[0] * 4]]
    x[1, 0] = 15
    with pytest.raises(ValidationError, match="accumulator magnitude 135000 exceeds bound 115200"):
        ReferenceExecutor().conv_subgraph(x, step, bundle, None)


@pytest.mark.parametrize("pool", [False, True], ids=["no_pool", "pool"])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_code_book_step_gives_every_pixel_the_codes_of_the_lookup(c, pool):
    # every one of the 16**c pixels, in a shuffled map, through the gather path
    rng = np.random.default_rng(c)
    pixels = np.indices((16,) * c, dtype=np.uint8).reshape(c, -1).T
    x = rng.permutation(pixels).reshape(2, -1, c)
    weights = WeightMatrix(7, c, rng.integers(0, 16, size=(7, c), dtype=np.uint8))
    table = ThresholdTable(tuple(sorted(rng.choice(np.arange(-200, 200), 15, replace=False))))
    bundle = SimpleNamespace(tables={"c": table}, weights={"c": weights}, code_books={})
    step = ConvStep("c", "in", "out", x.shape[1], c, 7, pool=pool)
    want = table.apply(conv1x1(x, weights))
    got = ReferenceExecutor().conv_subgraph(x, step, bundle, None)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, maxpool2x2(want) if pool else want)
    assert bundle.code_books["c"].shape == (16**c, 7)


def test_code_book_is_built_once_on_first_use_and_is_not_part_of_the_bundle(quant_params):
    spec = make_tiny_spec()
    bundle = random_bundle(spec, quant_params, seed=11)
    twin = random_bundle(spec, quant_params, seed=11)
    twin.weights = bundle.weights
    twin.fc_weights = bundle.fc_weights
    assert bundle.code_books == {}
    fm = random_input(spec, seed=1)
    forward(bundle, fm)
    book = bundle.code_books["conv1"]
    assert list(bundle.code_books) == ["conv1"] and not book.flags.writeable
    forward(bundle, fm)
    assert bundle.code_books["conv1"] is book
    assert bundle == twin and repr(bundle) == repr(twin) and "code_books" not in repr(bundle)


@pytest.mark.parametrize("input_channels", [1, 2, 3, 4])
def test_forward_on_narrow_and_wide_inputs_equals_composition_and_simulator(
        quant_params, input_channels):
    # up to 3 input channels conv1 gathers from its code book; at 4 it is a GEMM
    spec = make_tiny_spec(input_channels=input_channels)
    bundle = random_bundle(spec, quant_params, seed=17)
    for seed in range(3):
        fm = random_input(spec, seed)
        _assert_forward_equals_composition(bundle, fm)
        sim = forward(bundle, fm, executor=SimulatorExecutor())
        assert sim.int_logits.tobytes() == forward(bundle, fm).int_logits.tobytes()
    assert list(bundle.code_books) == (["conv1"] if input_channels <= 3 else [])


def test_forward_on_two_stage_network_runs(quant_params):
    spec = make_two_stage_spec()
    bundle = random_bundle(spec, quant_params, seed=4)
    out = forward(bundle, random_input(spec, seed=6))
    assert out.logits.shape == (spec.num_classes,)
    assert 0 <= out.class_index < spec.num_classes
