"""Acceptance gate: one test per shipped criterion, most with independent oracles.

Run with `pytest -v tests/test_acceptance.py`; the verbose line for each test
is the pass/fail record for that criterion. Each test also prints a [PASS]
summary visible under `-s`.
"""
import numpy as np

from conftest import make_tiny_spec, make_two_stage_spec, random_input, threshold_table

from diracdelta import cli
from diracdelta.accel.perf import (
    CostModelParams,
    batch_sweep,
    block_breakdown,
    roofline,
)
from diracdelta.accel.subgraph import SimulatorExecutor, run_subgraph
from diracdelta.bundle import random_bundle
from diracdelta.net import (
    ReferenceExecutor,
    build_diracdeltanet,
    conv_steps,
    count_params_macs,
    forward,
)
from diracdelta.ops import (
    concat_shuffle,
    conv1x1,
    maxpool2x2,
    shift,
)
from diracdelta.quant import (
    LayerQuantParams,
    NetworkQuantParams,
    accumulator_scale,
    build_threshold_table,
    pact_clip,
    quantize_activation,
    quantize_uniform,
    quantize_weights,
)
from diracdelta.tensor import ACC_LIMIT, WeightMatrix, check_accumulators

from oracles import (
    composed_subgraph,
    conversion_linear,
    conversion_unit,
    dequantize_weight_codes,
    pool_oracle,
    shift_oracle,
)

NET = NetworkQuantParams(s=1.0)


# -------------------------------------------------------------------------
# criterion 1: structure counts
# -------------------------------------------------------------------------

def test_criterion_01_structure_counts():
    report = count_params_macs(build_diracdeltanet())
    assert report.stem_params == 2144
    assert abs(report.stem_macs - 30_500_000) <= 100_000
    assert report.stem_macs == 30_507_008
    assert abs(report.total_params - 3_300_000) <= 0.02 * 3_300_000
    assert abs(report.total_macs - 330_000_000) <= 0.02 * 330_000_000
    assert report.total_params == 3_274_848
    assert report.total_macs == 330_178_560
    print("[PASS] criterion 1: stem 2144 params / 30507008 macs, "
          "totals within 2% of 3.3M / 330M")


# -------------------------------------------------------------------------
# criterion 2: roofline arithmetic
# -------------------------------------------------------------------------

def test_criterion_02_roofline_arithmetic():
    r = roofline(CostModelParams(), oc_total=512)
    assert r.compute_roof_macs == 256e9
    assert r.compute_roof_ops == 512e9
    assert r.memory_roof_macs == 6144e9
    assert r.memory_roof_ops == 12288e9
    assert r.attainable_macs == 256e9 and r.bound == "compute"
    print("[PASS] criterion 2: compute roof 256 GMAC/s (512 GOP/s), "
          "memory roof 6144 GMAC/s (12288 GOP/s) at 512 output channels")


# -------------------------------------------------------------------------
# criterion 3: accumulator bound
# -------------------------------------------------------------------------

def test_criterion_03_accumulator_bound():
    # all-max synthetic layer at the widest supported input
    fm = np.full((4, 4, 512), 15, dtype=np.uint8)
    wm = WeightMatrix(32, 512, np.full((32, 512), 15, dtype=np.uint8))
    acc = conv1x1(fm, wm)
    assert int(np.max(np.abs(acc))) == ACC_LIMIT == 115200
    check_accumulators(acc)

    rng = np.random.default_rng(2026)
    result = run_subgraph(fm, wm, threshold_table(rng))
    assert result.stats.max_abs_acc == 115200

    # the bound holds across random layers
    for _ in range(1000):
        ic = int(rng.integers(1, 513))
        oc = int(rng.integers(1, 9))
        x = rng.integers(0, 16, size=(2, 2, ic), dtype=np.uint8)
        w = WeightMatrix(oc, ic, rng.integers(0, 16, size=(oc, ic), dtype=np.uint8))
        a = conv1x1(x, w)
        check_accumulators(a)
        assert int(np.max(np.abs(a))) <= 115200
    print("[PASS] criterion 3: worst case |accumulator| = 115200 exactly, "
          "never exceeded over 1000 random layers")


# -------------------------------------------------------------------------
# criterion 4: bit-exact engine equivalence
# -------------------------------------------------------------------------

def test_criterion_04_subgraphs_match_reference_ops():
    spec = build_diracdeltanet()
    shapes = sorted({
        (s.spatial, s.in_channels, s.out_channels, s.pool, s.shift,
         s.shuffle_with is not None)
        for s in conv_steps(spec)
    })
    runs = 0
    for seed in range(7):
        rng = np.random.default_rng(100 + seed)
        for spatial, ic, oc, pool, shifted, shuffled in shapes:
            fm = rng.integers(0, 16, size=(spatial, spatial, ic), dtype=np.uint8)
            wm = WeightMatrix(
                oc, ic, rng.integers(0, 16, size=(oc, ic), dtype=np.uint8))
            table = threshold_table(rng)
            out_sp = spatial // 2 if pool else spatial
            skip = None
            if shuffled:
                skip = rng.integers(0, 16, size=(out_sp, out_sp, oc), dtype=np.uint8)
            got = run_subgraph(fm, wm, table, pool=pool, shift=shifted,
                               shuffle_with=skip)
            want = composed_subgraph(fm, wm, table, pool, shifted, skip)
            assert got.output.dtype == want.dtype == np.uint8
            assert np.array_equal(got.output, want)
            runs += 1
    assert runs >= 100

    bundle = random_bundle(spec, NET, seed=20)
    sim = SimulatorExecutor()
    for seed in range(20):
        fm = random_input(spec, seed=300 + seed)
        ref_out = forward(bundle, fm, executor=ReferenceExecutor())
        sim_out = forward(bundle, fm, executor=sim)
        assert np.array_equal(ref_out.int_logits, sim_out.int_logits)
        assert ref_out.logits.tobytes() == sim_out.logits.tobytes()
        assert ref_out.class_index == sim_out.class_index
    print(f"[PASS] criterion 4: {runs} subgraph runs byte-equal to reference ops; "
          "20 end-to-end inputs give identical logits on both engines")


# -------------------------------------------------------------------------
# criterion 5: exhaustive conversion-unit check
# -------------------------------------------------------------------------

def test_criterion_05_exhaustive_conversion_sweep():
    p = LayerQuantParams(alpha=1.0, weight_scale=1 / 15)
    table = build_threshold_table(p, NET)
    accs = np.arange(-115200, 115201, dtype=np.int64)
    f = accumulator_scale(p, NET)
    want = quantize_activation(accs * f, p).astype(np.uint8)
    np.testing.assert_array_equal(table.apply(accs), want)
    tree = conversion_unit(accs, table)
    linear = np.array([conversion_linear(int(a), table.thresholds) for a in accs], dtype=np.uint8)
    np.testing.assert_array_equal(tree, want)
    np.testing.assert_array_equal(linear, want)
    print("[PASS] criterion 5: lookup equals the float formula for all "
          "230401 integer accumulators; tree and linear comparators agree")


# -------------------------------------------------------------------------
# criterion 6: quantizer properties
# -------------------------------------------------------------------------

def test_criterion_06_quantizer_properties():
    rng = np.random.default_rng(6)
    xs = np.sort(rng.uniform(0.0, 1.0, size=100_000))
    qs = quantize_uniform(xs)
    assert np.all(np.diff(qs) >= 0)

    pts = rng.uniform(-3.0, 3.0, size=100_000)
    alpha = 0.83
    np.testing.assert_array_equal(pact_clip(pts, alpha), np.clip(pts, 0.0, alpha))

    w = rng.normal(size=10_000)
    t = np.tanh(w)
    codes, _ = quantize_weights(w)
    deq = dequantize_weight_codes(codes)
    assert np.max(np.abs(deq - t / np.max(np.abs(t)))) <= 1 / 15 + 1e-12
    print("[PASS] criterion 6: quantizer monotone over 1e5 points, clip matches "
          "np.clip over 1e5 points, dequantized weights within half a level")


# -------------------------------------------------------------------------
# criterion 7: shuffle, shift, and pool against brute-force oracles
# -------------------------------------------------------------------------

def test_criterion_07_shuffle_shift_pool_oracles():
    rng = np.random.default_rng(7)

    for _ in range(40):
        c = int(rng.integers(1, 9)) * 4
        half = c // 2
        sp = int(rng.integers(1, 5))
        labels = np.broadcast_to(np.arange(c, dtype=np.uint8) % 16,
                                 (sp, sp, c)).copy()
        skip = labels[:, :, :half]
        res = labels[:, :, half:]
        out = concat_shuffle(skip, res)
        np.testing.assert_array_equal(out, np.roll(labels, -(c // 4), axis=2))
        # a quarter of each branch crosses over
        merged_src = np.roll(np.arange(c), -(c // 4))
        assert int(np.sum(merged_src[:half] >= half)) == c // 4
        assert int(np.sum(merged_src[half:] < half)) == c // 4
        # four quarter rotations come back around
        m = out
        for _ in range(3):
            m = concat_shuffle(m[:, :, :half], m[:, :, half:])
        np.testing.assert_array_equal(m, labels)

    for _ in range(1000):
        c = int(rng.integers(1, 7))
        arr = rng.integers(0, 16, size=(4, 4, c), dtype=np.uint8)
        np.testing.assert_array_equal(maxpool2x2(arr), pool_oracle(arr))
        np.testing.assert_array_equal(shift(arr), shift_oracle(arr))
    print("[PASS] criterion 7: shuffle is a quarter rotation exchanging C/4 "
          "channels per branch; shift and pool match nested-loop oracles on "
          "1000 random maps")


# -------------------------------------------------------------------------
# criterion 8: cost-model structure
# -------------------------------------------------------------------------

def test_criterion_08_cost_model_structure():
    spec = build_diracdeltanet()
    params = CostModelParams()
    points = batch_sweep(spec, params, (1, 2, 4, 8, 16))
    fps = [p.fps for p in points]
    assert all(b >= a for a, b in zip(fps, fps[1:]))
    gains = [b - a for a, b in zip(fps, fps[1:])]
    assert all(later < earlier for earlier, later in zip(gains, gains[1:]))

    early = block_breakdown(params, 28, 128)
    late = block_breakdown(params, 7, 512)
    early_overhead = early.with_shuffle_s - early.conv_s
    late_overhead = late.with_shuffle_s - late.conv_s
    assert early_overhead > late_overhead
    assert early.conv_s <= 2 * late.conv_s and late.conv_s <= 2 * early.conv_s
    print("[PASS] criterion 8: frame rate monotone and saturating over batches "
          "1..16; shuffle overhead larger at 28x28 c128 than 7x7 c512 with "
          "conv times within 2x")


# -------------------------------------------------------------------------
# criterion 9: determinism under scheduling
# -------------------------------------------------------------------------

def test_criterion_09_scheduler_determinism():
    variants = [
        make_tiny_spec(),
        make_tiny_spec(input_size=24),
        make_tiny_spec(input_size=32),
        make_tiny_spec(stage_repeats=(2,)),
        make_tiny_spec(stage_repeats=(3,)),
        make_tiny_spec(conv5_channels=64),
        make_tiny_spec(stem_channels=(8, 16), stage_channels=(32,),
                       conv5_channels=64),
        make_two_stage_spec(),
        make_tiny_spec(input_size=24, stage_repeats=(2,)),
        make_tiny_spec(num_classes=7),
    ]
    for i, spec in enumerate(variants):
        bundle = random_bundle(spec, NET, seed=900 + i)
        fm = random_input(spec, seed=40 + i)
        single = forward(bundle, fm, executor=SimulatorExecutor(scheduler="single-thread"))
        shuffled = forward(bundle, fm, executor=SimulatorExecutor(scheduler="concurrent"))
        assert single.logits.tobytes() == shuffled.logits.tobytes()
        assert single.class_index == shuffled.class_index
    print("[PASS] criterion 9: both schedulers byte-identical on 10 random "
          "networks with default fifo capacities, no deadlocks")


# -------------------------------------------------------------------------
# criterion 10: accuracy figures are out of scope
# -------------------------------------------------------------------------

def test_criterion_10_no_accuracy_surface():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    assert set(sub.choices) == {
        "build", "quantize", "infer", "simulate", "report", "validate"
    }
    banned = ("train", "accuracy", "dataset", "imagenet")
    for name in dir(cli):
        assert not any(tok in name.lower() for tok in banned)
    print("[PASS] criterion 10: no training or accuracy surface exists; "
          "classification quality is out of scope by design")
