"""Cost model: rooflines, per-step cycle counts, shuffle copy bytes, batch amortization,
ablations."""
import json

import numpy as np
import pytest

from conftest import make_three_stage_spec, make_tiny_spec, make_two_stage_spec, random_input

from diracdelta.accel.perf import (
    CYCLES_PER_IC_ITER_RANGE,
    CostModelParams,
    batch_point,
    batch_sweep,
    block_breakdown,
    build_report,
    conv_cycles,
    copy_bytes,
    frame_cost,
    layer_roofline,
    load_cost_config,
    roofline,
    step_cost,
)
from diracdelta.accel.subgraph import SimulatorExecutor
from diracdelta.bundle import random_bundle
from diracdelta.errors import ConfigurationError
from diracdelta.net import (
    ConvStep,
    HeadStep,
    PoolStep,
    ShiftStep,
    build_diracdeltanet,
    compile_steps,
    conv_steps,
    forward,
)
from diracdelta.ops import concat_shuffle
from diracdelta.quant import NetworkQuantParams
from diracdelta.tensor import blocked_channel_count

# =========================================================================
# roofline arithmetic
# =========================================================================

def test_compute_roof_is_exact():
    r = roofline(CostModelParams())
    assert r.compute_roof_macs == 32 * 32 * 250e6 == 256e9
    assert r.compute_roof_ops == 512e9


def test_memory_roof_with_all_channels_resident():
    r = roofline(CostModelParams(), oc_total=512)
    assert r.memory_roof_macs == 6e9 * 512 * 2 == 6144e9
    assert r.memory_roof_ops == 12288e9
    assert r.attainable_macs == 256e9
    assert r.bound == "compute"


def test_narrow_output_is_memory_bound():
    r = roofline(CostModelParams(), oc_total=16)
    assert r.memory_roof_macs == 192e9
    assert r.attainable_macs == 192e9
    assert r.bound == "memory"


def test_roofline_crossover_channel_count():
    """The roofs meet where oc_total * 2 * bandwidth equals the MAC array rate."""
    p = CostModelParams()
    cross = p.compute_roof_macs_per_s / (2 * p.dram_bandwidth)
    assert cross == pytest.approx(256 / 12)
    assert roofline(p, oc_total=21).bound == "memory"
    assert roofline(p, oc_total=22).bound == "compute"


# =========================================================================
# per-step cycle counts and costs
# =========================================================================

def test_conv_cycles_closed_form():
    step = ConvStep("x", "a", "b", 7, 512, 512)
    assert conv_cycles(step, CostModelParams(cycles_per_ic_iter=7)) == 87808
    assert 87808 == 7 * 7 * 16 * 16 * 7


def test_conv_cycles_use_the_output_raster():
    pooled = ConvStep("x", "a", "b", 224, 3, 32, pool=True)
    assert conv_cycles(pooled, CostModelParams()) == 112 * 112 * 1 * 1 * 8
    plain = ConvStep("y", "a", "b", 224, 3, 32)
    assert conv_cycles(plain, CostModelParams()) == 4 * conv_cycles(pooled, CostModelParams())


def test_conv_cycles_round_channel_tiles_up():
    step = ConvStep("x", "a", "b", 4, 33, 65)
    assert conv_cycles(step, CostModelParams()) == 4 * 4 * 2 * 3 * 8


def test_conv_step_cost_components():
    p = CostModelParams()
    step = ConvStep("x", "a", "b", 28, 64, 128)
    c = step_cost(step, p)
    assert c.kind == "conv"
    assert c.cycles == 28 * 28 * 2 * 4 * 8
    assert c.compute_s == c.cycles / 250e6
    assert c.act_bytes == 28 * 28 * 64 // 2 + 28 * 28 * 128 // 2
    assert c.weight_bytes == 64 * 128 // 2
    assert c.step_s == max(c.compute_s, c.dram_s) == c.compute_s


def test_shuffled_conv_counts_copy_and_doubled_output():
    p = CostModelParams()
    step = ConvStep("x", "a", "b", 28, 128, 64, shuffle_with="skip")
    c = step_cost(step, p)
    assert c.memcpy_bytes == 28 * 28 * 64 // 2 == 25088
    assert c.act_bytes == 28 * 28 * 128 // 2 + 28 * 28 * blocked_channel_count(128) // 2


def test_pool_and_shift_steps_cost_only_traffic():
    p = CostModelParams()
    pool = step_cost(PoolStep("p", "a", "b", 56, 64), p)
    assert pool.cycles == 0 and pool.compute_s == 0.0
    assert pool.act_bytes == 56 * 56 * 64 // 2 + 28 * 28 * 64 // 2
    assert pool.step_s == pool.dram_s
    shift = step_cost(ShiftStep("s", "a", "b", 28, 64), p)
    assert shift.act_bytes == 2 * (28 * 28 * 64 // 2)


def test_step_cost_rejects_unknown_steps():
    with pytest.raises(ConfigurationError, match="no cost model"):
        step_cost(HeadStep("f", 1024, 1000, 7), CostModelParams())


@pytest.mark.parametrize("make_spec,tile", [
    (make_tiny_spec, 32), (make_tiny_spec, 16),
    (make_two_stage_spec, 32), (make_two_stage_spec, 16),
    (build_diracdeltanet, 32),
])
def test_simulated_traffic_equals_the_cost_model_on_every_step(make_spec, tile):
    spec = make_spec()
    bundle = random_bundle(spec, NetworkQuantParams(s=1.0), seed=13)
    params = CostModelParams(ic_parallel=tile, oc_parallel=tile)
    sim = SimulatorExecutor(params)
    forward(bundle, random_input(spec, seed=14), executor=sim)
    steps = [s for s in compile_steps(spec) if isinstance(s, (ConvStep, PoolStep, ShiftStep))]
    assert [name for name, _ in sim.log] == [
        s.name if isinstance(s, ConvStep) else ("pool" if isinstance(s, PoolStep) else "shift")
        for s in steps
    ]
    for step, (_name, stats) in zip(steps, sim.log):
        cost = step_cost(step, params)
        channels = step.in_channels if isinstance(step, ConvStep) else step.channels
        read = stats.dram_read_bytes - stats.weight_bytes
        assert read == step.spatial ** 2 * blocked_channel_count(channels, tile) // 2, step.name
        assert (read + stats.dram_write_bytes, stats.weight_bytes, stats.memcpy_bytes) == (
            cost.act_bytes, cost.weight_bytes, cost.memcpy_bytes), step.name


# =========================================================================
# frame cost and batch amortization
# =========================================================================

def test_frame_cost_of_the_default_network():
    spec = build_diracdeltanet()
    fc = frame_cost(spec, CostModelParams())
    assert fc.calls == 44  # 38 convs + 3 skip pools + 3 skip shifts
    assert sum(c.memcpy_bytes for c in fc.steps) == 225792
    want_weights = sum(
        blocked_channel_count(s.in_channels, 32)
        * blocked_channel_count(s.out_channels, 32) // 2
        for s in conv_steps(spec)
    )
    assert fc.weight_bytes == want_weights == 1125888
    assert fc.frame_s == pytest.approx(fc.engine_s + fc.memcpy_s + fc.host_s)


def test_batch_sweep_matches_frozen_throughput_curve():
    spec = build_diracdeltanet()
    points = batch_sweep(spec, CostModelParams(), (1, 2, 4, 8, 16))
    fps = [p.fps for p in points]
    assert fps[0] == pytest.approx(35.117, abs=0.01)
    assert fps[-1] == pytest.approx(84.744, abs=0.01)
    assert fps[-1] / fps[0] == pytest.approx(2.413, abs=0.01)


def test_batch_sweep_is_monotone_and_saturating():
    spec = build_diracdeltanet()
    points = batch_sweep(spec, CostModelParams(), (1, 2, 4, 8, 16, 32))
    fps = [p.fps for p in points]
    assert all(b > a for a, b in zip(fps, fps[1:]))
    gains = [b / a for a, b in zip(fps, fps[1:])]
    assert all(later < earlier for earlier, later in zip(gains, gains[1:]))
    # the curve approaches 1 / frame_s from below
    limit = 1.0 / frame_cost(spec, CostModelParams()).frame_s
    assert fps[-1] < limit
    assert fps[-1] > 0.9 * limit


def test_per_call_overhead_and_weights_amortize():
    spec = build_diracdeltanet()
    p = batch_point(spec, CostModelParams(), 4)
    assert p.overhead_s == pytest.approx(44 * 0.4e-3)
    assert p.weight_s == pytest.approx(1125888 / 6e9)
    assert p.total_s == pytest.approx(p.overhead_s + p.weight_s + 4 * (p.engine_s + p.memcpy_s + p.host_s))


def test_batch_must_be_positive():
    with pytest.raises(ConfigurationError, match="batch must be >= 1"):
        batch_point(build_diracdeltanet(), CostModelParams(), 0)


# =========================================================================
# per-layer roofline
# =========================================================================

def test_default_network_layers_are_all_compute_bound():
    rows = layer_roofline(build_diracdeltanet(), CostModelParams())
    assert len(rows) == 38
    assert all(r.bound == "compute" for r in rows)
    assert all(r.attainable_macs == 256e9 for r in rows)


def test_narrow_layers_go_memory_bound():
    rows = layer_roofline(make_tiny_spec(), CostModelParams())
    by_name = {r.name: r for r in rows}
    assert by_name["conv1"].oc_total == 4
    assert by_name["conv1"].bound == "memory"
    assert by_name["conv1"].attainable_macs == 6e9 * 4 * 2


def test_attainable_never_exceeds_either_roof():
    p = CostModelParams()
    for r in layer_roofline(build_diracdeltanet(), p):
        assert r.attainable_macs <= p.compute_roof_macs_per_s
        assert r.attainable_macs <= p.memory_roof_macs_per_s(r.oc_total)
        assert r.macs > 0 and r.cycles > 0


# =========================================================================
# block ablation
# =========================================================================

def test_shuffle_cost_is_the_host_copy():
    p = CostModelParams()
    a = block_breakdown(p, 28, 128)
    assert a.memcpy_bytes == 25088
    assert a.with_shuffle_s - a.conv_s == pytest.approx(25088 / 9.0e7)


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


def test_early_and_late_blocks_compare_as_expected():
    """Equal MAC work, but the early block moves four times the shuffle bytes."""
    p = CostModelParams()
    early = block_breakdown(p, 28, 128)
    late = block_breakdown(p, 7, 512)
    assert early.memcpy_bytes == 4 * late.memcpy_bytes == 25088
    assert early.conv_s <= 2 * late.conv_s
    assert late.conv_s <= 2 * early.conv_s
    assert early.with_shuffle_s > late.with_shuffle_s


def test_the_report_ablates_one_block_per_stage_with_basic_blocks():
    def rows(spec):
        return [(a.spatial, a.channels) for a in build_report(spec, CostModelParams()).ablations]
    assert rows(build_diracdeltanet()) == [(28, 128), (14, 256), (7, 512)]
    # the 32-px spec's middle stage has a downsample block only
    assert rows(make_three_stage_spec()) == [(4, 20), (1, 80)]


def test_full_overlap_hides_the_copy():
    a = block_breakdown(CostModelParams(memcpy_overlap=1.0), 28, 128)
    assert a.with_shuffle_s == a.conv_s
    spec = build_diracdeltanet()
    assert frame_cost(spec, CostModelParams(memcpy_overlap=1.0)).memcpy_s == 0.0


# =========================================================================
# parameter validation and config files
# =========================================================================

def test_params_validation():
    lo, hi = CYCLES_PER_IC_ITER_RANGE
    CostModelParams(cycles_per_ic_iter=lo)
    CostModelParams(cycles_per_ic_iter=hi)
    with pytest.raises(ConfigurationError, match=r"outside \[7, 38\]"):
        CostModelParams(cycles_per_ic_iter=lo - 1)
    with pytest.raises(ConfigurationError, match=r"outside \[7, 38\]"):
        CostModelParams(cycles_per_ic_iter=hi + 1)
    with pytest.raises(ConfigurationError, match="dram_bandwidth must be positive"):
        CostModelParams(dram_bandwidth=0)
    with pytest.raises(ConfigurationError, match=r"within \[0, 1\]"):
        CostModelParams(memcpy_overlap=1.5)
    with pytest.raises(ConfigurationError, match="non-negative"):
        CostModelParams(invocation_overhead_s=-1e-3)
    with pytest.raises(ConfigurationError, match="parallelism"):
        CostModelParams(ic_parallel=0)


def test_load_cost_config(tmp_path):
    cfg = tmp_path / "cost.cfg"
    cfg.write_text(
        "# board B\n"
        "cycles_per_ic_iter = 7\n"
        "\n"
        "dram_bandwidth = 12e9   # dual channel\n"
        "memcpy_overlap=0.5\n"
    )
    p = load_cost_config(cfg)
    assert p.cycles_per_ic_iter == 7
    assert isinstance(p.cycles_per_ic_iter, int)
    assert p.dram_bandwidth == 12e9
    assert p.memcpy_overlap == 0.5
    assert p.clock_hz == 250e6  # untouched default


def test_load_cost_config_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigurationError, match="1: unknown cost parameter 'warp_speed'"):
        load_cost_config(bad_key)

    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("# fine\njust words\n")
    with pytest.raises(ConfigurationError, match="2: expected key = value"):
        load_cost_config(bad_line)

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text("clock_hz = fast\n")
    with pytest.raises(ConfigurationError, match="bad value for clock_hz: 'fast'"):
        load_cost_config(bad_value)

    out_of_range = tmp_path / "d.cfg"
    out_of_range.write_text("cycles_per_ic_iter = 99\n")
    with pytest.raises(ConfigurationError, match=r"outside \[7, 38\]"):
        load_cost_config(out_of_range)


# =========================================================================
# report assembly
# =========================================================================

def test_report_json_round_trips():
    report = build_report(build_diracdeltanet(), CostModelParams())
    data = json.loads(report.to_json())
    assert set(data) == {"ablations", "batches", "layers", "params", "roofline"}
    assert data["roofline"]["compute_roof_macs"] == 256e9
    assert len(data["layers"]) == 38
    assert [b["batch"] for b in data["batches"]] == [1, 2, 4, 8, 16, 32]
    assert report.to_json() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_report_text_contains_the_headline_numbers():
    text = build_report(build_diracdeltanet(), CostModelParams()).to_text()
    assert "256.0 GMAC/s (512.0 GOP/s)" in text
    assert "6144.0 GMAC/s (12288.0 GOP/s)" in text
    assert "compute-bound" in text
    assert "conv1" in text and "conv5" in text
    assert "batch sweep:" in text
    assert "block ablation" in text
    assert "28x28 c128" in text and "14x14 c256" in text and "7x7 c512" in text
