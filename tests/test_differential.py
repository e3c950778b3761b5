"""Differential test over drawn networks and tile schedules.

Hypothesis draws a small valid `NetworkSpec` (16-64 px, one to three stages,
zero to two repeats per stage, an odd or even first stem width, one to five
input channels, so the reference engine's first conv runs both as a code-book
gather and as a GEMM), a quantization scale s, a bundle seed (which draws every
layer's clip bound), random weight codes or every weight code 0 (all -15
weights, the most negative accumulators) or 15, and one `CostModelParams`
with tiles of 1-64 channels, which both the simulator and the cost model get.
On a random frame and an all-15 frame, the reference and simulator logits
must be byte-equal, and every simulator step must move exactly the bytes the
cost model charges that step. The two sides share the byte formulas of
`accel/perf.py`, so the activation read and write, the weights and the
shuffle copy are also checked against closed forms of their own. Odd tiles
and odd widths are where a channel padding mistake would show.
"""
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdelta.accel.perf import CostModelParams, step_cost
from diracdelta.accel.subgraph import SimulatorExecutor
from diracdelta.bundle import random_bundle
from diracdelta.net import ConvStep, NetworkSpec, PoolStep, ShiftStep, compile_steps, forward
from diracdelta.quant import NetworkQuantParams
from diracdelta.tensor import FeatureMap, WeightMatrix, blocked_channel_count


@st.composite
def specs(draw):
    stages = draw(st.integers(1, 3))
    divisor = 4 * 2**stages
    size = draw(st.sampled_from(range(divisor * -(-16 // divisor), 65, divisor)))
    stem = (draw(st.integers(1, 15)), 2 * draw(st.integers(1, 6)))
    return NetworkSpec(
        input_size=size,
        input_channels=draw(st.integers(1, 5)),
        stem_channels=stem,
        stage_channels=tuple(stem[1] * 2 ** (i + 1) for i in range(stages)),
        stage_repeats=tuple(draw(st.integers(0, 2)) for _ in range(stages)),
        conv5_channels=draw(st.integers(1, 48)),
        num_classes=draw(st.integers(1, 12)),
    )


tile_params = st.builds(CostModelParams, ic_parallel=st.integers(1, 64),
                        oc_parallel=st.integers(1, 64))


def _filled(w: WeightMatrix, code: int) -> WeightMatrix:
    return WeightMatrix(w.out_channels, w.in_channels, np.full_like(w.codes, code))


def _log_name(step):
    return step.name if isinstance(step, ConvStep) else (
        "pool" if isinstance(step, PoolStep) else "shift")


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(spec=specs(), s=st.floats(0.05, 4.0), seed=st.integers(0, 2**16),
       weight_code=st.one_of(st.none(), st.sampled_from([0, 15])), params=tile_params)
def test_engines_agree_and_traffic_matches_the_cost_model(spec, s, seed, weight_code,
                                                          params):
    bundle = random_bundle(spec, NetworkQuantParams(s=s), seed=seed)
    if weight_code is not None:
        bundle = dataclasses.replace(
            bundle, weights={k: _filled(w, weight_code) for k, w in bundle.weights.items()},
            fc_weights=_filled(bundle.fc_weights, weight_code))
    shape = (spec.input_size, spec.input_size, spec.input_channels)
    rng = np.random.default_rng(seed)
    frames = [rng.integers(0, 16, size=shape, dtype=np.uint8), np.full(shape, 15, np.uint8)]
    steps = [step for step in compile_steps(spec)
             if isinstance(step, (ConvStep, PoolStep, ShiftStep))]
    for frame in frames:
        fm = FeatureMap.from_array(frame)
        sim = SimulatorExecutor(params)
        got, want = forward(bundle, fm, sim), forward(bundle, fm)
        assert got.int_logits.tobytes() == want.int_logits.tobytes()
        assert got.logits.tobytes() == want.logits.tobytes()
        assert [name for name, _ in sim.log] == [_log_name(step) for step in steps]
        for step, (_name, stats) in zip(steps, sim.log):
            cost = step_cost(step, params)
            conv = isinstance(step, ConvStep)
            channels = step.in_channels if conv else step.channels
            read = stats.dram_read_bytes - stats.weight_bytes
            assert read == (step.spatial ** 2
                            * blocked_channel_count(channels, params.ic_parallel) // 2)
            shuffled = conv and step.shuffle_with
            assert stats.memcpy_bytes == (
                step.out_spatial ** 2 * step.out_channels // 2 if shuffled else 0), step.name
            # a shuffle stores the skip half beside the residual one
            stored = (2 if shuffled else 1) * step.out_channels if conv else step.channels
            pooled = isinstance(step, PoolStep)
            side = step.out_spatial if conv else step.spatial // 2 if pooled else step.spatial
            assert stats.dram_write_bytes == (
                side ** 2 * blocked_channel_count(stored, params.ic_parallel) // 2), step.name
            assert stats.weight_bytes == (
                blocked_channel_count(step.in_channels, params.ic_parallel)
                * blocked_channel_count(step.out_channels, params.oc_parallel) // 2
                if conv else 0), step.name
            assert (read + stats.dram_write_bytes, stats.weight_bytes, stats.memcpy_bytes) == (
                cost.act_bytes, cost.weight_bytes, cost.memcpy_bytes), step.name
