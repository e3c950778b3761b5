"""Golden digests: the engines' output bytes and simulator statistics, and
the cost model's report, pinned.

One sha256 covers the reference logits (integer and scaled) and every
`SubgraphStats` field of every simulator step, in the fixed field order
below, over a fixed set of networks, quantization scales and frames. A
refactor that claims the same bytes must leave the value unchanged; a change
that alters bytes or statistics on purpose says so and pins the new value.
The simulator's logits must equal the reference's, so they are compared
rather than hashed twice. A second sha256 covers the text and JSON of the
cost model's report for three fixed (network, params, batches) cases. A
third covers the saved bundle directory of two fixed seeded bundles: each
file's name and bytes, in sorted name order, so the manifest layout and the
blob framing are pinned across changes, not only between two saves of one
run.
"""
import hashlib

import numpy as np

from conftest import make_three_stage_spec, make_tiny_spec, make_two_stage_spec, random_input

from diracdelta.accel.perf import CostModelParams, build_report
from diracdelta.accel.subgraph import SimulatorExecutor
from diracdelta.bundle import random_bundle, save_bundle
from diracdelta.net import build_diracdeltanet, forward
from diracdelta.quant import NetworkQuantParams
from diracdelta.tensor import FeatureMap

STATS_FIELDS = (
    "dram_read_bytes",
    "dram_write_bytes",
    "weight_bytes",
    "memcpy_bytes",
    "max_abs_acc",
    "pool_occupancy",
    "shift_occupancy",
    "fifo_depths",
)

GOLDEN_SHA256 = "0bc9048882f33e39aa10b19f75109624849d8260868445cceb8b4a4f3c52b4cb"
REPORT_SHA256 = "29575e027dc6f217c047bb76ae5cc2b87609cdd21be84e80ebb8c6451d38cd2d"
BUNDLE_SHA256 = "da2be6a229061b50a4538873bec9d9f13129999b865cb7bd1db8fe7c9c87a70a"


def _frames(spec):
    full = np.full((spec.input_size, spec.input_size, spec.input_channels), 15, np.uint8)
    return [random_input(spec, 1), random_input(spec, 2), FeatureMap.from_array(full)]


def _cases():
    yield build_diracdeltanet(), 1.0
    for make_spec in (make_tiny_spec, make_two_stage_spec, make_three_stage_spec):
        for s in (1.0, 0.1, 0.37):
            yield make_spec(), s


def _stats_record(stats) -> tuple:
    values = [getattr(stats, name) for name in STATS_FIELDS]
    values[-1] = tuple(sorted(values[-1].items()))
    return tuple(values)


def test_engines_reproduce_the_golden_digest():
    digest = hashlib.sha256()
    for spec, s in _cases():
        bundle = random_bundle(spec, NetworkQuantParams(s=s), seed=7)
        for fm in _frames(spec):
            ref = forward(bundle, fm)
            sim_ex = SimulatorExecutor()
            sim = forward(bundle, fm, sim_ex)
            np.testing.assert_array_equal(sim.int_logits, ref.int_logits)
            digest.update(ref.int_logits.astype("<i8").tobytes())
            digest.update(np.asarray(ref.logits, dtype="<f8").tobytes())
            for name, stats in sim_ex.log:
                digest.update(repr((name, _stats_record(stats))).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def test_cost_model_report_reproduces_the_golden_digest():
    odd = CostModelParams(ic_parallel=7, oc_parallel=13, cycles_per_ic_iter=11,
                          memcpy_overlap=0.5)
    cases = [
        build_report(build_diracdeltanet(), CostModelParams()),
        build_report(build_diracdeltanet(), odd, batches=(1, 3, 32)),
        build_report(make_tiny_spec(), CostModelParams()),
    ]
    digest = hashlib.sha256()
    for report in cases:
        digest.update(report.to_text().encode())
        digest.update(report.to_json().encode())
    assert digest.hexdigest() == REPORT_SHA256


def test_saved_bundles_reproduce_the_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for i, spec in enumerate((build_diracdeltanet(), make_three_stage_spec())):
        bundle = random_bundle(spec, NetworkQuantParams(s=1.0), seed=7)
        root = save_bundle(bundle, tmp_path / f"bundle{i}")
        for p in sorted(root.iterdir()):
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
    assert digest.hexdigest() == BUNDLE_SHA256
