"""Workload inputs, set-up, the closed timed loop and the output checks.

Everything a run feeds the program is derived here from the run's seed: the
networks' random weights and the input frames. The program only ever sees
the resulting bundles and `FeatureMap`s.
"""
from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from diracdelta.accel.perf import CostModelParams, build_report, frame_cost, step_cost
from diracdelta.accel.subgraph import SimulatorExecutor
from diracdelta.bundle import load_bundle, random_bundle, save_bundle
from diracdelta.net import (
    ConvStep,
    NetworkSpec,
    PoolStep,
    ReferenceExecutor,
    ShiftStep,
    build_diracdeltanet,
    compile_steps,
    count_params_macs,
    forward,
)
from diracdelta.quant import NetworkQuantParams
from diracdelta.tensor import FeatureMap, blocked_channel_count

REF, SIM = "ref", "sim"
ENGINES = (REF, SIM)
SETUPS = 5

# Small valid networks for `small_nets`: 16-64 px inputs, one to three
# stages, odd and even head sizes, no width a multiple of 32.
SMALL_SPECS = (
    NetworkSpec(16, 3, (6, 10), (20,), (1,), 24, 10),                  # head 2
    NetworkSpec(24, 3, (8, 12), (24,), (2,), 40, 7),                   # head 3
    NetworkSpec(32, 3, (4, 6), (12, 24), (1, 1), 36, 12),              # head 2
    NetworkSpec(48, 3, (10, 14), (28, 56), (0, 2), 60, 9),             # head 3
    NetworkSpec(32, 3, (6, 10), (20, 40, 80), (1, 0, 1), 50, 11),      # head 1
    NetworkSpec(64, 3, (12, 18), (36, 72, 144), (1, 1, 1), 100, 13),   # head 2
    NetworkSpec(56, 3, (6, 10), (20,), (2,), 44, 5),                   # head 7
)


@dataclass(frozen=True)
class Workload:
    name: str
    engines: tuple       # engines each timed frame runs, in order
    specs: tuple
    frames_per_spec: int
    check_frames: int    # frames per spec both engines must agree on


WORKLOADS = {
    "ref_224": Workload("ref_224", (REF,), (build_diracdeltanet(),), 16, 2),
    "sim_224": Workload("sim_224", (SIM,), (build_diracdeltanet(),), 16, 2),
    "small_nets": Workload("small_nets", (REF, SIM), SMALL_SPECS, 4, 4),
}


@dataclass
class Case:
    """One network with its bundle and its input frames."""

    spec: NetworkSpec
    bundle: object
    frames: list
    cost_steps: list = None   # (step, SubgraphCost) per engine invocation, built lazily


# =========================================================================
# engines
# =========================================================================

class TracedExecutor:
    """The `executor` argument of `forward`, with a span around each call."""

    def __init__(self, inner, tracer):
        self.conv_subgraph = tracer.wrap("executor.conv_subgraph", inner.conv_subgraph)
        self.pool_pass = tracer.wrap("executor.pool_pass", inner.pool_pass)
        self.shift_pass = tracer.wrap("executor.shift_pass", inner.shift_pass)


def run_engine(engine, case, fm, tracer=None, scheduler="single-thread"):
    """One frame through one engine; returns (ForwardResult, simulator log or None)."""
    sim = SimulatorExecutor(scheduler=scheduler) if engine == SIM else None
    if tracer is None:
        if sim is None:
            return forward(case.bundle, fm), None
        return forward(case.bundle, fm, executor=sim), sim.log
    inner = sim if sim is not None else ReferenceExecutor()
    traced_forward = tracer.wrap("net.forward", forward)
    result = traced_forward(case.bundle, fm, executor=TracedExecutor(inner, tracer))
    return result, (sim.log if sim is not None else None)


# =========================================================================
# set-up
# =========================================================================

def _timed(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.wrap(name, fn)(*args)


def make_cases(workload, seed, scratch, tracer=None) -> list:
    """Build, save and reload every bundle and generate every input frame."""
    cases = []
    for j, spec in enumerate(workload.specs):
        bundle = _timed(tracer, "bundle.random", random_bundle,
                        spec, NetworkQuantParams(s=1.0), seed * 100 + j)
        path = scratch / f"bundle{j}"
        _timed(tracer, "bundle.save", save_bundle, bundle, path)
        bundle = _timed(tracer, "bundle.load", load_bundle, path)
        shutil.rmtree(path)
        rng = np.random.default_rng([seed, j])
        shape = (spec.input_size, spec.input_size, spec.input_channels)
        frames = [FeatureMap.from_array(rng.integers(0, 16, size=shape, dtype=np.uint8))
                  for _ in range(workload.frames_per_spec)]
        cases.append(Case(spec, bundle, frames))
    return cases


def set_up(workload, seed, scratch, tracer=None):
    """One set-up; returns (cases, seconds).

    A set-up is everything before the first timed frame: bundles with their
    threshold tables, save + load as the CLI would, input generation, and
    one warm-up frame per engine the workload times.
    """
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        cases = make_cases(workload, seed, scratch, tracer)
        for engine in workload.engines:
            run_engine(engine, cases[0], cases[0].frames[0], tracer)
        return cases, perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()


def input_digest(cases) -> str:
    """sha256 over every bundle's weights and tables and every input frame."""
    h = hashlib.sha256()
    for case in cases:
        h.update(repr(case.spec).encode())
        b = case.bundle
        for name in sorted(b.weights):
            h.update(name.encode())
            h.update(b.weights[name].packed())
            h.update(repr(b.tables[name].thresholds).encode())
        h.update(b.fc_weights.packed())
        for fm in case.frames:
            h.update(fm.packed)
    return h.hexdigest()


# =========================================================================
# checks
# =========================================================================

def traffic_agreement(case, log):
    """Steps whose simulated read, write, weight and copy bytes equal `step_cost`.

    Returns (agreeing steps, engine steps).
    """
    if case.cost_steps is None:
        params = CostModelParams()
        case.cost_steps = [(s, step_cost(s, params)) for s in compile_steps(case.spec)
                           if isinstance(s, (ConvStep, PoolStep, ShiftStep))]
    agree = 0
    for (step, cost), (_name, stats) in zip(case.cost_steps, log):
        channels = step.in_channels if isinstance(step, ConvStep) else step.channels
        read = blocked_channel_count(channels) * step.spatial * step.spatial // 2
        act_read = stats.dram_read_bytes - stats.weight_bytes
        if (act_read == read
                and act_read + stats.dram_write_bytes == cost.act_bytes
                and stats.weight_bytes == cost.weight_bytes
                and stats.memcpy_bytes == cost.memcpy_bytes):
            agree += 1
    return agree, max(len(case.cost_steps), len(log))


@dataclass
class Outputs:
    """First output of every (case, frame) per engine, for the checks.

    With `strict_traffic`, a simulator step whose bytes disagree with the
    cost model fails the frame; otherwise the agreement is only counted.
    """

    strict_traffic: bool
    logits: dict = field(default_factory=dict)   # (j, k, engine) -> logits bytes
    logs: dict = field(default_factory=dict)     # (j, k) -> simulator log
    bad: set = field(default_factory=set)        # (j, k) whose checks failed
    errors: list = field(default_factory=list)

    def record(self, case, key, engine, result, log) -> bool:
        """Check one engine output against earlier ones; False on a failed check."""
        j, k = key
        data = result.logits.tobytes()
        first = self.logits.setdefault((j, k, engine), data)
        ok = True
        if first != data:
            self.errors.append(f"case {j} frame {k}: {engine} logits changed between runs")
            ok = False
        other = self.logits.get((j, k, REF if engine == SIM else SIM))
        if other is not None and other != data:
            self.errors.append(f"case {j} frame {k}: reference and simulator logits differ")
            ok = False
        if log is not None and key not in self.logs:
            self.logs[key] = log
            agree, steps = traffic_agreement(case, log)
            if self.strict_traffic and agree != steps:
                self.errors.append(
                    f"case {j} frame {k}: {steps - agree} of {steps} simulator steps "
                    "disagree with accel.perf.step_cost")
                ok = False
        if not ok:
            self.bad.add(key)
        return ok


# =========================================================================
# the timed loop
# =========================================================================

@dataclass
class Frame:
    key: tuple
    seconds: dict        # engine -> host seconds; empty if an engine raised
    traced: bool
    ok: bool


def timed_loop(workload, cases, seconds, outputs, tracer=None, set_up_again=None) -> list:
    """Closed loop, one client: a frame starts when the previous one is done.

    Only the engine calls are timed; checks run between frames. The loop
    ends on a whole rotation through the networks. With a tracer, every
    second rotation is traced, so traced and untraced frames interleave over
    the same inputs and per-frame work counts repeat exactly.

    `set_up_again`, if given, runs `SETUPS - 1` times between frames at even
    intervals over the run. The host's speed drifts over tens of seconds, so
    set-ups made only at the start would sample one moment while the frames
    sample the whole run.
    """
    rotation = len(cases)
    frames = []
    start = perf_counter()
    deadline = start + seconds
    pending = ([start + seconds * n / SETUPS for n in range(1, SETUPS)]
               if set_up_again is not None else [])
    i = 0
    while i % rotation or i == 0 or perf_counter() < deadline:
        if pending and perf_counter() >= pending[0]:
            pending.pop(0)
            set_up_again()
        key = (i % rotation, (i // rotation) % workload.frames_per_spec)
        case = cases[key[0]]
        fm = case.frames[key[1]]
        traced = tracer is not None and (i // rotation) % 2 == 1
        i += 1
        spent, ok = {}, True
        if traced:
            tracer.install()
        try:
            results = []
            for engine in workload.engines:
                t0 = perf_counter()
                result, log = run_engine(engine, case, fm, tracer if traced else None)
                spent[engine] = perf_counter() - t0
                results.append((engine, result, log))
        except Exception as e:  # noqa: BLE001 - a failing frame is counted, not fatal
            outputs.errors.append(f"case {key[0]} frame {key[1]}: {type(e).__name__}: {e}")
            ok = False
            spent, results = {}, []
        finally:
            if traced:
                tracer.uninstall()
        for engine, result, log in results:
            ok = outputs.record(case, key, engine, result, log) and ok
        frames.append(Frame(key, spent, traced, ok))
    for _ in pending:
        set_up_again()
    return frames


def check_samples(workload, cases, outputs, tracer=None) -> int:
    """Run each engine the loop skipped on the check frames and compare.

    Returns the number of frames run here per engine.
    """
    ran = dict.fromkeys(ENGINES, 0)
    if tracer is not None:
        tracer.install()
    try:
        for j, case in enumerate(cases):
            for k in range(workload.check_frames):
                for engine in ENGINES:
                    if (j, k, engine) in outputs.logits:
                        continue
                    try:
                        result, log = run_engine(engine, case, case.frames[k], tracer)
                    except Exception as e:  # noqa: BLE001 - reported as a failed check
                        outputs.errors.append(f"case {j} frame {k}: {type(e).__name__}: {e}")
                        outputs.bad.add((j, k))
                        continue
                    ran[engine] += 1
                    outputs.record(case, (j, k), engine, result, log)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ran


def concurrent_frames(cases, outputs) -> list:
    """Host seconds of frame 0 of each case under the `concurrent` scheduler."""
    seconds = []
    for j, case in enumerate(cases):
        t0 = perf_counter()
        result, _log = run_engine(SIM, case, case.frames[0], scheduler="concurrent")
        seconds.append(perf_counter() - t0)
        if result.logits.tobytes() != outputs.logits.get((j, 0, SIM)):
            outputs.errors.append(f"case {j} frame 0: concurrent scheduler logits differ")
            outputs.bad.add((j, 0))
    return seconds


# =========================================================================
# statistics
# =========================================================================

def timing_summary(values) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"n": 0, "fps": math.nan, "p50": math.nan, "tail": math.nan, "tail_pct": math.nan}
    idx = max(0, n - 11)
    return {
        "n": n,
        "fps": n / sum(xs),
        "p50": float(np.median(xs)),
        "tail": xs[idx],
        "tail_pct": 100.0 * (idx + 1) / n,
    }


def model_quantities(cases):
    """Cost-model figures summed over one frame of each case (board, not host, time).

    Returns (figures, {pooled conv: (cost-model iterations, MAC-count
    iterations)}, build_report seconds per case).
    """
    params = CostModelParams()
    out = {"perf.frame_cycles": 0, "perf.model_frame_s": 0.0}
    batch_s = {1: 0.0, 16: 0.0}
    iters = {}
    report_s = []
    for case in cases:
        t0 = perf_counter()
        report = build_report(case.spec, params)
        report_s.append(perf_counter() - t0)
        out["perf.frame_cycles"] += sum(layer.cycles for layer in report.layers)
        out["perf.model_frame_s"] += frame_cost(case.spec, params).frame_s
        for point in report.batches:
            if point.batch in batch_s:
                batch_s[point.batch] += point.total_s
        macs = {layer.name: layer for layer in count_params_macs(case.spec).layers}
        cycles = {layer.name: layer.cycles for layer in report.layers}
        for step in compile_steps(case.spec):
            if not (isinstance(step, ConvStep) and step.pool):
                continue
            tiles = (math.ceil(step.in_channels / params.ic_parallel)
                     * math.ceil(step.out_channels / params.oc_parallel))
            count = macs[step.name]
            pixels = count.macs // count.params   # count_params_macs counts the pre-pool raster
            model, from_macs = iters.get(step.name, (0, 0))
            iters[step.name] = (model + cycles[step.name] // params.cycles_per_ic_iter,
                                from_macs + pixels * tiles)
    n = len(cases)
    out["perf.model_fps_b1"] = n / batch_s[1]
    out["perf.model_fps_b16"] = 16 * n / batch_s[16]
    return out, iters, report_s


# =========================================================================
# per-layer metrics
# =========================================================================

def per_frame(totals, name, frames, column=1):
    """Column of a span's totals (0 inclusive s, 1 self s, 2 calls, 3 work) per frame."""
    entry = totals.get(name)
    return entry[column] / max(frames, 1) if entry else 0.0


def sim_counts(cases, outputs) -> dict:
    counts = dict.fromkeys(
        ("sim.dram_read_bytes", "sim.dram_write_bytes", "sim.weight_bytes", "sim.memcpy_bytes",
         "sim.peak_acc", "sim.max_pool_occupancy", "sim.max_shift_occupancy",
         "sim.max_fifo_depth"), 0)
    agree = steps = 0
    for j, case in enumerate(cases):
        log = outputs.logs.get((j, 0), [])
        for _name, st in log:
            counts["sim.dram_read_bytes"] += st.dram_read_bytes
            counts["sim.dram_write_bytes"] += st.dram_write_bytes
            counts["sim.weight_bytes"] += st.weight_bytes
            counts["sim.memcpy_bytes"] += st.memcpy_bytes
            counts["sim.peak_acc"] += st.max_abs_acc
            counts["sim.max_pool_occupancy"] += st.pool_occupancy
            counts["sim.max_shift_occupancy"] += st.shift_occupancy
            counts["sim.max_fifo_depth"] += max(st.fifo_depths.values(), default=0)
        a, n = traffic_agreement(case, log)
        agree += a
        steps += n
    counts["perf.traffic_agree_steps"] = agree
    counts["perf.steps"] = steps
    return counts


def layer_metrics(workload, setup_totals, loop_totals, check_totals, n_traced, n_check):
    """Per-layer seconds and counts; see the module docstring for their meaning."""
    def owned(engine):
        if engine in workload.engines:
            return loop_totals, n_traced
        return check_totals, n_check[engine]

    ref_t, ref_n = owned(REF)
    sim_t, sim_n = owned(SIM)
    loop = loop_totals
    return {
        "net.forward_self_s": per_frame(loop, "net.forward", n_traced),
        "net.compile_steps_s": per_frame(loop, "net.compile_steps", n_traced),
        "executor.conv_subgraph_s": per_frame(loop, "executor.conv_subgraph", n_traced, 0),
        "executor.pool_pass_s": per_frame(loop, "executor.pool_pass", n_traced, 0),
        "executor.shift_pass_s": per_frame(loop, "executor.shift_pass", n_traced, 0),
        "executor.self_s": sum(per_frame(loop, f"executor.{name}", n_traced)
                               for name in ("conv_subgraph", "pool_pass", "shift_pass")),
        "ops.conv1x1_s": per_frame(ref_t, "ops.conv1x1", ref_n),
        "ops.conv1x1_macs": per_frame(ref_t, "ops.conv1x1", ref_n, 3),
        "ops.pool_s": per_frame(ref_t, "ops.pool", ref_n),
        "ops.shift_s": per_frame(ref_t, "ops.shift", ref_n),
        "ops.concat_shuffle_s": per_frame(ref_t, "ops.concat_shuffle", ref_n),
        "ops.channel_split_s": per_frame(loop, "ops.channel_split", n_traced),
        "ops.head_s": per_frame(loop, "ops.head", n_traced),
        "quant.apply_s": per_frame(loop, "quant.apply", n_traced),
        "quant.apply_elems": per_frame(loop, "quant.apply", n_traced, 3),
        "quant.table_build_s": per_frame(setup_totals, "quant.table_build", 1),
        "tensor.from_array_s": per_frame(loop, "tensor.from_array", n_traced),
        "tensor.to_array_s": per_frame(loop, "tensor.to_array", n_traced),
        "tensor.packed_bytes": per_frame(loop, "tensor.from_array", n_traced, 3),
        "bundle.random_s": per_frame(setup_totals, "bundle.random", 1),
        "bundle.save_s": per_frame(setup_totals, "bundle.save", 1),
        "bundle.load_s": per_frame(setup_totals, "bundle.load", 1),
        "subgraph.run_s": (per_frame(sim_t, "subgraph.run", sim_n)
                           + per_frame(sim_t, "subgraph.stage", sim_n)),
        "subgraph.conv_stage_s": per_frame(sim_t, "subgraph.conv_stage", sim_n),
        "subgraph.calls": sum(per_frame(sim_t, f"subgraph.{name}", sim_n, 2)
                              for name in ("run", "pool_pass", "shift_pass")),
        "subgraph.pool_pass_s": per_frame(sim_t, "subgraph.pool_pass", sim_n),
        "subgraph.shift_pass_s": per_frame(sim_t, "subgraph.shift_pass", sim_n),
        "units.pool_lane_s": per_frame(sim_t, "units.pool_lane", sim_n),
        "units.shift_lane_s": per_frame(sim_t, "units.shift_lane", sim_n),
        "units.shuffle_writeback_s": per_frame(sim_t, "units.shuffle_writeback", sim_n),
        "fifo.run_s": per_frame(sim_t, "fifo.run", sim_n),
        "fifo.transfers": per_frame(sim_t, "fifo.channel", sim_n, 3),
    }
